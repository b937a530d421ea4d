"""Binary checkpoint round trips, integrity hashing, digest binding, and atomic writes."""

import hashlib
import os

import numpy as np
import pytest

from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT, CalibrationConfig, SoftPromptToken
from promptcal.checkpoint import load_calibrator, load_model, save_calibrator, save_model
from promptcal.corpus import generate_corpus, save_corpus
from promptcal.errors import CheckpointError, CheckpointMismatchError

MODEL_SECTIONS = ("version", "vocabulary", "config", "frozen_flag", "params", "seal")
CALIBRATOR_SECTIONS = ("version", "model_digest", "token", "config", "dim", "soft", "seal")


def model_layout(lm) -> dict[str, int]:
    """Byte length of each section of a version-2 model file, in file order."""
    vocabulary = 4 + sum(2 + len(w.encode("utf-8")) for w in lm.vocab.words)
    params = 4 + sum(2 + len(name.encode("utf-8")) + 2 + 4 * p.data.ndim + 8 * p.data.size
                     for name, p in lm.params.items())
    return dict(zip(MODEL_SECTIONS, (1, vocabulary, 48, 1, params, 32)))


def calibrator_layout(token_text: str, dim: int) -> dict[str, int]:
    """Byte length of each section of a version-2 calibrator file, in file order."""
    token = 2 + len(token_text.encode("utf-8"))
    return dict(zip(CALIBRATOR_SECTIONS, (1, 32, token, 34, 4, 8 * dim, 32)))


def damaged(raw: bytes, layout: dict[str, int], section: str, how: str) -> bytes:
    """raw with one byte inside section flipped, or cut at the section's start."""
    assert sum(layout.values()) == len(raw), "layout does not describe this file"
    names = list(layout)
    start = sum(layout[name] for name in names[:names.index(section)])
    if how == "truncate":
        return raw[:start]
    out = bytearray(raw)
    out[start + layout[section] // 2] ^= 0xFF
    return bytes(out)


def reseal(raw: bytes) -> bytes:
    """Recompute the trailing sha256, as a deliberate edit would."""
    return raw[:-32] + hashlib.sha256(raw[:-32]).digest()


def set_distance_code(path, token_text, code):
    """Overwrite the distance byte (after the version, model digest and token string) and reseal."""
    raw = bytearray(path.read_bytes())
    raw[1 + 32 + 2 + len(token_text.encode("utf-8"))] = code
    path.write_bytes(reseal(bytes(raw)))


class TestModelCheckpoint:
    def test_round_trip_preserves_digest(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        loaded = load_model(path)
        assert loaded.frozen
        assert loaded.weight_digest() == tiny_lm.weight_digest()
        assert loaded.vocab.words == tiny_lm.vocab.words
        assert loaded.cfg == tiny_lm.cfg

    def test_version_byte_first(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        assert path.read_bytes()[0] == 2

    def test_save_twice_identical_bytes(self, tiny_lm, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(tiny_lm, a)
        save_model(tiny_lm, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corruption_detected(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_truncation_detected(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_unknown_version_rejected(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        raw = bytearray(path.read_bytes())
        raw[0] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_model(path)

    def test_resealed_non_utf8_word_rejected(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        raw = bytearray(path.read_bytes())
        raw[1 + 4 + 2] = 0xFF  # first byte of the first word
        path.write_bytes(reseal(bytes(raw)))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_model(path)


class TestCalibratorCheckpoint:
    @pytest.fixture
    def calibrator(self, tiny_lm):
        tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, tiny_lm.vocab)
        return tiny_lm.encode(tok.ids).pooled.data, tok

    def test_round_trip(self, tiny_lm, calibrator, tmp_path):
        soft, tok = calibrator
        config = CalibrationConfig(distance="cross_entropy", seed=13)
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, config, tiny_lm.weight_digest(), path)
        loaded_soft, loaded_tok, loaded_cfg = load_calibrator(path, tiny_lm)
        assert loaded_soft.dtype == np.float64 and loaded_soft.shape == soft.shape
        assert not loaded_soft.flags.writeable
        assert loaded_soft.tobytes() == soft.tobytes()
        assert loaded_tok.text == tok.text
        assert loaded_cfg == config

    def test_file_holds_only_the_vector_and_its_provenance(self, tiny_lm, calibrator, tmp_path):
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        assert path.stat().st_size == sum(calibrator_layout(tok.text, len(soft)).values())

    def test_digest_binding_enforced(self, tiny_lm, calibrator, tmp_path):
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, CalibrationConfig(), "00" * 32, path)
        with pytest.raises(CheckpointMismatchError):
            load_calibrator(path, tiny_lm)

    def test_edited_model_fails_binding(self, tiny_lm, calibrator, tmp_path):
        soft, tok = calibrator
        model_path = tmp_path / "model.bin"
        calib_path = tmp_path / "calib.bin"
        save_model(tiny_lm, model_path)
        save_calibrator(soft, tok, CalibrationConfig(), tiny_lm.weight_digest(), calib_path)
        loaded = load_model(model_path)
        load_calibrator(calib_path, loaded)  # matches: no error
        loaded.params["enc.embed"].data[0, 0] += 1.0
        with pytest.raises(CheckpointMismatchError):
            load_calibrator(calib_path, loaded)

    def test_unknown_distance_code_rejected(self, tiny_lm, calibrator, tmp_path):
        # a resealed file passes the hash, so a bad code must be caught on its own
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        set_distance_code(path, tok.text, 9)
        with pytest.raises(CheckpointError, match="unknown distance or policy code"):
            load_calibrator(path, tiny_lm)

    def test_vector_of_another_width_rejected(self, tiny_lm, calibrator, tmp_path):
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft[:8], tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        with pytest.raises(CheckpointError, match="8-vector for a 16-dim model"):
            load_calibrator(path, tiny_lm)


class TestAtomicWrite:
    def test_saves_leave_only_their_targets(self, tiny_lm, tmp_path):
        tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, tiny_lm.vocab)
        save_model(tiny_lm, tmp_path / "model.bin")
        save_calibrator(tiny_lm.encode(tok.ids).pooled.data, tok, CalibrationConfig(),
                        tiny_lm.weight_digest(), tmp_path / "calib.bin")
        save_corpus(generate_corpus(3, seed=1), tmp_path / "corpus.jsonl")
        save_model(tiny_lm, tmp_path / "model.bin")  # overwrite in place
        assert sorted(os.listdir(tmp_path)) == ["calib.bin", "corpus.jsonl", "model.bin"]

    def test_failed_write_keeps_old_file_and_no_temp(self, tiny_lm, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_model(tiny_lm, path)
        assert os.listdir(tmp_path) == ["model.bin"]
        assert path.read_bytes() == b"old"
