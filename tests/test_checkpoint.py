"""Binary checkpoint round trips, integrity hashing, digest binding, and atomic writes."""

import hashlib
import io
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT, DISTANCES, CalibrationConfig, SoftPromptToken
from promptcal.checkpoint import load_calibrator, load_model, save_calibrator, save_model, write_model_body
from promptcal.corpus import generate_corpus, save_corpus
from promptcal.errors import CheckpointError, CheckpointMismatchError, ContractError
from promptcal.model import EncoderDecoderLM
from promptcal.vocab import Vocabulary
from tests.test_model import assert_weights_read_only, one_bit_edited

MODEL_SECTIONS = ("version", "vocabulary", "config", "params", "seal")
CALIBRATOR_SECTIONS = ("version", "model_digest", "token", "config", "dim", "soft", "seal")


def model_layout(lm) -> dict[str, int]:
    """Byte length of each section of a version-4 model file, in file order."""
    vocabulary = 4 + sum(2 + len(w.encode("utf-8")) for w in lm.vocab.words)
    params = sum(8 * p.data.size for p in lm.params.values())  # the weights alone
    return dict(zip(MODEL_SECTIONS, (1, vocabulary, 48, params, 32)))


def calibrator_layout(token_text: str, dim: int) -> dict[str, int]:
    """Byte length of each section of a version-5 calibrator file, in file order."""
    token = 2 + len(token_text.encode("utf-8"))
    return dict(zip(CALIBRATOR_SECTIONS, (1, 32, token, 21, 4, 8 * dim, 32)))


def frozen_with_word(lm, word: str) -> EncoderDecoderLM:
    """A frozen random model over lm's vocabulary and config, with word as its last vocabulary word."""
    out = EncoderDecoderLM.initialize(Vocabulary((*lm.vocab.words, word)), lm.cfg, seed=0)
    out.freeze()
    return out


def model_field_ends(lm) -> list[int]:
    """The offset after each field of a version-4 model file's body, in file order."""
    sizes = [1, 4]  # version, word count
    for w in lm.vocab.words:
        sizes += [2, len(w.encode("utf-8"))]
    sizes += [4] * 6 + [8] * 3  # config dims and scales
    sizes += [8 * p.data.size for p in lm.params.values()]  # each weight array
    ends, total = [], 0
    for size in sizes:
        total += size
        ends.append(total)
    return ends


def damaged(raw: bytes, layout: dict[str, int], section: str, how) -> bytes:
    """raw with one section damaged.

    how is "flip" (one byte inside the section), "truncate" (cut at the
    section's start), "insert" (16 junk bytes at the section's start, resealed)
    or (offset, struct format, change): the field at that offset within the
    section, set to change(its value) and resealed, as a deliberate edit would.
    """
    assert sum(layout.values()) == len(raw), "layout does not describe this file"
    names = list(layout)
    start = sum(layout[name] for name in names[:names.index(section)])
    if how == "truncate":
        return raw[:start]
    if how == "insert":
        return reseal(raw[:start] + bytes(range(16)) + raw[start:])
    out = bytearray(raw)
    if how == "flip":
        out[start + layout[section] // 2] ^= 0xFF
        return bytes(out)
    offset, fmt, change = how
    (value,) = struct.unpack_from(fmt, out, start + offset)
    struct.pack_into(fmt, out, start + offset, change(value))
    return reseal(bytes(out))


def reseal(raw: bytes) -> bytes:
    """Recompute the trailing sha256, as a deliberate edit would."""
    return raw[:-32] + hashlib.sha256(raw[:-32]).digest()


def set_distance_code(path, token_text, code):
    """Overwrite the distance byte (after the version, model digest and token string) and reseal."""
    raw = bytearray(path.read_bytes())
    raw[1 + 32 + 2 + len(token_text.encode("utf-8"))] = code
    path.write_bytes(reseal(bytes(raw)))


def count_sha256(monkeypatch) -> list[int]:
    """Patch hashlib.sha256; the returned list gets each hash's byte count, in the order they start."""
    real = hashlib.sha256
    fed = []

    class Counted:
        def __init__(self, data=b""):
            self._hash, self._index = real(), len(fed)
            fed.append(0)
            self.update(data)

        def update(self, data):
            fed[self._index] += memoryview(data).nbytes
            self._hash.update(data)

        def digest(self):
            return self._hash.digest()

        def hexdigest(self):
            return self._hash.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Counted)
    return fed


class TestModelCheckpoint:
    def test_round_trip_preserves_digest(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        loaded = load_model(path)
        assert loaded.frozen
        assert loaded.frozen_digest == loaded.weight_digest() == tiny_lm.weight_digest()
        assert loaded.vocab.words == tiny_lm.vocab.words
        assert loaded.cfg == tiny_lm.cfg
        # views of the file's buffer, aligned whatever the word list's length
        assert all(p.data.flags.aligned and p.data.flags.c_contiguous for p in loaded.params.values())

    def test_version_byte_first(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        assert path.read_bytes()[0] == 4

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

    def test_loaded_weights_are_read_only(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        assert_weights_read_only(load_model(path))

    def test_truncation_at_every_field_boundary_detected_after_reseal(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        raw = path.read_bytes()
        ends = model_field_ends(tiny_lm)
        assert ends[-1] == len(raw) - 32, "field list does not describe this file"
        for cut in ends[:-1]:
            path.write_bytes(reseal(raw[:cut] + bytes(32)))
            with pytest.raises(CheckpointError):
                load_model(path)

    def test_model_and_two_calibrators_hash_the_model_body_once(self, tiny_lm, tmp_path, monkeypatch):
        path, calib_path = tmp_path / "model.bin", tmp_path / "calib.bin"
        save_model(tiny_lm, path)
        tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, tiny_lm.vocab)
        save_calibrator(tiny_lm.encode(tok.ids).pooled.data, tok, CalibrationConfig(),
                        tiny_lm.frozen_digest, calib_path)
        fed = count_sha256(monkeypatch)
        loaded = load_model(path)
        load_calibrator(calib_path, loaded)
        load_calibrator(calib_path, loaded)
        model_body, calibrator_body = path.stat().st_size - 32, calib_path.stat().st_size - 32
        assert fed == [model_body, calibrator_body, calibrator_body]

    def test_digest_is_the_seal_of_the_saved_file(self, tiny_lm, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        seal = hashlib.sha256(path.read_bytes()[:-32]).hexdigest()
        assert tiny_lm.weight_digest() == seal == load_model(path).frozen_digest

    @pytest.mark.parametrize("version, reason", [
        (2, "it holds the per-parameter records version 3 dropped; re-run pretrain and calibrate"),
        (3, "it holds positional tables version 4 computes from the config; re-run pretrain and calibrate"),
    ], ids=["version-2", "version-3"])
    def test_retired_version_refused_with_a_reason(self, tiny_lm, tmp_path, version, reason):
        path = tmp_path / "model.bin"
        save_model(tiny_lm, path)
        path.write_bytes(bytes([version]) + path.read_bytes()[1:])
        with pytest.raises(CheckpointError, match=f"unsupported model checkpoint version {version}: {reason}"):
            load_model(path)

    @pytest.mark.parametrize("extra_word", ["a", "<unk>"], ids=["repeated", "special"])
    def test_word_list_save_model_would_not_write_rejected(self, tiny_lm, tmp_path, extra_word):
        # the weights fit the vocabulary without the extra word, so only the word list can refuse it
        assert "a" in tiny_lm.vocab
        vocab = SimpleNamespace(words=(*tiny_lm.vocab.words, extra_word), size=tiny_lm.vocab.size)
        buf = io.BytesIO()
        write_model_body(SimpleNamespace(vocab=vocab, cfg=tiny_lm.cfg, params=tiny_lm.params), buf.write)
        path = tmp_path / "model.bin"
        path.write_bytes(reseal(buf.getvalue() + bytes(32)))
        with pytest.raises(CheckpointError, match="repeats a vocabulary word or holds a special token"):
            load_model(path)

    @pytest.mark.parametrize("word", ["a" * 65_535, "\u00e9" * 32_767 + "a"], ids=["ascii", "two-byte"])
    def test_longest_vocabulary_word_round_trips(self, tiny_lm, tmp_path, word):
        lm = frozen_with_word(tiny_lm, word)
        path = tmp_path / "model.bin"
        save_model(lm, path)
        loaded = load_model(path)
        assert loaded.vocab.words[-1] == word
        assert loaded.frozen_digest == lm.weight_digest()

    @pytest.mark.parametrize("word", ["a" * 65_536, "\u00e9" * 32_768], ids=["ascii", "two-byte"])
    def test_overlong_vocabulary_word_refused_before_writing(self, tiny_lm, tmp_path, word):
        lm = frozen_with_word(tiny_lm, word)
        with pytest.raises(ContractError, match="at most 65535 UTF-8 bytes, got one of 65536"):
            save_model(lm, tmp_path / "model.bin")
        assert os.listdir(tmp_path) == []

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
        config = CalibrationConfig(distance="cross_entropy", learning_rate=3e-3, max_epochs=13,
                                   convergence_tol=1e-5)
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, config, tiny_lm.weight_digest(), path)
        loaded_soft, loaded_tok, loaded_cfg = load_calibrator(path, tiny_lm)
        assert loaded_soft.dtype == np.float64 and loaded_soft.shape == soft.shape
        assert loaded_soft.flags.aligned
        assert not loaded_soft.flags.writeable
        assert loaded_soft.tobytes() == soft.tobytes()
        assert loaded_tok.text == tok.text
        assert loaded_cfg == config

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_each_distance_code_round_trips(self, tiny_lm, calibrator, tmp_path, distance):
        # the distance byte is the only coded field: each code must read back as its own distance
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, CalibrationConfig(distance=distance), tiny_lm.weight_digest(), path)
        assert load_calibrator(path, tiny_lm)[2] == CalibrationConfig(distance=distance)

    def test_default_token_for_a_64_dim_model_takes_662_bytes(self, tiny_lm, tmp_path):
        # the size the README gives for the default calibrator file
        tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, tiny_lm.vocab)
        path = tmp_path / "calib.bin"
        save_calibrator(np.zeros(64), tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        assert path.stat().st_size == sum(calibrator_layout(DEFAULT_SOFT_TOKEN_TEXT, 64).values()) == 662

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
        with pytest.raises(CheckpointMismatchError):
            load_calibrator(calib_path, one_bit_edited(loaded, "enc.embed"))

    def test_unknown_distance_code_rejected(self, tiny_lm, calibrator, tmp_path):
        # a resealed file passes the hash, so a bad code must be caught on its own
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        set_distance_code(path, tok.text, 9)
        with pytest.raises(CheckpointError, match="unknown distance code"):
            load_calibrator(path, tiny_lm)

    def test_vector_of_another_width_rejected(self, tiny_lm, calibrator, tmp_path):
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft[:8], tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        with pytest.raises(CheckpointError, match="8-vector for a 16-dim model"):
            load_calibrator(path, tiny_lm)


    @pytest.mark.parametrize("section, offset, fmt, change", [
        ("vocabulary", 6, "<B", lambda b: ord("~")),  # the first byte of the first word
        ("config", 40, "<d", lambda scale: 2 * scale),  # pos_scale
    ], ids=["vocabulary-word", "config-scale"])
    def test_resealed_model_edit_breaks_the_binding(self, tiny_lm, calibrator, tmp_path,
                                                    section, offset, fmt, change):
        soft, tok = calibrator
        model_path, calib_path = tmp_path / "model.bin", tmp_path / "calib.bin"
        save_model(tiny_lm, model_path)
        save_calibrator(soft, tok, CalibrationConfig(), tiny_lm.weight_digest(), calib_path)
        raw = model_path.read_bytes()
        model_path.write_bytes(damaged(raw, model_layout(tiny_lm), section, (offset, fmt, change)))
        edited = load_model(model_path)  # a valid model, so only the binding can refuse it
        with pytest.raises(CheckpointMismatchError):
            load_calibrator(calib_path, edited)

    @pytest.mark.parametrize("version, reason", [
        (2, "it is bound to the old weights-only model digest; recalibrate it against the model"),
        (3, "it holds the stall window and seed that version 4 dropped; re-run calibrate"),
        (4, "it holds the separator policy that version 5 dropped; re-run calibrate"),
    ], ids=["version-2", "version-3", "version-4"])
    def test_retired_version_refused_with_a_reason(self, tiny_lm, calibrator, tmp_path, version, reason):
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        assert path.read_bytes()[0] == 5
        path.write_bytes(bytes([version]) + path.read_bytes()[1:])
        with pytest.raises(CheckpointError, match=f"unsupported calibrator checkpoint version {version}: {reason}"):
            load_calibrator(path, tiny_lm)

    @pytest.mark.parametrize("text", ["a" * 65_535, "\u00e9" * 32_767 + "a"], ids=["ascii", "two-byte"])
    def test_longest_token_string_round_trips(self, tiny_lm, calibrator, tmp_path, text):
        soft, _ = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, SoftPromptToken.from_text(text, tiny_lm.vocab), CalibrationConfig(),
                        tiny_lm.weight_digest(), path)
        assert load_calibrator(path, tiny_lm)[1].text == text

    @pytest.mark.parametrize("text", ["a" * 65_536, "\u00e9" * 32_768], ids=["ascii", "two-byte"])
    def test_overlong_token_string_refused_before_writing(self, tiny_lm, calibrator, tmp_path, text):
        soft, _ = calibrator
        path = tmp_path / "calib.bin"
        with pytest.raises(ContractError, match="at most 65535 UTF-8 bytes, got one of 65536"):
            save_calibrator(soft, SoftPromptToken.from_text(text, tiny_lm.vocab), CalibrationConfig(),
                            tiny_lm.weight_digest(), path)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_soft_vector_rejected(self, tiny_lm, calibrator, tmp_path, value):
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        layout = calibrator_layout(tok.text, len(soft))
        path.write_bytes(damaged(path.read_bytes(), layout, "soft", (8, "<d", lambda x: value)))
        with pytest.raises(CheckpointError, match="non-finite soft vector"):
            load_calibrator(path, tiny_lm)

    def test_resealed_empty_soft_token_is_a_checkpoint_error(self, tiny_lm, calibrator, tmp_path):
        soft, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(soft, tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        raw = path.read_bytes()
        token = struct.pack("<H", len(tok.text)) + tok.text.encode("utf-8")
        assert raw.count(token) == 1
        path.write_bytes(reseal(raw.replace(token, struct.pack("<H", 1) + b" ")))
        with pytest.raises(CheckpointError, match="invalid soft token: soft prompt token must contain"):
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
