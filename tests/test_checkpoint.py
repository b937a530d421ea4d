"""Binary checkpoint round trips, integrity hashing, and digest binding."""

import pytest

from promptcal.calibration import (
    DEFAULT_SOFT_TOKEN_TEXT,
    CalibrationConfig,
    SoftPromptEncoder,
    SoftPromptToken,
)
from promptcal.checkpoint import load_calibrator, load_model, save_calibrator, save_model
from promptcal.errors import CheckpointError, CheckpointMismatchError


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
        assert path.read_bytes()[0] == 1

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


class TestCalibratorCheckpoint:
    @pytest.fixture
    def calibrator(self, tiny_lm):
        enc = SoftPromptEncoder.from_frozen(tiny_lm)
        enc.trained = True
        tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, tiny_lm.vocab)
        return enc, tok

    def test_round_trip(self, tiny_lm, calibrator, tmp_path):
        enc, tok = calibrator
        config = CalibrationConfig(distance="cross_entropy", seed=13)
        path = tmp_path / "calib.bin"
        save_calibrator(enc, tok, config, tiny_lm.weight_digest(), path)
        loaded_enc, loaded_tok, loaded_cfg = load_calibrator(path, tiny_lm)
        assert loaded_enc.trained
        assert loaded_enc.digest() == enc.digest()
        assert loaded_tok.text == tok.text
        assert loaded_cfg == config

    def test_digest_binding_enforced(self, tiny_lm, calibrator, tmp_path):
        enc, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(enc, tok, CalibrationConfig(), "00" * 32, path)
        with pytest.raises(CheckpointMismatchError):
            load_calibrator(path, tiny_lm)

    def test_edited_model_fails_binding(self, tiny_lm, calibrator, tmp_path):
        enc, tok = calibrator
        model_path = tmp_path / "model.bin"
        calib_path = tmp_path / "calib.bin"
        save_model(tiny_lm, model_path)
        save_calibrator(enc, tok, CalibrationConfig(), tiny_lm.weight_digest(), calib_path)
        loaded = load_model(model_path)
        load_calibrator(calib_path, loaded)  # matches: no error
        loaded.params["enc.embed"].data[0, 0] += 1.0
        with pytest.raises(CheckpointMismatchError):
            load_calibrator(calib_path, loaded)

    def test_trainable_flags_survive(self, tiny_lm, calibrator, tmp_path):
        enc, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(enc, tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        loaded_enc, _, _ = load_calibrator(path, tiny_lm)
        assert not loaded_enc.params["enc.pos"].requires_grad
        assert loaded_enc.params["enc.embed"].requires_grad

    def test_unknown_distance_code_rejected(self, tiny_lm, calibrator, tmp_path):
        # the header is outside the params hash, so a bad code must be caught on its own
        enc, tok = calibrator
        path = tmp_path / "calib.bin"
        save_calibrator(enc, tok, CalibrationConfig(), tiny_lm.weight_digest(), path)
        set_distance_code(path, tok.text, 9)
        with pytest.raises(CheckpointError, match="unknown distance or policy code"):
            load_calibrator(path, tiny_lm)


def set_distance_code(path, token_text, code):
    """Overwrite the distance byte: after the version, model digest and token string."""
    raw = bytearray(path.read_bytes())
    raw[1 + 32 + 2 + len(token_text.encode("utf-8"))] = code
    path.write_bytes(bytes(raw))
