"""Binary checkpoints for the frozen model and the trained calibrator.

Both files start with a version byte and end with a sha256 of every byte
before it; loading re-hashes and refuses corrupted files. A calibrator is its
trained soft vector plus provenance: the digest of the frozen model it was
trained against (it refuses to load next to a different model), the soft
token text and the calibration config.
"""

from __future__ import annotations

import hashlib
import io
import struct
from pathlib import Path

import numpy as np

from .autodiff import DiffValue
from .calibration import DISTANCES, SEPARATOR_POLICIES, CalibrationConfig, SoftPromptToken
from .corpus import atomic_write
from .errors import CheckpointError, CheckpointMismatchError
from .model import EncoderDecoderLM, ModelConfig
from .vocab import Vocabulary

MODEL_VERSION = 2
CALIBRATOR_VERSION = 2

# A calibrator stores its distance and separator policy as indices into these.
_DISTANCE_NAMES = tuple(DISTANCES)


def _write_sealed(buf: io.BytesIO, path: str | Path) -> None:
    body = buf.getvalue()
    atomic_write(path, body + hashlib.sha256(body).digest())


def _open_sealed(path: str | Path, version: int, kind: str) -> io.BytesIO:
    """The file, positioned after its version byte, once the version and trailing sha256 check out."""
    raw = Path(path).read_bytes()
    if not raw:
        raise CheckpointError("truncated checkpoint file")
    if raw[0] != version:
        raise CheckpointError(f"unsupported {kind} checkpoint version {raw[0]}")
    # A memoryview hashes in place; slicing would copy the whole file.
    if hashlib.sha256(memoryview(raw)[:-32]).digest() != raw[-32:]:
        raise CheckpointError(f"{kind} checkpoint {path} failed its integrity hash")
    buf = io.BytesIO(raw)
    buf.seek(1)
    return buf


def _write_str(buf: io.BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    buf.write(struct.pack("<H", len(raw)))
    buf.write(raw)


def _read_str(buf: io.BytesIO) -> str:
    (n,) = struct.unpack("<H", _read_exact(buf, 2))
    try:
        return _read_exact(buf, n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint string is not UTF-8: {exc}") from None


def _read_exact(buf: io.BytesIO, n: int) -> bytes:
    raw = buf.read(n)
    if len(raw) != n:
        raise CheckpointError("truncated checkpoint file")
    return raw


def _write_params(buf: io.BytesIO, params: dict[str, DiffValue]) -> None:
    buf.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        p = params[name]
        _write_str(buf, name)
        buf.write(struct.pack("<B", 0))  # trainable flag: a frozen model has none
        buf.write(struct.pack("<B", p.data.ndim))
        for dim in p.data.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _read_params(buf: io.BytesIO) -> dict[str, DiffValue]:
    (count,) = struct.unpack("<I", _read_exact(buf, 4))
    params: dict[str, DiffValue] = {}
    for _ in range(count):
        name = _read_str(buf)
        _read_exact(buf, 1)  # trainable flag
        (ndim,) = struct.unpack("<B", _read_exact(buf, 1))
        shape = tuple(struct.unpack("<I", _read_exact(buf, 4))[0] for _ in range(ndim))
        n_bytes = 8 * int(np.prod(shape)) if shape else 8
        data = np.frombuffer(_read_exact(buf, n_bytes), dtype="<f8").reshape(shape).copy()
        params[name] = DiffValue(data)
    return params


def _write_model_config(buf: io.BytesIO, cfg: ModelConfig) -> None:
    buf.write(struct.pack(
        "<6I", cfg.embed_dim, cfg.n_blocks, cfg.n_heads, cfg.ffn_dim,
        cfg.max_seq_len, cfg.decode_max_len,
    ))
    buf.write(struct.pack("<3d", cfg.embed_bias_std, cfg.embed_noise_std, cfg.pos_scale))


def _read_model_config(buf: io.BytesIO) -> ModelConfig:
    dims = struct.unpack("<6I", _read_exact(buf, 24))
    scales = struct.unpack("<3d", _read_exact(buf, 24))
    return ModelConfig(*dims, *scales)


def save_model(lm: EncoderDecoderLM, path: str | Path) -> None:
    if not lm.frozen:
        raise CheckpointError("only frozen models are checkpointed")
    buf = io.BytesIO()
    buf.write(struct.pack("<B", MODEL_VERSION))
    words = lm.vocab.words
    buf.write(struct.pack("<I", len(words)))
    for w in words:
        _write_str(buf, w)
    _write_model_config(buf, lm.cfg)
    buf.write(struct.pack("<B", 1))  # frozen flag
    _write_params(buf, lm.params)
    _write_sealed(buf, path)


def load_model(path: str | Path) -> EncoderDecoderLM:
    buf = _open_sealed(path, MODEL_VERSION, "model")
    (n_words,) = struct.unpack("<I", _read_exact(buf, 4))
    words = [_read_str(buf) for _ in range(n_words)]
    cfg = _read_model_config(buf)
    (frozen_flag,) = struct.unpack("<B", _read_exact(buf, 1))
    params = _read_params(buf)
    lm = EncoderDecoderLM(Vocabulary(words), cfg, params)
    if frozen_flag:
        lm.freeze()
    return lm


def save_calibrator(
    soft: np.ndarray,
    tok: SoftPromptToken,
    config: CalibrationConfig,
    lm_digest: str,
    path: str | Path,
) -> None:
    buf = io.BytesIO()
    buf.write(struct.pack("<B", CALIBRATOR_VERSION))
    buf.write(bytes.fromhex(lm_digest))
    _write_str(buf, tok.text)
    buf.write(struct.pack("<B", _DISTANCE_NAMES.index(config.distance)))
    buf.write(struct.pack("<d", config.learning_rate))
    buf.write(struct.pack("<I", config.max_epochs))
    buf.write(struct.pack("<d", config.convergence_tol))
    buf.write(struct.pack("<I", config.stall_window))
    buf.write(struct.pack("<q", config.seed))
    buf.write(struct.pack("<B", SEPARATOR_POLICIES.index(config.separator_policy)))
    buf.write(struct.pack("<I", len(soft)))
    buf.write(np.ascontiguousarray(soft, dtype="<f8").tobytes())
    _write_sealed(buf, path)


def load_calibrator(
    path: str | Path, lm: EncoderDecoderLM
) -> tuple[np.ndarray, SoftPromptToken, CalibrationConfig]:
    """The soft vector (read-only), its token and its config, checked against lm."""
    buf = _open_sealed(path, CALIBRATOR_VERSION, "calibrator")
    lm_digest = _read_exact(buf, 32).hex()
    token_text = _read_str(buf)
    (distance_code,) = struct.unpack("<B", _read_exact(buf, 1))
    (learning_rate,) = struct.unpack("<d", _read_exact(buf, 8))
    (max_epochs,) = struct.unpack("<I", _read_exact(buf, 4))
    (tol,) = struct.unpack("<d", _read_exact(buf, 8))
    (window,) = struct.unpack("<I", _read_exact(buf, 4))
    (seed,) = struct.unpack("<q", _read_exact(buf, 8))
    (policy_code,) = struct.unpack("<B", _read_exact(buf, 1))
    (dim,) = struct.unpack("<I", _read_exact(buf, 4))
    soft = np.frombuffer(_read_exact(buf, 8 * dim), dtype="<f8")
    if distance_code >= len(_DISTANCE_NAMES) or policy_code >= len(SEPARATOR_POLICIES):
        raise CheckpointError(f"calibrator checkpoint {path} has an unknown distance or policy code")
    actual = lm.weight_digest()
    if lm_digest != actual:
        raise CheckpointMismatchError(
            f"calibrator was trained against model digest {lm_digest[:12]}..., "
            f"loaded model has {actual[:12]}..."
        )
    if dim != lm.cfg.embed_dim:
        raise CheckpointError(f"calibrator {path} holds a {dim}-vector for a {lm.cfg.embed_dim}-dim model")
    config = CalibrationConfig(
        distance=_DISTANCE_NAMES[distance_code],
        learning_rate=learning_rate,
        max_epochs=max_epochs,
        convergence_tol=tol,
        stall_window=window,
        seed=seed,
        separator_policy=SEPARATOR_POLICIES[policy_code],
    )
    tok = SoftPromptToken.from_text(token_text, lm.vocab)
    return soft, tok, config
