"""Binary checkpoints for the frozen model and the trained calibrator.

Both files start with a version byte and end with a sha256 of every byte
before it; loading re-hashes and refuses corrupted files, then parses the
verified bytes in place, copying each weight array out once. A model file
must be marked frozen and hold exactly the parameters its config and
vocabulary make, none marked trainable, and nothing after them. A calibrator
is its trained soft vector plus provenance: the digest of the frozen model it
was trained against (it refuses to load next to a different model), the soft
token text and the calibration config.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
from pathlib import Path

import numpy as np

from .autodiff import DiffValue
from .calibration import DISTANCES, SEPARATOR_POLICIES, CalibrationConfig, SoftPromptToken
from .corpus import atomic_write
from .errors import CheckpointError, CheckpointMismatchError, ConfigError
from .model import EncoderDecoderLM, ModelConfig, param_shapes
from .vocab import Vocabulary

MODEL_VERSION = 2
CALIBRATOR_VERSION = 2

# A calibrator stores its distance and separator policy as indices into these.
_DISTANCE_NAMES = tuple(DISTANCES)


def _write_sealed(buf: io.BytesIO, path: str | Path) -> None:
    body = buf.getvalue()
    atomic_write(path, body + hashlib.sha256(body).digest())


class _SealedReader:
    """The fields of a sealed file's body, read in file order from a running offset.

    The body is a memoryview of the file without its trailing sha256, so a
    field that would reach into the seal is a truncation, and unpacking or
    slicing it copies nothing.
    """

    def __init__(self, body: memoryview, where: str):
        self.body = body
        self.where = where
        self.pos = 1  # after the version byte

    def _advance(self, n: int) -> int:
        start = self.pos
        if start + n > len(self.body):
            raise CheckpointError("truncated checkpoint file")
        self.pos = start + n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.body, self._advance(struct.calcsize(fmt)))

    def raw(self, n: int) -> memoryview:
        start = self._advance(n)
        return self.body[start:self.pos]

    def strings(self, count: int) -> list[str]:
        """The next count strings, each a little-endian u16 byte length and UTF-8 bytes."""
        # One loop over locals: a model file holds a string per vocabulary word.
        body, pos, size = self.body, self.pos, len(self.body)
        out = []
        for _ in range(count):
            if pos + 2 > size:
                raise CheckpointError("truncated checkpoint file")
            start = pos + 2
            pos = start + (body[pos] | body[pos + 1] << 8)
            if pos > size:
                raise CheckpointError("truncated checkpoint file")
            try:
                out.append(str(body[start:pos], "utf-8"))
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"checkpoint string is not UTF-8: {exc}") from None
        self.pos = pos
        return out

    def string(self) -> str:
        return self.strings(1)[0]

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """A fresh, aligned copy of the next little-endian float64 array of this shape."""
        count = math.prod(shape)
        start = self._advance(8 * count)
        return np.frombuffer(self.body, dtype="<f8", count=count, offset=start).reshape(shape).copy()

    def end(self) -> None:
        extra = len(self.body) - self.pos
        if extra:
            raise CheckpointError(f"{self.where} has {extra} bytes after its last field")


def _open_sealed(path: str | Path, version: int, kind: str) -> _SealedReader:
    """A reader after the file's version byte, once the version and trailing sha256 check out."""
    raw = Path(path).read_bytes()
    if not raw:
        raise CheckpointError("truncated checkpoint file")
    if raw[0] != version:
        raise CheckpointError(f"unsupported {kind} checkpoint version {raw[0]}")
    body = memoryview(raw)[:-32]  # hashes and parses in place; slicing raw would copy it
    if hashlib.sha256(body).digest() != raw[-32:]:
        raise CheckpointError(f"{kind} checkpoint {path} failed its integrity hash")
    return _SealedReader(body, f"{kind} checkpoint {path}")


def _write_str(buf: io.BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    buf.write(struct.pack("<H", len(raw)))
    buf.write(raw)


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


def _read_params(reader: _SealedReader, expected: dict[str, tuple[int, ...]]) -> dict[str, DiffValue]:
    """The parameters, which must be exactly the expected names and shapes."""
    (count,) = reader.unpack("<I")
    if count != len(expected):
        raise CheckpointError(f"{reader.where} holds {count} parameters, its config needs {len(expected)}")
    params: dict[str, DiffValue] = {}
    for _ in range(count):
        name = reader.string()
        trainable, ndim = reader.unpack("<2B")
        shape = reader.unpack(f"<{ndim}I")
        if trainable:
            raise CheckpointError(f"{reader.where} marks parameter {name!r} trainable")
        if name not in expected or name in params:
            raise CheckpointError(f"{reader.where} holds an unknown or repeated parameter {name!r}")
        if shape != expected[name]:
            raise CheckpointError(f"{reader.where} parameter {name} has shape {shape}, "
                                  f"its config needs {expected[name]}")
        params[name] = DiffValue(reader.floats(shape))
    return params


def _write_model_config(buf: io.BytesIO, cfg: ModelConfig) -> None:
    buf.write(struct.pack(
        "<6I", cfg.embed_dim, cfg.n_blocks, cfg.n_heads, cfg.ffn_dim,
        cfg.max_seq_len, cfg.decode_max_len,
    ))
    buf.write(struct.pack("<3d", cfg.embed_bias_std, cfg.embed_noise_std, cfg.pos_scale))


def _read_model_config(reader: _SealedReader) -> ModelConfig:
    dims = reader.unpack("<6I")
    scales = reader.unpack("<3d")
    try:
        return ModelConfig(*dims, *scales)
    except ConfigError as exc:
        raise CheckpointError(f"{reader.where} has an invalid config: {exc}") from None


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
    """The frozen model in the file, once its parameters match what its config and vocabulary make."""
    reader = _open_sealed(path, MODEL_VERSION, "model")
    (n_words,) = reader.unpack("<I")
    vocab = Vocabulary(reader.strings(n_words))
    cfg = _read_model_config(reader)
    (frozen_flag,) = reader.unpack("<B")
    if frozen_flag != 1:  # save_model writes frozen models only
        raise CheckpointError(f"{reader.where} has frozen flag {frozen_flag}, not 1")
    params = _read_params(reader, param_shapes(cfg, vocab.size))
    reader.end()
    lm = EncoderDecoderLM(vocab, cfg, params)
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
    """The soft vector (read-only), its token and its config, checked against the frozen lm."""
    reader = _open_sealed(path, CALIBRATOR_VERSION, "calibrator")
    lm_digest = reader.raw(32).hex()
    token_text = reader.string()
    # distance, learning rate, max epochs, tolerance, stall window, seed, policy, dim
    distance_code, learning_rate, max_epochs, tol, window, seed, policy_code, dim = (
        reader.unpack("<BdIdIqBI"))
    soft = reader.floats((dim,))
    soft.flags.writeable = False
    reader.end()
    if distance_code >= len(_DISTANCE_NAMES) or policy_code >= len(SEPARATOR_POLICIES):
        raise CheckpointError(f"calibrator checkpoint {path} has an unknown distance or policy code")
    actual = lm.frozen_digest
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
