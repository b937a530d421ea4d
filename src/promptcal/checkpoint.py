"""Binary checkpoints for the frozen model and the trained calibrator.

Both files start with a version byte and end with a sha256 of every byte
before it (the body); loading re-hashes and refuses corrupted files, then
parses the verified bytes in place, copying each weight array out once. A
model file must be marked frozen and hold exactly the parameters its config
and vocabulary make, none marked trainable, and nothing after them.

A model's digest is the sha256 of the body save_model writes for it, so it
covers the vocabulary and config as well as the weights. write_model_body is
the one writer of that body: save_model writes it to the file and
EncoderDecoderLM.weight_digest() streams it into sha256, while a loaded model
takes as its digest the seal its load has just verified, without hashing
again. A calibrator is its trained soft vector plus provenance: the digest of
the frozen model it was trained against (it refuses to load next to a
different model), the soft token text and the calibration config.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import struct
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

from .autodiff import DiffValue
from .calibration import DISTANCES, SEPARATOR_POLICIES, CalibrationConfig, SoftPromptToken
from .corpus import atomic_write
from .errors import CheckpointError, CheckpointMismatchError, ConfigError, ContractError
from .model import EncoderDecoderLM, ModelConfig, param_shapes
from .vocab import Vocabulary

MODEL_VERSION = 2
# Version 3 binds a calibrator to the model's whole-body digest; version 2
# bound it to a digest of the weights alone.
CALIBRATOR_VERSION = 3

# Why a file of an older version is refused, beyond its number.
_RETIRED_VERSIONS = {
    ("calibrator", 2): "it is bound to the old weights-only model digest; recalibrate it against the model",
}

# A calibrator stores its distance and separator policy as indices into these.
_DISTANCE_NAMES = tuple(DISTANCES)

Write = Callable[[bytes | memoryview], object]


def _write_sealed(buf: io.BytesIO, path: str | Path) -> None:
    body = buf.getvalue()
    atomic_write(path, body + hashlib.sha256(body).digest())


class _SealedReader:
    """The fields of a sealed file's body, read in file order from a running offset.

    The body is the first size bytes of raw, everything before the trailing
    sha256, so a field that would reach into the seal is a truncation. digest
    is the body's sha256 as the load computed it.
    """

    def __init__(self, raw: bytes, digest: str, where: str):
        self.raw = raw
        self.size = len(raw) - 32
        self.digest = digest
        self.where = where
        self.pos = 1  # after the version byte

    def _advance(self, n: int) -> int:
        start = self.pos
        if start + n > self.size:
            raise CheckpointError("truncated checkpoint file")
        self.pos = start + n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self._advance(struct.calcsize(fmt)))

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.raw[start:self.pos]

    def skip(self, expected: bytes) -> bool:
        """Step past the next bytes if they are exactly expected; otherwise stay put."""
        end = self.pos + len(expected)
        if end <= self.size and self.raw[self.pos:end] == expected:
            self.pos = end
            return True
        return False

    def strings(self, count: int) -> list[str]:
        """The next count strings, each a little-endian u16 byte length and UTF-8 bytes."""
        # One loop over locals: a model file holds a string per vocabulary word.
        raw, pos, size = self.raw, self.pos, self.size
        out = []
        for _ in range(count):
            if pos + 2 > size:
                raise CheckpointError("truncated checkpoint file")
            start = pos + 2
            pos = start + (raw[pos] | raw[pos + 1] << 8)
            if pos > size:
                raise CheckpointError("truncated checkpoint file")
            try:
                out.append(raw[start:pos].decode("utf-8"))
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
        return np.frombuffer(self.raw, dtype="<f8", count=count, offset=start).reshape(shape).copy()

    def end(self) -> None:
        extra = self.size - self.pos
        if extra:
            raise CheckpointError(f"{self.where} has {extra} bytes after its last field")


def _open_sealed(path: str | Path, version: int, kind: str) -> _SealedReader:
    """A reader after the file's version byte, once the version and trailing sha256 check out."""
    raw = Path(path).read_bytes()
    if not raw:
        raise CheckpointError("truncated checkpoint file")
    if raw[0] != version:
        why = _RETIRED_VERSIONS.get((kind, raw[0]))
        raise CheckpointError(f"unsupported {kind} checkpoint version {raw[0]}" + (f": {why}" if why else ""))
    digest = hashlib.sha256(memoryview(raw)[:-32]).digest()  # in place; slicing raw would copy it
    if digest != raw[-32:]:
        raise CheckpointError(f"{kind} checkpoint {path} failed its integrity hash")
    return _SealedReader(raw, digest.hex(), f"{kind} checkpoint {path}")


def _write_str(write: Write, s: str) -> None:
    raw = s.encode("utf-8")
    write(struct.pack("<H", len(raw)) + raw)


def _param_head(name: str, shape: tuple[int, ...]) -> bytes:
    """A parameter record up to its floats: name, trainable flag (a frozen model has none), rank, dims."""
    raw = name.encode("utf-8")
    return struct.pack(f"<H{len(raw)}s2B{len(shape)}I", len(raw), raw, 0, len(shape), *shape)


def write_model_body(lm: EncoderDecoderLM, write: Write) -> None:
    """Pass the model file's body, every byte before its seal, to write in file order.

    Each weight goes out as a view of its array, never as a copy, so streaming
    the body into a hash holds no second copy of the weights.
    """
    words = lm.vocab.words
    write(struct.pack("<BI", MODEL_VERSION, len(words)))
    for w in words:
        _write_str(write, w)
    cfg = lm.cfg
    write(struct.pack(
        "<6I3dBI", cfg.embed_dim, cfg.n_blocks, cfg.n_heads, cfg.ffn_dim, cfg.max_seq_len,
        cfg.decode_max_len, cfg.embed_bias_std, cfg.embed_noise_std, cfg.pos_scale,
        1, len(lm.params),  # frozen flag, parameter count
    ))
    for name in sorted(lm.params):
        data = lm.params[name].data
        write(_param_head(name, data.shape))
        write(memoryview(np.ascontiguousarray(data, dtype="<f8")))


@functools.lru_cache(maxsize=8)
def _param_records(cfg: ModelConfig, vocab_size: int) -> tuple[tuple[str, bytes, tuple[int, ...]], ...]:
    """Each parameter's name, record bytes before its floats and shape, in the order save_model writes them."""
    shapes = param_shapes(cfg, vocab_size)
    return tuple((name, _param_head(name, shapes[name]), shapes[name]) for name in sorted(shapes))


def _refuse_param(reader: _SealedReader, expected: dict[str, tuple[int, ...]],
                  params: dict[str, DiffValue]) -> NoReturn:
    """Say, field by field, why the parameter record at the reader is not the one save_model writes there."""
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
    raise CheckpointError(f"{reader.where} holds parameter {name!r} out of name order")


def _read_params(reader: _SealedReader, cfg: ModelConfig, vocab_size: int) -> dict[str, DiffValue]:
    """The parameters, which must be exactly the names and shapes the config and vocabulary make.

    Each record must open with the bytes save_model writes at its place, so
    one comparison checks its name, flag and shape.
    """
    records = _param_records(cfg, vocab_size)
    (count,) = reader.unpack("<I")
    if count != len(records):
        raise CheckpointError(f"{reader.where} holds {count} parameters, its config needs {len(records)}")
    params: dict[str, DiffValue] = {}
    for name, head, shape in records:
        if not reader.skip(head):
            _refuse_param(reader, {n: s for n, _, s in records}, params)
        params[name] = DiffValue(reader.floats(shape))
    return params


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
    write_model_body(lm, buf.write)
    _write_sealed(buf, path)


def load_model(path: str | Path) -> EncoderDecoderLM:
    """The frozen model in the file, once its parameters match what its config and vocabulary make.

    Only a body that save_model would write for the model it holds is
    accepted, so the seal this load verified is the model's digest: it
    becomes frozen_digest without a second hash.
    """
    reader = _open_sealed(path, MODEL_VERSION, "model")
    (n_words,) = reader.unpack("<I")
    vocab = Vocabulary(reader.strings(n_words))
    cfg = _read_model_config(reader)
    (frozen_flag,) = reader.unpack("<B")
    if frozen_flag != 1:  # save_model writes frozen models only
        raise CheckpointError(f"{reader.where} has frozen flag {frozen_flag}, not 1")
    params = _read_params(reader, cfg, vocab.size)
    reader.end()
    if len(vocab.words) != n_words:  # then save_model would write another body for this model
        raise CheckpointError(f"{reader.where} repeats a vocabulary word or holds a special token")
    lm = EncoderDecoderLM(vocab, cfg, params)
    lm.freeze(digest=reader.digest)
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
    _write_str(buf.write, tok.text)
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
    """The soft vector (read-only), its token and its config, checked against the frozen lm.

    The binding compares the recorded digest with lm.frozen_digest, which a
    loaded model already holds, so it hashes nothing.
    """
    reader = _open_sealed(path, CALIBRATOR_VERSION, "calibrator")
    lm_digest = reader.take(32).hex()
    token_text = reader.string()
    # distance, learning rate, max epochs, tolerance, stall window, seed, policy, dim
    distance_code, learning_rate, max_epochs, tol, window, seed, policy_code, dim = (
        reader.unpack("<BdIdIqBI"))
    soft = reader.floats((dim,))
    soft.flags.writeable = False
    reader.end()
    if distance_code >= len(_DISTANCE_NAMES) or policy_code >= len(SEPARATOR_POLICIES):
        raise CheckpointError(f"calibrator checkpoint {path} has an unknown distance or policy code")
    if not np.isfinite(soft).all():
        raise CheckpointError(f"calibrator checkpoint {path} holds a non-finite soft vector")
    actual = lm.frozen_digest
    if lm_digest != actual:
        raise CheckpointMismatchError(
            f"calibrator was trained against model digest {lm_digest[:12]}..., "
            f"loaded model has {actual[:12]}..."
        )
    if dim != lm.cfg.embed_dim:
        raise CheckpointError(f"calibrator {path} holds a {dim}-vector for a {lm.cfg.embed_dim}-dim model")
    try:
        config = CalibrationConfig(
            distance=_DISTANCE_NAMES[distance_code],
            learning_rate=learning_rate,
            max_epochs=max_epochs,
            convergence_tol=tol,
            stall_window=window,
            seed=seed,
            separator_policy=SEPARATOR_POLICIES[policy_code],
        )
    except ConfigError as exc:
        raise CheckpointError(f"{reader.where} has an invalid config: {exc}") from None
    try:
        tok = SoftPromptToken.from_text(token_text, lm.vocab)
    except ContractError as exc:
        raise CheckpointError(f"{reader.where} has an invalid soft token: {exc}") from None
    return soft, tok, config
