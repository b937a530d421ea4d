"""Binary checkpoints for the frozen model and the trained calibrator.

Both files start with a version byte and end with a sha256 of every byte
before it (the body); loading re-hashes and refuses corrupted files, then
parses the verified bytes in place. A model body is the version byte, the
word list, the config and then every weight's float64 values back to back in
model.param_shapes order. The config and vocabulary fix every parameter's
name and shape, so the file restates none of them: a body too short for its
config is a truncated file and one too long has bytes after its last field.
The file is read into one aligned buffer, and the weights are views of it,
never copies.

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

import hashlib
import io
import math
import os
import struct
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import DiffValue
from .calibration import DISTANCES, CalibrationConfig, SoftPromptToken
from .corpus import atomic_write
from .errors import CheckpointError, CheckpointMismatchError, ConfigError, ContractError
from .model import EncoderDecoderLM, ModelConfig, param_shapes
from .vocab import Vocabulary

MODEL_VERSION = 4
# Version 5 drops version 4's separator policy, and version 4 dropped version
# 3's stall window and seed. Since version 3 a calibrator is bound to the
# model's whole-body digest; version 2 bound it to a digest of the weights alone.
CALIBRATOR_VERSION = 5

# Why a file of an older version is refused, beyond its number.
_RETIRED_VERSIONS = {
    ("model", 2): "it holds the per-parameter records version 3 dropped; re-run pretrain and calibrate",
    ("model", 3): "it holds positional tables version 4 computes from the config; re-run pretrain and calibrate",
    ("calibrator", 2): "it is bound to the old weights-only model digest; recalibrate it against the model",
    ("calibrator", 3): "it holds the stall window and seed that version 4 dropped; re-run calibrate",
    ("calibrator", 4): "it holds the separator policy that version 5 dropped; re-run calibrate",
}

_MODEL_CONFIG = "<6I3d"  # ModelConfig's fields in order: six dimensions, then three scales
# A calibrator's fields after its token: distance, learning rate, max epochs,
# tolerance, soft vector length. The distance is stored as an index into
# DISTANCES.
_CALIBRATOR_FIELDS = "<BdIdI"

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

    def __init__(self, raw: memoryview, digest: str, where: str):
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

    def take(self, n: int) -> memoryview:
        start = self._advance(n)
        return self.raw[start:self.pos]

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
                out.append(str(raw[start:pos], "utf-8"))
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"checkpoint string is not UTF-8: {exc}") from None
        self.pos = pos
        return out

    def string(self) -> str:
        return self.strings(1)[0]

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next little-endian float64 array of this shape, as a view of raw, not a copy."""
        count = math.prod(shape)
        start = self._advance(8 * count)
        return np.frombuffer(self.raw, dtype="<f8", count=count, offset=start).reshape(shape)

    def end(self) -> None:
        extra = self.size - self.pos
        if extra:
            raise CheckpointError(f"{self.where} has {extra} bytes after its last field")


def _read_aligned(path: str | Path) -> memoryview:
    """The file's bytes, placed so that its body (all but the 32-byte seal) ends on an 8-byte boundary.

    Both kinds of file end their body with float64 values, which thus start
    aligned in a file of the right length and load as views, not copies.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pad = -(size - 32) % 8
        raw = memoryview(np.empty((pad + size + 7) // 8, dtype="<f8")).cast("B")[pad:pad + size]
        return raw[:f.readinto(raw)]


def _open_sealed(path: str | Path, version: int, kind: str) -> _SealedReader:
    """A reader after the file's version byte, once the version and trailing sha256 check out."""
    raw = _read_aligned(path)
    if not raw:
        raise CheckpointError("truncated checkpoint file")
    if raw[0] != version:
        why = _RETIRED_VERSIONS.get((kind, raw[0]))
        raise CheckpointError(f"unsupported {kind} checkpoint version {raw[0]}" + (f": {why}" if why else ""))
    digest = hashlib.sha256(raw[:-32]).digest()
    if raw[-32:] != digest:
        raise CheckpointError(f"{kind} checkpoint {path} failed its integrity hash")
    return _SealedReader(raw, digest.hex(), f"{kind} checkpoint {path}")


def _write_str(write: Write, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ContractError(f"a checkpoint string is at most 65535 UTF-8 bytes, got one of {len(raw)}")
    write(struct.pack("<H", len(raw)) + raw)


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
        _MODEL_CONFIG, cfg.embed_dim, cfg.n_blocks, cfg.n_heads, cfg.ffn_dim, cfg.max_seq_len,
        cfg.decode_max_len, cfg.embed_bias_std, cfg.embed_noise_std, cfg.pos_scale,
    ))
    for name in param_shapes(cfg, lm.vocab.size):
        write(memoryview(np.ascontiguousarray(lm.params[name].data, dtype="<f8")))


def _read_params(reader: _SealedReader, cfg: ModelConfig, vocab_size: int) -> dict[str, DiffValue]:
    """The weights the config and vocabulary make: one run of floats, split into per-parameter views."""
    shapes = param_shapes(cfg, vocab_size)
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = reader.floats((sum(sizes),))
    params: dict[str, DiffValue] = {}
    start = 0
    for (name, shape), size in zip(shapes.items(), sizes):
        params[name] = DiffValue(flat[start:start + size].reshape(shape))
        start += size
    return params


def _read_model_config(reader: _SealedReader) -> ModelConfig:
    try:
        return ModelConfig(*reader.unpack(_MODEL_CONFIG))
    except ConfigError as exc:
        raise CheckpointError(f"{reader.where} has an invalid config: {exc}") from None


def save_model(lm: EncoderDecoderLM, path: str | Path) -> None:
    if not lm.frozen:
        raise CheckpointError("only frozen models are checkpointed")
    buf = io.BytesIO()
    write_model_body(lm, buf.write)
    _write_sealed(buf, path)


def load_model(path: str | Path) -> EncoderDecoderLM:
    """The frozen model in the file, once its body is exactly what its config and vocabulary make.

    Only a body that save_model would write for the model it holds is
    accepted, so the seal this load verified is the model's digest: it
    becomes frozen_digest without a second hash.
    """
    reader = _open_sealed(path, MODEL_VERSION, "model")
    (n_words,) = reader.unpack("<I")
    vocab = Vocabulary(reader.strings(n_words))
    cfg = _read_model_config(reader)
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
    buf.write(struct.pack(
        _CALIBRATOR_FIELDS, DISTANCES.index(config.distance), config.learning_rate,
        config.max_epochs, config.convergence_tol, len(soft),
    ))
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
    distance_code, learning_rate, max_epochs, tol, dim = reader.unpack(_CALIBRATOR_FIELDS)
    soft = reader.floats((dim,))
    soft.flags.writeable = False
    reader.end()
    if distance_code >= len(DISTANCES):
        raise CheckpointError(f"calibrator checkpoint {path} has an unknown distance code")
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
            distance=DISTANCES[distance_code],
            learning_rate=learning_rate,
            max_epochs=max_epochs,
            convergence_tol=tol,
        )
    except ConfigError as exc:
        raise CheckpointError(f"{reader.where} has an invalid config: {exc}") from None
    try:
        tok = SoftPromptToken.from_text(token_text, lm.vocab)
    except ContractError as exc:
        raise CheckpointError(f"{reader.where} has an invalid soft token: {exc}") from None
    return soft, tok, config
