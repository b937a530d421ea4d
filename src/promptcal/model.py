"""A desk-scale encoder-decoder summarizer that can be trained, then frozen.

The encoder is embedding + fixed sinusoidal positions followed by
self-attention blocks with small tanh feed-forwards and residual connections;
a pooled sentence embedding is the mean of the per-token rows. The decoder is
the causal mirror of the encoder and consumes the pooled context vector by
adding it to every step's input representation, finishing with a projection
onto the vocabulary.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue
from .corpus import require_impressions
from .errors import ConfigError, ContractError, ShapeError, TrainingError
from .optim import Adam
from .vocab import BOS_ID, EOS_ID, SPECIAL_TOKENS, TokenSequence, Vocabulary, tokenize


def check_fields(config: Any, ok: Callable[[Any], bool], requirement: str, *names: str) -> None:
    """Raise ConfigError for the first named field of config whose value ok rejects."""
    for name in names:
        value = getattr(config, name)
        if not ok(value):
            raise ConfigError(name, value, requirement)


# Each bound is written so that NaN fails it: every comparison with NaN is false.
def positive(x) -> bool:
    return 0 < x < math.inf


def non_negative(x) -> bool:
    return 0 <= x < math.inf


def at_least_one(x) -> bool:
    return x >= 1


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    n_blocks: int = 2
    n_heads: int = 2
    ffn_dim: int = 64
    max_seq_len: int = 96
    decode_max_len: int = 24
    # Embedding rows are a shared per-component bias plus per-token noise; the
    # bias concentrates softmax over components while cancelling out of any
    # embedding difference, and the noise sets the scale of token identity.
    embed_bias_std: float = 2.5
    embed_noise_std: float = 3.3
    pos_scale: float = 0.5

    def __post_init__(self):
        check_fields(self, at_least_one, "must be >= 1",
                     "n_heads", "ffn_dim", "max_seq_len", "decode_max_len")
        check_fields(self, lambda d: d > 0 and d % self.n_heads == 0,
                     f"must be a positive multiple of the head count {self.n_heads}", "embed_dim")
        check_fields(self, non_negative, "must be >= 0", "n_blocks")
        check_fields(self, non_negative, "must be >= 0 and finite", "embed_bias_std", "embed_noise_std")
        check_fields(self, math.isfinite, "must be finite", "pos_scale")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos positional table, [length x dim]."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


@functools.cache
def position_table(cfg: ModelConfig) -> np.ndarray:
    """The config's fixed positional rows, [max_seq_len x embed_dim]: one read-only array per config value."""
    table = sinusoidal_positions(cfg.max_seq_len, cfg.embed_dim) * cfg.pos_scale
    table.flags.writeable = False
    return table


def param_shapes(cfg: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape: encoder side, then decoder side, in init_params' draw order.

    This is also the model file's weight order: a checkpoint holds the floats
    alone, and its config and vocabulary give back every name and shape.
    """
    d, dh, f = cfg.embed_dim, cfg.head_dim, cfg.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix in ("enc", "dec"):
        shapes[f"{prefix}.embed"] = (vocab_size, d)
        for b in range(cfg.n_blocks):
            for h in range(cfg.n_heads):
                base = f"{prefix}.b{b}.h{h}"
                shapes[f"{base}.wq"] = shapes[f"{base}.wk"] = shapes[f"{base}.wv"] = (d, dh)
                shapes[f"{base}.wo"] = (dh, d)
            shapes[f"{prefix}.b{b}.ffn.w1"] = (d, f)
            shapes[f"{prefix}.b{b}.ffn.w2"] = (f, d)
    shapes["dec.out"] = (d, vocab_size)
    return shapes


def init_params(cfg: ModelConfig, vocab_size: int, rng: np.random.Generator) -> dict[str, DiffValue]:
    """Fresh parameters for the whole model, drawn in param_shapes order."""
    params: dict[str, DiffValue] = {}
    for name, shape in param_shapes(cfg, vocab_size).items():
        if name.endswith(".embed"):
            bias = rng.normal(0.0, cfg.embed_bias_std, size=(1, shape[1]))
            noise = rng.normal(0.0, cfg.embed_noise_std, size=shape)
            params[name] = ad.param(bias + noise)
        else:
            scale = (1.0 if name == "dec.out" else 0.5) / math.sqrt(cfg.embed_dim)
            params[name] = ad.param(rng.normal(0.0, scale, size=shape))
    return params


class BlockWeights(NamedTuple):
    """One block's weights laid out for a head-batched decode step."""

    qkv: np.ndarray  # [d x 3*H*dh]: every head's wq, then every head's wk, then every head's wv
    wo: np.ndarray  # [H x dh x d]: each head's wo
    w1: np.ndarray
    w2: np.ndarray


def block_weights(params: Mapping[str, DiffValue], side: str, cfg: ModelConfig) -> list[BlockWeights]:
    """Each block's weights for one side, with the heads' projections side by side."""
    out = []
    for b in range(cfg.n_blocks):
        heads = [f"{side}b{b}.h{h}." for h in range(cfg.n_heads)]
        qkv = np.concatenate([params[base + w].data for w in ("wq", "wk", "wv") for base in heads], axis=1)
        wo = np.array([params[base + "wo"].data for base in heads])
        out.append(BlockWeights(qkv, wo, params[f"{side}b{b}.ffn.w1"].data, params[f"{side}b{b}.ffn.w2"].data))
    return out


_CACHE_CONTRACT = "a key/value cache extends a frozen causal decode by one id per live row"


class KVCache:
    """Keys and values of every position a group of frozen causal decodes has consumed.

    The decodes run in lockstep, so all live rows share one length: positions
    [0, length) of rows [0, rows) are filled, out of `positions`, the most a
    greedy decode feeds. kv is indexed (block, key or value, head, row, position,
    head_dim), and keys and values are its two halves, but it is stored
    position by position, each position's rows side by side: a decode touches
    only the pages of the positions it reaches, and once finished rows are
    compacted away, only those of the rows still live. A step writes every
    head's key and value of a block at once. The cache also keeps the
    block_weights its steps multiply by, built on the first step and rebuilt
    only if a step brings another parameter mapping; only a frozen side is
    accepted, so that check runs once per build, not per step. A step's
    products by shared weights run over product_rows rows: the live rows,
    then zero rows up to a multiple of row_multiple (see lockstep_row_multiple).
    """

    def __init__(self, cfg: ModelConfig, rows: int = 1, row_multiple: int = 1):
        # The positions a decode can feed: a smaller block to allocate, and
        # measurably less peak memory than max_seq_len positions.
        self.positions = min(cfg.decode_max_len, cfg.max_seq_len)
        shape = (self.positions, rows, cfg.n_blocks, 2, cfg.n_heads, cfg.head_dim)
        self.kv = np.empty(shape).transpose(2, 3, 4, 1, 0, 5)
        self.keys, self.values = self.kv[:, 0], self.kv[:, 1]
        self.rows = rows
        self.row_multiple = row_multiple
        self.length = 0
        self._weights: tuple[Mapping[str, DiffValue], str, list[BlockWeights]] | None = None

    @property
    def product_rows(self) -> int:
        """The live rows rounded up to a multiple of row_multiple."""
        return -(-self.rows // self.row_multiple) * self.row_multiple

    def weights(self, params: Mapping[str, DiffValue], side: str, cfg: ModelConfig) -> list[BlockWeights]:
        """block_weights of params' side, built once per decode."""
        if self._weights is None or self._weights[0] is not params or self._weights[1] != side:
            if any(p.requires_grad and name.startswith(side) for name, p in params.items()):
                raise ContractError(_CACHE_CONTRACT)
            self._weights = (params, side, block_weights(params, side, cfg))
        return self._weights[2]

    def keep(self, slots: Sequence[int]) -> None:
        """Move the rows at the given ascending slots, in order, to the front; the others end."""
        n = self.length
        # One row at a time: gathering all live rows at once would allocate a
        # copy of the whole live cache.
        for slot, row in enumerate(slots):
            if slot != row:
                self.kv[:, :, :, slot, :n] = self.kv[:, :, :, row, :n]
        self.rows = len(slots)


def sequence_forward(
    params: Mapping[str, DiffValue],
    prefix: str,
    ids: Sequence[int],
    cfg: ModelConfig,
    context: DiffValue | None = None,
    causal: bool = False,
    cache: KVCache | None = None,
    rows: int | None = None,
) -> DiffValue:
    """Run ids through one side of the model; rows and cache pick the mode, one per use.

    With neither, the call builds the autodiff graph of one sequence, as
    pretrain and SoftPromptEncoder train it, and returns its rows [n x d]:
    context, a d-vector, is added to every position's input, and causal keeps
    each position from attending to later ones. The body loops over the heads
    of each block, as backward's accumulation order needs.

    With rows, it runs that many equal-length sequences of a frozen side, ids
    back to back, unmasked and without a context (encode_many, encode): the
    same body on plain arrays, every product stacked, one [n x m] product per
    sequence. The result, [rows x n x d], is bit-identical sequence by
    sequence to the graph's.

    With a cache, it advances a frozen causal decode's live rows by one
    position (decode_step): ids holds each row's next id, context is one
    d-vector or one row per live row, and the result has one row per live
    row, then zero rows up to cache.product_rows. A one-row cache of the
    default row_multiple 1 makes every product a 1-row product, as the
    graph's for a one-row sequence, so its first step is bit-identical to it.
    """
    if len(ids) == 0:
        raise ContractError("cannot embed empty input")
    side = prefix + "."
    if rows is not None and (context is not None or causal or cache is not None or rows < 1
                             or len(ids) % rows != 0
                             or any(p.requires_grad and name.startswith(side) for name, p in params.items())):
        raise ContractError(f"a stacked call runs {rows} equal-length frozen sequences "
                            f"without a context, a causal mask or a cache; got {len(ids)} ids")
    n = cache.length + 1 if cache is not None else len(ids) // (rows or 1)
    if n > cfg.max_seq_len:
        raise ShapeError(f"sequence length {n} exceeds max_sequence_length {cfg.max_seq_len}")
    if cache is not None:
        if n > cache.positions:
            raise ShapeError(f"sequence length {n} exceeds the cache's {cache.positions} positions")
        # The side is checked once per cache, by KVCache.weights.
        if not causal or len(ids) != cache.rows or (context is not None and context.requires_grad):
            raise ContractError(_CACHE_CONTRACT)
        if context is not None and context.shape not in ((cfg.embed_dim,), (cache.rows, cfg.embed_dim)):
            raise ShapeError(f"context must be a length-{cfg.embed_dim} vector or one per cached row, "
                             f"got {context.shape}")
        return ad.value(decode_step(params, side, ids, cfg, context, cache))
    graph = rows is None

    def weight(name: str) -> DiffValue | np.ndarray:
        p = params[name]
        return p if graph else p.data

    # A stack runs every op below on plain arrays; `@` and `+=` work on both,
    # and the ops spelled twice compute the same numbers in the same order.
    # DiffValue has no in-place add, so on it `x += y` is `x = x + y`, a new
    # node; on an array it writes over x, always an array this call made.
    pos = position_table(cfg)[:n]
    if graph:
        x = ad.add(ad.rows(params[side + "embed"], ids), ad.value(pos))
        if context is not None:
            x = ad.add_row_vector(x, context)
    else:
        table = params[side + "embed"].data
        x = table[ad.row_index(table, ids)].reshape(rows, n, -1)
        x += pos
    inv_sqrt_dh = 1.0 / math.sqrt(cfg.head_dim)
    row_softmax = ad.causal_softmax_rows if causal else ad.softmax_rows
    for b in range(cfg.n_blocks):
        attn_sum = None
        for h in range(cfg.n_heads):
            base = f"{side}b{b}.h{h}."
            q, k, v = (x @ weight(base + w) for w in ("wq", "wk", "wv"))
            if graph:
                probs = row_softmax(ad.scale(q @ ad.transpose(k), inv_sqrt_dh))
            else:
                # ad.transpose copies, and BLAS can round q @ k.T differently
                # from q @ k.T.copy(), so the copy keeps a stack bit-identical to the graph.
                probs = q @ k.swapaxes(-1, -2).copy()
                probs *= inv_sqrt_dh
                flat = probs.reshape(-1, n)
                row_softmax(flat, out=flat)
            head_out = (probs @ v) @ weight(base + "wo")
            if attn_sum is None:
                attn_sum = head_out
            else:
                attn_sum += head_out
        x += attn_sum
        hidden = x @ weight(f"{side}b{b}.ffn.w1")
        hidden = ad.tanh(hidden) if graph else np.tanh(hidden, out=hidden)
        x += hidden @ weight(f"{side}b{b}.ffn.w2")
    return x if graph else ad.value(x)


def decode_step(
    params: Mapping[str, DiffValue],
    side: str,
    ids: Sequence[int],
    cfg: ModelConfig,
    context: DiffValue | None,
    cache: KVCache,
) -> np.ndarray:
    """sequence_forward's cached step, after its checks: [cache.product_rows x d], the live rows first.

    Every product by a shared weight is one 2-D product over all product
    rows: the fused projection of every head's query, key and value, each
    head's output projection (one stacked product over the heads, summed in
    head order, as the per-head loop sums them) and the feed-forward. The
    rows past the live ones start at zero and so stay zero. Attention stays
    per row: each block writes every head's key and value into the cache at
    once, then runs the scores, the softmax and the mix of values as one
    stacked product each, one 1-row product per (head, row), which rounds as
    the product with that head's block alone. One product row makes every
    product a 1-row product, as the graph path multiplies a one-row sequence.
    """
    weights = cache.weights(params, side, cfg)
    start, live = cache.length, cache.rows
    n = start + 1
    table = params[side + "embed"].data
    x = np.zeros((cache.product_rows, cfg.embed_dim))
    rows = x[:live]
    np.add(table[ad.row_index(table, ids)], position_table(cfg)[start], out=rows)
    if context is not None:
        rows += context.data
    # Each head's mixed values: the live rows are written, the others stay zero.
    mixed = np.zeros((cfg.n_heads, len(x), 1, cfg.head_dim))
    live_mixed, mixed = mixed[:, :live], mixed[:, :, 0]
    per_head = (live, 3, cfg.n_heads, 1, cfg.head_dim)
    inv_sqrt_dh = 1.0 / math.sqrt(cfg.head_dim)
    for b, w in enumerate(weights):
        # [live x 3*H*dh] -> [3 x H x live x 1 x dh]: query, key, value per head.
        qkv = (x @ w.qkv)[:live].reshape(per_head).transpose(1, 2, 0, 3, 4)
        kv = cache.kv[b]
        kv[:, :, :live, start] = qkv[1:, :, :, 0]
        keys, values = kv[:, :, :live, :n]
        # One new query row needs no causal mask: every cached position
        # precedes it. The key transpose is copied, as the per-head loop does.
        scores = qkv[0] @ keys.swapaxes(-1, -2).copy()
        scores *= inv_sqrt_dh
        flat = scores.reshape(-1, n)
        ad.softmax_rows(flat, out=flat)
        np.matmul(scores, values, out=live_mixed)
        head_out = mixed @ w.wo  # [H x product rows x d]
        attn_sum = head_out[0]
        for h in range(1, len(head_out)):
            attn_sum += head_out[h]
        x += attn_sum
        hidden = x @ w.w1
        x += np.tanh(hidden, out=hidden) @ w.w2
    cache.length = n
    return x


class Encoding(NamedTuple):
    per_token: DiffValue  # [n x d]
    pooled: DiffValue  # [d]


def params_digest(params: Mapping[str, DiffValue]) -> str:
    """sha256 over names, shapes, and little-endian float64 bytes, name-sorted.

    For a subset of a model's parameters, such as its encoder; a whole model's
    digest is EncoderDecoderLM.weight_digest().
    """
    h = hashlib.sha256()
    for name in sorted(params):
        arr = params[name].data
        h.update(name.encode("utf-8") + b"\x00")
        h.update(str(arr.shape).encode("ascii") + b"\x00")
        # Hashed in place: the memoryview exposes the bytes tobytes() would copy.
        h.update(memoryview(np.ascontiguousarray(arr, dtype="<f8")))
    return h.hexdigest()


# Rows decoded in lockstep at most. A step multiplies by each shared weight
# once for its whole group, so it costs about the same at any group size and
# larger groups take fewer steps; but a group's whole key/value cache is live
# at once, so peak memory grows with the group. This is the one bound on a
# decode's memory: summarize_many hands every prompted note to one call. A
# round of both evaluate arms took 0.499 s in 16-row groups, 0.501 s in 32 and
# 0.452 s in 40, with heap peaks of 2,184, 2,424 and 2,890 KiB
# (tools/ab_evaluate.py --lockstep 16,40, medians of 15 interleaved repeats, 1
# BLAS thread; BENCH_evaluate.json).
LOCKSTEP_ROWS = 32

# The row multiples lockstep_row_multiple tries, least first.
ROW_MULTIPLES = (2, 4, 8)


def decoder_product_shapes(cfg: ModelConfig, vocab_size: int) -> tuple[tuple[int, int], ...]:
    """Every weight shape a decode step multiplies its product rows by: the fused query, key and
    value projection, a head's output projection, the feed-forward and the vocabulary projection."""
    d = cfg.embed_dim
    return (d, 3 * d), (cfg.head_dim, d), (d, cfg.ffn_dim), (cfg.ffn_dim, d), (d, vocab_size)


def probe_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """A [rows x cols] matrix of unpatterned entries in [-1, 1], without numpy.random (whose
    import alone adds about 2 MiB to a process's resident memory)."""
    return np.sin(np.arange(seed, seed + rows * cols, dtype=np.float64) * 1.7).reshape(rows, cols)


def rows_round_alike(w: np.ndarray, multiple: int, most: int) -> bool:
    """Whether numpy's BLAS rounds each row of X @ w, at every multiple of `multiple` rows up to
    `most`, as it rounds that row followed by zero rows in a product of `multiple` rows."""
    x = probe_matrix(most, len(w), w.size)
    lone = np.zeros((multiple, len(w)))
    alone = np.empty((most, w.shape[1]))
    for i, row in enumerate(x):
        lone[0] = row
        alone[i] = (lone @ w)[0]
    return all(np.array_equal(x[:rows] @ w, alone[:rows]) for rows in range(multiple, most + 1, multiple))


@functools.cache
def lockstep_row_multiple(shapes: tuple[tuple[int, int], ...], group_rows: int) -> int:
    """The least of ROW_MULTIPLES for which rows_round_alike holds for a weight of every shape, up
    to the largest product a lockstep group of group_rows rows makes; the last one if none does.

    decode_greedy's steps run every product by a shared weight over a
    multiple of it: the live rows, then zero rows. Each row then rounds as it
    does alone, so a row's tokens depend neither on the rows decoded beside it
    nor on when they finish. Which counts qualify depends on the BLAS
    kernel: OpenBLAS 0.3.31's SkylakeX kernels round a row alike at every
    count from 2, its Haswell kernels round the last row of an odd count
    apart, its Nehalem kernels need a multiple of 8, and every kernel runs a
    1-row product as GEMV. So the multiple is measured, once per process and
    set of arguments, in a few hundred small products; TestStackedProducts
    checks it under several kernels. The multiple sets only how many zero
    rows a step carries, never a row's bits.
    """
    weights = [probe_matrix(*shape, seed=0) for shape in shapes]
    for multiple in ROW_MULTIPLES:
        most = -(-group_rows // multiple) * multiple
        if all(rows_round_alike(w, multiple, most) for w in weights):
            return multiple
    return ROW_MULTIPLES[-1]


# Equal-length sequences encode_many stacks into one encoder forward at most.
# Larger stacks run slower, not faster: encoding the calibrate benchmark's
# 2,200 sequences took about 1,100 ms one at a time, 790-840 ms in stacks of 4
# to 8, and 1,000-1,080 ms in stacks of 12 to 32 (tools/ab_encode.py
# --bounds, medians of 15 interleaved repeats, 1 BLAS thread; BENCH_encode.json),
# so stacks the size of a lockstep group would be on the slow side of that step.
ENCODE_ROWS = 6


@dataclass(frozen=True)
class DecodedRows:
    """Greedy decodes of the rows of a context matrix, one TokenSequence per row."""

    rows: tuple[TokenSequence, ...]

    @property
    def ids(self) -> tuple[int, ...]:
        """Every row's ids, joined in row order."""
        return tuple(i for row in self.rows for i in row.ids)


class EncoderDecoderLM:
    """The surrogate summarizer: vocabulary, encoder, decoder, freeze state."""

    def __init__(self, vocab: Vocabulary, cfg: ModelConfig, params: dict[str, DiffValue]):
        self.vocab = vocab
        self.cfg = cfg
        self.params = params
        self.frozen = False
        self._frozen_digest: str | None = None

    @classmethod
    def initialize(cls, vocab: Vocabulary, cfg: ModelConfig, seed: int) -> "EncoderDecoderLM":
        return cls(vocab, cfg, init_params(cfg, vocab.size, np.random.default_rng(seed)))

    def trainable(self) -> list[DiffValue]:
        return [p for p in self.params.values() if p.requires_grad]

    def freeze(self, digest: str | None = None) -> None:
        """Stop training for good: every weight array becomes read-only.

        digest, if given, is the model's digest as the caller has just computed
        it: load_model passes the seal it verified.
        """
        for p in self.params.values():
            p.requires_grad = False
            p.grad = None
            p.data.flags.writeable = False
        self.frozen = True
        self._frozen_digest = digest

    def weight_digest(self) -> str:
        """sha256 of the model file body save_model writes for the model as it is now; always recomputed.

        The body (vocabulary, config, weights) is streamed into the hash through
        checkpoint's one writer, never built in memory.
        """
        from .checkpoint import write_model_body  # checkpoint imports this module

        h = hashlib.sha256()
        write_model_body(self, h.update)
        return h.hexdigest()

    @property
    def frozen_digest(self) -> str:
        """The digest at the freeze: load_model's verified seal, else weight_digest() on first use; cached.

        Caching is sound because freeze() made every weight array read-only,
        so no in-place write can change the weights afterwards, and the
        vocabulary and config are immutable.
        """
        if not self.frozen:
            raise ContractError("model is not frozen")
        if self._frozen_digest is None:
            self._frozen_digest = self.weight_digest()
        return self._frozen_digest

    def _require_frozen(self, op: str) -> None:
        if not self.frozen:
            raise ContractError(f"{op} requires a frozen model")

    def encode(self, seq: TokenSequence) -> Encoding:
        """Per-token contextual embeddings and their arithmetic mean, from a one-sequence stack."""
        self._require_frozen("encode")
        per_token = ad.value(sequence_forward(self.params, "enc", seq.ids, self.cfg, rows=1).data[0])
        return Encoding(per_token, ad.mean_rows(per_token))

    def encode_many(self, seqs: Sequence[TokenSequence]) -> np.ndarray:
        """The pooled encoding of each sequence, as [B x d] rows in input order.

        Sequences of one length are encoded together, ENCODE_ROWS at most per
        stacked sequence_forward call; each row is bit-identical to
        encode(seq).pooled. The encoder must be frozen: a stacked call builds
        no graph.
        """
        by_length: dict[int, list[int]] = {}
        for i, s in enumerate(seqs):
            by_length.setdefault(len(s.ids), []).append(i)
        pooled = np.empty((len(seqs), self.cfg.embed_dim))
        for members in by_length.values():
            for lo in range(0, len(members), ENCODE_ROWS):
                chunk = members[lo:lo + ENCODE_ROWS]
                ids = [i for k in chunk for i in seqs[k].ids]
                x = sequence_forward(self.params, "enc", ids, self.cfg, rows=len(chunk)).data
                pooled[chunk] = x.mean(axis=1)
        return pooled

    def decode_greedy(self, context: DiffValue | np.ndarray) -> TokenSequence | DecodedRows:
        """Greedy autoregressive decode conditioned on a pooled d-vector, or on each row of a [B x d] matrix.

        A d-vector gives its TokenSequence; a matrix gives DecodedRows, whose
        rows equal, token for token, decoding each row alone. Rows go in
        lockstep groups of at most LOCKSTEP_ROWS: each step runs every live
        row's newest token through the decoder, over a KVCache of the earlier
        ones, and multiplies by each shared weight once for the whole group,
        over a multiple of lockstep_row_multiple rows. A lone row is such a
        group too, so each row's bits are those of decoding it alone. A row
        stops after EOS, after cfg.decode_max_len tokens, or when the prefix to
        feed next would reach max_seq_len.
        """
        self._require_frozen("decode_greedy")
        # argmax has no gradient, so the decode runs on a constant context.
        ctx = context.data if isinstance(context, DiffValue) else np.asarray(context, dtype=np.float64)
        d = self.cfg.embed_dim
        if ctx.shape == (d,):
            return self._decode_lockstep(ctx[None, :])[0]
        if ctx.ndim != 2 or ctx.shape[1] != d or len(ctx) == 0:
            raise ShapeError(f"context must be a length-{d} vector or a non-empty [B x {d}] "
                             f"matrix, got {ctx.shape}")
        rows: list[TokenSequence] = []
        for lo in range(0, len(ctx), LOCKSTEP_ROWS):
            rows += self._decode_lockstep(ctx[lo:lo + LOCKSTEP_ROWS])
        return DecodedRows(tuple(rows))

    def _decode_lockstep(self, ctx: np.ndarray) -> list[TokenSequence]:
        """One lockstep group: the greedy decode of each row of ctx."""
        params, cfg = self.params, self.cfg
        multiple = lockstep_row_multiple(decoder_product_shapes(cfg, self.vocab.size), LOCKSTEP_ROWS)
        cache = KVCache(cfg, rows=len(ctx), row_multiple=multiple)
        out_proj = params["dec.out"].data
        context = ad.value(ctx)
        slot_rows = list(range(len(ctx)))  # the row of ctx each live cache row decodes
        outs: list[list[int]] = [[] for _ in slot_rows]
        tokens = [BOS_ID] * len(ctx)
        for _ in range(cfg.decode_max_len):
            x = sequence_forward(params, "dec", tokens, cfg, context=context, causal=True, cache=cache)
            # Over every product row, as the step's products; ties resolve to the lowest id.
            tokens = (x.data @ out_proj)[:len(tokens)].argmax(axis=1).tolist()
            for row, token in zip(slot_rows, tokens):
                outs[row].append(token)
            if cache.length + 1 >= cfg.max_seq_len:
                break
            if EOS_ID in tokens:  # compact only on a step where some row finishes
                live = [slot for slot, token in enumerate(tokens) if token != EOS_ID]
                if not live:
                    break
                cache.keep(live)
                slot_rows = [slot_rows[slot] for slot in live]
                tokens = [tokens[slot] for slot in live]
                context = ad.value(context.data[live])
        return [TokenSequence(tuple(out)) for out in outs]

    def nearest_token(self, v: DiffValue | np.ndarray) -> int:
        """Vocabulary id whose encoder-embedding row is Euclidean-closest to v."""
        self._require_frozen("nearest_token")
        vec = v.data if isinstance(v, DiffValue) else np.asarray(v, dtype=np.float64)
        if vec.shape != (self.cfg.embed_dim,):
            raise ShapeError(f"expected a length-{self.cfg.embed_dim} vector, got {vec.shape}")
        table = self.params["enc.embed"].data
        diff = table - vec[None, :]
        return int(np.argmin((diff * diff).sum(axis=1)))  # ties resolve to the lowest id


@dataclass(frozen=True)
class PretrainConfig:
    learning_rate: float = 2e-3
    max_epochs: int = 500
    convergence_tol: float = 1e-4
    max_grad_norm: float = 1.0  # per-parameter clip; keeps the norm-free blocks stable
    # The encoder trains for this many warmup epochs and is then frozen while
    # the decoder keeps training. A short warmup lets the encoder organize
    # around corpus content; freezing afterwards stops sentence-embedding
    # geometry from drifting with the total epoch count.
    encoder_train_epochs: int = 3
    # With this probability a training input is prepended with a few random
    # vocabulary tokens, so the decoder learns to summarize the content rather
    # than the framing (instruction-noise exposure at desk scale). The cap
    # covers the soft prefix plus a short prompt's worth of junk.
    prefix_noise_prob: float = 0.5
    prefix_noise_max: int = 14
    seed: int = 7
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        check_fields(self, positive, "must be positive and finite",
                     "learning_rate", "max_grad_norm", "convergence_tol")
        check_fields(self, at_least_one, "must be >= 1", "max_epochs", "prefix_noise_max")
        check_fields(self, lambda p: 0 <= p <= 1, "must be in [0, 1]", "prefix_noise_prob")
        check_fields(self, non_negative, "must be >= 0", "encoder_train_epochs", "seed")


# Consecutive epochs of sub-tolerance relative improvement after which pretrain and train_calibrator stop.
STALL_WINDOW = 10


class ConvergenceRule:
    """Stops after STALL_WINDOW consecutive epochs of sub-tolerance relative improvement."""

    def __init__(self, tol: float):
        self.tol = tol
        self._prev: float | None = None
        self._quiet = 0

    def update(self, loss: float) -> bool:
        if self._prev is not None:
            improvement = (self._prev - loss) / max(abs(self._prev), 1e-12)
            self._quiet = self._quiet + 1 if improvement < self.tol else 0
        self._prev = loss
        return self._quiet >= STALL_WINDOW


def clip_gradients(params: Sequence[DiffValue], max_norm: float) -> None:
    """Scale each parameter's gradient down to the given L2 norm if it exceeds it."""
    for p in params:
        if p.grad is None:
            continue
        norm = math.sqrt(np.add.reduce(p.grad * p.grad, axis=None))
        if norm > max_norm:
            p.grad *= max_norm / norm


def pretrain(
    corpus: Sequence,
    config: PretrainConfig = PretrainConfig(),
    extra_texts: Iterable[str] = (),
    log_fn: Callable[[int, float], None] | None = None,
) -> EncoderDecoderLM:
    """Train the summarizer on findings -> impression pairs, then freeze it.

    The vocabulary covers the corpus plus any extra_texts (prompt files, soft
    token strings) so that downstream inputs are in-distribution.

    Training runs in two phases. For the first encoder_train_epochs epochs
    both sides train, and each example's context is the pooled encoding of its
    source, on the autodiff graph. The encoder is then frozen and the decoder
    trains alone; the contexts become constants, so they come from
    encode_many: the bare sources are encoded once, at the first decoder-only
    epoch, and each epoch's noised sources are encoded together before that
    epoch's steps. Each epoch draws its whole input list (order, then prefix
    noise per example) before its first step, in the order the steps take
    them; the draws never depend on the weights.
    """
    records = list(corpus)
    if not records:
        raise ContractError("pretrain requires a non-empty corpus")
    require_impressions(records)
    texts = [r.findings for r in records] + [r.impression for r in records] + list(extra_texts)
    vocab = Vocabulary.from_texts(texts)
    lm = EncoderDecoderLM.initialize(vocab, config.model, config.seed)

    examples = []
    for r in records:
        src = tokenize(r.findings, vocab)
        tgt = tokenize(r.impression, vocab)
        if not src.ids or not tgt.ids:
            raise ContractError(f"record {r.id!r} tokenized to an empty sequence")
        examples.append((src, tgt.ids))

    def freeze_encoder_side() -> None:
        for name, p in lm.params.items():
            if name.startswith("enc."):
                p.requires_grad = False
                p.grad = None
                # A copy, not a view of the encoder-phase optimizer's buffer:
                # a view would keep that whole buffer, decoder half included,
                # alive for as long as the model.
                p.data = p.data.copy()

    rng = np.random.default_rng(config.seed)

    def draw_epoch() -> list[tuple[int, TokenSequence, bool]]:
        """Each step's example index, source and whether noise was prepended to it."""
        steps = []
        for idx in rng.permutation(len(examples)):
            src = examples[idx][0]
            noised = config.prefix_noise_prob > 0 and rng.random() < config.prefix_noise_prob
            if noised:
                n_noise = int(rng.integers(1, config.prefix_noise_max + 1))
                noise_ids = tuple(
                    int(x) for x in rng.integers(len(SPECIAL_TOKENS), vocab.size, size=n_noise)
                )
                src = TokenSequence(noise_ids + src.ids)
            steps.append((idx, src, noised))
        return steps

    encoder_epochs = min(config.encoder_train_epochs, config.max_epochs)
    if encoder_epochs == 0:
        freeze_encoder_side()
    trainable = lm.trainable()
    opt = Adam(trainable, learning_rate=config.learning_rate)
    rule = ConvergenceRule(config.convergence_tol)
    bare: np.ndarray | None = None  # the frozen encoder's pooled bare sources
    for epoch in range(1, config.max_epochs + 1):
        steps = draw_epoch()
        contexts = None
        if epoch > encoder_epochs:
            if bare is None:
                bare = lm.encode_many([src for src, _ in examples])
            contexts = bare[[idx for idx, _, _ in steps]]
            noised = [k for k, (_, _, is_noised) in enumerate(steps) if is_noised]
            if noised:
                contexts[noised] = lm.encode_many([steps[k][1] for k in noised])
        total = 0.0
        for k, (idx, src, _) in enumerate(steps):
            if contexts is None:
                pooled = ad.mean_rows(sequence_forward(lm.params, "enc", src.ids, config.model))
            else:
                pooled = ad.value(contexts[k])
            tgt_ids = examples[idx][1]
            dec_in = (BOS_ID,) + tgt_ids
            targets = tgt_ids + (EOS_ID,)
            x = sequence_forward(lm.params, "dec", dec_in, config.model, context=pooled, causal=True)
            logits = ad.matmul(x, lm.params["dec.out"])
            loss = ad.token_cross_entropy(logits, targets)
            if not np.isfinite(loss.data):
                raise TrainingError(f"non-finite pretraining loss at epoch {epoch}")
            total += float(loss.data)
            ad.backward(loss)
            clip_gradients(trainable, config.max_grad_norm)
            opt.step()
        mean_loss = total / len(examples)
        if log_fn is not None:
            log_fn(epoch, mean_loss)
        if epoch == encoder_epochs:
            freeze_encoder_side()
            trainable = lm.trainable()
            del opt  # free the encoder-phase buffers before allocating the decoder-only ones
            opt = Adam(trainable, learning_rate=config.learning_rate)
        if rule.update(mean_loss):
            break
    lm.freeze()
    return lm
