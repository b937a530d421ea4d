"""A desk-scale encoder-decoder summarizer that can be trained, then frozen.

The encoder is embedding + fixed sinusoidal positions followed by
self-attention blocks with small tanh feed-forwards and residual connections;
a pooled sentence embedding is the mean of the per-token rows. The decoder is
the causal mirror of the encoder and consumes the pooled context vector by
adding it to every step's input representation, finishing with a projection
onto the vocabulary.
"""

from __future__ import annotations

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
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def init_side_params(
    prefix: str, cfg: ModelConfig, vocab_size: int, rng: np.random.Generator
) -> dict[str, DiffValue]:
    """Fresh parameters for one side ('enc' or 'dec') of the model."""
    d, dh, f = cfg.embed_dim, cfg.head_dim, cfg.ffn_dim
    w_scale = 0.5 / math.sqrt(d)
    params: dict[str, DiffValue] = {}
    bias = rng.normal(0.0, cfg.embed_bias_std, size=(1, d))
    noise = rng.normal(0.0, cfg.embed_noise_std, size=(vocab_size, d))
    params[f"{prefix}.embed"] = ad.param(bias + noise)
    params[f"{prefix}.pos"] = ad.value(sinusoidal_positions(cfg.max_seq_len, d) * cfg.pos_scale)
    for b in range(cfg.n_blocks):
        for h in range(cfg.n_heads):
            base = f"{prefix}.b{b}.h{h}"
            params[f"{base}.wq"] = ad.param(rng.normal(0.0, w_scale, size=(d, dh)))
            params[f"{base}.wk"] = ad.param(rng.normal(0.0, w_scale, size=(d, dh)))
            params[f"{base}.wv"] = ad.param(rng.normal(0.0, w_scale, size=(d, dh)))
            params[f"{base}.wo"] = ad.param(rng.normal(0.0, w_scale, size=(dh, d)))
        params[f"{prefix}.b{b}.ffn.w1"] = ad.param(rng.normal(0.0, w_scale, size=(d, f)))
        params[f"{prefix}.b{b}.ffn.w2"] = ad.param(rng.normal(0.0, w_scale, size=(f, d)))
    if prefix == "dec":
        params["dec.out"] = ad.param(rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, vocab_size)))
    return params


class KVCache:
    """Keys and values of every position a group of frozen causal decodes has consumed.

    The decodes run in lockstep, so all live rows share one length: positions
    [0, length) of rows [0, rows) are filled, out of `positions` (default
    max_seq_len). keys and values are indexed (block, head, row, position,
    head_dim) but stored position by position, each position's rows side by
    side: a decode touches only the pages of the positions it reaches, and
    once finished rows are compacted away, only those of the rows still live.
    """

    def __init__(self, cfg: ModelConfig, rows: int = 1, positions: int | None = None):
        self.positions = cfg.max_seq_len if positions is None else positions
        shape = (self.positions, rows, cfg.n_blocks, cfg.n_heads, cfg.head_dim)
        self.keys = np.empty(shape).transpose(2, 3, 1, 0, 4)
        self.values = np.empty(shape).transpose(2, 3, 1, 0, 4)
        self.rows = rows
        self.length = 0

    def keep(self, slots: Sequence[int]) -> None:
        """Move the rows at the given ascending slots, in order, to the front; the others end."""
        n = self.length
        # One row at a time: gathering all live rows at once would allocate a
        # copy of the whole live cache.
        for slot, row in enumerate(slots):
            if slot != row:
                self.keys[:, :, slot, :n] = self.keys[:, :, row, :n]
                self.values[:, :, slot, :n] = self.values[:, :, row, :n]
        self.rows = len(slots)


def sequence_forward(
    params: Mapping[str, DiffValue],
    prefix: str,
    ids: Sequence[int],
    cfg: ModelConfig,
    context: DiffValue | None = None,
    causal: bool = False,
    cache: KVCache | None = None,
) -> DiffValue:
    """Run ids through one side of the model, returning per-token rows [n x d].

    When neither a parameter of this side nor context requires a gradient, the
    same body runs on plain numpy arrays and builds no graph; its rows are
    bit-identical to the graph's. With a cache, the call advances the cache's
    rows of a frozen causal decode by one position: ids holds each live row's
    next id, context is one d-vector for all rows or one row per live row, and
    the result has one row per live row. Each new row attends over its own
    cached positions, and every product runs stacked (a [rows x 1 x m]
    operand), which rounds each row as a one-row product does.
    """
    if len(ids) == 0:
        raise ContractError("cannot embed empty input")
    start = 0 if cache is None else cache.length
    n = start + (len(ids) if cache is None else 1)
    if n > cfg.max_seq_len:
        raise ShapeError(f"sequence length {n} exceeds max_sequence_length {cfg.max_seq_len}")
    if cache is not None and n > cache.positions:
        raise ShapeError(f"sequence length {n} exceeds the cache's {cache.positions} positions")
    side = prefix + "."
    needs_graph = (context is not None and context.requires_grad) or any(
        p.requires_grad and name.startswith(side) for name, p in params.items()
    )
    if cache is not None and (needs_graph or not causal or len(ids) != cache.rows):
        raise ContractError("a key/value cache extends a frozen causal decode by one id per live row")
    if context is not None and context.shape != (cfg.embed_dim,) and (
            cache is None or context.shape != (cache.rows, cfg.embed_dim)):
        raise ShapeError(f"context must be a length-{cfg.embed_dim} vector or one per cached row, "
                         f"got {context.shape}")

    def weight(name: str) -> DiffValue | np.ndarray:
        p = params[name]
        return p if needs_graph else p.data

    # Without a graph every op below runs on plain arrays; `@` and `+` work on
    # both, and the ops spelled twice compute the same numbers in the same order.
    pos = params[side + "pos"].data[start:n]
    if needs_graph:
        x = ad.add(ad.rows(params[side + "embed"], ids), ad.value(pos))
    else:
        table = params[side + "embed"].data
        x = table[ad.row_index(table, ids)] + pos
    if context is not None:
        x = ad.add_row_vector(x, context) if needs_graph else x + context.data
    if cache is not None:
        # A 2-D X @ W rounds a row differently depending on how many rows X
        # has; the stacked [rows x 1 x d] form runs one 1-row product per row.
        x = x[:, None, :]
    inv_sqrt_dh = 1.0 / math.sqrt(cfg.head_dim)
    # One new query row needs no causal mask: every cached position precedes it.
    row_softmax = ad.causal_softmax_rows if causal and cache is None else ad.softmax_rows
    for b in range(cfg.n_blocks):
        attn_sum = None
        for h in range(cfg.n_heads):
            base = f"{side}b{b}.h{h}."
            q = x @ weight(base + "wq")
            k = x @ weight(base + "wk")
            v = x @ weight(base + "wv")
            if cache is not None:
                rows = cache.rows
                cache.keys[b, h, :rows, start:n] = k
                cache.values[b, h, :rows, start:n] = v
                k, v = cache.keys[b, h, :rows, :n], cache.values[b, h, :rows, :n]
            if needs_graph:
                probs = row_softmax(ad.scale(q @ ad.transpose(k), inv_sqrt_dh))
            else:
                # ad.transpose copies, and BLAS can round q @ k.T differently
                # from q @ k.T.copy(), so the copy keeps the two modes bit-identical.
                scores = (q @ k.swapaxes(-1, -2).copy()) * inv_sqrt_dh
                probs = row_softmax(ad.value(scores.reshape(-1, n))).data.reshape(scores.shape)
            head_out = (probs @ v) @ weight(base + "wo")
            attn_sum = head_out if attn_sum is None else attn_sum + head_out
        x = x + attn_sum
        hidden = x @ weight(f"{side}b{b}.ffn.w1")
        hidden = ad.tanh(hidden) if needs_graph else np.tanh(hidden)
        x = x + hidden @ weight(f"{side}b{b}.ffn.w2")
    if cache is not None:
        cache.length = n
        x = x[:, 0]
    return x if needs_graph else ad.value(x)


class Encoding(NamedTuple):
    per_token: DiffValue  # [n x d]
    pooled: DiffValue  # [d]


def params_digest(params: Mapping[str, DiffValue]) -> str:
    """sha256 over names, shapes, and little-endian float64 bytes, name-sorted."""
    h = hashlib.sha256()
    for name in sorted(params):
        arr = params[name].data
        h.update(name.encode("utf-8") + b"\x00")
        h.update(str(arr.shape).encode("ascii") + b"\x00")
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


# Rows decoded in lockstep at most. A group's whole key/value cache is live at
# once, so peak memory grows with the group: on the evaluate benchmark (50
# notes a prompt), one 50-row group decoded about 15% faster than 16-row
# groups but added about 1.4 MiB (4%) to peak RSS, where 16-row groups add
# about 0.1 MiB to that of decoding one row at a time.
LOCKSTEP_ROWS = 16


@dataclass(frozen=True)
class DecodedRows:
    """Greedy decodes of the rows of a context matrix, one TokenSequence per row."""

    rows: tuple[TokenSequence, ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(row.ids) for row in self.rows)

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
        rng = np.random.default_rng(seed)
        params = init_side_params("enc", cfg, vocab.size, rng)
        params.update(init_side_params("dec", cfg, vocab.size, rng))
        return cls(vocab, cfg, params)

    def trainable(self) -> list[DiffValue]:
        return [p for p in self.params.values() if p.requires_grad]

    def freeze(self) -> None:
        for p in self.params.values():
            p.requires_grad = False
            p.grad = None
        self.frozen = True
        self._frozen_digest = params_digest(self.params)

    def weight_digest(self) -> str:
        return params_digest(self.params)

    @property
    def frozen_digest(self) -> str:
        if self._frozen_digest is None:
            raise ContractError("model is not frozen")
        return self._frozen_digest

    def _require_frozen(self, op: str) -> None:
        if not self.frozen:
            raise ContractError(f"{op} requires a frozen model")

    def encode(self, seq: TokenSequence) -> Encoding:
        """Per-token contextual embeddings and their arithmetic mean."""
        per_token = sequence_forward(self.params, "enc", seq.ids, self.cfg)
        return Encoding(per_token, ad.mean_rows(per_token))

    def decode_greedy(
        self, context: DiffValue | np.ndarray, max_len: int | None = None
    ) -> TokenSequence | DecodedRows:
        """Greedy autoregressive decode conditioned on a pooled d-vector, or on each row of a [B x d] matrix.

        A d-vector gives its TokenSequence; a matrix gives DecodedRows, whose
        rows equal, token for token, decoding each row alone. Rows go in
        lockstep groups of at most LOCKSTEP_ROWS: each step runs every live
        row's newest token through the decoder, over a KVCache of the earlier
        ones. A row stops after EOS, after max_len tokens, or when the prefix
        to feed next would reach max_seq_len.
        """
        self._require_frozen("decode_greedy")
        if max_len is None:
            max_len = self.cfg.decode_max_len
        if max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {max_len}")
        # argmax has no gradient, so the decode runs on a constant context.
        ctx = context.data if isinstance(context, DiffValue) else np.asarray(context, dtype=np.float64)
        d = self.cfg.embed_dim
        if ctx.shape == (d,):
            return self._decode_lockstep(ctx[None, :], max_len)[0]
        if ctx.ndim != 2 or ctx.shape[1] != d or len(ctx) == 0:
            raise ShapeError(f"context must be a length-{d} vector or a non-empty [B x {d}] "
                             f"matrix, got {ctx.shape}")
        rows: list[TokenSequence] = []
        for lo in range(0, len(ctx), LOCKSTEP_ROWS):
            rows += self._decode_lockstep(ctx[lo:lo + LOCKSTEP_ROWS], max_len)
        return DecodedRows(tuple(rows))

    def _decode_lockstep(self, ctx: np.ndarray, max_len: int) -> list[TokenSequence]:
        """One lockstep group: the greedy decode of each row of ctx."""
        params, cfg = self.params, self.cfg
        # A cache sized to the positions the decode can feed: a smaller block
        # to allocate, and measurably less peak memory than a max_seq_len one.
        cache = KVCache(cfg, rows=len(ctx), positions=min(max_len, cfg.max_seq_len))
        out_proj = params["dec.out"].data
        context = ad.value(ctx)
        slot_rows = list(range(len(ctx)))  # the row of ctx each live cache row decodes
        outs: list[list[int]] = [[] for _ in slot_rows]
        tokens = [BOS_ID] * len(ctx)
        for _ in range(max_len):
            x = sequence_forward(params, "dec", tokens, cfg, context=context, causal=True, cache=cache)
            # Stacked, as in sequence_forward; ties resolve to the lowest id.
            tokens = (x.data[:, None, :] @ out_proj).argmax(axis=-1)[:, 0].tolist()
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
    stall_window: int = 10
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
        check_fields(self, at_least_one, "must be >= 1", "max_epochs", "prefix_noise_max", "stall_window")
        check_fields(self, lambda p: 0 <= p <= 1, "must be in [0, 1]", "prefix_noise_prob")
        check_fields(self, non_negative, "must be >= 0", "encoder_train_epochs", "seed")


class ConvergenceRule:
    """Stops after `window` consecutive epochs of sub-tolerance relative improvement."""

    def __init__(self, tol: float, window: int):
        self.tol = tol
        self.window = window
        self._prev: float | None = None
        self._quiet = 0

    def update(self, loss: float) -> bool:
        if self._prev is not None:
            improvement = (self._prev - loss) / max(abs(self._prev), 1e-12)
            self._quiet = self._quiet + 1 if improvement < self.tol else 0
        self._prev = loss
        return self._quiet >= self.window


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
        examples.append((src.ids, tgt.ids))

    def freeze_encoder_side() -> None:
        for name, p in lm.params.items():
            if name.startswith("enc."):
                p.requires_grad = False
                p.grad = None

    encoder_epochs = min(config.encoder_train_epochs, config.max_epochs)
    if encoder_epochs == 0:
        freeze_encoder_side()
    trainable = lm.trainable()
    opt = Adam(trainable, learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    rule = ConvergenceRule(config.convergence_tol, config.stall_window)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(examples))
        total = 0.0
        for idx in order:
            src_ids, tgt_ids = examples[idx]
            if config.prefix_noise_prob > 0 and rng.random() < config.prefix_noise_prob:
                n_noise = int(rng.integers(1, config.prefix_noise_max + 1))
                noise_ids = tuple(
                    int(x) for x in rng.integers(len(SPECIAL_TOKENS), vocab.size, size=n_noise)
                )
                src_ids = noise_ids + src_ids
            pooled = ad.mean_rows(sequence_forward(lm.params, "enc", src_ids, config.model))
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
