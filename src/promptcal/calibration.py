"""Soft-prompt calibration of a frozen summarizer.

A trainable copy of the frozen encoder maps a fixed soft prompt token string
to a d-vector. Training pulls the element-wise mean of (frozen embedding of
the prompted input, soft vector) toward the frozen embedding of the bare
input, touching no frozen weight. The trained soft vector is the calibrator:
at inference it is projected back to nearby vocabulary tokens and that
invariant prefix is prepended to every prompted input before encoding and
greedy decoding. The encoder copy is needed only during training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue
from .errors import ContractError, TrainingError
from .model import (ConvergenceRule, EncoderDecoderLM, at_least_one, check_fields, non_negative,
                    positive, sequence_forward)
from .optim import Adam
from .vocab import UNK_ID, TokenSequence, Vocabulary, concat, sep_sequence, tokenize

DEFAULT_SOFT_TOKEN_TEXT = "radiologist describe stable normality and abnormality exam"
OOD_SOFT_TOKEN_TEXT = "##1 ##2"

# Decoded-prefix length cap; see decode_soft_prompt.
DEFAULT_SOFT_PREFIX_LEN = 2

# Row-wise distances over B x d batches of (target, fused) embedding pairs.
DISTANCES: dict[str, Callable[[DiffValue, DiffValue], DiffValue]] = {
    "mse": ad.rowwise_mse,
    "cross_entropy": ad.rowwise_cross_entropy,
}

SEPARATOR_POLICIES = ("prompt_first", "notes_first")


@dataclass(frozen=True)
class SoftPromptToken:
    """The fixed word string fed to the soft encoder each step."""

    text: str
    ids: TokenSequence
    in_distribution: bool
    length: int

    @classmethod
    def from_text(cls, text: str, vocab: Vocabulary) -> "SoftPromptToken":
        seq = tokenize(text, vocab)
        if not seq.ids:
            raise ContractError("soft prompt token must contain at least one token")
        return cls(
            text=text,
            ids=seq,
            in_distribution=UNK_ID not in seq.ids,
            length=len(seq.ids),
        )

    def truncated(self, length: int, vocab: Vocabulary) -> "SoftPromptToken":
        if not 1 <= length <= self.length:
            raise ContractError(
                f"soft token length {length} out of range 1..{self.length}"
            )
        words = self.text.split()
        return SoftPromptToken.from_text(" ".join(words[:length]), vocab)


@dataclass(frozen=True)
class CalibrationConfig:
    distance: str = "mse"
    learning_rate: float = 1e-3
    max_epochs: int = 200
    convergence_tol: float = 1e-4
    stall_window: int = 10
    seed: int = 7
    separator_policy: str = "prompt_first"

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ContractError(f"unknown distance {self.distance!r}")
        if self.separator_policy not in SEPARATOR_POLICIES:
            raise ContractError(f"unknown separator policy {self.separator_policy!r}")
        check_fields(self, positive, "must be positive and finite", "learning_rate", "convergence_tol")
        check_fields(self, at_least_one, "must be >= 1", "max_epochs", "stall_window")
        check_fields(self, non_negative, "must be >= 0", "seed")


class SoftPromptEncoder:
    """Trainable encoder initialized as a bit-exact copy of the frozen one; training only."""

    def __init__(self, params: dict[str, DiffValue], cfg):
        self.params = params
        self.cfg = cfg

    @classmethod
    def from_frozen(cls, lm: EncoderDecoderLM) -> "SoftPromptEncoder":
        if not lm.frozen:
            raise ContractError("soft prompt encoder must copy a frozen model")
        params: dict[str, DiffValue] = {}
        for name, p in lm.params.items():
            if not name.startswith("enc."):
                continue
            clone = ad.value(p.data.copy()) if name == "enc.pos" else ad.param(p.data.copy())
            params[name] = clone
        return cls(params, lm.cfg)

    def trainable(self) -> list[DiffValue]:
        return [p for p in self.params.values() if p.requires_grad]

    def encode_pooled(self, ids: Sequence[int]) -> DiffValue:
        per_token = sequence_forward(self.params, "enc", ids, self.cfg)
        return ad.mean_rows(per_token)


def encode_soft(tok: SoftPromptToken, soft: np.ndarray) -> DiffValue:
    """The trained soft vector of the calibration (soft, tok) as a constant."""
    return ad.value(soft)


def join_prompted(t_llm: TokenSequence, t_org: TokenSequence, policy: str = "prompt_first") -> TokenSequence:
    """Join prompt and notes around a separator; an empty prompt yields the notes alone."""
    if not t_org.ids:
        raise ContractError("input notes must be non-empty")
    if not t_llm.ids:
        return t_org
    if policy == "prompt_first":
        return concat(t_llm, sep_sequence(), t_org)
    if policy == "notes_first":
        return concat(t_org, sep_sequence(), t_llm)
    raise ContractError(f"unknown separator policy {policy!r}")


def calibration_loss(
    bare: np.ndarray, prompted: np.ndarray, soft: DiffValue, distance: str
) -> DiffValue:
    """The calibration objective over B (input, prompt) pairs.

    Mean over rows of the distance between the frozen bare-notes embedding
    and the element-wise mean of the frozen prompted embedding and the soft
    vector. bare and prompted are B x d constants; gradient reaches only soft.
    """
    fused = ad.scale(ad.add_row_vector(ad.value(prompted), soft), 0.5)
    return DISTANCES[distance](ad.value(bare), fused)


def alignment_loss(
    t_org: TokenSequence,
    t_llm: TokenSequence,
    tok: SoftPromptToken,
    lm: EncoderDecoderLM,
    enc: SoftPromptEncoder,
    distance: str = "mse",
    policy: str = "prompt_first",
) -> DiffValue:
    """The calibration objective for one (notes, prompt) pair: its B = 1 case."""
    prompted = lm.encode(join_prompted(t_llm, t_org, policy)).pooled.data
    bare = lm.encode(t_org).pooled.data
    return calibration_loss(bare[None, :], prompted[None, :], enc.encode_pooled(tok.ids.ids), distance)


def train_calibrator(
    corpus_inputs: Sequence[TokenSequence],
    prompts: Sequence[TokenSequence],
    tok: SoftPromptToken,
    lm: EncoderDecoderLM,
    config: CalibrationConfig = CalibrationConfig(),
    log_fn: Callable[[int, float], None] | None = None,
) -> np.ndarray:
    """Fit the soft encoder over every (input, prompt) pair and return its soft vector.

    Zero-shot by construction: only input token sequences are accepted, never
    gold summaries. The frozen pooled embeddings are constants of the
    optimization, so they are computed once up front; each epoch takes one
    full-batch step on calibration_loss over all pairs. The result is the
    read-only d-vector the encoder copy maps tok to after the last epoch;
    frozen weights are untouched.
    """
    if not corpus_inputs:
        raise ContractError("train_calibrator requires at least one input")
    if not prompts:
        raise ContractError("train_calibrator requires at least one prompt")
    if not lm.frozen:
        raise ContractError("train_calibrator requires a frozen model")
    enc = SoftPromptEncoder.from_frozen(lm)
    # Built before the frozen embedding tables below: built after them, its
    # buffers raised calibration's peak memory by about 1%.
    opt = Adam(enc.trainable(), learning_rate=config.learning_rate)

    bare = np.stack([lm.encode(t).pooled.data for t in corpus_inputs])
    # Row k is the pair (input k // n_prompts, prompt k % n_prompts).
    prompted = np.stack([
        lm.encode(join_prompted(p, t, config.separator_policy)).pooled.data
        for t in corpus_inputs for p in prompts
    ])

    rng = np.random.default_rng(config.seed)
    rule = ConvergenceRule(config.convergence_tol, config.stall_window)
    for epoch in range(1, config.max_epochs + 1):
        # The shuffle only sets the summation order; kept so trained vectors match earlier runs bit for bit.
        order = rng.permutation(len(prompted))
        soft = enc.encode_pooled(tok.ids.ids)
        loss = calibration_loss(bare[order // len(prompts)], prompted[order], soft, config.distance)
        mean_loss = float(loss.data)
        if not np.isfinite(mean_loss):
            raise TrainingError(f"non-finite calibration loss at epoch {epoch}")
        if log_fn is not None:
            log_fn(epoch, mean_loss)
        # Stop before stepping, so the last logged loss is the returned calibrator's.
        if rule.update(mean_loss) or epoch == config.max_epochs:
            break
        ad.backward(loss)
        opt.step()
    soft.data.flags.writeable = False
    return soft.data


def decode_soft_prompt(
    soft: np.ndarray,
    tok: SoftPromptToken,
    lm: EncoderDecoderLM,
    k: int | None = None,
) -> TokenSequence:
    """Project the soft vector onto k vocabulary tokens by residual nearest-row search.

    Slot i targets the soft vector minus the mean embedding of the rows already
    chosen, so successive tokens cover complementary directions. The default
    length is capped at two tokens: longer decoded prefixes leak spurious
    content words into the order-free pooled context and measurably depress
    summary quality, while a short prefix keeps the variance damping.
    """
    if not lm.frozen:
        raise ContractError("decode_soft_prompt requires a frozen model")
    if k is None:
        k = min(DEFAULT_SOFT_PREFIX_LEN, tok.length)
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    table = lm.params["enc.embed"].data
    chosen: list[int] = []
    for _ in range(k):
        target = soft if not chosen else soft - table[chosen].mean(axis=0)
        chosen.append(lm.nearest_token(target))
    surface = " ".join(lm.vocab.token_of(i) for i in chosen)
    return TokenSequence(tuple(chosen), surface=surface)


def summarize_many(
    notes: Sequence[TokenSequence],
    t_llm: TokenSequence,
    lm: EncoderDecoderLM,
    calibration: tuple[np.ndarray, SoftPromptToken] | None = None,
    max_len: int | None = None,
    policy: str = "prompt_first",
) -> tuple[TokenSequence, ...]:
    """Greedy summaries of several prompted notes, optionally with the invariant soft prefix.

    calibration is (soft vector, soft token) as train_calibrator and
    load_calibrator give them; its prefix is decoded once and goes before each
    prompted note. Notes are ragged, so each is encoded on its own; the pooled
    contexts then go to one lockstep decode_greedy call. Each summary equals,
    token for token, summarizing that note alone.
    """
    if not notes:
        raise ContractError("summarize_many requires at least one note")
    if not lm.frozen:
        raise ContractError("summarize requires a frozen model")
    prefix = decode_soft_prompt(*calibration, lm) if calibration is not None else None
    pooled = []
    for t_org in notes:
        joined = join_prompted(t_llm, t_org, policy)
        if prefix is not None:
            joined = concat(prefix, joined)
        pooled.append(lm.encode(joined).pooled.data)
    return lm.decode_greedy(np.stack(pooled), max_len=max_len).rows


def summarize(
    t_org: TokenSequence,
    t_llm: TokenSequence,
    lm: EncoderDecoderLM,
    calibration: tuple[np.ndarray, SoftPromptToken] | None = None,
    max_len: int | None = None,
    policy: str = "prompt_first",
) -> TokenSequence:
    """Greedy summary of prompted notes: summarize_many's one-note case."""
    return summarize_many([t_org], t_llm, lm, calibration, max_len=max_len, policy=policy)[0]
