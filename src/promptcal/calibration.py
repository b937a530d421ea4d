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
from .errors import ContractError, ShapeError, TrainingError
from .model import ConvergenceRule, EncoderDecoderLM, at_least_one, check_fields, positive, sequence_forward
from .optim import Adam
from .vocab import TokenSequence, Vocabulary, concat, sep_sequence, tokenize, word_tokens

DEFAULT_SOFT_TOKEN_TEXT = "radiologist describe stable normality and abnormality exam"
OOD_SOFT_TOKEN_TEXT = "##1 ##2"

# Decoded-prefix length cap; see decode_soft_prompt.
DEFAULT_SOFT_PREFIX_LEN = 2

# The calibration distances: ad.rowwise_mse and ad.rowwise_cross_entropy, by name.
DISTANCES = ("mse", "cross_entropy")


@dataclass(frozen=True)
class SoftPromptToken:
    """The fixed word string fed to the soft encoder each step."""

    text: str
    ids: TokenSequence
    length: int

    @classmethod
    def from_text(cls, text: str, vocab: Vocabulary) -> "SoftPromptToken":
        seq = tokenize(text, vocab)
        if not seq.ids:
            raise ContractError("soft prompt token must contain at least one token")
        return cls(text=text, ids=seq, length=len(seq.ids))

    def truncated(self, length: int, vocab: Vocabulary) -> "SoftPromptToken":
        """This token cut to its first `length` tokens; a punctuation mark counts as one."""
        if not 1 <= length <= self.length:
            raise ContractError(
                f"soft token length {length} out of range 1..{self.length}"
            )
        return SoftPromptToken.from_text(" ".join(word_tokens(self.text)[:length]), vocab)


@dataclass(frozen=True)
class CalibrationConfig:
    distance: str = "mse"
    learning_rate: float = 1e-3
    max_epochs: int = 200
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ContractError(f"unknown distance {self.distance!r}")
        check_fields(self, positive, "must be positive and finite", "learning_rate", "convergence_tol")
        check_fields(self, at_least_one, "must be >= 1", "max_epochs")


class SoftPromptEncoder:
    """Trainable encoder initialized as a bit-exact copy of the frozen one; training only."""

    def __init__(self, params: dict[str, DiffValue], cfg):
        self.params = params
        self.cfg = cfg

    @classmethod
    def from_frozen(cls, lm: EncoderDecoderLM) -> "SoftPromptEncoder":
        if not lm.frozen:
            raise ContractError("soft prompt encoder must copy a frozen model")
        params = {name: ad.param(p.data.copy()) for name, p in lm.params.items() if name.startswith("enc.")}
        return cls(params, lm.cfg)

    def trainable(self) -> list[DiffValue]:
        return list(self.params.values())

    def encode_pooled(self, ids: Sequence[int]) -> DiffValue:
        per_token = sequence_forward(self.params, "enc", ids, self.cfg)
        return ad.mean_rows(per_token)


def encode_soft(tok: SoftPromptToken, soft: np.ndarray) -> DiffValue:
    """The trained soft vector of the calibration (soft, tok) as a constant."""
    return ad.value(soft)


def join_prompted(t_llm: TokenSequence, t_org: TokenSequence, prefix: TokenSequence | None = None) -> TokenSequence:
    """What the model encodes for one note: the soft prefix, if any, then the prompt, a separator and the note.

    An empty prompt leaves the note alone after the prefix, with no separator.
    """
    if not t_org.ids:
        raise ContractError("input notes must be non-empty")
    joined = concat(t_llm, sep_sequence(), t_org) if t_llm.ids else t_org
    return joined if prefix is None else concat(prefix, joined)


class CalibrationObjective:
    """The calibration loss over B (input, prompt) pairs, as one autodiff node per evaluation.

    bare holds the frozen embeddings of the n inputs and prompted those of
    the B = n * n_prompts prompted pairs in input-major order, row k pairing
    input k // n_prompts with prompt k % n_prompts. Called with the soft
    vector, it returns the mean over the pairs of the distance (ad.rowwise_mse
    or ad.rowwise_cross_entropy) between the frozen bare embedding and the
    element-wise mean of the frozen prompted embedding and the soft vector:
    rowwise_<distance>(value(np.repeat(bare, n_prompts, 0)),
    scale(add_row_vector(value(prompted), soft), 0.5)), bit for bit, and so
    is the gradient its backward sends to soft, the node's only parent. The
    constant sides get no gradient.

    Every step runs in two B x d buffers the objective owns, viewed as
    n x n_prompts x d so that each input's target row is broadcast over its
    prompts, never copied; an evaluation allocates no B x d array.
    cross_entropy's target softmax of the n bare rows is computed once, here.
    The gradient is formed in the buffers too, so a loss's backward must run
    before the next evaluation; a stale loss's backward raises ContractError.
    """

    def __init__(self, bare: np.ndarray, prompted: np.ndarray, distance: str):
        if distance not in DISTANCES:
            raise ContractError(f"unknown distance {distance!r}")
        paired = bare.ndim == prompted.ndim == 2 and bare.shape[1] == prompted.shape[1]
        if not paired or len(bare) == 0 or len(prompted) == 0 or len(prompted) % len(bare) != 0:
            raise ShapeError(f"calibration objective needs n x d bare and (n * prompts) x d prompted rows, "
                             f"got {bare.shape} and {prompted.shape}")
        self.distance = distance
        self.prompted = prompted
        target = ad.softmax_targets(bare) if distance == "cross_entropy" else bare
        self.target = target[:, None, :]  # n x 1 x d, against the buffers' n x n_prompts x d views
        self.fused = np.empty_like(prompted)
        self.work = np.empty_like(prompted)
        self.evaluations = 0

    def __call__(self, soft: DiffValue) -> DiffValue:
        fused, work, target = self.fused, self.work, self.target
        by_input = (len(target), -1, fused.shape[1])
        np.add(self.prompted, soft.data, out=fused)
        fused *= 0.5
        if self.distance == "mse":
            np.subtract(target, fused.reshape(by_input), out=work.reshape(by_input))  # the diff bare - fused
            loss = ad.mse_value(work, fused)
        else:
            ad.log_softmax_rows_into(fused, work)
            loss = ad.cross_entropy_value(target, fused.reshape(by_input), work.reshape(by_input))
        self.evaluations += 1
        evaluation = self.evaluations

        def _bw(g, acc):
            if evaluation != self.evaluations:
                raise ContractError("a calibration loss's gradient is gone once its objective runs again")
            if self.distance == "mse":
                grad = ad.mse_grad_q(work, g, out=fused)
            else:
                grad = np.exp(fused, out=fused)  # softmax of the fused rows, from their log_softmax
                ad.cross_entropy_grad_q(grad.reshape(by_input), target, g, out=grad.reshape(by_input))
            grad *= 0.5
            acc(soft, np.add.reduce(grad, axis=0))

        return ad.record(loss, (soft,), _bw)


def alignment_loss(
    t_org: TokenSequence,
    t_llm: TokenSequence,
    tok: SoftPromptToken,
    lm: EncoderDecoderLM,
    enc: SoftPromptEncoder,
    distance: str = "mse",
) -> DiffValue:
    """The calibration objective for one (notes, prompt) pair: its B = 1 case."""
    pooled = lm.encode_many([t_org, join_prompted(t_llm, t_org)])
    objective = CalibrationObjective(pooled[:1], pooled[1:], distance)
    return objective(enc.encode_pooled(tok.ids.ids))


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
    optimization, so they are computed once up front by one encode_many call
    over the bare inputs and every prompted pair: sequences of equal length
    are encoded stacked, at most ENCODE_ROWS at a time, each row bit-identical
    to encoding it alone. Each epoch takes one full-batch step on the
    CalibrationObjective over all pairs, which the call builds once. The
    result is the read-only d-vector the encoder copy maps tok to after the
    last epoch; frozen weights are untouched.
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

    # Row k of prompted is the pair (input k // n_prompts, prompt k % n_prompts).
    pooled = lm.encode_many([*corpus_inputs, *(join_prompted(p, t) for t in corpus_inputs for p in prompts)])
    objective = CalibrationObjective(pooled[:len(corpus_inputs)], pooled[len(corpus_inputs):], config.distance)

    rule = ConvergenceRule(config.convergence_tol)
    for epoch in range(1, config.max_epochs + 1):
        soft = enc.encode_pooled(tok.ids.ids)
        loss = objective(soft)
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


def decode_soft_prompt(soft: np.ndarray, tok: SoftPromptToken, lm: EncoderDecoderLM) -> TokenSequence:
    """Project the soft vector onto vocabulary tokens by residual nearest-row search.

    Slot i targets the soft vector minus the mean embedding of the rows already
    chosen, so successive tokens cover complementary directions. The prefix
    has min(DEFAULT_SOFT_PREFIX_LEN, tok.length) tokens: longer decoded
    prefixes leak spurious content words into the order-free pooled context
    and measurably depress summary quality, while a short prefix keeps the
    variance damping.
    """
    if not lm.frozen:
        raise ContractError("decode_soft_prompt requires a frozen model")
    table = lm.params["enc.embed"].data
    chosen: list[int] = []
    for _ in range(min(DEFAULT_SOFT_PREFIX_LEN, tok.length)):
        target = soft if not chosen else soft - table[chosen].mean(axis=0)
        chosen.append(lm.nearest_token(target))
    surface = " ".join(lm.vocab.token_of(i) for i in chosen)
    return TokenSequence(tuple(chosen), surface=surface)


def summarize_many(
    notes: Sequence[TokenSequence],
    prompts: Sequence[TokenSequence],
    lm: EncoderDecoderLM,
    calibration: tuple[np.ndarray, SoftPromptToken] | None = None,
) -> tuple[tuple[TokenSequence, ...], ...]:
    """Greedy summaries of every (prompt, note) pair, optionally with the invariant soft prefix.

    Returns one tuple per prompt, in prompt order, holding each note's
    summary in input order. calibration is (soft vector, soft token) as
    train_calibrator and load_calibrator give them; its prefix is decoded
    once and goes before each prompted note. Every prompted note is encoded
    by one encode_many call, which stacks equal-length inputs across the
    whole call, and decoded by one decode_greedy call, whose lockstep groups
    of at most LOCKSTEP_ROWS rows are the one bound on a decode's memory.
    Each note's prompted rows sit side by side: a note's summaries have
    similar lengths across prompts, so the rows of a lockstep group tend to
    finish together. Each summary equals, token for token, summarizing that
    pair alone.
    """
    if not notes:
        raise ContractError("summarize_many requires at least one note")
    if not prompts:
        raise ContractError("summarize_many requires at least one prompt")
    if not lm.frozen:
        raise ContractError("summarize requires a frozen model")
    prefix = decode_soft_prompt(*calibration, lm) if calibration is not None else None
    contexts = lm.encode_many([join_prompted(p, t, prefix) for t in notes for p in prompts])
    rows = lm.decode_greedy(contexts).rows
    return tuple(rows[k::len(prompts)] for k in range(len(prompts)))


def summarize(
    t_org: TokenSequence,
    t_llm: TokenSequence,
    lm: EncoderDecoderLM,
    calibration: tuple[np.ndarray, SoftPromptToken] | None = None,
) -> TokenSequence:
    """Greedy summary of prompted notes: summarize_many's one-note, one-prompt case."""
    return summarize_many([t_org], [t_llm], lm, calibration)[0][0]
