"""Prompt-ensemble evaluation: per-prompt ROUGE means, variance statistics,
baseline-vs-calibrated comparison, evaluation arms, and report serialization."""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .calibration import CalibrationConfig, SoftPromptToken, summarize_many, train_calibrator
from .corpus import CorpusRecord, corpus_digest, read_utf8, require_impressions
from .errors import ContractError
from .model import EncoderDecoderLM
from .rouge import VARIANTS, rouge_suite
from .vocab import TokenSequence, detokenize, tokenize


@dataclass(frozen=True)
class PromptEnsemble:
    prompts: tuple[str, ...]

    def __post_init__(self):
        if not self.prompts:
            raise ContractError("prompt ensemble must be non-empty")
        if len(set(self.prompts)) != len(self.prompts):
            raise ContractError("prompt ensemble entries must be distinct")

    def digest(self) -> str:
        h = hashlib.sha256()
        for p in self.prompts:
            h.update(p.encode("utf-8") + b"\x00")
        return h.hexdigest()

    @classmethod
    def from_file(cls, path: str | Path) -> "PromptEnsemble":
        prompts = []
        for line in read_utf8(path).splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            prompts.append(stripped)
        return cls(tuple(prompts))


def default_prompt_file() -> Path:
    """Path of the bundled ten-prompt ensemble file."""
    return Path(str(resources.files("promptcal").joinpath("data/prompts/llm_generated.txt")))


def load_default_ensemble() -> PromptEnsemble:
    return PromptEnsemble.from_file(default_prompt_file())


@dataclass(frozen=True)
class EvaluationRun:
    """Corpus-mean F1 per prompt for one arm (baseline or calibrated)."""

    label: str
    per_prompt_scores: tuple[tuple[float, float, float], ...]  # (R1, R2, RL) per prompt
    seed: int
    corpus_digest: str
    ensemble_digest: str
    config_digest: str

    def variant_values(self, variant: str) -> list[float]:
        idx = VARIANTS.index(variant)
        return [scores[idx] for scores in self.per_prompt_scores]


@dataclass(frozen=True)
class VariantComparison:
    baseline_mean: float
    baseline_std: float
    calibrated_mean: float
    calibrated_std: float
    mean_deduction_pct: float
    std_deduction_pct: float


@dataclass(frozen=True)
class VarianceReport:
    label: str
    rows: dict[str, VariantComparison]  # keyed by variant, iteration order R1, R2, RL


def evaluate_prompt(
    lm: EncoderDecoderLM,
    calibration: tuple[np.ndarray, SoftPromptToken] | None,
    prompt: str,
    corpus: Sequence[CorpusRecord],
    summarize_fn: Callable[[TokenSequence, TokenSequence], TokenSequence] | None = None,
    summaries: Sequence[TokenSequence] | None = None,
) -> tuple[float, float, float]:
    """Corpus-mean F1 of each ROUGE variant for one prompt string.

    By default the corpus goes through summarize_many as its one prompt.
    summarize_fn overrides the model pipeline with a function called once per
    record, in corpus order (tests use it to substitute a stub). summaries
    gives each record's summary, in corpus order, already decoded
    (evaluate_ensemble passes them): then nothing is tokenized or decoded,
    and only the scoring runs.
    """
    if not corpus:
        raise ContractError("evaluation corpus must be non-empty")
    require_impressions(corpus)
    if summaries is not None:
        if len(summaries) != len(corpus):
            raise ContractError(f"{len(summaries)} summaries for {len(corpus)} records")
    else:
        prompt_seq = tokenize(prompt, lm.vocab)
        notes = [tokenize(r.findings, lm.vocab) for r in corpus]
        if summarize_fn is None:
            summaries = summarize_many(notes, [prompt_seq], lm, calibration)[0]
        else:
            summaries = [summarize_fn(t_org, prompt_seq) for t_org in notes]
    totals = [0.0, 0.0, 0.0]
    for r, summary_ids in zip(corpus, summaries):
        summary_text = detokenize(summary_ids, lm.vocab)
        scores = rouge_suite(r.impression, summary_text)
        for i, variant in enumerate(VARIANTS):
            totals[i] += scores[variant].f1
    n = len(corpus)
    return (totals[0] / n, totals[1] / n, totals[2] / n)


def evaluate_ensemble(
    lm: EncoderDecoderLM,
    calibration: tuple[np.ndarray, SoftPromptToken] | None,
    ensemble: PromptEnsemble,
    corpus: Sequence[CorpusRecord],
    label: str,
    seed: int = 0,
) -> EvaluationRun:
    """One arm: evaluate_prompt's scores for every prompt of the ensemble.

    Each note and prompt is tokenized once, and one summarize_many call
    summarizes every (prompt, note) pair; each prompt is then scored by
    evaluate_prompt from its summaries.
    """
    if not corpus:
        raise ContractError("evaluation corpus must be non-empty")
    require_impressions(corpus)
    prompts = [tokenize(p, lm.vocab) for p in ensemble.prompts]
    notes = [tokenize(r.findings, lm.vocab) for r in corpus]
    summaries = summarize_many(notes, prompts, lm, calibration)
    scores = tuple(
        evaluate_prompt(lm, calibration, prompt, corpus, summaries=done)
        for prompt, done in zip(ensemble.prompts, summaries)
    )
    config_digest = hashlib.sha256(f"{label}|{lm.frozen_digest}".encode("utf-8")).hexdigest()
    return EvaluationRun(
        label=label,
        per_prompt_scores=scores,
        seed=seed,
        corpus_digest=corpus_digest(corpus),
        ensemble_digest=ensemble.digest(),
        config_digest=config_digest,
    )


def ensemble_stats(values: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1 divisor).

    Both sums add left to right in plain loops: sum() of floats compensates
    from Python 3.12 on, so it would give other bits on other interpreters.
    """
    if not values:
        raise ContractError("ensemble_stats requires at least one value")
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    if n == 1:
        warnings.warn("ensemble_stats of a single value has zero std", stacklevel=2)
        return mean, 0.0
    squares = 0.0
    for v in values:
        squares += (v - mean) ** 2
    return mean, math.sqrt(squares / (n - 1))


def std_deduction(baseline_std: float, calibrated_std: float) -> float:
    """Percent reduction in ensemble std; negative when calibration made it worse."""
    if baseline_std <= 0:
        raise ContractError("std_deduction is undefined for baseline_std <= 0")
    if calibrated_std < 0:
        raise ContractError("calibrated_std must be >= 0")
    return (baseline_std - calibrated_std) / baseline_std * 100.0


def mean_deduction(baseline_mean: float, calibrated_mean: float) -> float:
    if baseline_mean == 0:
        raise ContractError("mean_deduction is undefined for baseline_mean == 0")
    return (baseline_mean - calibrated_mean) / baseline_mean * 100.0


def compare_runs(baseline: EvaluationRun, calibrated: EvaluationRun, label: str = "default") -> VarianceReport:
    """Per-variant mean/std of both runs plus the deduction percentages."""
    if baseline.corpus_digest != calibrated.corpus_digest:
        raise ContractError("runs evaluated different corpora")
    if baseline.ensemble_digest != calibrated.ensemble_digest:
        raise ContractError("runs evaluated different prompt ensembles")
    rows: dict[str, VariantComparison] = {}
    for variant in VARIANTS:
        b_mean, b_std = ensemble_stats(baseline.variant_values(variant))
        c_mean, c_std = ensemble_stats(calibrated.variant_values(variant))
        rows[variant] = VariantComparison(
            baseline_mean=b_mean,
            baseline_std=b_std,
            calibrated_mean=c_mean,
            calibrated_std=c_std,
            # degenerate all-zero baselines report a 0% deduction rather than
            # failing: the comparison is still well-formed, the ratio is not
            mean_deduction_pct=mean_deduction(b_mean, c_mean) if b_mean != 0 else 0.0,
            std_deduction_pct=std_deduction(b_std, c_std) if b_std > 0 else 0.0,
        )
    return VarianceReport(label=label, rows=rows)


@dataclass(frozen=True, eq=False)
class Arm:
    """One evaluation arm: the baseline (no token), a trained calibration (token
    and soft), or a token whose soft vector run_arms trains first (no soft)."""

    label: str
    token: SoftPromptToken | None = None
    soft: np.ndarray | None = None


def run_arms(arms: Sequence[Arm], lm: EncoderDecoderLM, ensemble: PromptEnsemble,
             eval_corpus: Sequence[CorpusRecord], train_corpus: Sequence[CorpusRecord],
             config: CalibrationConfig) -> dict[Arm, EvaluationRun]:
    """One evaluate_ensemble run per distinct arm, in order of first appearance.

    An arm without a soft vector gets one trained on train_corpus first, as
    the calibrate command trains it; an arm listed twice is trained and run once.
    """
    inputs = [tokenize(r.findings, lm.vocab) for r in train_corpus]
    prompt_seqs = [tokenize(p, lm.vocab) for p in ensemble.prompts]
    runs: dict[Arm, EvaluationRun] = {}
    for arm in dict.fromkeys(arms):
        soft = arm.soft
        if arm.token is not None and soft is None:
            soft = train_calibrator(inputs, prompt_seqs, arm.token, lm, config)
        calibration = None if arm.token is None else (soft, arm.token)
        runs[arm] = evaluate_ensemble(lm, calibration, ensemble, eval_corpus, label=arm.label)
    return runs


_REPORT_HEADER = [
    "label", "variant", "baseline_mean", "baseline_std", "calibrated_mean", "calibrated_std",
    "mean_deduction_pct", "std_deduction_pct",
]


def _report_cells(label: str, variant: str, row: VariantComparison) -> list[str]:
    return [
        label,
        variant,
        f"{row.baseline_mean:.4f}",
        f"{row.baseline_std:.4f}",
        f"{row.calibrated_mean:.4f}",
        f"{row.calibrated_std:.4f}",
        f"{row.mean_deduction_pct:.1f}",
        f"{row.std_deduction_pct:.1f}",
    ]


def emit_report(reports: VarianceReport | Sequence[VarianceReport], fmt: str) -> bytes:
    """Serialize reports: scores at 4 decimals, percentages at 1 decimal."""
    if isinstance(reports, VarianceReport):
        reports = [reports]
    rows = [_REPORT_HEADER] + [_report_cells(report.label, variant, report.rows[variant])
                               for report in reports for variant in VARIANTS]
    if fmt == "csv":
        lines = [",".join(cells) for cells in rows]
    elif fmt == "markdown":
        lines = ["| " + " | ".join(cells) + " |" for cells in rows]
        lines.insert(1, "|" + "|".join(["---"] * len(_REPORT_HEADER)) + "|")
    else:
        raise ContractError(f"unknown report format {fmt!r} (expected 'csv' or 'markdown')")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_run(run: EvaluationRun, ensemble: PromptEnsemble) -> bytes:
    """Per-prompt corpus-mean F1 rows for one arm, as CSV."""
    lines = ["prompt_index,prompt,f1_r1,f1_r2,f1_rl"]
    for i, (prompt, scores) in enumerate(zip(ensemble.prompts, run.per_prompt_scores)):
        quoted = '"' + prompt.replace('"', '""') + '"'
        lines.append(f"{i},{quoted},{scores[0]:.6f},{scores[1]:.6f},{scores[2]:.6f}")
    return ("\n".join(lines) + "\n").encode("utf-8")
