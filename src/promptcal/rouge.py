"""Exact ROUGE-1 / ROUGE-2 / ROUGE-L precision, recall, and F1.

N-gram overlap uses clipped multiset counting; ROUGE-L uses the longest
common subsequence. The metric tokenizer lowercases and strips punctuation
and is independent of any model vocabulary.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError

VARIANTS = ("R1", "R2", "RL")

_METRIC_TOKEN_RE = re.compile(r"[a-z0-9]+")


def metric_tokenize(text: str) -> list[str]:
    return _METRIC_TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float
    variant: str


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def ngrams(tokens: Sequence[str], n: int) -> Counter:
    """All contiguous n-token windows with multiplicity."""
    if n <= 0:
        raise ContractError(f"n must be positive, got {n}")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest (not necessarily contiguous) common subsequence.

    Bit-parallel (Allison and Dix 1986; Hyyro 2004): bit i of v is clear
    where the LCS of a[:i + 1] and the prefix of b read so far grows at
    a[i], so the length is the count of clear bits once b is read.
    """
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        match = masks.get(y)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_n(reference: Sequence[str], candidate: Sequence[str], n: int) -> RougeScore:
    """Clipped n-gram overlap: precision over candidate grams, recall over reference grams."""
    ref_grams = ngrams(reference, n)
    cand_grams = ngrams(candidate, n)
    overlap = sum(min(c, ref_grams[g]) for g, c in cand_grams.items() if g in ref_grams)
    total_ref = sum(ref_grams.values())
    total_cand = sum(cand_grams.values())
    precision = overlap / total_cand if total_cand else 0.0
    recall = overlap / total_ref if total_ref else 0.0
    return RougeScore(precision, recall, _f1(precision, recall), f"R{n}")


def rouge_l(reference: Sequence[str], candidate: Sequence[str]) -> RougeScore:
    """LCS-based score: precision over candidate length, recall over reference length."""
    lcs = lcs_length(reference, candidate)
    precision = lcs / len(candidate) if candidate else 0.0
    recall = lcs / len(reference) if reference else 0.0
    return RougeScore(precision, recall, _f1(precision, recall), "RL")


def rouge_suite(reference: str, candidate: str) -> dict[str, RougeScore]:
    """All three variants for one (reference, candidate) text pair."""
    ref = metric_tokenize(reference)
    cand = metric_tokenize(candidate)
    return {
        "R1": rouge_n(ref, cand, 1),
        "R2": rouge_n(ref, cand, 2),
        "RL": rouge_l(ref, cand),
    }
