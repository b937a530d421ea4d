"""ROUGE metric tests, including brute-force oracles independent of the
production code paths."""

import itertools
import random
from functools import lru_cache

import pytest

from promptcal.errors import ContractError
from promptcal.rouge import VARIANTS, lcs_length, metric_tokenize, ngrams, rouge_l, rouge_n, rouge_suite


def brute_force_ngram_overlap(ref, cand, n):
    """Clipped overlap by direct window enumeration, no Counter reuse."""
    ref_windows = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    cand_windows = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    overlap = 0
    for gram in set(cand_windows):
        overlap += min(ref_windows.count(gram), cand_windows.count(gram))
    return overlap, len(ref_windows), len(cand_windows)


def recursive_lcs(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def oracle_scores(ref, cand, n=None):
    if n is not None:
        overlap, total_ref, total_cand = brute_force_ngram_overlap(ref, cand, n)
        lcs = None
    else:
        lcs = recursive_lcs(tuple(ref), tuple(cand))
        overlap, total_ref, total_cand = lcs, len(ref), len(cand)
    p = overlap / total_cand if total_cand else 0.0
    r = overlap / total_ref if total_ref else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


class TestNgrams:
    def test_unigram_counts(self):
        assert dict(ngrams(["a", "b", "a"], 1)) == {("a",): 2, ("b",): 1}

    def test_bigram_windows(self):
        assert dict(ngrams(["a", "b", "a"], 2)) == {("a", "b"): 1, ("b", "a"): 1}

    def test_short_input_empty(self):
        assert dict(ngrams(["a"], 2)) == {}

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ContractError):
            ngrams(["a"], 0)


class TestLcs:
    def test_identity(self):
        a = ["x", "y", "z"]
        assert lcs_length(a, a) == 3

    def test_known_pair(self):
        a = ["police", "killed", "the", "gunman"]
        b = ["police", "kill", "the", "gunman"]
        assert lcs_length(a, b) == 3

    def test_disjoint(self):
        assert lcs_length(["a", "b"], ["c", "d"]) == 0

    def test_symmetric_and_bounded(self):
        rng = random.Random(0)
        for _ in range(100):
            a = [rng.choice("abcde") for _ in range(rng.randint(0, 10))]
            b = [rng.choice("abcde") for _ in range(rng.randint(0, 10))]
            got = lcs_length(a, b)
            assert got == lcs_length(b, a)
            assert got <= min(len(a), len(b))
            assert got == recursive_lcs(tuple(a), tuple(b))


    def test_equals_the_dynamic_program(self):
        # empty sides, one-word alphabets (every token repeated) and summary-length pairs
        rng = random.Random(1)
        for alphabet, longest in [("a", 12), ("ab", 30), ("abcdefghijkl", 20), ("abcdefghijkl", 90)]:
            for _ in range(2000):
                a = [rng.choice(alphabet) for _ in range(rng.randint(0, longest))]
                b = [rng.choice(alphabet) for _ in range(rng.randint(0, longest))]
                assert lcs_length(a, b) == dynamic_program_lcs(a, b), (a, b)


def dynamic_program_lcs(a, b):
    """The row-by-row LCS table that lcs_length replaced."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


class TestRougeN:
    def test_identity(self):
        score = rouge_n(["a", "b", "c"], ["a", "b", "c"], 1)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_hand_computed(self):
        score = rouge_n(["the", "cat", "sat"], ["the", "cat"], 1)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(0.8)

    def test_disjoint(self):
        score = rouge_n(["a"], ["b"], 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_clipping_counts_repeats_once_each(self):
        score = rouge_n(["a", "a", "b"], ["a", "a", "a"], 1)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)

    def test_empty_candidate(self):
        score = rouge_n(["a"], [], 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


class TestRougeL:
    def test_identity(self):
        score = rouge_l(["a", "b"], ["a", "b"])
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_police_pair(self):
        score = rouge_l(["police", "killed", "the", "gunman"], ["police", "kill", "the", "gunman"])
        assert score.precision == pytest.approx(0.75)
        assert score.recall == pytest.approx(0.75)
        assert score.f1 == pytest.approx(0.75)

    def test_empty_candidate(self):
        score = rouge_l(["a", "b"], [])
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


class TestRougeSuite:
    def test_identity_texts(self):
        scores = rouge_suite("No acute process.", "No acute process.")
        assert all(scores[v].f1 == 1.0 for v in VARIANTS)

    def test_empty_candidate(self):
        scores = rouge_suite("a b c", "")
        assert all(scores[v].f1 == 0.0 for v in VARIANTS)

    def test_metric_tokenizer_strips_punctuation_and_case(self):
        assert metric_tokenize("No Pneumothorax.") == ["no", "pneumothorax"]
        assert metric_tokenize("##1 ##2") == ["1", "2"]

    def test_against_exhaustive_oracle(self):
        rng = random.Random(123)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            for n in (1, 2):
                got = rouge_n(ref, cand, n)
                exp_p, exp_r, exp_f1 = oracle_scores(ref, cand, n)
                assert abs(got.precision - exp_p) <= 1e-12
                assert abs(got.recall - exp_r) <= 1e-12
                assert abs(got.f1 - exp_f1) <= 1e-12
            got = rouge_l(ref, cand)
            exp_p, exp_r, exp_f1 = oracle_scores(ref, cand)
            assert abs(got.precision - exp_p) <= 1e-12
            assert abs(got.f1 - exp_f1) <= 1e-12


class TestProperties:
    def test_swap_exchanges_p_and_r_but_not_f1(self):
        rng = random.Random(7)
        vocab = ["a", "b", "c"]
        for _ in range(200):
            x = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            y = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            fwd = rouge_n(x, y, 1)
            rev = rouge_n(y, x, 1)
            assert fwd.precision == pytest.approx(rev.recall, abs=1e-15)
            assert fwd.recall == pytest.approx(rev.precision, abs=1e-15)
            assert fwd.f1 == pytest.approx(rev.f1, abs=1e-12)
            fwd_l, rev_l = rouge_l(x, y), rouge_l(y, x)
            assert fwd_l.f1 == pytest.approx(rev_l.f1, abs=1e-12)

    def test_all_scores_in_unit_interval(self):
        rng = random.Random(8)
        vocab = ["a", "b"]
        for _ in range(200):
            x = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            y = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            for n in (1, 2, 3):
                s = rouge_n(x, y, n)
                assert 0.0 <= s.precision <= 1.0 and 0.0 <= s.recall <= 1.0 and 0.0 <= s.f1 <= 1.0

    def test_overlap_bounded_by_both_totals(self):
        rng = random.Random(9)
        vocab = ["a", "b", "c"]
        for _ in range(100):
            x = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            y = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            overlap, total_ref, total_cand = brute_force_ngram_overlap(x, y, 1)
            assert overlap <= min(total_ref, total_cand)

    def test_appending_junk_never_raises_precision(self):
        rng = random.Random(10)
        vocab = ["a", "b", "c"]
        for _ in range(100):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            cand = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            before = rouge_n(ref, cand, 1).precision
            after = rouge_n(ref, cand + ["zzz"], 1).precision
            assert after <= before + 1e-15
