"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line in the terminal summary. Heavy artifacts (the benchmark model and the
default-config calibrators) are built once per session and shared."""

import random
import time

import numpy as np
import pytest

from promptcal import autodiff as ad
from promptcal.calibration import (
    DEFAULT_SOFT_TOKEN_TEXT,
    CalibrationConfig,
    SoftPromptEncoder,
    SoftPromptToken,
    alignment_loss,
    train_calibrator,
)
from promptcal.cli import main
from promptcal.corpus import bundled_train_corpus
from promptcal.harness import compare_runs, evaluate_ensemble
from promptcal.model import ModelConfig, PretrainConfig, params_digest, pretrain
from promptcal.rouge import rouge_l, rouge_n
from promptcal.vocab import TokenSequence, tokenize
from tests.test_autodiff import (
    calibration_objective,
    calibration_problem,
    cross_entropy_floor,
    finite_difference_check,
    gap_closure,
    optimal_soft_vector,
)
from tests.test_rouge import oracle_scores, recursive_lcs

BENCH_PRETRAIN_EPOCHS = 60
BENCH_SEEDS = (7, 8, 9)  # the session's benchmark model and calibrators are the first seed's


def pretrain_bench_model(train_corpus, ensemble, seed, log_fn=None):
    """The benchmark recipe; the session fixture and criterion 5's other seeds share it."""
    cfg = PretrainConfig(max_epochs=BENCH_PRETRAIN_EPOCHS, seed=seed)
    return pretrain(train_corpus, cfg,
                    extra_texts=list(ensemble.prompts) + [DEFAULT_SOFT_TOKEN_TEXT], log_fn=log_fn)


@pytest.fixture(scope="session")
def bench_pretrain(train_corpus, ensemble):
    losses = []
    lm = pretrain_bench_model(train_corpus, ensemble, BENCH_SEEDS[0],
                              log_fn=lambda e, l: losses.append(l))
    return lm, losses


@pytest.fixture(scope="session")
def bench_lm(bench_pretrain):
    return bench_pretrain[0]


class TestBenchmarkPretraining:
    def test_bundled_corpus_loss_halves(self, bench_pretrain):
        _, losses = bench_pretrain
        assert losses[-1] <= 0.5 * losses[0]


@pytest.fixture(scope="session")
def bench_inputs(bench_lm, train_corpus):
    return [tokenize(r.findings, bench_lm.vocab) for r in train_corpus]


@pytest.fixture(scope="session")
def bench_prompts(bench_lm, ensemble):
    return [tokenize(p, bench_lm.vocab) for p in ensemble.prompts]


@pytest.fixture(scope="session")
def bench_token(bench_lm):
    return SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, bench_lm.vocab)


@pytest.fixture(scope="session")
def calibration_runs(bench_lm, bench_inputs, bench_prompts, bench_token):
    """Default-config calibrations for both distances, with loss curves and timing."""
    runs = {}
    for distance in ("mse", "cross_entropy"):
        losses = []
        started = time.perf_counter()
        enc = train_calibrator(
            bench_inputs, bench_prompts, bench_token, bench_lm,
            CalibrationConfig(distance=distance),
            log_fn=lambda e, l: losses.append(l),
        )
        runs[distance] = (enc, losses, time.perf_counter() - started)
    return runs


class TestCriterion1RougeOracle:
    def test_rouge_oracle_equivalence(self, acceptance_log):
        started = time.perf_counter()
        rng = random.Random(20240501)
        vocab = ["a", "b", "c", "d", "e"]
        checked = 0
        ok = True
        for _ in range(1000):
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            for n in (1, 2):
                got = rouge_n(ref, cand, n)
                exp = oracle_scores(ref, cand, n)
                ok &= abs(got.precision - exp[0]) <= 1e-12
                ok &= abs(got.recall - exp[1]) <= 1e-12
                ok &= abs(got.f1 - exp[2]) <= 1e-12
            got = rouge_l(ref, cand)
            exp = oracle_scores(ref, cand)
            ok &= abs(got.precision - exp[0]) <= 1e-12
            ok &= abs(got.recall - exp[1]) <= 1e-12
            ok &= abs(got.f1 - exp[2]) <= 1e-12
            if len(ref) <= 10 and len(cand) <= 10:
                from promptcal.rouge import lcs_length

                ok &= lcs_length(ref, cand) == recursive_lcs(tuple(ref), tuple(cand))
                checked += 1
        elapsed = time.perf_counter() - started
        ok &= elapsed < 10.0
        acceptance_log(
            f"criterion 1: ROUGE oracle equivalence (1000 pairs, {checked} LCS cross-checks, "
            f"{elapsed:.1f}s)", ok)
        assert ok


def _op_instances(rng):
    """One randomized instance per diff_core operation, as (build, params)."""
    a = ad.param(rng.normal(size=(3, 4)))
    b = ad.param(rng.normal(size=(3, 4)))
    m1 = ad.param(rng.normal(size=(3, 4)))
    m2 = ad.param(rng.normal(size=(4, 2)))
    v5a = ad.param(rng.normal(size=5))
    v5b = ad.param(rng.normal(size=5))
    sq = ad.param(rng.normal(size=(4, 4)))
    table = ad.param(rng.normal(size=(6, 3)))
    logits = ad.param(rng.normal(size=(4, 7)))
    targets = rng.integers(0, 7, size=4)
    r1 = ad.param(rng.normal(size=(4, 5)))
    r2 = ad.param(rng.normal(size=(4, 5)))
    from tests.test_autodiff import scalar_reduce

    return [
        ("matmul", lambda: scalar_reduce(ad.matmul(m1, m2)), [m1, m2]),
        ("add", lambda: scalar_reduce(ad.add(a, b)), [a, b]),
        ("sub", lambda: scalar_reduce(ad.sub(a, b)), [a, b]),
        ("mul", lambda: scalar_reduce(ad.mul(a, b)), [a, b]),
        ("neg", lambda: scalar_reduce(ad.neg(v5a)), [v5a]),
        ("scale", lambda: scalar_reduce(ad.scale(a, 0.61)), [a]),
        ("transpose", lambda: scalar_reduce(ad.transpose(m1)), [m1]),
        ("add_row_vector", lambda: scalar_reduce(ad.add_row_vector(table, ad.mean_rows(table))), [table]),
        ("rows", lambda: scalar_reduce(ad.rows(table, [0, 2, 2, 5])), [table]),
        ("mean_rows", lambda: scalar_reduce(ad.mean_rows(a)), [a]),
        ("sum_all", lambda: ad.sum_all(a), [a]),
        ("dot", lambda: ad.dot(v5a, v5b), [v5a, v5b]),
        ("tanh", lambda: scalar_reduce(ad.tanh(a)), [a]),
        ("softmax", lambda: scalar_reduce(ad.softmax(v5a)), [v5a]),
        ("log_softmax", lambda: scalar_reduce(ad.log_softmax(v5a)), [v5a]),
        ("softmax_rows", lambda: scalar_reduce(ad.softmax_rows(a)), [a]),
        ("causal_softmax_rows", lambda: scalar_reduce(ad.causal_softmax_rows(sq)), [sq]),
        ("mse_distance", lambda: ad.mse_distance(v5a, v5b), [v5a, v5b]),
        ("cross_entropy_distance", lambda: ad.cross_entropy_distance(v5a, v5b), [v5a, v5b]),
        ("token_cross_entropy", lambda: ad.token_cross_entropy(logits, targets), [logits]),
        ("rowwise_mse", lambda: ad.rowwise_mse(r1, r2), [r1, r2]),
        ("rowwise_cross_entropy", lambda: ad.rowwise_cross_entropy(r1, r2), [r1, r2]),
    ]


class TestCriterion2Gradients:
    def test_gradient_correctness(self, acceptance_log):
        started = time.perf_counter()
        rng = np.random.default_rng(91)
        for i in range(50):
            for name, build, params in _op_instances(rng):
                finite_difference_check(build, params, rng, max_components=4)

        # the composed loss on a small pipeline, probed on sampled components
        corpus = bundled_train_corpus()[:6]
        cfg = PretrainConfig(
            max_epochs=2, seed=17,
            model=ModelConfig(embed_dim=8, n_blocks=1, n_heads=2, ffn_dim=8, max_seq_len=96),
        )
        lm = pretrain(corpus, cfg, extra_texts=[DEFAULT_SOFT_TOKEN_TEXT])
        tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)
        t_orgs = [tokenize(r.findings, lm.vocab) for r in corpus]
        t_llm = tokenize("summarize the following clinical notes.", lm.vocab)
        for i in range(50):
            enc = SoftPromptEncoder.from_frozen(lm)
            for p in enc.trainable():
                p.data += rng.normal(0, 0.05, size=p.data.shape)
            distance = "mse" if i % 2 == 0 else "cross_entropy"
            t_org = t_orgs[i % len(t_orgs)]

            def build():
                return alignment_loss(t_org, t_llm, tok, lm, enc, distance)

            probes = [enc.params["enc.embed"], enc.params["enc.b0.h0.wq"],
                      enc.params["enc.b0.ffn.w2"]]
            finite_difference_check(build, probes, rng, max_components=2)
        elapsed = time.perf_counter() - started
        ok = elapsed < 60.0
        acceptance_log(
            f"criterion 2: gradient correctness (22 ops + composed loss x50, {elapsed:.1f}s)", ok)
        assert ok


class TestCriterion3FreezeInvariant:
    def test_freeze_and_copy_init(self, acceptance_log, bench_lm, calibration_runs, bench_token):
        digest_before = bench_lm.frozen_digest
        digest_after = bench_lm.weight_digest()  # calibration_runs already trained twice
        ok = digest_before == digest_after

        fresh = SoftPromptEncoder.from_frozen(bench_lm)
        rng = random.Random(5150)
        word_ids = range(5, bench_lm.vocab.size)
        for _ in range(20):
            ids = tuple(rng.choice(word_ids) for _ in range(rng.randint(1, 30)))
            seq = TokenSequence(ids)
            frozen_bytes = bench_lm.encode(seq).pooled.data.tobytes()
            soft_bytes = fresh.encode_pooled(ids).data.tobytes()
            ok &= frozen_bytes == soft_bytes
        acceptance_log(
            "criterion 3: freeze invariant (digest equality after calibrations; "
            "copy-init bit-exact on 20 inputs)", ok)
        assert ok


class TestCriterion4TrainingProgress:
    def test_mse_halves_and_ce_improves(self, acceptance_log, calibration_runs, bench_lm,
                                        bench_inputs, bench_prompts, bench_token):
        _, mse_losses, mse_elapsed = calibration_runs["mse"]
        _, ce_losses, ce_elapsed = calibration_runs["cross_entropy"]
        mse_ratio = mse_losses[-1] / mse_losses[0]
        # Raw cross entropy is dominated by its floor H, the mean entropy of
        # softmax(bare embedding), which depends on how the frozen encoder came
        # out of pretraining on this BLAS kernel. Only the part above H can be
        # removed, so progress is judged on that part and against the optimum.
        bare, prompted = calibration_problem(bench_lm, bench_inputs, bench_prompts)
        start = bench_lm.encode(bench_token.ids).pooled.data
        optimum = optimal_soft_vector(bare, prompted, "cross_entropy", start)
        ce_best, _ = calibration_objective(bare, prompted, optimum, "cross_entropy")
        floor = cross_entropy_floor(bare)
        ce_raw_ratio = ce_losses[-1] / ce_losses[0]
        ce_removable_ratio = (ce_losses[-1] - floor) / (ce_losses[0] - floor)
        ce_gap_closed = gap_closure(ce_losses[0], ce_losses[-1], ce_best)
        encoder_digest = params_digest(
            {name: p for name, p in bench_lm.params.items() if name.startswith("enc.")})
        elapsed = mse_elapsed + ce_elapsed
        ok = (
            mse_ratio <= 0.5
            and ce_removable_ratio <= 0.9
            and ce_gap_closed >= 0.99
            and len(mse_losses) <= 200
            and len(ce_losses) <= 200
            and elapsed < 300.0
        )
        acceptance_log(
            f"criterion 4: calibration training progress (mse {mse_ratio:.3f} <= 0.5 in "
            f"{len(mse_losses)} epochs; ce above floor H={floor:.4f} {ce_removable_ratio:.3f} "
            f"<= 0.9, gap to optimum {ce_best:.4f} closed {ce_gap_closed:.3f} >= 0.99 in "
            f"{len(ce_losses)} epochs (raw ce {ce_raw_ratio:.3f}); encoder {encoder_digest[:12]}; "
            f"{elapsed:.0f}s)", ok)
        assert ok


class TestCriterion5VarianceDirection:
    def test_std_reduction_across_seeds(self, acceptance_log, train_corpus, test_corpus, ensemble,
                                        bench_lm, calibration_runs):
        reduced = 0
        degradations_pp = []
        deductions = []
        for seed in BENCH_SEEDS:
            reused = seed == BENCH_SEEDS[0]
            lm = bench_lm if reused else pretrain_bench_model(train_corpus, ensemble, seed)
            tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)
            if reused:
                soft = calibration_runs["mse"][0]
            else:
                inputs = [tokenize(r.findings, lm.vocab) for r in train_corpus]
                prompts = [tokenize(p, lm.vocab) for p in ensemble.prompts]
                soft = train_calibrator(inputs, prompts, tok, lm, CalibrationConfig())
            base = evaluate_ensemble(lm, None, ensemble, test_corpus, label="baseline", seed=seed)
            cal = evaluate_ensemble(lm, (soft, tok), ensemble, test_corpus, label="calibrated", seed=seed)
            report = compare_runs(base, cal).rows["R1"]
            if report.calibrated_std <= report.baseline_std:
                reduced += 1
            degradations_pp.append((report.baseline_mean - report.calibrated_mean) * 100)
            deductions.append(report.std_deduction_pct)
        mean_degradation = sum(degradations_pp) / len(degradations_pp)
        ok = reduced >= 2 and mean_degradation <= 2.0
        acceptance_log(
            f"criterion 5: variance direction (std reduced in {reduced}/3 seeds; "
            f"R1 std deductions {[f'{d:.1f}%' for d in deductions]}; "
            f"mean R1 cost {mean_degradation:.2f} pp <= 2)", ok)
        assert ok


PUBLISHED_STD_ROWS = [
    # (baseline_std, calibrated_std, printed_pct)
    (0.0081, 0.0050, 38.2),
    (0.0080, 0.0049, 38.7),
    (0.0079, 0.0045, 43.1),
    (0.0129, 0.0078, 39.5),
    (0.0132, 0.0085, 35.7),
    (0.0118, 0.0076, 35.6),
    (0.0073, 0.0053, 27.3),
    (0.0065, 0.0058, 10.8),
    (0.0069, 0.0056, 18.9),
    (0.0081, 0.0065, 19.7),
    (0.0080, 0.0062, 22.5),
    (0.0079, 0.0066, 16.4),
]

PUBLISHED_MEAN_ROWS = [
    (0.5273, 0.5253, 0.3),
    (0.3943, 0.3928, 0.3),
    (0.4986, 0.4973, 0.2),
    (0.5273, 0.5185, 1.6),
    (0.3943, 0.3853, 2.3),
    (0.4986, 0.4890, 2.3),
]


class TestCriterion6TableArithmetic:
    def test_published_percentages_reproduced(self, acceptance_log):
        from promptcal.harness import mean_deduction, std_deduction

        ok = True
        for base_std, cal_std, printed in PUBLISHED_STD_ROWS:
            ok &= abs(std_deduction(base_std, cal_std) - printed) <= 0.5
        for base_mean, cal_mean, printed in PUBLISHED_MEAN_ROWS:
            ok &= abs(mean_deduction(base_mean, cal_mean) - printed) <= 0.5
        # the one the published table rounds exactly
        ok &= abs(std_deduction(0.0129, 0.0078) - 39.5) <= 0.05
        acceptance_log(
            f"criterion 6: table arithmetic ({len(PUBLISHED_STD_ROWS)} std rows + "
            f"{len(PUBLISHED_MEAN_ROWS)} mean rows within 0.5 pp)", ok)
        assert ok


class TestCriterion7AblationShape:
    def test_cli_ablation_artifacts(self, acceptance_log, tmp_path):
        from tests.test_cli import write_config

        cfg = write_config(tmp_path)
        assert main(["gen-corpus", "--out", str(tmp_path / "train.jsonl"), "--size", "16", "--seed", "5"]) == 0
        assert main(["gen-corpus", "--out", str(tmp_path / "test.jsonl"), "--size", "6", "--seed", "6"]) == 0
        assert main(["pretrain", "--config", str(cfg)]) == 0
        assert main(["calibrate", "--config", str(cfg)]) == 0
        code = main(["evaluate", "--config", str(cfg), "--arm", "both",
                     "--soft-lengths", "2,4,6", "--ood-token", "##1 ##2"])
        lengths = (tmp_path / "reports" / "ablation_lengths.csv").read_text().strip().splitlines()
        tokens = (tmp_path / "reports" / "ablation_tokens.csv").read_text().strip().splitlines()
        length_labels = [l.split(",")[0] for l in lengths[1:]]
        token_labels = [l.split(",")[0] for l in tokens[1:]]
        ok = (
            code == 0
            and length_labels == ["soft_len_2"] * 3 + ["soft_len_4"] * 3 + ["soft_len_6"] * 3
            and token_labels == ["in_distribution"] * 3 + ["out_of_distribution"] * 3
            and all(len(line.split(",")) == 8 and all(line.split(",")) for line in tokens[1:])
        )
        acceptance_log(
            "criterion 7: ablation harness shape (3 soft-length rows; two-case token report)", ok)
        assert ok


class TestCriterion8EndToEndDeterminism:
    def test_pipeline_twice_byte_identical(self, acceptance_log, tmp_path):
        from tests.test_cli import write_config

        artifacts = {}
        for attempt in ("first", "second"):
            base = tmp_path / attempt
            base.mkdir()
            cfg = write_config(base, seed=7)
            assert main(["gen-corpus", "--out", str(base / "train.jsonl"), "--size", "20", "--seed", "7"]) == 0
            assert main(["gen-corpus", "--out", str(base / "test.jsonl"), "--size", "8", "--seed", "107"]) == 0
            assert main(["pretrain", "--config", str(cfg)]) == 0
            assert main(["calibrate", "--config", str(cfg)]) == 0
            assert main(["evaluate", "--config", str(cfg), "--arm", "both"]) == 0
            artifacts[attempt] = {
                name: (base / "reports" / name).read_bytes()
                for name in ("run_baseline.csv", "run_calibrated.csv",
                             "variance_report.csv", "variance_report.md")
            }
            artifacts[attempt]["model.bin"] = (base / "out" / "model.bin").read_bytes()
            artifacts[attempt]["calibrator.bin"] = (base / "out" / "calibrator.bin").read_bytes()
        ok = artifacts["first"] == artifacts["second"]
        acceptance_log(
            "criterion 8: end-to-end determinism (reports and checkpoints byte-identical)", ok)
        assert ok
