"""Variance-harness tests: ensembles, per-prompt evaluation, statistics,
deduction arithmetic, comparison reports, and serialization."""

import csv
import io
import math
import warnings

import numpy as np
import pytest

import promptcal.calibration as calibration_module
import promptcal.model as model_module
from promptcal.calibration import summarize
from promptcal.corpus import CorpusRecord, generate_corpus
from promptcal.errors import ContractError
from promptcal.harness import (
    Arm,
    EvaluationRun,
    PromptEnsemble,
    VarianceReport,
    VariantComparison,
    compare_runs,
    emit_report,
    emit_run,
    ensemble_stats,
    evaluate_ensemble,
    evaluate_prompt,
    load_default_ensemble,
    mean_deduction,
    run_arms,
    std_deduction,
)
from promptcal.model import EncoderDecoderLM
from promptcal.rouge import VARIANTS
from promptcal.vocab import TokenSequence, tokenize
from tests.test_model import decoding_at_most


class TestPromptEnsemble:
    def test_bundled_file_has_ten_distinct_prompts(self):
        ens = load_default_ensemble()
        assert len(ens.prompts) == 10
        assert len(set(ens.prompts)) == 10

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "prompts.txt"
        path.write_text("# a comment\n\nsummarize this.\n  \nsummarize that.\n")
        ens = PromptEnsemble.from_file(path)
        assert ens.prompts == ("summarize this.", "summarize that.")

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            PromptEnsemble(())

    def test_duplicates_rejected(self):
        with pytest.raises(ContractError):
            PromptEnsemble(("a", "a"))

    def test_digest_sensitive_to_order(self):
        a = PromptEnsemble(("x", "y"))
        b = PromptEnsemble(("y", "x"))
        assert a.digest() != b.digest()


class TestEnsembleStats:
    def test_constant_list(self):
        assert ensemble_stats([0.5, 0.5, 0.5]) == (0.5, 0.0)

    def test_two_point_closed_form(self):
        mean, std = ensemble_stats([0.52, 0.53])
        assert mean == pytest.approx(0.525, abs=1e-15)
        assert std == pytest.approx(abs(0.53 - 0.52) / math.sqrt(2), abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            values = list(rng.uniform(0, 1, size=10))
            mean, std = ensemble_stats(values)
            m = sum(values) / len(values)
            s = math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))
            assert mean == pytest.approx(m, abs=1e-12)
            assert std == pytest.approx(s, abs=1e-12)

    def test_sums_left_to_right_on_every_interpreter(self):
        # left to right, 1e16 + 1.0 rounds back to 1e16; a compensated sum
        # (math.fsum, or sum() from Python 3.12) keeps the 1.0 and gives mean 1/3
        values = [1e16, 1.0, -1e16]
        assert math.fsum(values) == 1.0
        assert ensemble_stats(values) == (0.0, 1e16)

    def test_single_value_warns_and_returns_zero_std(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mean, std = ensemble_stats([0.4])
        assert (mean, std) == (0.4, 0.0)
        assert caught

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ensemble_stats([])


class TestStdDeduction:
    def test_flan_t5_rouge1_row(self):
        assert std_deduction(0.0081, 0.0050) == pytest.approx(38.27, abs=0.01)

    def test_flan_t5_rougel_row(self):
        assert std_deduction(0.0079, 0.0045) == pytest.approx(43.04, abs=0.01)

    def test_no_change_is_zero(self):
        assert std_deduction(0.31, 0.31) == 0.0

    def test_negative_reported_not_clamped(self):
        assert std_deduction(0.01, 0.02) == pytest.approx(-100.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ContractError):
            std_deduction(0.0, 0.1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            a, b = rng.uniform(0.001, 1.0, size=2)
            k = rng.uniform(0.1, 100)
            assert std_deduction(k * a, k * b) == pytest.approx(std_deduction(a, b), rel=1e-12)


def run_from_scores(scores, label, corpus_digest="c", ensemble_digest="e"):
    return EvaluationRun(
        label=label,
        per_prompt_scores=tuple(scores),
        seed=0,
        corpus_digest=corpus_digest,
        ensemble_digest=ensemble_digest,
        config_digest="x",
    )


class TestCompareRuns:
    def test_paper_case1_mean_deduction(self):
        # published run means reproduce the printed mean-deduction percentage
        assert mean_deduction(0.5273, 0.5253) == pytest.approx(0.38, abs=0.01)

    def test_identical_runs_zero_deductions(self):
        scores = [(0.5, 0.4, 0.45), (0.52, 0.42, 0.47), (0.48, 0.38, 0.43)]
        report = compare_runs(run_from_scores(scores, "a"), run_from_scores(scores, "b"))
        for variant in VARIANTS:
            assert report.rows[variant].mean_deduction_pct == pytest.approx(0.0, abs=1e-12)
            assert report.rows[variant].std_deduction_pct == pytest.approx(0.0, abs=1e-12)

    def test_three_prompt_hand_recomputation(self):
        base = [(0.50, 0.30, 0.45), (0.54, 0.34, 0.49), (0.52, 0.32, 0.47)]
        cal = [(0.51, 0.31, 0.46), (0.52, 0.32, 0.47), (0.515, 0.315, 0.465)]
        report = compare_runs(run_from_scores(base, "a"), run_from_scores(cal, "b"))
        row = report.rows["R1"]
        b = [0.50, 0.54, 0.52]
        c = [0.51, 0.52, 0.515]
        bm = sum(b) / 3
        cm = sum(c) / 3
        bs = math.sqrt(sum((x - bm) ** 2 for x in b) / 2)
        cs = math.sqrt(sum((x - cm) ** 2 for x in c) / 2)
        assert row.baseline_mean == pytest.approx(bm, abs=1e-12)
        assert row.calibrated_std == pytest.approx(cs, abs=1e-12)
        assert row.std_deduction_pct == pytest.approx((bs - cs) / bs * 100, abs=1e-9)
        assert row.mean_deduction_pct == pytest.approx((bm - cm) / bm * 100, abs=1e-9)

    def test_swapped_runs_follow_exact_formula(self):
        base = [(0.50, 0.30, 0.45), (0.54, 0.34, 0.49)]
        cal = [(0.51, 0.31, 0.46), (0.52, 0.32, 0.47)]
        fwd = compare_runs(run_from_scores(base, "a"), run_from_scores(cal, "b"))
        rev = compare_runs(run_from_scores(cal, "b"), run_from_scores(base, "a"))
        for variant in VARIANTS:
            f, r = fwd.rows[variant], rev.rows[variant]
            # not naive negation: denominator switches to the other run's stats
            expected = (f.calibrated_std - f.baseline_std) / f.calibrated_std * 100
            assert r.std_deduction_pct == pytest.approx(expected, rel=1e-9)

    def test_mismatched_corpora_rejected(self):
        a = run_from_scores([(0.5, 0.4, 0.45)], "a", corpus_digest="c1")
        b = run_from_scores([(0.5, 0.4, 0.45)], "b", corpus_digest="c2")
        with pytest.raises(ContractError):
            compare_runs(a, b)

    def test_mismatched_ensembles_rejected(self):
        a = run_from_scores([(0.5, 0.4, 0.45)], "a", ensemble_digest="e1")
        b = run_from_scores([(0.5, 0.4, 0.45)], "b", ensemble_digest="e2")
        with pytest.raises(ContractError):
            compare_runs(a, b)


class TestEvaluatePrompt:
    def test_echo_model_scores_one(self, tiny_lm, tiny_corpus):
        corpus = tiny_corpus[:5]  # in-vocabulary for tiny_lm, so the echo survives detokenize
        echo = {r.findings: r.impression for r in corpus}

        def stub(t_org, t_llm):
            return tokenize(echo[t_org.surface], tiny_lm.vocab)

        scores = evaluate_prompt(tiny_lm, None, "any prompt", corpus, summarize_fn=stub)
        assert scores == (1.0, 1.0, 1.0)

    def test_single_record_mean_is_that_record(self, tiny_lm):
        corpus = generate_corpus(1, seed=41)
        scores = evaluate_prompt(tiny_lm, None, "summarize the following clinical notes.", corpus)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_mean_matches_per_record_recomputation(self, tiny_lm):
        from promptcal.rouge import rouge_suite
        from promptcal.vocab import detokenize

        corpus = generate_corpus(5, seed=42)
        prompt = "summarize the following clinical notes."
        got = evaluate_prompt(tiny_lm, None, prompt, corpus)
        totals = [0.0, 0.0, 0.0]
        for r in corpus:
            out = summarize(tokenize(r.findings, tiny_lm.vocab), tokenize(prompt, tiny_lm.vocab), tiny_lm)
            scores = rouge_suite(r.impression, detokenize(out, tiny_lm.vocab))
            for i, v in enumerate(VARIANTS):
                totals[i] += scores[v].f1
        expected = tuple(t / len(corpus) for t in totals)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("calibrated", [False, True], ids=["baseline", "calibrated"])
    def test_default_path_equals_per_note_summarize_bit_for_bit(self, varied_lm, calibrated):
        corpus = generate_corpus(20, seed=43)
        calibration = soft_calibration(varied_lm) if calibrated else None
        prompt = "summarize the following clinical notes."
        calls = []

        def per_note(t_org, t_llm):
            calls.append(t_org)
            return summarize(t_org, t_llm, varied_lm, calibration)

        expected = evaluate_prompt(varied_lm, calibration, prompt, corpus, summarize_fn=per_note)
        assert evaluate_prompt(varied_lm, calibration, prompt, corpus) == expected
        assert len(calls) == len(corpus)

    def test_missing_impression_names_record(self, tiny_lm):
        bad = [CorpusRecord(id="rec-9", findings="no edema.", impression="")]
        with pytest.raises(ContractError, match="rec-9"):
            evaluate_prompt(tiny_lm, None, "p", bad)

    def test_empty_corpus_rejected(self, tiny_lm):
        with pytest.raises(ContractError):
            evaluate_prompt(tiny_lm, None, "p", [])


SAMPLE_ROWS = {
    "R1": VariantComparison(0.5273, 0.0081, 0.5253, 0.0050, 0.3793, 38.2716),
    "R2": VariantComparison(0.3943, 0.0080, 0.3928, 0.0049, 0.3804, 38.75),
    "RL": VariantComparison(0.4986, 0.0079, 0.4973, 0.0045, 0.2607, 43.0380),
}


class TestEmitReport:
    def test_csv_shape_and_rounding(self):
        report = VarianceReport(label="default", rows=dict(SAMPLE_ROWS))
        data = emit_report(report, "csv").decode()
        lines = data.strip().split("\n")
        assert lines[0].startswith("label,variant,baseline_mean")
        assert len(lines) == 4
        assert lines[1] == "default,R1,0.5273,0.0081,0.5253,0.0050,0.4,38.3"

    def test_empty_list_header_only(self):
        data = emit_report([], "csv").decode()
        assert data.strip().count("\n") == 0

    def test_markdown_table(self):
        report = VarianceReport(label="default", rows=dict(SAMPLE_ROWS))
        data = emit_report(report, "markdown").decode()
        lines = data.strip().split("\n")
        assert lines[0].startswith("| label | variant |")
        assert set(lines[1].replace("|", "")) <= {"-", " "}
        assert len(lines) == 5

    def test_unknown_format_rejected(self):
        with pytest.raises(ContractError):
            emit_report([], "yaml")

    def test_byte_identical_across_emissions(self):
        report = VarianceReport(label="x", rows=dict(SAMPLE_ROWS))
        assert emit_report(report, "csv") == emit_report(report, "csv")
        assert emit_report(report, "markdown") == emit_report(report, "markdown")

    def test_csv_parse_back_within_precision(self):
        report = VarianceReport(label="case", rows=dict(SAMPLE_ROWS))
        parsed = list(csv.DictReader(io.StringIO(emit_report(report, "csv").decode())))
        for row in parsed:
            src = SAMPLE_ROWS[row["variant"]]
            assert abs(float(row["baseline_mean"]) - src.baseline_mean) <= 5e-5
            assert abs(float(row["baseline_std"]) - src.baseline_std) <= 5e-5
            assert abs(float(row["std_deduction_pct"]) - src.std_deduction_pct) <= 5e-2

    def test_multi_report_rows_in_order(self):
        reports = [
            VarianceReport(label=f"soft_len_{k}", rows=dict(SAMPLE_ROWS)) for k in (2, 4, 6)
        ]
        lines = emit_report(reports, "csv").decode().strip().split("\n")
        assert len(lines) == 1 + 9
        assert [l.split(",")[0] for l in lines[1:]] == (
            ["soft_len_2"] * 3 + ["soft_len_4"] * 3 + ["soft_len_6"] * 3
        )


class TestEmitRun:
    def test_per_prompt_rows(self):
        ens = PromptEnsemble(("alpha", "beta"))
        run = run_from_scores([(0.5, 0.4, 0.45), (0.52, 0.42, 0.47)], "baseline")
        lines = emit_run(run, ens).decode().strip().split("\n")
        assert lines[0] == "prompt_index,prompt,f1_r1,f1_r2,f1_rl"
        assert lines[1].startswith('0,"alpha",0.500000')
        assert len(lines) == 3


class TestRunArms:
    """run_arms, the one calibrate -> evaluate loop behind every arm of the evaluate command."""

    def setup_inputs(self, lm, tiny_corpus, ensemble):
        from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT, CalibrationConfig, SoftPromptToken

        tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)
        prompts = PromptEnsemble(tuple(ensemble.prompts[:3]))
        return tok, prompts, tiny_corpus[:6], tiny_corpus[6:10], CalibrationConfig(max_epochs=2)

    def test_full_length_truncation_equals_the_standard_calibrated_run(self, varied_lm, tiny_corpus, ensemble):
        from promptcal.calibration import train_calibrator

        tok, prompts, train, eval_corpus, config = self.setup_inputs(varied_lm, tiny_corpus, ensemble)
        baseline, short, full = (Arm("baseline"), Arm("soft_len_2", tok.truncated(2, varied_lm.vocab)),
                                 Arm(f"soft_len_{tok.length}", tok.truncated(tok.length, varied_lm.vocab)))
        runs = run_arms([baseline, short, full], varied_lm, prompts, eval_corpus, train, config)
        assert list(runs) == [baseline, short, full]

        inputs = [tokenize(r.findings, varied_lm.vocab) for r in train]
        prompt_seqs = [tokenize(p, varied_lm.vocab) for p in prompts.prompts]
        soft = train_calibrator(inputs, prompt_seqs, tok, varied_lm, config)
        standard = evaluate_ensemble(varied_lm, (soft, tok), prompts, eval_corpus, label="x")
        assert runs[full].per_prompt_scores == standard.per_prompt_scores
        assert runs[baseline].per_prompt_scores == evaluate_ensemble(
            varied_lm, None, prompts, eval_corpus, label="x").per_prompt_scores

    def test_overlong_length_rejected(self, tiny_lm, tiny_corpus, ensemble):
        tok, *_ = self.setup_inputs(tiny_lm, tiny_corpus, ensemble)
        with pytest.raises(ContractError, match=f"soft token length {tok.length + 1} out of range"):
            tok.truncated(tok.length + 1, tiny_lm.vocab)

    def test_trained_arm_is_not_retrained_and_an_arm_listed_twice_runs_once(
            self, varied_lm, tiny_corpus, ensemble, monkeypatch):
        import promptcal.harness as harness_module

        tok, prompts, train, eval_corpus, config = self.setup_inputs(varied_lm, tiny_corpus, ensemble)
        soft = soft_calibration(varied_lm)[0]
        calls = {"train_calibrator": 0, "evaluate_ensemble": 0}

        def counted(name):
            fn = getattr(harness_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(harness_module, name, counted(name))
        baseline, loaded = Arm("baseline"), Arm("calibrated", tok, soft)
        runs = run_arms([baseline, loaded, loaded, baseline], varied_lm, prompts, eval_corpus, [], config)
        assert calls == {"train_calibrator": 0, "evaluate_ensemble": 2}
        assert list(runs) == [baseline, loaded]
        assert runs[loaded].per_prompt_scores == evaluate_ensemble(
            varied_lm, (soft, tok), prompts, eval_corpus, label="x").per_prompt_scores


class TestEvaluateEnsemble:
    def test_runs_carry_digests(self, tiny_lm):
        corpus = generate_corpus(3, seed=44)
        ens = PromptEnsemble(("summarize the following clinical notes.", "please summarize."))
        run = evaluate_ensemble(tiny_lm, None, ens, corpus, label="baseline", seed=1)
        assert run.label == "baseline"
        assert len(run.per_prompt_scores) == 2
        assert run.ensemble_digest == ens.digest()

    def test_order_independence_of_stats(self, tiny_lm):
        # statistics depend on prompt index, not evaluation order
        corpus = generate_corpus(3, seed=45)
        p1 = "summarize the following clinical notes."
        p2 = "please summarize the patient's history."
        fwd = evaluate_ensemble(tiny_lm, None, PromptEnsemble((p1, p2)), corpus, label="a")
        rev = evaluate_ensemble(tiny_lm, None, PromptEnsemble((p2, p1)), corpus, label="b")
        assert sorted(fwd.per_prompt_scores) == sorted(rev.per_prompt_scores)


def per_prompt_oracle(lm, calibration, ensemble, corpus):
    """The ensemble scored one prompt at a time: evaluate_prompt, which runs summarize_many per prompt."""
    return tuple(evaluate_prompt(lm, calibration, prompt, corpus) for prompt in ensemble.prompts)


def soft_calibration(lm):
    from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT, SoftPromptToken

    soft = np.random.default_rng(0).normal(size=lm.cfg.embed_dim)
    return soft, SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)


class TestEnsembleAgainstPerPromptOracle:
    """evaluate_ensemble's note-major lockstep groups score exactly as evaluating each prompt alone."""

    @pytest.mark.parametrize("model", ["tiny_lm", "varied_lm"])
    @pytest.mark.parametrize("calibrated", [False, True], ids=["baseline", "calibrated"])
    # group_rows is LOCKSTEP_ROWS: 7-row groups of 3 prompts end inside a note's prompted rows,
    # 3-row groups of 3 prompts hold exactly one note's prompted rows
    @pytest.mark.parametrize("n_prompts, n_notes, group_rows, max_len", [
        pytest.param(10, 9, None, None, id="default groups, 9 notes"),
        pytest.param(3, 7, 7, None, id="7-row groups, 7 notes"),
        pytest.param(3, 7, 3, None, id="3-row groups, 7 notes"),
        pytest.param(2, 3, 1, None, id="1-row groups"),
        pytest.param(1, 5, None, None, id="one prompt"),
        pytest.param(3, 5, 7, 2, id="max_len 2"),
    ])
    def test_scores_and_summaries_equal_the_per_prompt_loop(self, request, ensemble, monkeypatch, model, calibrated,
                                                            n_prompts, n_notes, group_rows, max_len):
        import promptcal.harness as harness_module

        lm = request.getfixturevalue(model)
        if max_len is not None:
            lm = decoding_at_most(lm, max_len)
        corpus = generate_corpus(n_notes, seed=46)
        ens = PromptEnsemble(ensemble.prompts[:n_prompts])
        calibration = soft_calibration(lm) if calibrated else None
        expected = per_prompt_oracle(lm, calibration, ens, corpus)
        notes = [tokenize(r.findings, lm.vocab) for r in corpus]
        expected_summaries = [tuple(summarize(t, tokenize(p, lm.vocab), lm, calibration)
                                    for t in notes) for p in ens.prompts]
        if group_rows is not None:
            monkeypatch.setattr(model_module, "LOCKSTEP_ROWS", group_rows)
        handed = []
        score = harness_module.evaluate_prompt

        def recorded(*args, **kw):
            handed.append(tuple(kw["summaries"]))
            return score(*args, **kw)

        monkeypatch.setattr(harness_module, "evaluate_prompt", recorded)
        run = evaluate_ensemble(lm, calibration, ens, corpus, label="x")
        assert run.per_prompt_scores == expected
        assert handed == expected_summaries
        if max_len is not None:
            assert max(len(s.ids) for row in handed for s in row) == max_len

    @pytest.mark.parametrize("calibrated", [False, True], ids=["baseline", "calibrated"])
    def test_shared_work_runs_once_per_arm(self, tiny_lm, ensemble, monkeypatch, calibrated):
        import promptcal.harness as harness_module

        corpus = generate_corpus(7, seed=47)
        ens = PromptEnsemble(ensemble.prompts[:3])
        calibration = soft_calibration(tiny_lm) if calibrated else None
        calls = {"tokenize": 0, "decode_soft_prompt": 0, "encode_many": [], "decode_greedy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model_module, "LOCKSTEP_ROWS", 7)  # 3 groups, each ending inside a note
        monkeypatch.setattr(harness_module, "tokenize", counted("tokenize", harness_module.tokenize))
        monkeypatch.setattr(calibration_module, "decode_soft_prompt",
                            counted("decode_soft_prompt", calibration_module.decode_soft_prompt))
        monkeypatch.setattr(EncoderDecoderLM, "decode_greedy",
                            counted("decode_greedy", EncoderDecoderLM.decode_greedy))
        encode_many = EncoderDecoderLM.encode_many

        def recorded_encode_many(self, seqs):
            calls["encode_many"].append(len(seqs))
            return encode_many(self, seqs)

        monkeypatch.setattr(EncoderDecoderLM, "encode_many", recorded_encode_many)
        evaluate_ensemble(tiny_lm, calibration, ens, corpus, label="x")
        assert calls["tokenize"] == len(ens.prompts) + len(corpus)
        assert calls["decode_soft_prompt"] == (1 if calibrated else 0)
        assert calls["encode_many"] == [21]  # every (note, prompt) pair of the arm at once
        assert calls["decode_greedy"] == 1  # every pair of the arm at once

    def test_empty_corpus_rejected(self, tiny_lm, ensemble):
        with pytest.raises(ContractError, match="non-empty"):
            evaluate_ensemble(tiny_lm, None, ensemble, [], label="x")

    def test_missing_impression_names_record_before_any_decoding(self, tiny_lm, ensemble, monkeypatch):
        def no_decoding(*args, **kwargs):
            raise AssertionError("decoded before checking the corpus")

        monkeypatch.setattr(EncoderDecoderLM, "decode_greedy", no_decoding)
        bad = list(generate_corpus(3, seed=48)) + [CorpusRecord(id="rec-9", findings="no edema.", impression="")]
        with pytest.raises(ContractError, match="rec-9"):
            evaluate_ensemble(tiny_lm, None, ensemble, bad, label="x")

    @pytest.mark.parametrize("calibrated", [False, True], ids=["baseline", "calibrated"])
    def test_overlong_prompted_note_raises_shape_error(self, tiny_lm, ensemble, calibrated):
        from promptcal.errors import ShapeError

        # fits alone, but not after the prompt and separator (and the soft prefix)
        words = " ".join(["edema"] * (tiny_lm.cfg.max_seq_len - 3))
        corpus = list(generate_corpus(2, seed=49)) + [CorpusRecord(id="long", findings=words, impression="x")]
        calibration = soft_calibration(tiny_lm) if calibrated else None
        with pytest.raises(ShapeError, match="exceeds max_sequence_length"):
            per_prompt_oracle(tiny_lm, calibration, ensemble, corpus)
        with pytest.raises(ShapeError, match="exceeds max_sequence_length"):
            evaluate_ensemble(tiny_lm, calibration, ensemble, corpus, label="x")


class TestEvaluatePromptWithSummaries:
    def test_given_summaries_score_as_the_summarize_fn_path(self, tiny_lm):
        corpus = generate_corpus(4, seed=50)
        prompt = "summarize the following clinical notes."
        outputs = []

        def per_note(t_org, t_llm):
            outputs.append(summarize(t_org, t_llm, tiny_lm))
            return outputs[-1]

        expected = evaluate_prompt(tiny_lm, None, prompt, corpus, summarize_fn=per_note)
        assert evaluate_prompt(tiny_lm, None, prompt, corpus, summaries=outputs) == expected

    def test_summary_count_must_match_the_corpus(self, tiny_lm):
        corpus = generate_corpus(3, seed=51)
        with pytest.raises(ContractError, match="2 summaries for 3 records"):
            evaluate_prompt(tiny_lm, None, "p", corpus, summaries=[TokenSequence(()), TokenSequence(())])
