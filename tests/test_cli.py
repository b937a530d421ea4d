"""CLI pipeline tests: each subcommand end to end on a small configuration."""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT
from promptcal.checkpoint import load_calibrator, load_model
from promptcal.cli import CONFIG_KEYS, LIBRARY_KEYS, PipelineConfig, load_pipeline_config, main
from promptcal.corpus import CorpusRecord, save_corpus
from tests.test_checkpoint import (
    CALIBRATOR_SECTIONS,
    MODEL_SECTIONS,
    calibrator_layout,
    damaged,
    model_layout,
    set_distance_code,
)

SMALL_SETTINGS = {
    "embed_dim": 16,
    "blocks": 1,
    "heads": 2,
    "ffn_dim": 16,
    "max_sequence_length": 96,
    "decode_max_len": 10,
    "pretrain_max_epochs": 3,
    "max_epochs": 3,
    "seed": 7,
}


def write_config(tmp_path: Path, **overrides) -> Path:
    settings = {
        "corpus": str(tmp_path / "train.jsonl"),
        "test_corpus": str(tmp_path / "test.jsonl"),
        "model_checkpoint": str(tmp_path / "out" / "model.bin"),
        "calibrator_checkpoint": str(tmp_path / "out" / "calibrator.bin"),
        "report_dir": str(tmp_path / "reports"),
        **SMALL_SETTINGS,
        **overrides,
    }
    path = tmp_path / "pipeline.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-corpus + pretrain + calibrate once; reused by evaluate/summarize tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp_path)
    assert main(["gen-corpus", "--out", str(tmp_path / "train.jsonl"), "--size", "24", "--seed", "1"]) == 0
    assert main(["gen-corpus", "--out", str(tmp_path / "test.jsonl"), "--size", "8", "--seed", "2"]) == 0
    assert main(["pretrain", "--config", str(cfg)]) == 0
    assert main(["calibrate", "--config", str(cfg)]) == 0
    return tmp_path, cfg


class TestGenCorpus:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen-corpus", "--out", str(a), "--size", "20", "--seed", "7"]) == 0
        assert main(["gen-corpus", "--out", str(b), "--size", "20", "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_size_zero_writes_empty_file(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert main(["gen-corpus", "--out", str(out), "--size", "0", "--seed", "1"]) == 0
        assert out.read_bytes() == b""

    def test_lines_parse_as_records(self, tmp_path):
        out = tmp_path / "c.jsonl"
        main(["gen-corpus", "--out", str(out), "--size", "5", "--seed", "3"])
        for line in out.read_text().splitlines():
            obj = json.loads(line)
            assert obj["findings"] and obj["impression"]

    def test_unwritable_path_exits_2(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        # parent "directory" is actually a file: mkdir/write fails
        assert main(["gen-corpus", "--out", str(target / "c.jsonl"), "--size", "1", "--seed", "1"]) == 2


class TestPretrainCommand:
    def test_checkpoint_reloads_with_same_digest(self, pipeline):
        tmp_path, cfg = pipeline
        lm = load_model(tmp_path / "out" / "model.bin")
        assert lm.frozen
        assert lm.weight_digest() == lm.frozen_digest

    def test_same_seed_reproduces_checkpoint(self, pipeline, tmp_path):
        src_tmp, _ = pipeline
        cfg2 = write_config(tmp_path, corpus=str(src_tmp / "train.jsonl"),
                            test_corpus=str(src_tmp / "test.jsonl"))
        assert main(["pretrain", "--config", str(cfg2)]) == 0
        assert (tmp_path / "out" / "model.bin").read_bytes() == (
            src_tmp / "out" / "model.bin"
        ).read_bytes()

    def test_loss_decreases_in_log(self, pipeline, tmp_path, capsys):
        src_tmp, cfg = pipeline
        cfg2 = write_config(tmp_path, corpus=str(src_tmp / "train.jsonl"),
                            test_corpus=str(src_tmp / "test.jsonl"))
        main(["pretrain", "--config", str(cfg2)])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
        losses = [float(l.split("loss=")[1]) for l in lines]
        assert losses[-1] < losses[0]

    def test_missing_corpus_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", str(cfg)]) == 2

    def test_divergent_training_exits_3(self, tmp_path):
        # an absurd learning rate overflows the parameters: non-finite loss
        cfg = write_config(tmp_path, pretrain_learning_rate=1e300, pretrain_grad_clip=1e300)
        main(["gen-corpus", "--out", str(tmp_path / "train.jsonl"), "--size", "6", "--seed", "1"])
        import numpy as np

        with np.errstate(all="ignore"):
            assert main(["pretrain", "--config", str(cfg)]) == 3


class TestCalibrateCommand:
    def test_checkpoint_trained_and_bound(self, pipeline):
        tmp_path, _ = pipeline
        lm = load_model(tmp_path / "out" / "model.bin")
        soft, tok, config = load_calibrator(tmp_path / "out" / "calibrator.bin", lm)
        assert soft.shape == (SMALL_SETTINGS["embed_dim"],)
        # trained: moved away from the copy-initialised encoder's output
        assert soft.tobytes() != lm.encode(tok.ids).pooled.data.tobytes()
        assert tok.text.startswith("radiologist")

    def test_missing_model_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-corpus", "--out", str(tmp_path / "train.jsonl"), "--size", "4", "--seed", "1"])
        assert main(["calibrate", "--config", str(cfg)]) == 2


class TestEvaluateCommand:
    def test_both_arms_write_reports(self, pipeline):
        tmp_path, cfg = pipeline
        assert main(["evaluate", "--config", str(cfg), "--arm", "both"]) == 0
        report_dir = tmp_path / "reports"
        assert (report_dir / "run_baseline.csv").is_file()
        assert (report_dir / "run_calibrated.csv").is_file()
        csv_report = (report_dir / "variance_report.csv").read_text()
        assert csv_report.splitlines()[0].startswith("label,variant,baseline_mean")
        assert len(csv_report.strip().splitlines()) == 4
        assert (report_dir / "variance_report.md").is_file()

    def test_reports_reproducible_and_inputs_untouched(self, pipeline):
        tmp_path, cfg = pipeline
        inputs_before = {
            name: (tmp_path / name).read_bytes() for name in ("train.jsonl", "test.jsonl")
        }
        model_before = (tmp_path / "out" / "model.bin").read_bytes()
        report = tmp_path / "reports" / "variance_report.csv"
        main(["evaluate", "--config", str(cfg), "--arm", "both"])
        first = report.read_bytes()
        main(["evaluate", "--config", str(cfg), "--arm", "both"])
        assert report.read_bytes() == first
        for name, data in inputs_before.items():
            assert (tmp_path / name).read_bytes() == data
        assert (tmp_path / "out" / "model.bin").read_bytes() == model_before

    def test_baseline_matches_manual_recomputation(self, pipeline):
        from promptcal.corpus import load_corpus
        from promptcal.harness import evaluate_prompt, load_default_ensemble

        tmp_path, cfg = pipeline
        main(["evaluate", "--config", str(cfg), "--arm", "baseline"])
        rows = (tmp_path / "reports" / "run_baseline.csv").read_text().strip().splitlines()[1:]
        lm = load_model(tmp_path / "out" / "model.bin")
        corpus = load_corpus(tmp_path / "test.jsonl")
        ens = load_default_ensemble()
        for row in rows[:3]:
            idx = int(row.split(",")[0])
            expected = evaluate_prompt(lm, None, ens.prompts[idx], corpus)
            got = tuple(float(x) for x in row.rsplit(",", 3)[-3:])
            assert got == pytest.approx(expected, abs=5e-7)

    def test_soft_lengths_ablation_rows(self, pipeline):
        tmp_path, cfg = pipeline
        assert main(["evaluate", "--config", str(cfg), "--arm", "baseline",
                     "--soft-lengths", "2,3"]) == 0
        lines = (tmp_path / "reports" / "ablation_lengths.csv").read_text().strip().splitlines()
        labels = [l.split(",")[0] for l in lines[1:]]
        assert labels == ["soft_len_2"] * 3 + ["soft_len_3"] * 3

    def test_ood_token_two_case_report(self, pipeline):
        tmp_path, cfg = pipeline
        assert main(["evaluate", "--config", str(cfg), "--arm", "both",
                     "--ood-token", "##1 ##2"]) == 0
        lines = (tmp_path / "reports" / "ablation_tokens.csv").read_text().strip().splitlines()
        labels = [l.split(",")[0] for l in lines[1:]]
        assert labels == ["in_distribution"] * 3 + ["out_of_distribution"] * 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] and cells[-2]  # deduction columns populated

    def test_tampered_model_exits_4(self, pipeline, tmp_path):
        src_tmp, _ = pipeline
        model = tmp_path / "model.bin"
        raw = bytearray((src_tmp / "out" / "model.bin").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        model.write_bytes(bytes(raw))
        cfg = write_config(tmp_path, corpus=str(src_tmp / "train.jsonl"),
                           test_corpus=str(src_tmp / "test.jsonl"),
                           model_checkpoint=str(model),
                           calibrator_checkpoint=str(src_tmp / "out" / "calibrator.bin"))
        assert main(["evaluate", "--config", str(cfg), "--arm", "both"]) == 4

    def test_stale_calibrator_exits_4(self, pipeline, tmp_path):
        # new model, old calibrator: digest binding must fail
        src_tmp, _ = pipeline
        cfg = write_config(tmp_path, corpus=str(src_tmp / "train.jsonl"),
                           test_corpus=str(src_tmp / "test.jsonl"),
                           calibrator_checkpoint=str(src_tmp / "out" / "calibrator.bin"),
                           seed=99)
        assert main(["pretrain", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--arm", "calibrated"]) == 4

    def test_missing_inputs_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg), "--arm", "both"]) == 2


class TestSummarizeCommand:
    def test_stdout_deterministic(self, pipeline, capsys):
        tmp_path, cfg = pipeline
        argv = ["summarize", "--config", str(cfg),
                "--input", "no pneumothorax is identified. mild edema is seen in the left lower lobe.",
                "--prompt", "summarize the following clinical notes."]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_soft_prompt_line_present_iff_calibrated(self, pipeline, capsys):
        tmp_path, cfg = pipeline
        base_argv = ["summarize", "--config", str(cfg), "--input", "no pneumothorax is identified.",
                     "--prompt", "summarize."]
        main(base_argv)
        assert "soft-prompt:" not in capsys.readouterr().out
        main(base_argv + ["--calibrated"])
        assert "soft-prompt:" in capsys.readouterr().out

    def test_input_file_accepted(self, pipeline, tmp_path, capsys):
        src_tmp, cfg = pipeline
        note = tmp_path / "note.txt"
        note.write_text("stable effusion. the picc line remains in standard position.")
        assert main(["summarize", "--config", str(cfg), "--input", str(note), "--prompt", ""]) == 0
        assert capsys.readouterr().out.strip()

    def test_matches_library_summarize(self, pipeline, capsys):
        from promptcal.calibration import summarize as lib_summarize
        from promptcal.vocab import detokenize, tokenize

        tmp_path, cfg = pipeline
        text = "no pneumothorax is identified."
        prompt = "summarize the following clinical notes."
        main(["summarize", "--config", str(cfg), "--input", text, "--prompt", prompt])
        out = capsys.readouterr().out.strip().splitlines()[-1]
        lm = load_model(tmp_path / "out" / "model.bin")
        expected = lib_summarize(tokenize(text, lm.vocab), tokenize(prompt, lm.vocab), lm)
        assert out == detokenize(expected, lm.vocab)

    def test_empty_input_exits_2(self, pipeline):
        tmp_path, cfg = pipeline
        assert main(["summarize", "--config", str(cfg), "--input", "   ", "--prompt", "x"]) == 2

    def test_unknown_distance_code_exits_4(self, pipeline, tmp_path):
        src_tmp, cfg = pipeline
        calib = tmp_path / "calibrator.bin"
        calib.write_bytes((src_tmp / "out" / "calibrator.bin").read_bytes())
        set_distance_code(calib, DEFAULT_SOFT_TOKEN_TEXT, 9)
        assert main(["summarize", "--config", str(cfg), "--set", f"calibrator_checkpoint={calib}",
                     "--input", "no pneumothorax is identified.", "--calibrated"]) == 4


# More words than max_sequence_length (96 here) allows: "no", "edema", "." 40 times.
OVERLONG_NOTE = "no edema. " * 40


def summarize_argv(cfg, text="no edema.", *extra):
    return ["summarize", "--config", str(cfg), "--input", text, *extra]


def long_literal(src_tmp, cfg, tmp_path):
    # over 255 bytes, too long for a file name, but only 20 tokens
    return summarize_argv(cfg, "pneumothorax " * 20)


def overlong_note(src_tmp, cfg, tmp_path):
    return summarize_argv(cfg, OVERLONG_NOTE)


def overlong_evaluation_record(src_tmp, cfg, tmp_path):
    test = tmp_path / "test.jsonl"
    save_corpus([CorpusRecord("long", OVERLONG_NOTE, "no edema.")], test)
    return ["evaluate", "--config", str(cfg), "--arm", "baseline",
            "--set", f"test_corpus={test}", "--set", f"report_dir={tmp_path / 'reports'}"]


def calibrator_version_1(src_tmp, cfg, tmp_path):
    calib = tmp_path / "calibrator.bin"
    calib.write_bytes(b"\x01" + (src_tmp / "out" / "calibrator.bin").read_bytes()[1:])
    return summarize_argv(cfg, "no edema.", "--calibrated", "--set", f"calibrator_checkpoint={calib}")


def damaged_checkpoint(kind, section, how):
    def build(src_tmp, cfg, tmp_path):
        source = src_tmp / "out" / f"{kind}.bin"
        if kind == "model":
            layout = model_layout(load_model(source))
        else:
            layout = calibrator_layout(DEFAULT_SOFT_TOKEN_TEXT, SMALL_SETTINGS["embed_dim"])
        target = tmp_path / f"{kind}.bin"
        target.write_bytes(damaged(source.read_bytes(), layout, section, how))
        return summarize_argv(cfg, "no edema.", "--calibrated", "--set", f"{kind}_checkpoint={target}")

    return build


def bad_value(command, output_key, *extra):
    """`command` on the pipeline's inputs, with its output redirected under tmp_path/out."""
    def build(src_tmp, cfg, tmp_path):
        return [command, "--config", str(cfg), "--set", f"{output_key}={tmp_path / 'out' / 'x'}",
                *extra]

    return build


BAD_VALUE_CASES = [
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "seed=-1"), 2, "seed -1",
                 id="pretrain-negative-seed"),
    pytest.param(bad_value("calibrate", "calibrator_checkpoint", "--set", "seed=-1"), 2, "seed -1",
                 id="calibrate-negative-seed"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "prefix_noise_max=0"), 2,
                 "prefix_noise_max 0", id="pretrain-prefix-noise-max-0"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "pretrain_max_epochs=0"), 2,
                 "pretrain_max_epochs 0", id="pretrain-max-epochs-0"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "encoder_train_epochs=-1"), 2,
                 "encoder_train_epochs -1", id="pretrain-negative-encoder-epochs"),
    pytest.param(bad_value("evaluate", "report_dir", "--set", "report_format=xml"), 2,
                 "unknown report format 'xml'", id="evaluate-report-format-xml"),
    pytest.param(bad_value("evaluate", "report_dir", "--soft-lengths", "2,x"), 2,
                 "--soft-lengths", id="evaluate-soft-length-not-an-integer"),
    pytest.param(bad_value("evaluate", "report_dir", "--soft-lengths", "2,,3"), 2,
                 "--soft-lengths", id="evaluate-soft-length-empty-entry"),
    pytest.param(bad_value("evaluate", "report_dir", "--soft-lengths", "99"), 2,
                 "soft token length 99 out of range", id="evaluate-soft-length-over-token"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "embed_noise_std=-1"), 2,
                 "embed_noise_std -1", id="pretrain-negative-embed-noise-std"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "embed_bias_std=-1"), 2,
                 "embed_bias_std -1", id="pretrain-negative-embed-bias-std"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "ffn_dim=0"), 2,
                 "ffn_dim 0", id="pretrain-ffn-dim-0"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "decode_max_len=0"), 2,
                 "decode_max_len 0", id="pretrain-decode-max-len-0"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "max_sequence_length=0"), 2,
                 "max_sequence_length 0 must be >= 1", id="pretrain-max-sequence-length-0"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "pretrain_tol=-1"), 2,
                 "pretrain_tol -1", id="pretrain-negative-tol"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "prefix_noise_prob=-1"), 2,
                 "prefix_noise_prob -1", id="pretrain-prefix-noise-prob-below-0"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "prefix_noise_prob=2"), 2,
                 "prefix_noise_prob 2", id="pretrain-prefix-noise-prob-above-1"),
    pytest.param(bad_value("calibrate", "calibrator_checkpoint", "--set", "convergence_tol=nan"), 2,
                 "convergence_tol nan", id="calibrate-nan-tol"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "embed_noise_std=nan"), 2,
                 "embed_noise_std nan", id="pretrain-nan-embed-noise-std"),
    pytest.param(bad_value("pretrain", "model_checkpoint", "--set", "pretrain_learning_rate=nan"), 2,
                 "pretrain_learning_rate nan", id="pretrain-nan-learning-rate"),
    pytest.param(lambda src_tmp, cfg, tmp_path: summarize_argv(cfg, "no edema.", "--set",
                                                               "distance=bogus"),
                 2, "unknown distance 'bogus'", id="summarize-unknown-distance"),
]


EXIT_CODE_CASES = [
    pytest.param(long_literal, 0, "", id="summarize-literal-over-255-bytes"),
    pytest.param(overlong_note, 2, "exceeds max_sequence_length",
                 id="summarize-note-over-max-sequence-length"),
    pytest.param(overlong_evaluation_record, 2, "exceeds max_sequence_length",
                 id="evaluate-record-over-max-sequence-length"),
    pytest.param(calibrator_version_1, 4, "unsupported calibrator checkpoint version 1",
                 id="calibrator-version-1"),
    *(pytest.param(damaged_checkpoint(kind, section, how), 4, "checkpoint error",
                   id=f"{kind}-{section}-{how}")
      for kind, sections in (("model", MODEL_SECTIONS), ("calibrator", CALIBRATOR_SECTIONS))
      for section in sections
      for how in ("flip", "truncate")),
]


class TestExitCodes:
    """One row per failure the CLI must map to its documented exit code, never a traceback."""

    @pytest.mark.parametrize("build, code, message", EXIT_CODE_CASES + BAD_VALUE_CASES)
    def test_exit_code(self, pipeline, tmp_path, capsys, build, code, message):
        src_tmp, cfg = pipeline
        assert main(build(src_tmp, cfg, tmp_path)) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # a bad value is refused before any work


# Today's keys: the CLI-only ones with their defaults, and a valid non-default
# value for every key. Both tables pin the accepted key set.
CLI_ONLY_DEFAULTS = {
    "seed": 7,
    "corpus": "corpus/train.jsonl",
    "test_corpus": "corpus/test.jsonl",
    "prompts": "bundled",
    "model_checkpoint": "out/model.bin",
    "calibrator_checkpoint": "out/calibrator.bin",
    "report_dir": "out/reports",
    "soft_token": DEFAULT_SOFT_TOKEN_TEXT,
    "report_format": "both",
}

NON_DEFAULT_VALUES = {
    "seed": "3",
    "corpus": "c.jsonl",
    "test_corpus": "t.jsonl",
    "prompts": "p.txt",
    "model_checkpoint": "m.bin",
    "calibrator_checkpoint": "c.bin",
    "report_dir": "r",
    "soft_token": "##1",
    "report_format": "csv",
    "embed_dim": "32",
    "blocks": "1",
    "heads": "4",
    "ffn_dim": "32",
    "max_sequence_length": "48",
    "decode_max_len": "12",
    "embed_bias_std": "1.5",
    "embed_noise_std": "2.25",
    "pos_scale": "0.25",
    "pretrain_learning_rate": "0.01",
    "pretrain_max_epochs": "9",
    "pretrain_tol": "0.001",
    "pretrain_grad_clip": "2.5",
    "encoder_train_epochs": "0",
    "prefix_noise_prob": "0.25",
    "prefix_noise_max": "4",
    "distance": "cross_entropy",
    "learning_rate": "0.01",
    "max_epochs": "9",
    "convergence_tol": "0.001",
    "separator_policy": "notes_first",
}


def built_fields(built) -> dict[tuple[str, str], object]:
    """Every field of the built configs, keyed by (config class name, field name)."""
    cfg, pretrain_cfg, calib_cfg = built
    return {(type(obj).__name__, f.name): getattr(obj, f.name)
            for obj in (cfg, pretrain_cfg.model, pretrain_cfg, calib_cfg)
            for f in fields(obj) if f.name != "model"}


class TestConfigParsing:
    def test_set_overrides_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["gen-corpus", "--out", str(tmp_path / "train.jsonl"), "--size", "4", "--seed", "1"])
        # seed override changes the checkpoint relative to the file value
        assert main(["pretrain", "--config", str(cfg), "--set", "pretrain_max_epochs=1"]) == 0

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key=1\n")
        assert main(["pretrain", "--config", str(cfg)]) == 2

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["pretrain", "--config", str(cfg)]) == 2

    def test_non_numeric_value_exits_2(self):
        assert main(["calibrate", "--set", "max_epochs=abc"]) == 2

    def test_accepted_keys(self):
        assert set(CONFIG_KEYS) == set(NON_DEFAULT_VALUES)
        assert [f.name for f in fields(PipelineConfig)] == list(CLI_ONLY_DEFAULTS)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT_VALUES))
    def test_key_default_and_target(self, key):
        default = built_fields(load_pipeline_config(None, []))
        cls, name = LIBRARY_KEYS.get(key, (PipelineConfig, key))
        if key in LIBRARY_KEYS:
            assert default[cls.__name__, name] == getattr(cls(), name)
        else:
            assert default[cls.__name__, name] == CLI_ONLY_DEFAULTS[key]
        raw = NON_DEFAULT_VALUES[key]
        changed = built_fields(load_pipeline_config(None, [f"{key}={raw}"]))
        targets = {(cls.__name__, name)}
        if key == "seed":
            targets |= {("PretrainConfig", "seed"), ("CalibrationConfig", "seed")}
        assert {k for k in default if default[k] != changed[k]} == targets
        for target in targets:
            assert type(changed[target]) is type(default[target])
            assert str(changed[target]) == raw
