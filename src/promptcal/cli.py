"""Command-line pipeline: gen-corpus, pretrain, calibrate, evaluate, summarize.

Configuration is a flat key=value file; repeated --set key=value flags win
over the file. Each key is a PipelineConfig field or, through LIBRARY_KEYS, a
library config field; every config is built, and so checked, before any other
file is read or written. Artifacts are written atomically (temp file + rename)
and every subcommand is byte-reproducible for a fixed config and seed.

Exit codes: 0 success, 2 input/usage error (a prompted note longer than
max_sequence_length and an output path that cannot be written included), 3
numeric failure, 4 checkpoint-digest mismatch, corruption or unsupported
version. Each command creates its output's directory before it trains or
decodes, so an unwritable output fails before the work.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import Field, dataclass, fields
from pathlib import Path

from .calibration import (
    DEFAULT_SOFT_TOKEN_TEXT,
    CalibrationConfig,
    SoftPromptToken,
    decode_soft_prompt,
    summarize,
    train_calibrator,
)
from .checkpoint import load_calibrator, load_model, save_calibrator, save_model
from .corpus import atomic_write, generate_corpus, load_corpus, read_utf8, save_corpus
from .errors import CheckpointError, ConfigError, ContractError, ShapeError, TrainingError
from .harness import (
    Arm,
    PromptEnsemble,
    compare_runs,
    default_prompt_file,
    emit_report,
    emit_run,
    run_arms,
)
from .model import ModelConfig, PretrainConfig, pretrain
from .vocab import detokenize, tokenize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_DIGEST = 4


REPORT_FORMATS = ("csv", "markdown", "both")


@dataclass(frozen=True)
class PipelineConfig:
    """The keys only the CLI has; `seed` also sets PretrainConfig.seed."""

    seed: int = PretrainConfig.seed
    corpus: str = "corpus/train.jsonl"
    test_corpus: str = "corpus/test.jsonl"
    prompts: str = "bundled"
    model_checkpoint: str = "out/model.bin"
    calibrator_checkpoint: str = "out/calibrator.bin"
    report_dir: str = "out/reports"
    soft_token: str = DEFAULT_SOFT_TOKEN_TEXT
    report_format: str = "both"

    def __post_init__(self):
        if self.report_format not in REPORT_FORMATS:
            raise ContractError(f"unknown report format {self.report_format!r} "
                                f"(expected one of {', '.join(REPORT_FORMATS)})")


# Every other config key is a library config field, which gives its type and default.
LIBRARY_KEYS: dict[str, tuple[type, str]] = {
    "embed_dim": (ModelConfig, "embed_dim"),
    "blocks": (ModelConfig, "n_blocks"),
    "heads": (ModelConfig, "n_heads"),
    "ffn_dim": (ModelConfig, "ffn_dim"),
    "max_sequence_length": (ModelConfig, "max_seq_len"),
    "decode_max_len": (ModelConfig, "decode_max_len"),
    "embed_bias_std": (ModelConfig, "embed_bias_std"),
    "embed_noise_std": (ModelConfig, "embed_noise_std"),
    "pos_scale": (ModelConfig, "pos_scale"),
    "pretrain_learning_rate": (PretrainConfig, "learning_rate"),
    "pretrain_max_epochs": (PretrainConfig, "max_epochs"),
    "pretrain_tol": (PretrainConfig, "convergence_tol"),
    "pretrain_grad_clip": (PretrainConfig, "max_grad_norm"),
    "encoder_train_epochs": (PretrainConfig, "encoder_train_epochs"),
    "prefix_noise_prob": (PretrainConfig, "prefix_noise_prob"),
    "prefix_noise_max": (PretrainConfig, "prefix_noise_max"),
    "distance": (CalibrationConfig, "distance"),
    "learning_rate": (CalibrationConfig, "learning_rate"),
    "max_epochs": (CalibrationConfig, "max_epochs"),
    "convergence_tol": (CalibrationConfig, "convergence_tol"),
}

CONFIG_KEYS: dict[str, Field] = {
    **{f.name: f for f in fields(PipelineConfig)},
    **{key: next(f for f in fields(cls) if f.name == name)
       for key, (cls, name) in LIBRARY_KEYS.items()},
}


_PARSERS = {"int": int, "float": float, "str": str}


def _coerce(key: str, raw: str):
    kind = CONFIG_KEYS[key].type
    try:
        return _PARSERS[kind](raw)
    except ValueError:
        raise ContractError(f"config key {key!r} expects {kind}, got {raw!r}") from None


def load_pipeline_config(
    path: str | None, overrides: list[str]
) -> tuple[PipelineConfig, PretrainConfig, CalibrationConfig]:
    """Parse the file, then the --set flags, and build every config so bad values fail here."""
    entries: list[tuple[str, str]] = []  # (where it came from, "key=value")
    if path is not None:
        lines = read_utf8(path).splitlines()
        entries = [(f"{path}:{n}", line.strip()) for n, line in enumerate(lines, 1)
                   if line.strip() and not line.strip().startswith("#")]
    entries += [("--set", item) for item in overrides]
    values: dict[type, dict] = {cls: {} for cls in (PipelineConfig, ModelConfig, PretrainConfig,
                                                    CalibrationConfig)}
    for where, item in entries:
        if "=" not in item:
            raise ContractError(f"{where}: expected key=value, got {item!r}")
        key, _, raw = (part.strip() for part in item.partition("="))
        if key not in CONFIG_KEYS:
            raise ContractError(f"unknown config key {key!r}")
        cls, name = LIBRARY_KEYS.get(key, (PipelineConfig, key))
        values[cls][name] = _coerce(key, raw)

    def build(cls: type, **fixed):
        try:
            return cls(**values[cls], **fixed)
        except ConfigError as exc:  # name the key that was set, not the field it maps to
            key = next((k for k, target in LIBRARY_KEYS.items() if target == (cls, exc.field)), None)
            if key is None:
                raise
            raise ConfigError(key, exc.value, exc.requirement) from None

    cfg = build(PipelineConfig)
    return (
        cfg,
        build(PretrainConfig, seed=cfg.seed, model=build(ModelConfig)),
        build(CalibrationConfig),
    )


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return p


def _prompt_path(cfg: PipelineConfig) -> Path:
    if cfg.prompts == "bundled":
        return default_prompt_file()
    return _require_file(cfg.prompts, "prompts file")


def _log_epoch(epoch: int, loss: float) -> None:
    print(f"epoch={epoch} loss={loss:.6f}")


def cmd_gen_corpus(args) -> int:
    records = generate_corpus(args.size, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_corpus(records, out)
    print(f"wrote {len(records)} records to {out}")
    return EXIT_OK


def cmd_pretrain(args, cfg: PipelineConfig, pretrain_cfg: PretrainConfig) -> int:
    corpus = load_corpus(_require_file(cfg.corpus, "corpus"))
    prompt_texts = list(PromptEnsemble.from_file(_prompt_path(cfg)).prompts)
    out = Path(cfg.model_checkpoint)
    out.parent.mkdir(parents=True, exist_ok=True)
    lm = pretrain(corpus, pretrain_cfg, extra_texts=prompt_texts + [cfg.soft_token],
                  log_fn=_log_epoch)
    save_model(lm, out)
    print(f"model digest {lm.frozen_digest}")
    print(f"wrote model checkpoint to {out}")
    return EXIT_OK


def cmd_calibrate(args, cfg: PipelineConfig, calib_cfg: CalibrationConfig) -> int:
    lm = load_model(_require_file(cfg.model_checkpoint, "model checkpoint"))
    corpus = load_corpus(_require_file(cfg.corpus, "corpus"))
    ensemble = PromptEnsemble.from_file(_prompt_path(cfg))
    inputs = [tokenize(r.findings, lm.vocab) for r in corpus]
    prompt_seqs = [tokenize(p, lm.vocab) for p in ensemble.prompts]
    tok = SoftPromptToken.from_text(cfg.soft_token, lm.vocab)
    out = Path(cfg.calibrator_checkpoint)
    out.parent.mkdir(parents=True, exist_ok=True)
    soft = train_calibrator(inputs, prompt_seqs, tok, lm, calib_cfg, log_fn=_log_epoch)
    save_calibrator(soft, tok, calib_cfg, lm.frozen_digest, out)
    print(f"wrote calibrator checkpoint to {out}")
    return EXIT_OK


def _write_reports(cfg: PipelineConfig, stem: str, reports) -> list[Path]:
    formats = ("csv", "markdown") if cfg.report_format == "both" else (cfg.report_format,)
    written = []
    for fmt in formats:
        suffix = ".csv" if fmt == "csv" else ".md"
        path = Path(cfg.report_dir) / f"{stem}{suffix}"
        atomic_write(path, emit_report(reports, fmt))
        written.append(path)
    return written


def _parse_lengths(text: str) -> list[int]:
    try:
        lengths = [int(x) for x in text.split(",")]
        if min(lengths) < 1:
            raise ValueError
    except ValueError:
        raise ContractError(f"--soft-lengths expects comma-separated positive integers, "
                            f"got {text!r}") from None
    if len(set(lengths)) < len(lengths):
        raise ContractError(f"--soft-lengths lists a length more than once: {text!r}")
    return lengths


def _load_calibration(cfg: PipelineConfig, lm):
    """The saved soft vector and token, checked against the loaded model."""
    return load_calibrator(_require_file(cfg.calibrator_checkpoint, "calibrator checkpoint"), lm)[:2]


def cmd_evaluate(args, cfg: PipelineConfig, calib_cfg: CalibrationConfig) -> int:
    # Every input is read and checked before the first decode.
    lengths = _parse_lengths(args.soft_lengths) if args.soft_lengths else []
    ablating = bool(lengths or args.ood_token)
    lm = load_model(_require_file(cfg.model_checkpoint, "model checkpoint"))
    eval_corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    ensemble = PromptEnsemble.from_file(_prompt_path(cfg))
    baseline = Arm("baseline") if args.arm != "calibrated" or ablating else None
    calibrated = None
    if args.arm != "baseline" or args.ood_token:
        soft, tok = _load_calibration(cfg, lm)
        calibrated = Arm("calibrated", tok, soft)
    # Each report lists its rows as (label, arm); a row compares its arm with the baseline.
    reports = {"variance_report": [("default", calibrated)] if args.arm == "both" else []}
    if ablating:
        base = SoftPromptToken.from_text(cfg.soft_token, lm.vocab)
        reports["ablation_lengths"] = [
            (f"soft_len_{n}", Arm(f"soft_len_{n}", base.truncated(n, lm.vocab))) for n in lengths
        ]
    if args.ood_token:
        ood = SoftPromptToken.from_text(args.ood_token, lm.vocab)
        in_dist = calibrated if calibrated.token.text == base.text else Arm("in_distribution", base)
        reports["ablation_tokens"] = [("in_distribution", in_dist),
                                      ("out_of_distribution", Arm("out_of_distribution", ood))]
    arms = [arm for arm in (baseline, calibrated) if arm is not None]
    arms += [arm for rows in reports.values() for _, arm in rows]
    # Every ablation arm trains a calibrator; the loaded one never does.
    train_corpus = load_corpus(_require_file(cfg.corpus, "corpus")) if ablating else []

    Path(cfg.report_dir).mkdir(parents=True, exist_ok=True)
    runs = run_arms(arms, lm, ensemble, eval_corpus, train_corpus, calib_cfg)
    for arm in (baseline, calibrated):
        if arm is not None:
            atomic_write(Path(cfg.report_dir) / f"run_{arm.label}.csv", emit_run(runs[arm], ensemble))
    for stem, rows in reports.items():
        if rows:
            compared = [compare_runs(runs[baseline], runs[arm], label=label) for label, arm in rows]
            for path in _write_reports(cfg, stem, compared):
                print(f"wrote {path}")
    return EXIT_OK


def cmd_summarize(args, cfg: PipelineConfig) -> int:
    lm = load_model(_require_file(cfg.model_checkpoint, "model checkpoint"))
    text = args.input
    maybe_file = Path(text)
    try:
        is_file = maybe_file.is_file()
    except OSError:  # e.g. a literal longer than a file name may be
        is_file = False
    if is_file:
        text = read_utf8(maybe_file)
    if not text.strip():
        print("error: empty input", file=sys.stderr)
        return EXIT_INPUT
    notes = tokenize(text, lm.vocab)
    prompt = tokenize(args.prompt, lm.vocab)
    calibration = None
    if args.calibrated:
        calibration = _load_calibration(cfg, lm)
        soft_text = detokenize(decode_soft_prompt(*calibration, lm), lm.vocab)
        print(f"soft-prompt: {soft_text}")
    result = summarize(notes, prompt, lm, calibration)
    print(detokenize(result, lm.vocab))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptcal",
        description="Soft-prompt calibration pipeline for a desk-scale summarizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-corpus", help="write a seeded synthetic JSONL corpus")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)

    for name in ("pretrain", "calibrate", "evaluate", "summarize"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable; flags win)")

    p_eval = sub.choices["evaluate"]
    p_eval.add_argument("--arm", choices=("baseline", "calibrated", "both"), default="both")
    p_eval.add_argument("--soft-lengths", help="comma-separated soft token lengths to ablate")
    p_eval.add_argument("--ood-token", help="out-of-distribution token text; adds the two-case report")

    p_sum = sub.choices["summarize"]
    p_sum.add_argument("--input", required=True, help="literal text or a path to a text file")
    p_sum.add_argument("--prompt", default="", help="instruction prompt text")
    p_sum.add_argument("--calibrated", action="store_true", help="prepend the decoded soft prompt")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-corpus":
            return cmd_gen_corpus(args)
        cfg, pretrain_cfg, calib_cfg = load_pipeline_config(args.config, args.set)
        if args.command == "pretrain":
            return cmd_pretrain(args, cfg, pretrain_cfg)
        if args.command == "calibrate":
            return cmd_calibrate(args, cfg, calib_cfg)
        if args.command == "evaluate":
            return cmd_evaluate(args, cfg, calib_cfg)
        if args.command == "summarize":
            return cmd_summarize(args, cfg)
        parser.error(f"unknown command {args.command!r}")
    except (OSError, ContractError, ShapeError) as exc:  # OSError: a missing input or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TrainingError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_DIGEST
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
