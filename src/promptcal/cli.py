"""Command-line pipeline: gen-corpus, pretrain, calibrate, evaluate, summarize.

Configuration is a flat key=value file; repeated --set key=value flags win
over the file. All artifacts are written atomically (temp file + rename) and
every subcommand is byte-reproducible for a fixed config and seed.

Exit codes: 0 success, 2 input/usage error (a prompted note longer than
max_sequence_length included), 3 numeric failure, 4 checkpoint-digest
mismatch, corruption or unsupported version.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
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
from .corpus import atomic_write, generate_corpus, load_corpus, save_corpus
from .errors import CheckpointError, ContractError, ShapeError, TrainingError
from .harness import (
    PromptEnsemble,
    compare_runs,
    default_prompt_file,
    emit_report,
    emit_run,
    evaluate_ensemble,
    soft_length_ablation,
)
from .model import ModelConfig, PretrainConfig, pretrain
from .vocab import detokenize, tokenize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_DIGEST = 4


@dataclass
class PipelineConfig:
    seed: int = PretrainConfig.seed
    corpus: str = "corpus/train.jsonl"
    test_corpus: str = "corpus/test.jsonl"
    prompts: str = "bundled"
    model_checkpoint: str = "out/model.bin"
    calibrator_checkpoint: str = "out/calibrator.bin"
    report_dir: str = "out/reports"
    embed_dim: int = ModelConfig.embed_dim
    blocks: int = ModelConfig.n_blocks
    heads: int = ModelConfig.n_heads
    ffn_dim: int = ModelConfig.ffn_dim
    max_sequence_length: int = ModelConfig.max_seq_len
    decode_max_len: int = ModelConfig.decode_max_len
    embed_bias_std: float = ModelConfig.embed_bias_std
    embed_noise_std: float = ModelConfig.embed_noise_std
    pos_scale: float = ModelConfig.pos_scale
    pretrain_learning_rate: float = PretrainConfig.learning_rate
    pretrain_max_epochs: int = PretrainConfig.max_epochs
    pretrain_tol: float = PretrainConfig.convergence_tol
    pretrain_grad_clip: float = PretrainConfig.max_grad_norm
    encoder_train_epochs: int = PretrainConfig.encoder_train_epochs
    prefix_noise_prob: float = PretrainConfig.prefix_noise_prob
    prefix_noise_max: int = PretrainConfig.prefix_noise_max
    distance: str = CalibrationConfig.distance
    learning_rate: float = CalibrationConfig.learning_rate
    max_epochs: int = CalibrationConfig.max_epochs
    convergence_tol: float = CalibrationConfig.convergence_tol
    soft_token: str = DEFAULT_SOFT_TOKEN_TEXT
    separator_policy: str = CalibrationConfig.separator_policy
    report_format: str = "both"

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            embed_dim=self.embed_dim,
            n_blocks=self.blocks,
            n_heads=self.heads,
            ffn_dim=self.ffn_dim,
            max_seq_len=self.max_sequence_length,
            decode_max_len=self.decode_max_len,
            embed_bias_std=self.embed_bias_std,
            embed_noise_std=self.embed_noise_std,
            pos_scale=self.pos_scale,
        )

    def pretrain_config(self) -> PretrainConfig:
        return PretrainConfig(
            learning_rate=self.pretrain_learning_rate,
            max_epochs=self.pretrain_max_epochs,
            convergence_tol=self.pretrain_tol,
            max_grad_norm=self.pretrain_grad_clip,
            encoder_train_epochs=self.encoder_train_epochs,
            prefix_noise_prob=self.prefix_noise_prob,
            prefix_noise_max=self.prefix_noise_max,
            seed=self.seed,
            model=self.model_config(),
        )

    def calibration_config(self) -> CalibrationConfig:
        return CalibrationConfig(
            distance=self.distance,
            learning_rate=self.learning_rate,
            max_epochs=self.max_epochs,
            convergence_tol=self.convergence_tol,
            seed=self.seed,
            separator_policy=self.separator_policy,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ContractError(f"config key {key!r} expects {kind}, got {raw!r}") from None
    return raw


def load_pipeline_config(path: str | None, overrides: list[str]) -> PipelineConfig:
    cfg = PipelineConfig()
    entries: list[tuple[str, str]] = []
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for line_no, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ContractError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            entries.append((key.strip(), raw.strip()))
    for item in overrides:
        if "=" not in item:
            raise ContractError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        entries.append((key.strip(), raw.strip()))
    for key, raw in entries:
        if key not in _FIELD_TYPES:
            raise ContractError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, raw))
    return cfg


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
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        save_corpus(records, out)
    except OSError as exc:
        print(f"error: cannot write corpus to {args.out}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {len(records)} records to {out}")
    return EXIT_OK


def cmd_pretrain(args, cfg: PipelineConfig) -> int:
    corpus = load_corpus(_require_file(cfg.corpus, "corpus"))
    prompt_texts = list(PromptEnsemble.from_file(_prompt_path(cfg)).prompts)
    lm = pretrain(corpus, cfg.pretrain_config(), extra_texts=prompt_texts + [cfg.soft_token],
                  log_fn=_log_epoch)
    out = Path(cfg.model_checkpoint)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(lm, out)
    print(f"model digest {lm.weight_digest()}")
    print(f"wrote model checkpoint to {out}")
    return EXIT_OK


def cmd_calibrate(args, cfg: PipelineConfig) -> int:
    lm = load_model(_require_file(cfg.model_checkpoint, "model checkpoint"))
    corpus = load_corpus(_require_file(cfg.corpus, "corpus"))
    ensemble = PromptEnsemble.from_file(_prompt_path(cfg))
    inputs = [tokenize(r.findings, lm.vocab) for r in corpus]
    prompt_seqs = [tokenize(p, lm.vocab) for p in ensemble.prompts]
    tok = SoftPromptToken.from_text(cfg.soft_token, lm.vocab)
    calib_cfg = cfg.calibration_config()
    soft = train_calibrator(inputs, prompt_seqs, tok, lm, calib_cfg, log_fn=_log_epoch)
    out = Path(cfg.calibrator_checkpoint)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_calibrator(soft, tok, calib_cfg, lm.weight_digest(), out)
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


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    lm = load_model(_require_file(cfg.model_checkpoint, "model checkpoint"))
    eval_corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    ensemble = PromptEnsemble.from_file(_prompt_path(cfg))
    policy = cfg.separator_policy
    report_dir = Path(cfg.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)

    need_baseline = args.arm in ("baseline", "both") or args.soft_lengths or args.ood_token
    need_calibrated = args.arm in ("calibrated", "both") or args.ood_token
    baseline_run = None
    if need_baseline:
        baseline_run = evaluate_ensemble(
            lm, None, ensemble, eval_corpus, label="baseline", seed=cfg.seed, policy=policy
        )
        atomic_write(report_dir / "run_baseline.csv", emit_run(baseline_run, ensemble))

    calibration = None
    if need_calibrated:
        soft, tok, _saved_cfg = load_calibrator(
            _require_file(cfg.calibrator_checkpoint, "calibrator checkpoint"), lm
        )
        calibration = (soft, tok)
        calibrated_run = evaluate_ensemble(
            lm, calibration, ensemble, eval_corpus, label="calibrated", seed=cfg.seed, policy=policy
        )
        atomic_write(report_dir / "run_calibrated.csv", emit_run(calibrated_run, ensemble))

    if args.arm == "both":
        report = compare_runs(baseline_run, calibrated_run, label="default")
        for path in _write_reports(cfg, "variance_report", report):
            print(f"wrote {path}")

    if args.soft_lengths:
        lengths = [int(x) for x in args.soft_lengths.split(",") if x.strip()]
        train_records = load_corpus(_require_file(cfg.corpus, "corpus"))
        inputs = [tokenize(r.findings, lm.vocab) for r in train_records]
        base_tok = SoftPromptToken.from_text(args.soft_token or cfg.soft_token, lm.vocab)
        rows = soft_length_ablation(
            lengths, base_tok, inputs, ensemble, lm, cfg.calibration_config(),
            eval_corpus, baseline_run,
        )
        for path in _write_reports(cfg, "ablation_lengths", [r for _, r in rows]):
            print(f"wrote {path}")

    if args.ood_token:
        train_records = load_corpus(_require_file(cfg.corpus, "corpus"))
        inputs = [tokenize(r.findings, lm.vocab) for r in train_records]
        prompt_seqs = [tokenize(p, lm.vocab) for p in ensemble.prompts]
        calib_cfg = cfg.calibration_config()
        cases = []
        in_tok_text = args.soft_token or cfg.soft_token
        soft_in, tok_in = calibration
        if tok_in.text != in_tok_text:
            tok_in = SoftPromptToken.from_text(in_tok_text, lm.vocab)
            soft_in = train_calibrator(inputs, prompt_seqs, tok_in, lm, calib_cfg)
        run_in = evaluate_ensemble(
            lm, (soft_in, tok_in), ensemble, eval_corpus,
            label="in_distribution", seed=cfg.seed, policy=policy,
        )
        cases.append(compare_runs(baseline_run, run_in, label="in_distribution"))
        tok_out = SoftPromptToken.from_text(args.ood_token, lm.vocab)
        soft_out = train_calibrator(inputs, prompt_seqs, tok_out, lm, calib_cfg)
        run_out = evaluate_ensemble(
            lm, (soft_out, tok_out), ensemble, eval_corpus,
            label="out_of_distribution", seed=cfg.seed, policy=policy,
        )
        cases.append(compare_runs(baseline_run, run_out, label="out_of_distribution"))
        for path in _write_reports(cfg, "ablation_tokens", cases):
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
        text = maybe_file.read_text(encoding="utf-8")
    if not text.strip():
        print("error: empty input", file=sys.stderr)
        return EXIT_INPUT
    notes = tokenize(text, lm.vocab)
    prompt = tokenize(args.prompt, lm.vocab)
    calibration = None
    if args.calibrated:
        soft, tok, _saved_cfg = load_calibrator(
            _require_file(cfg.calibrator_checkpoint, "calibrator checkpoint"), lm
        )
        calibration = (soft, tok)
        soft_text = detokenize(decode_soft_prompt(soft, tok, lm), lm.vocab)
        print(f"soft-prompt: {soft_text}")
    result = summarize(notes, prompt, lm, calibration, policy=cfg.separator_policy)
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
    p_eval.add_argument("--soft-token", help="in-distribution soft token text override")
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
        cfg = load_pipeline_config(args.config, args.set)
        if args.command == "pretrain":
            return cmd_pretrain(args, cfg)
        if args.command == "calibrate":
            return cmd_calibrate(args, cfg)
        if args.command == "evaluate":
            return cmd_evaluate(args, cfg)
        if args.command == "summarize":
            return cmd_summarize(args, cfg)
        parser.error(f"unknown command {args.command!r}")
    except (FileNotFoundError, ContractError, ShapeError) as exc:
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
