"""In-process A/B of pretraining: an earlier revision's package against this checkout's.

Extracts ``src/promptcal`` at a git revision (``--parent``) into a temporary
directory and imports it beside the checkout's own package under another
name (as ``tools/ab_encode.py`` does). Both packages run the pretrain
benchmark's call: ``pretrain`` for 6 epochs on 200 seeded records, with the
bundled prompts and soft token in the vocabulary and the default config (3
encoder-training epochs, then decoder-only ones). Runs alternate between the
two packages, and each repeat starts with the side the previous one ended
with, so drift in machine load falls on both alike. Every run must give the
parent's weights, vocabulary and config (``ab_encode.model_state_digest``)
and loss-curve bytes. Per side it reports the call's seconds and the median
encoder-training and decoder-only epoch seconds.

``--full`` also runs the 60-epoch recipe the acceptance suite and the
benchmark's frozen model use (200 records, seed 7) once on each side and
checks that both end in the same weights.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_pretrain.py --parent HEAD [--repeats 5] [--full] [--out BENCH_pretrain.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools"), str(ROOT)]

import bench_env  # noqa: E402

bench_env.prepare()  # the benchmark's thread pinning and import path

import numpy as np  # noqa: E402
from ab_encode import model_state_digest, parent_package, quartiles  # noqa: E402
from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT  # noqa: E402
from promptcal.corpus import generate_corpus  # noqa: E402
from promptcal.harness import load_default_ensemble  # noqa: E402

CORPUS_SIZE = 200
BENCH_EPOCHS = 6  # perfbench's PRETRAIN_EPOCHS
RECIPE_EPOCHS = 60  # the acceptance suite's and the frozen model's recipe
RECIPE_SEED = 7


def run(package, seed: int, epochs: int) -> dict:
    """One pretrain call of the given package: its seconds, epoch seconds, weights and losses."""
    corpus = generate_corpus(CORPUS_SIZE, seed)
    extra = [*load_default_ensemble().prompts, DEFAULT_SOFT_TOKEN_TEXT]
    config = package.model.PretrainConfig(max_epochs=epochs, seed=seed)
    losses, ends = [], []

    def log(epoch: int, loss: float) -> None:
        losses.append(loss)
        ends.append(time.perf_counter())

    start = time.perf_counter()
    lm = package.model.pretrain(corpus, config, extra_texts=extra, log_fn=log)
    seconds = time.perf_counter() - start
    epoch_s = np.diff([start, *ends])
    warm = config.encoder_train_epochs
    return {
        "seconds": seconds,
        "encoder_epoch_s": float(np.median(epoch_s[:warm])),
        "decoder_epoch_s": float(np.median(epoch_s[warm:])),
        "weights": model_state_digest(lm),
        "losses": np.asarray(losses, dtype="<f8").tobytes(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the package to compare against")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--full", action="store_true", help="also compare one 60-epoch recipe run per side")
    ap.add_argument("--out", default=str(ROOT / "BENCH_pretrain.json"))
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": parent_package(args.parent, Path(tmp)), "change": sys.modules["promptcal"]}

    runs: dict[str, list[dict]] = {side: [] for side in sides}
    order = list(sides)
    for i in range(args.repeats):
        for side in order if i % 2 == 0 else order[::-1]:
            runs[side].append(run(sides[side], args.seed, BENCH_EPOCHS))
    reference = runs["parent"][0]
    identical = all(r["weights"] == reference["weights"] and r["losses"] == reference["losses"]
                    for side_runs in runs.values() for r in side_runs)

    bench = {"weights": reference["weights"], "identical": identical}
    for side, side_runs in runs.items():
        seconds = [r["seconds"] for r in side_runs]
        bench[side] = {
            "seconds": quartiles(seconds, 3),
            "examples_per_s": quartiles([BENCH_EPOCHS * CORPUS_SIZE / s for s in seconds], 1),
            "encoder_epoch_s": quartiles([r["encoder_epoch_s"] for r in side_runs], 3),
            "decoder_epoch_s": quartiles([r["decoder_epoch_s"] for r in side_runs], 3),
        }
    parent_s, change_s = ([r["seconds"] for r in runs[side]] for side in ("parent", "change"))
    bench["speedup"] = round(statistics.median(parent_s) / statistics.median(change_s), 3)
    bench["change_faster_runs"] = f"{sum(c < p for p, c in zip(parent_s, change_s))} of {args.repeats}"

    report = {
        "what": f"pretrain() for {BENCH_EPOCHS} epochs on {CORPUS_SIZE} seeded records (the pretrain "
                "benchmark's call): the parent's package against the checkout's, runs alternating in one process",
        "command": "python3 tools/ab_pretrain.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "platform": bench_env.fingerprint(),
        "seed": args.seed,
        "repeats": args.repeats,
        "benchmark_call": bench,
    }
    if args.full:
        full = {side: run(package, RECIPE_SEED, RECIPE_EPOCHS) for side, package in sides.items()}
        report["recipe"] = {
            "epochs": RECIPE_EPOCHS,
            "seed": RECIPE_SEED,
            "weights": full["parent"]["weights"],
            "identical": full["parent"]["weights"] == full["change"]["weights"]
                         and full["parent"]["losses"] == full["change"]["losses"],
            **{f"{side}_s": round(r["seconds"], 2) for side, r in full.items()},
        }
        identical = identical and report["recipe"]["identical"]
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for side in sides:
        row = bench[side]
        print(f"{side}: {row['seconds']['median']} s a call, {row['examples_per_s']['median']} examples/s, "
              f"epochs {row['encoder_epoch_s']['median']} s encoder-training, "
              f"{row['decoder_epoch_s']['median']} s decoder-only")
    if args.full:
        recipe = report["recipe"]
        print(f"{RECIPE_EPOCHS}-epoch recipe: parent {recipe['parent_s']} s, change {recipe['change_s']} s")
    print(f"wrote {args.out}; weights {reference['weights'][:16]}; identical: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
