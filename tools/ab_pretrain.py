"""In-process A/B of pretraining: an earlier revision's package against this checkout's.

Both packages run the pretrain benchmark's call: ``pretrain`` for 6 epochs on
200 seeded records, with the bundled prompts and soft token in the vocabulary
and the default config (3 encoder-training epochs, then decoder-only ones).
Runs alternate between the two packages (``abkit.interleave``), and each
repeat starts with the side the previous one ended with, so drift in machine
load falls on both alike. Every run must give the parent's weights,
vocabulary and config (``abkit.model_state_digest``) and loss-curve bytes.
Per side it reports the call's seconds and the median encoder-training and
decoder-only epoch seconds.

The default 10 repeats are the ten pairs a gain claim needs at least. More
do not narrow the spread: on identical code (a 2-vCPU shared x86-64 host, 1
BLAS thread) the parent's q3 - q1 read 13.1%, 12.7%, 21.7% and 23.8% of its
median at 5, 10, 15 and 20 repeats, so a change smaller than that reads
``resolved: false`` there at any count.

What the tool settles is bit-identity with the parent, not speed. On that
host its speed figures cannot resolve a pretrain change: a change that did
not speed pretraining up read a resolved speedup of 1.156 (5 repeats, faster
in every one), and identical code read speedups from 0.913 to 1.175. So a
pretrain speed claim cites the benchmark's own paired runs
(``perfbench/run.py --workload pretrain`` at the parent and at the change),
not this tool's figures.

``--full`` also runs the 60-epoch recipe the acceptance suite and the
benchmark's frozen model use (200 records, seed 7) once on each side and
checks that both end in the same weights.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_pretrain.py --parent HEAD [--repeats 10] [--full] [--out BENCH_pretrain.json]
"""

from __future__ import annotations

import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import abkit  # first: pins BLAS threads and puts the checkout's sources on the import path
import numpy as np
from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT
from promptcal.corpus import generate_corpus
from promptcal.harness import load_default_ensemble

CORPUS_SIZE = 200
BENCH_EPOCHS = 6  # perfbench's PRETRAIN_EPOCHS
RECIPE_EPOCHS = 60  # the acceptance suite's and the frozen model's recipe
RECIPE_SEED = 7


def pretrain(package, corpus, extra: list[str], seed: int, epochs: int, runs: list) -> None:
    """One pretrain call of the given package; appends its model, losses and median epoch seconds to runs."""
    config = package.model.PretrainConfig(max_epochs=epochs, seed=seed)
    losses, ends = [], []

    def log(epoch: int, loss: float) -> None:
        losses.append(loss)
        ends.append(time.perf_counter())

    start = time.perf_counter()
    lm = package.model.pretrain(corpus, config, extra_texts=extra, log_fn=log)
    epoch_s = np.diff([start, *ends])
    warm = config.encoder_train_epochs
    runs.append({"lm": lm, "losses": losses, "encoder_epoch_s": float(np.median(epoch_s[:warm])),
                 "decoder_epoch_s": float(np.median(epoch_s[warm:]))})


def main(argv: list[str] | None = None) -> int:
    ap = abkit.parser(__doc__, "BENCH_pretrain.json", repeats=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--full", action="store_true", help="also compare one 60-epoch recipe run per side")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": abkit.parent_package(args.parent, Path(tmp)), "change": sys.modules["promptcal"]}

    def ab(seed: int, epochs: int, repeats: int):
        corpus = generate_corpus(CORPUS_SIZE, seed)
        extra = [*load_default_ensemble().prompts, DEFAULT_SOFT_TOKEN_TEXT]
        runs = {side: [] for side in sides}
        seconds = abkit.interleave({side: partial(pretrain, package, corpus, extra, seed, epochs, runs[side])
                                    for side, package in sides.items()}, repeats)
        outcomes = [[(abkit.model_state_digest(r["lm"]), np.asarray(r["losses"], dtype="<f8").tobytes())
                     for r in runs[side]] for side in sides]
        reference = outcomes[0][0]
        identical = all(outcome == reference for side in outcomes for outcome in side)
        return runs, seconds, reference[0], identical

    runs, seconds, weights, identical = ab(args.seed, BENCH_EPOCHS, args.repeats)
    bench = {"weights": weights, "identical": identical, "seconds": abkit.compare(seconds, scale=1, digits=3),
             "examples_per_s": {side: abkit.quartiles([BENCH_EPOCHS * CORPUS_SIZE / s for s in seconds[side]])
                                for side in sides}}
    for name in ("encoder_epoch_s", "decoder_epoch_s"):
        bench[name] = {side: abkit.quartiles([r[name] for r in side_runs], 3) for side, side_runs in runs.items()}
    fields = {"seed": args.seed, "repeats": args.repeats, "benchmark_call": bench}
    if args.full:
        _, full_s, full_weights, full_identical = ab(RECIPE_SEED, RECIPE_EPOCHS, 1)
        fields["recipe"] = {"epochs": RECIPE_EPOCHS, "seed": RECIPE_SEED, "weights": full_weights,
                            "identical": full_identical,
                            **{f"{side}_s": round(s[0], 2) for side, s in full_s.items()}}
        identical = identical and full_identical
    abkit.write_report(args.out, argv, f"pretrain() for {BENCH_EPOCHS} epochs on {CORPUS_SIZE} seeded records "
                       "(the pretrain benchmark's call): the parent's package against the checkout's, runs "
                       "alternating in one process", **fields)
    for side in sides:
        print(f"{side}: {bench['seconds'][side]['median']} s a call, "
              f"{bench['examples_per_s'][side]['median']} examples/s, epochs "
              f"{bench['encoder_epoch_s'][side]['median']} s encoder-training, "
              f"{bench['decoder_epoch_s'][side]['median']} s decoder-only")
    print(f"speedup {bench['seconds']['change']['speedup']} (resolved: {bench['seconds']['change']['resolved']})")
    if args.full:
        recipe = fields["recipe"]
        print(f"{RECIPE_EPOCHS}-epoch recipe: parent {recipe['parent_s']} s, change {recipe['change_s']} s")
    print(f"weights {weights[:16]}; identical: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
