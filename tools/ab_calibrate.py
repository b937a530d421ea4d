"""In-process A/B of calibration: an earlier revision's package against this checkout's.

Both packages build the same frozen model with the benchmark's shapes
(``abkit.frozen_model``) and run the calibrate benchmark's op on it: a
default-config ``train_calibrator`` for ``mse``, then for ``cross_entropy``,
over the seeded inputs (200 by default) and the 10 bundled prompts. The two
sides take turns through ``abkit.interleave``. Per side the report gives the
op's milliseconds, the minor page faults each op took (the ``ru_minflt``
delta of this process) and, from one more untimed call per distance, the
tracemalloc heap peak of a ``train_calibrator`` call. Both sides must return
bit-identical soft vectors and loss curves.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_calibrate.py --parent HEAD [--repeats 15] [--inputs 200] [--out BENCH_calibrate.json]
"""

from __future__ import annotations

import resource
import statistics
import sys
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import abkit  # first: pins BLAS threads and puts the checkout's sources on the import path
import numpy as np
from promptcal.corpus import generate_corpus
from promptcal.harness import load_default_ensemble

DISTANCES = ("mse", "cross_entropy")


def trainer(package, lm, inputs: int):
    """One side's train(distance): a default-config train_calibrator call, giving (soft vector, loss curve)."""
    tokenize, calibration = package.vocab.tokenize, package.calibration
    notes = [tokenize(r.findings, lm.vocab) for r in generate_corpus(inputs, abkit.SEED)]
    prompts = [tokenize(p, lm.vocab) for p in load_default_ensemble().prompts]
    tok = calibration.SoftPromptToken.from_text(calibration.DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)

    def train(distance: str):
        losses: list[float] = []
        soft = calibration.train_calibrator(notes, prompts, tok, lm, calibration.CalibrationConfig(distance=distance),
                                            log_fn=lambda epoch, loss: losses.append(loss))
        return soft, np.asarray(losses)

    return train


def op(train) -> dict:
    """The benchmark's op on one side: train for every distance, in order."""
    return {distance: train(distance) for distance in DISTANCES}


def counting_faults(call, faults: list[int]):
    """call, appending the minor page faults this process takes during each run of it to faults."""
    def counted():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = call()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return result
    return counted


def heap_peak_kib(call) -> float:
    """The tracemalloc peak of one call, in KiB: what it allocated beyond what was live before it."""
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 1024, 1)
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    ap = abkit.parser(__doc__, "BENCH_calibrate.json", repeats=15)
    ap.add_argument("--inputs", type=int, default=200, help="seeded inputs to calibrate over")
    args = ap.parse_args(argv)
    lm = abkit.frozen_model(sys.modules["promptcal"])
    with tempfile.TemporaryDirectory() as tmp:
        parent = abkit.parent_package(args.parent, Path(tmp))
        parent_lm = abkit.frozen_model(parent)
    same_weights = abkit.model_state_digest(parent_lm) == abkit.model_state_digest(lm)
    trainers = {"parent": trainer(parent, parent_lm, args.inputs),
                "change": trainer(sys.modules["promptcal"], lm, args.inputs)}

    results = {side: op(train) for side, train in trainers.items()}
    identical = {distance: {"soft_vector": results["parent"][distance][0].tobytes()
                            == results["change"][distance][0].tobytes(),
                            "loss_curve": results["parent"][distance][1].tobytes()
                            == results["change"][distance][1].tobytes(),
                            "epochs": len(results["change"][distance][1])}
                 for distance in DISTANCES}
    faults = {side: [] for side in trainers}
    times = abkit.interleave({side: counting_faults(partial(op, train), faults[side])
                              for side, train in trainers.items()}, args.repeats)
    peaks = {side: {distance: heap_peak_kib(partial(train, distance)) for distance in DISTANCES}
             for side, train in trainers.items()}
    ops = abkit.compare(times)
    for side, row in ops.items():
        row["minor_faults_median"] = statistics.median(faults[side])
        row["heap_peak_kib"] = peaks[side]
    abkit.write_report(args.out, argv, "one calibrate benchmark op (train_calibrator for mse, then cross_entropy): "
                       "the parent's package vs the checkout's, interleaved in one process",
                       inputs=args.inputs, prompts=len(load_default_ensemble().prompts), repeats=args.repeats,
                       same_weights=same_weights, bit_identical=identical, op_ms=ops)
    for side, row in ops.items():
        peak = ", ".join(f"{d} {kib:.0f} KiB" for d, kib in row["heap_peak_kib"].items())
        print(f"{side}: {row['median']:.0f} ms, {row['minor_faults_median']:.0f} minor faults per op, "
              f"heap peak {peak}")
    print(f"speedup {ops['change']['speedup']} (faster in {ops['change']['faster_pct']}% of repeats, "
          f"resolved: {ops['change']['resolved']}); "
          f"same weights: {same_weights}; bit-identical: {identical}")
    ok = all(row["soft_vector"] and row["loss_curve"] for row in identical.values())
    return 0 if same_weights and ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
