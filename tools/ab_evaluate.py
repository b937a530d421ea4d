"""In-process A/B of ensemble evaluation: an earlier revision's package against this checkout's.

Extracts ``src/promptcal`` at a git revision (``--parent``) into a temporary
directory and imports it beside the checkout's own package under another
name (``tools/ab_encode.py``'s ``parent_package``). Both packages load the
evaluate benchmark's frozen model (``perfbench/frozen_model.py``, built on
first use) and must load bit-identical weights, vocabulary and config, each
with a digest equal to its own ``weight_digest()``; both use the soft vector
and token of its calibrator, which the checkout reads. They time two things:

- ``round``: both arms of ``evaluate_ensemble`` (baseline, then calibrated)
  over the bundled 10-prompt ensemble and 50-note test corpus, then
  ``compare_runs`` and the csv report. Both packages must give equal
  ``per_prompt_scores`` on both arms and the same report bytes.
- ``decode_step``: one cached ``sequence_forward`` decoder step at 1 and at
  16 live rows, as greedy decoding makes it, in microseconds per step (each
  sample is the mean over the 24 steps of one decode from an empty cache).
  Both packages must give byte-equal rows.

Each repeat times every variant, starting the rotation at the next one, so
drift in machine load falls on all alike. ``--blocks`` adds variants of the
change with ``calibration.EVALUATE_ROWS`` set to each listed value, to size that
bound; every variant also reports the tracemalloc heap peak of one round.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_evaluate.py --parent HEAD [--repeats 15] [--blocks 40,160,500] [--out BENCH_evaluate.json]
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from ab_encode import (ROOT, model_state_digest, parent_package,  # also pins BLAS threads and the import path
                       quartiles)

import bench_env  # noqa: E402
import frozen_model  # noqa: E402
import numpy as np  # noqa: E402
import promptcal  # noqa: E402
from promptcal import checkpoint, harness  # noqa: E402
from promptcal.corpus import bundled_test_corpus  # noqa: E402

STEP_ROWS = (1, 16)
STEPS = 24  # the default decode_max_len


def load_parent(parent, artifacts, calibration):
    """The frozen model, loaded by the parent package, and the checkout's calibration in its types.

    The parent does not read the calibrator file: the model digest a
    calibrator records depends on its format version.
    """
    importlib.import_module(parent.__name__ + ".checkpoint")
    lm = parent.checkpoint.load_model(artifacts.model_path)
    soft, tok = calibration
    return lm, (soft, parent.calibration.SoftPromptToken.from_text(tok.text, lm.vocab))


def same_model(a, b) -> bool:
    """Whether two packages loaded bit-identical weights, vocabulary and config, and each
    package's loaded digest equals its own weight_digest()."""
    return (model_state_digest(a) == model_state_digest(b)
            and all(lm.frozen_digest == lm.weight_digest() for lm in (a, b)))


def evaluate_round(package, lm, calibration, prompts, corpus):
    """Both arms' EvaluationRun and the csv report bytes."""
    ensemble = package.harness.PromptEnsemble(prompts)
    runs = [package.harness.evaluate_ensemble(lm, calib, ensemble, corpus, label=label)
            for label, calib in (("baseline", None), ("calibrated", calibration))]
    return runs, package.harness.emit_report(package.harness.compare_runs(*runs), "csv")


def decode_steps(package, lm, contexts, tokens):
    """The rows of STEPS cached decoder steps from an empty cache, and the mean seconds per step."""
    cache = package.model.KVCache(lm.cfg, rows=len(contexts), positions=STEPS)
    context = package.autodiff.value(contexts)
    out = []
    start = time.perf_counter_ns()
    for step in tokens:
        out.append(package.model.sequence_forward(lm.params, "dec", step, lm.cfg, context=context,
                                                  causal=True, cache=cache).data)
    return np.stack(out), (time.perf_counter_ns() - start) / 1e9 / len(tokens)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the package to compare against")
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--blocks", default="", help="comma-separated EVALUATE_ROWS values to time as well")
    ap.add_argument("--out", default=str(ROOT / "BENCH_evaluate.json"))
    args = ap.parse_args(argv)
    blocks = [int(b) for b in args.blocks.split(",") if b]
    shipped = promptcal.calibration.EVALUATE_ROWS
    artifacts = frozen_model.ensure()
    prompts = harness.load_default_ensemble().prompts
    corpus = bundled_test_corpus()
    lm = checkpoint.load_model(artifacts.model_path)
    calibration = checkpoint.load_calibrator(artifacts.calibrator_path, lm)[:2]
    with tempfile.TemporaryDirectory() as tmp:
        parent = parent_package(args.parent, Path(tmp))
        parent_lm, parent_calibration = load_parent(parent, artifacts, calibration)
    same_weights = same_model(parent_lm, lm)

    def change_round(rows=shipped):
        promptcal.calibration.EVALUATE_ROWS = rows
        try:
            return evaluate_round(promptcal, lm, calibration, prompts, corpus)
        finally:
            promptcal.calibration.EVALUATE_ROWS = shipped

    variants = {"parent": lambda: evaluate_round(parent, parent_lm, parent_calibration, prompts, corpus),
                "change": change_round}
    for rows in blocks:
        variants[f"change_rows_{rows}"] = lambda rows=rows: change_round(rows)

    parent_runs, parent_report = variants["parent"]()
    identical, heap_peak_kib = {}, {}
    for variant, run in variants.items():
        tracemalloc.start()
        runs, report = run()
        heap_peak_kib[variant] = round(tracemalloc.get_traced_memory()[1] / 1024, 1)
        tracemalloc.stop()
        identical[variant] = (report == parent_report and all(
            a.per_prompt_scores == b.per_prompt_scores for a, b in zip(runs, parent_runs)))

    rng = np.random.default_rng(0)
    step_inputs = {rows: (rng.normal(size=(rows, lm.cfg.embed_dim)) * 2,
                          rng.integers(4, lm.vocab.size, size=(STEPS, rows)).tolist())
                   for rows in STEP_ROWS}
    steppers = {"parent": (parent, parent_lm), "change": (promptcal, lm)}
    steps_identical = all(
        decode_steps(parent, parent_lm, *step_inputs[rows])[0].tobytes()
        == decode_steps(promptcal, lm, *step_inputs[rows])[0].tobytes()
        for rows in STEP_ROWS)

    round_s = {variant: [] for variant in variants}
    step_us = {rows: {name: [] for name in steppers} for rows in STEP_ROWS}
    order = list(variants.items())
    for i in range(args.repeats):
        for k in range(len(order)):
            variant, run = order[(i + k) % len(order)]
            start = time.perf_counter_ns()
            run()
            round_s[variant].append((time.perf_counter_ns() - start) / 1e9)
        for rows in STEP_ROWS:
            names = list(steppers) if i % 2 == 0 else list(steppers)[::-1]
            for name in names:
                for _ in range(20):
                    step_us[rows][name].append(1e6 * decode_steps(*steppers[name], *step_inputs[rows])[1])

    summaries = 2 * len(prompts) * len(corpus)
    parent_s = round_s["parent"]
    rounds = {}
    for variant, seconds in round_s.items():
        row = {"round_s": quartiles(seconds, 3),
               "summaries_per_s": round(summaries / statistics.median(seconds), 1),
               "heap_peak_kib": heap_peak_kib[variant],
               "identical_to_parent": identical[variant]}
        if variant != "parent":
            row["speedup"] = round(statistics.median(parent_s) / statistics.median(seconds), 3)
            row["faster_pct"] = round(100.0 * sum(c < p for p, c in zip(parent_s, seconds)) / len(seconds), 1)
        rounds[variant] = row
    steps = {}
    for rows, by_name in step_us.items():
        steps[f"{rows}_rows"] = {f"{name}_us": quartiles(us) for name, us in by_name.items()}
        steps[f"{rows}_rows"]["speedup"] = round(
            statistics.median(by_name["parent"]) / statistics.median(by_name["change"]), 3)
    report = {
        "what": "both arms of evaluate_ensemble over the bundled 10 prompts x 50 notes, then compare_runs "
                "and the csv report; and one cached decoder step; parent vs checkout, interleaved in "
                "one process",
        "command": "python3 tools/ab_evaluate.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "platform": bench_env.fingerprint(),
        "frozen_model": lm.frozen_digest[:16],
        "same_weights": same_weights,
        "evaluate_rows": shipped,
        "repeats": args.repeats,
        "summaries_per_round": summaries,
        "rounds": rounds,
        "decode_step": steps,
        "decode_steps_identical": steps_identical,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for variant, row in rounds.items():
        print(f"{variant}: round {row['round_s']['median']:.3f} s ({row['summaries_per_s']:.0f} summaries/s), "
              f"heap peak {row['heap_peak_kib']:.0f} KiB, identical: {row['identical_to_parent']}")
    for rows, row in steps.items():
        print(f"decode step, {rows}: parent {row['parent_us']['median']:.0f} us, "
              f"change {row['change_us']['median']:.0f} us")
    print(f"wrote {args.out}; same weights: {same_weights}; steps identical: {steps_identical}")
    return 0 if same_weights and steps_identical and all(identical.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
