"""In-process A/B of ensemble evaluation: an earlier revision's package against this checkout's.

Both packages load the evaluate benchmark's frozen model
(``perfbench/frozen_model.py``, built on first use) and must load
bit-identical weights, vocabulary and config, each with a digest equal to its
own ``weight_digest()``; both use the soft vector and token of its
calibrator, which the checkout reads. They time two things:

- ``round``: both arms of ``evaluate_ensemble`` (baseline, then calibrated)
  over the bundled 10-prompt ensemble and 50-note test corpus, then
  ``compare_runs`` and the csv report. Both packages must give equal
  ``per_prompt_scores`` on both arms and the same report bytes.
- ``decode_step``: one cached ``sequence_forward`` decoder step at 1, 2 and
  ``LOCKSTEP_ROWS`` live rows, as greedy decoding makes it (the checkout's
  cache runs its products over ``lockstep_row_multiple``), in microseconds
  per step (each sample is one 24-step decode from an empty cache, the
  cache's set-up included, divided by 24; 20 samples per repeat). A 1-row
  step in a plain cache must give rows byte-equal to the parent's; the
  checkout's lockstep rows at 2 and ``LOCKSTEP_ROWS`` rows must be byte-equal
  to the same rows each stepped alone, as greedy decoding steps a lone row.
  Lockstep rows are not compared with the parent's: their products run over
  every row at once, which may round their last bits otherwise.

``--lockstep`` adds variants of the change with ``model.LOCKSTEP_ROWS`` set
to each listed value, to size that bound; every variant also reports the
tracemalloc heap peak of one round. Every variant runs one untraced round
before any is traced, so no traced round pays for a first round's one-off
allocations, such as a table a package caches at its first forward.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_evaluate.py --parent HEAD [--repeats 15] [--lockstep 16,40] [--out BENCH_evaluate.json]
"""

from __future__ import annotations

import importlib
import statistics
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import abkit  # first: pins BLAS threads and puts the checkout's sources on the import path
import frozen_model
import numpy as np
import promptcal
from promptcal import checkpoint, harness
from promptcal.corpus import bundled_test_corpus

STEP_ROWS = (1, 2, promptcal.model.LOCKSTEP_ROWS)
STEPS = 24  # the default decode_max_len
STEP_SAMPLES = 20  # decode samples per side and row count in each repeat


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
    return (abkit.model_state_digest(a) == abkit.model_state_digest(b)
            and all(lm.frozen_digest == lm.weight_digest() for lm in (a, b)))


def evaluate_round(package, lm, calibration, prompts, corpus):
    """Both arms' EvaluationRun and the csv report bytes."""
    ensemble = package.harness.PromptEnsemble(prompts)
    runs = [package.harness.evaluate_ensemble(lm, calib, ensemble, corpus, label=label)
            for label, calib in (("baseline", None), ("calibrated", calibration))]
    return runs, package.harness.emit_report(package.harness.compare_runs(*runs), "csv")


def decode_steps(package, lm, contexts, tokens, **row_multiple) -> np.ndarray:
    """The live rows of STEPS cached decoder steps from an empty cache, [STEPS x rows x d]."""
    cache = package.model.KVCache(lm.cfg, rows=len(contexts), **row_multiple)
    context = package.autodiff.value(contexts)
    return np.stack([package.model.sequence_forward(lm.params, "dec", step, lm.cfg, context=context,
                                                    causal=True, cache=cache).data[:len(contexts)]
                     for step in tokens])


def lone_steps(lm, contexts, tokens, multiple) -> np.ndarray:
    """decode_steps of each row alone in the checkout, side by side."""
    return np.concatenate([decode_steps(promptcal, lm, contexts[i:i + 1], [[step[i]] for step in tokens],
                                        row_multiple=multiple) for i in range(len(contexts))], axis=1)


def main(argv: list[str] | None = None) -> int:
    ap = abkit.parser(__doc__, "BENCH_evaluate.json", repeats=15)
    ap.add_argument("--lockstep", default="", help="comma-separated LOCKSTEP_ROWS values to time as well")
    args = ap.parse_args(argv)
    lockstep = [int(rows) for rows in args.lockstep.split(",") if rows]
    shipped = promptcal.model.LOCKSTEP_ROWS
    artifacts = frozen_model.ensure()
    prompts = harness.load_default_ensemble().prompts
    corpus = bundled_test_corpus()
    lm = checkpoint.load_model(artifacts.model_path)
    calibration = checkpoint.load_calibrator(artifacts.calibrator_path, lm)[:2]
    with tempfile.TemporaryDirectory() as tmp:
        parent = abkit.parent_package(args.parent, Path(tmp))
        parent_lm, parent_calibration = load_parent(parent, artifacts, calibration)
    same_weights = same_model(parent_lm, lm)

    def change_round(group=shipped):
        promptcal.model.LOCKSTEP_ROWS = group
        try:
            return evaluate_round(promptcal, lm, calibration, prompts, corpus)
        finally:
            promptcal.model.LOCKSTEP_ROWS = shipped

    variants = {"parent": partial(evaluate_round, parent, parent_lm, parent_calibration, prompts, corpus),
                "change": change_round}
    for group in lockstep:
        variants[f"change_lockstep_{group}"] = partial(change_round, group)

    untraced = {variant: run() for variant, run in variants.items()}
    parent_runs, parent_report = untraced["parent"]
    identical, heap_peak_kib = {}, {}
    for variant, run in variants.items():
        tracemalloc.start()
        runs, report = run()
        heap_peak_kib[variant] = round(tracemalloc.get_traced_memory()[1] / 1024, 1)
        tracemalloc.stop()
        identical[variant] = (report == parent_report and all(
            a.per_prompt_scores == b.per_prompt_scores for a, b in zip(runs, parent_runs)))

    model = promptcal.model
    multiple = model.lockstep_row_multiple(model.decoder_product_shapes(lm.cfg, lm.vocab.size), shipped)
    rng = np.random.default_rng(0)
    steps, lockstep_identical = {}, {}
    for rows in STEP_ROWS:
        contexts = rng.normal(size=(rows, lm.cfg.embed_dim)) * 2
        tokens = rng.integers(4, lm.vocab.size, size=(STEPS, rows)).tolist()
        steps[rows] = calls = {"parent": partial(decode_steps, parent, parent_lm, contexts, tokens),
                               "change": partial(decode_steps, promptcal, lm, contexts, tokens,
                                                 row_multiple=multiple)}
        if rows == 1:
            plain = decode_steps(promptcal, lm, contexts, tokens)
            parent_identical = calls["parent"]().tobytes() == plain.tobytes()
        else:
            lone = lone_steps(lm, contexts, tokens, multiple)
            lockstep_identical[rows] = calls["change"]().tobytes() == lone.tobytes()

    round_s = abkit.interleave(variants, args.repeats)
    step_s = abkit.interleave({(rows, side): call for rows, calls in steps.items() for side, call in calls.items()},
                              STEP_SAMPLES * args.repeats)

    summaries = 2 * len(prompts) * len(corpus)
    rounds = abkit.compare(round_s, scale=1, digits=3)
    per_s = {variant: round(summaries / statistics.median(s), 1) for variant, s in round_s.items()}
    step_us = {f"{rows}_rows": abkit.compare({side: step_s[rows, side] for side in calls}, scale=1e6 / STEPS)
               for rows, calls in steps.items()}
    abkit.write_report(
        args.out, argv, "both arms of evaluate_ensemble over the bundled 10 prompts x 50 notes, then "
        "compare_runs and the csv report; and one cached decoder step; parent vs checkout, interleaved in "
        "one process",
        frozen_model=lm.frozen_digest[:16], same_weights=same_weights,
        repeats=args.repeats, summaries_per_round=summaries, round_s=rounds, summaries_per_s=per_s,
        heap_peak_kib=heap_peak_kib, identical_to_parent=identical, decode_step_us=step_us,
        lockstep_rows=shipped, row_multiple=multiple,
        one_row_steps_identical_to_parent=parent_identical,
        lockstep_rows_identical_to_lone=lockstep_identical)
    for variant, row in rounds.items():
        print(f"{variant}: round {row['median']:.3f} s ({per_s[variant]:.0f} summaries/s), "
              f"heap peak {heap_peak_kib[variant]:.0f} KiB, identical: {identical[variant]}")
    for rows, row in step_us.items():
        print(f"decode step, {rows}: parent {row['parent']['median']:.0f} us, "
              f"change {row['change']['median']:.0f} us")
    print(f"same weights: {same_weights}; 1-row steps identical to the parent's: {parent_identical}; "
          f"lockstep rows identical to lone rows: {lockstep_identical}")
    return 0 if (same_weights and parent_identical and all(lockstep_identical.values())
                 and all(identical.values())) else 1


if __name__ == "__main__":
    raise SystemExit(main())
