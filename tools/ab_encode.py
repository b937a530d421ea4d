"""In-process A/B of frozen encoding: an earlier revision's package against this checkout's.

Both packages build the same frozen model with the benchmark's shapes
(``abkit.frozen_model``), and two sets of sequences are encoded:

- ``calibrate``: the 2,200 sequences ``train_calibrator`` encodes for the
  calibrate workload (200 seeded inputs, bare and joined with each of the 10
  bundled prompts), in one ``encode_many`` call;
- ``evaluate_arm``: the 500 sequences of one calibrated evaluate arm (the
  decoded soft prefix, a prompt and a bundled test note, for each prompt),
  one ``encode_many`` call per prompt.

Both sides time the same ``encode_many`` calls. Every pooled row of every
variant must be bit-identical to the parent encoding each sequence on its own
with ``encode(seq).pooled``. ``--bounds`` adds variants of the change with
``model.ENCODE_ROWS`` set to each listed value, to size that bound.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_encode.py --parent HEAD [--repeats 9] [--bounds 4,8,16] [--out BENCH_encode.json]
"""

from __future__ import annotations

import sys
import tempfile
from functools import partial
from pathlib import Path

import abkit  # first: pins BLAS threads and puts the checkout's sources on the import path
import numpy as np
from promptcal import model
from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT, SoftPromptToken, decode_soft_prompt, join_prompted
from promptcal.corpus import bundled_test_corpus, generate_corpus
from promptcal.harness import load_default_ensemble
from promptcal.vocab import concat, tokenize


def sequence_sets(lm) -> dict[str, list[list]]:
    """Each set as the groups of sequences encoded with one encode_many call each."""
    prompts = [tokenize(p, lm.vocab) for p in load_default_ensemble().prompts]
    inputs = [tokenize(r.findings, lm.vocab) for r in generate_corpus(200, abkit.SEED)]
    tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)
    prefix = decode_soft_prompt(lm.encode(tok.ids).pooled.data, tok, lm)
    notes = [tokenize(r.findings, lm.vocab) for r in bundled_test_corpus()]
    return {
        "calibrate": [inputs + [join_prompted(p, t) for t in inputs for p in prompts]],
        "evaluate_arm": [[concat(prefix, join_prompted(p, t)) for t in notes] for p in prompts],
    }


def main(argv: list[str] | None = None) -> int:
    ap = abkit.parser(__doc__, "BENCH_encode.json", repeats=9)
    ap.add_argument("--bounds", default="", help="comma-separated ENCODE_ROWS values to time as well")
    args = ap.parse_args(argv)
    bounds = [int(b) for b in args.bounds.split(",") if b]
    shipped = model.ENCODE_ROWS
    lm = abkit.frozen_model(sys.modules["promptcal"])
    with tempfile.TemporaryDirectory() as tmp:
        parent_lm = abkit.frozen_model(abkit.parent_package(args.parent, Path(tmp)))
    same_weights = abkit.model_state_digest(parent_lm) == abkit.model_state_digest(lm)

    def change_encode(groups, bound=shipped):
        model.ENCODE_ROWS = bound
        try:
            return np.concatenate([lm.encode_many(group) for group in groups])
        finally:
            model.ENCODE_ROWS = shipped

    variants = {"parent": lambda groups: np.concatenate([parent_lm.encode_many(g) for g in groups]),
                "change": change_encode}
    for bound in bounds:
        variants[f"change_rows_{bound}"] = partial(change_encode, bound=bound)

    sets = {}
    for name, groups in sequence_sets(lm).items():
        reference = np.stack([parent_lm.encode(s).pooled.data for group in groups for s in group]).tobytes()
        times = abkit.interleave({v: partial(encode, groups) for v, encode in variants.items()}, args.repeats)
        sets[name] = {"sequences": sum(len(g) for g in groups), "encode_many_calls": len(groups),
                      "length_groups": sum(len({len(s.ids) for s in g}) for g in groups),
                      "bit_identical": all(encode(groups).tobytes() == reference for encode in variants.values()),
                      "ms": abkit.compare(times)}
    abkit.write_report(args.out, argv, "pooled encoder rows per sequence set: the parent's encode_many() vs "
                       "the checkout's, interleaved in one process",
                       encode_rows=shipped, repeats=args.repeats, same_weights=same_weights, sets=sets)
    for name, row in sets.items():
        cells = [f"{variant} {ms['median']:.0f} ms" for variant, ms in row["ms"].items()]
        print(f"{name} ({row['sequences']} sequences): " + ", ".join(cells)
              + f", speedup {row['ms']['change']['speedup']}; bit-identical: {row['bit_identical']}")
    print(f"same weights: {same_weights}")
    return 0 if same_weights and all(row["bit_identical"] for row in sets.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
