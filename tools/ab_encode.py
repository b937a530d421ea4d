"""In-process A/B of frozen encoding: an earlier revision's package against this checkout's.

Extracts ``src/promptcal`` at a git revision (``--parent``) into a temporary
directory and imports it beside the checkout's own package under another
name. Both packages build the same frozen model with the benchmark's shapes
(200 seeded records, the bundled prompts and soft token in the vocabulary,
default ModelConfig, seed 7), and two sets of sequences are encoded:

- ``calibrate``: the 2,200 sequences ``train_calibrator`` encodes for the
  calibrate workload (200 seeded inputs, bare and joined with each of the 10
  bundled prompts), in one ``encode_many`` call;
- ``evaluate_arm``: the 500 sequences of one calibrated evaluate arm (the
  decoded soft prefix, a prompt and a bundled test note, for each prompt),
  one ``encode_many`` call per prompt.

The parent encodes each sequence on its own with ``encode(seq).pooled``.
Every pooled row of the change must be bit-identical to the parent's. Each
repeat times every variant, starting the rotation at the next one, so drift
in machine load falls on all alike. ``--bounds`` adds variants of the change
with ``model.ENCODE_ROWS`` set to each listed value, to size that bound.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_encode.py --parent HEAD [--repeats 9] [--bounds 4,8,16] [--out BENCH_encode.json]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT)]

import bench_env  # noqa: E402

bench_env.prepare()  # the benchmark's thread pinning and import path

import numpy as np  # noqa: E402
from promptcal import model  # noqa: E402
from promptcal.calibration import (DEFAULT_SOFT_TOKEN_TEXT, SoftPromptToken, decode_soft_prompt,  # noqa: E402
                                   join_prompted)
from promptcal.corpus import bundled_test_corpus, generate_corpus  # noqa: E402
from promptcal.harness import load_default_ensemble  # noqa: E402
from promptcal.vocab import concat, tokenize  # noqa: E402

SEED = 7


def parent_package(rev: str, into: Path):
    """The promptcal package at git revision rev, imported as promptcal_parent."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src/promptcal"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    package_dir = into / "src" / "promptcal"
    spec = importlib.util.spec_from_file_location(
        "promptcal_parent", package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def benchmark_model(package):
    """The benchmark-shaped model, untrained and trainable, built by the given package."""
    records = generate_corpus(200, SEED)
    texts = ([r.findings for r in records] + [r.impression for r in records]
             + list(load_default_ensemble().prompts) + [DEFAULT_SOFT_TOKEN_TEXT])
    return package.model.EncoderDecoderLM.initialize(
        package.vocab.Vocabulary.from_texts(texts), package.model.ModelConfig(), SEED)


def frozen_model(package):
    """The benchmark-shaped model, frozen."""
    lm = benchmark_model(package)
    lm.freeze()
    return lm


def sequence_sets(lm) -> dict[str, list[list]]:
    """Each set as the groups of sequences the change encodes with one encode_many call each."""
    prompts = [tokenize(p, lm.vocab) for p in load_default_ensemble().prompts]
    inputs = [tokenize(r.findings, lm.vocab) for r in generate_corpus(200, SEED)]
    tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)
    prefix = decode_soft_prompt(lm.encode(tok.ids).pooled.data, tok, lm)
    notes = [tokenize(r.findings, lm.vocab) for r in bundled_test_corpus()]
    return {
        "calibrate": [inputs + [join_prompted(p, t) for t in inputs for p in prompts]],
        "evaluate_arm": [[concat(prefix, join_prompted(p, t)) for t in notes] for p in prompts],
    }


def model_state_digest(lm) -> str:
    """sha256 of a model's name-sorted weights, vocabulary and config, taken here, so that two
    packages' models compare equal even where their revisions define the model digest differently."""
    h = hashlib.sha256()
    for name in sorted(lm.params):
        h.update(name.encode("utf-8") + b"\x00" + lm.params[name].data.astype("<f8").tobytes())
    h.update(repr((lm.vocab.words, dataclasses.astuple(lm.cfg))).encode("utf-8"))
    return h.hexdigest()


def quartiles(xs: list[float], digits: int = 1) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"median": round(q2, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the package to compare against")
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--bounds", default="", help="comma-separated ENCODE_ROWS values to time as well")
    ap.add_argument("--out", default=str(ROOT / "BENCH_encode.json"))
    args = ap.parse_args(argv)
    bounds = [int(b) for b in args.bounds.split(",") if b]
    shipped = model.ENCODE_ROWS
    lm = frozen_model(sys.modules["promptcal"])
    with tempfile.TemporaryDirectory() as tmp:
        parent_lm = frozen_model(parent_package(args.parent, Path(tmp)))
    same_weights = model_state_digest(parent_lm) == model_state_digest(lm)
    sets = sequence_sets(lm)

    def parent_encode(groups):
        return np.stack([parent_lm.encode(s).pooled.data for group in groups for s in group])

    def change_encode(groups, bound=shipped):
        model.ENCODE_ROWS = bound
        try:
            return np.concatenate([lm.encode_many(group) for group in groups])
        finally:
            model.ENCODE_ROWS = shipped

    variants = {"parent": parent_encode, "change": change_encode}
    for bound in bounds:
        variants[f"change_rows_{bound}"] = lambda groups, bound=bound: change_encode(groups, bound)

    identical = {}
    for name, groups in sets.items():
        reference = parent_encode(groups).tobytes()
        identical[name] = all(encode(groups).tobytes() == reference for encode in variants.values())

    times = {name: {variant: [] for variant in variants} for name in sets}
    order = list(variants.items())
    for i in range(args.repeats):
        for name, groups in sets.items():
            for k in range(len(order)):
                variant, encode = order[(i + k) % len(order)]
                start = time.perf_counter_ns()
                encode(groups)
                times[name][variant].append((time.perf_counter_ns() - start) / 1e6)

    results = {}
    for name, groups in sets.items():
        parent = times[name]["parent"]
        row = {"sequences": sum(len(g) for g in groups), "encode_many_calls": len(groups),
               "length_groups": sum(len({len(s.ids) for s in g}) for g in groups),
               "bit_identical": identical[name]}
        for variant, ms in times[name].items():
            row[f"{variant}_ms"] = quartiles(ms)
            if variant != "parent":
                row[f"{variant}_speedup"] = round(statistics.median(parent) / statistics.median(ms), 3)
                row[f"{variant}_faster_pct"] = round(100.0 * sum(c < p for p, c in zip(parent, ms)) / len(ms), 1)
        results[name] = row
    report = {
        "what": "pooled encoder rows per sequence set: parent's encode() one sequence at a time vs "
                "the checkout's encode_many(), interleaved in one process",
        "command": "python3 tools/ab_encode.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "platform": bench_env.fingerprint(),
        "encode_rows": shipped,
        "repeats": args.repeats,
        "same_weights": same_weights,
        "sets": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, row in results.items():
        cells = [f"{variant} {row[f'{variant}_ms']['median']:.0f} ms" for variant in variants]
        print(f"{name} ({row['sequences']} sequences): " + ", ".join(cells)
              + f"; bit-identical: {row['bit_identical']}")
    print(f"wrote {args.out}; same weights: {same_weights}")
    return 0 if same_weights and all(identical.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
