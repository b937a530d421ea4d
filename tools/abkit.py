"""The frame the ``tools/ab_*.py`` scripts share: in-process A/B timing of one call on two sides.

Importing this module pins BLAS threads and puts the checkout's sources
first on the import path (``perfbench/bench_env.py``), so a tool imports it
before anything imports numpy. A parent-vs-change tool extracts
``src/promptcal`` at a git revision (``--parent``) with ``parent_package`` and
imports it beside the checkout's own package under another name. It then
times the same call on both sides with ``interleave``, reads the speedup and
faster share with ``compare`` and writes its JSON with ``write_report``.
``--parent HEAD`` on a checkout with nothing uncommitted puts the same code on
both sides, so any tool should then read a speedup near 1.0.

A parent older than model file version 4 cannot be A/B'd against this
checkout. Its package refuses version-4 model files and cannot save this
checkout's models (its writer looks up ``enc.pos``), and its model state holds
the two positional tables (``enc.pos`` and ``dec.pos``) that version 4
computes from the config, so ``model_state_digest`` never matches and the
tools report different weights.
Across that boundary, compare the trained weights by name in a script of its
own: build both sides' models, the parent's through ``parent_package``, drop
the parent's two ``.pos`` entries and compare the rest bit for bit.
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
import time
from pathlib import Path
from typing import Callable, Hashable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT)]

import bench_env  # noqa: E402

bench_env.prepare()  # the benchmark's thread pinning and import path

from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT  # noqa: E402
from promptcal.corpus import generate_corpus  # noqa: E402
from promptcal.harness import load_default_ensemble  # noqa: E402

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
    """The benchmark-shaped model, untrained and trainable, built by the given package: 200 seeded
    records, the bundled prompts and soft token in the vocabulary, default ModelConfig, seed 7."""
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


def parser(doc: str, out: str, repeats: int | None = None) -> argparse.ArgumentParser:
    """The flags every tool shares: --out (default out, under the repository root), and for a
    parent-vs-change tool (repeats given) --parent and --repeats (default repeats)."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    if repeats is not None:
        ap.add_argument("--parent", required=True, help="git revision of the package to compare against")
        ap.add_argument("--repeats", type=int, default=repeats)
    ap.add_argument("--out", default=str(ROOT / out))
    return ap


def interleave(calls: dict[Hashable, Callable[[], object]], repeats: int) -> dict[Hashable, list[float]]:
    """Each call's wall seconds, once per repeat.

    Every repeat runs every call, starting the rotation at the next one, so
    drift in machine load falls on all alike. A call's result stays alive
    until the next call has returned, as a served request's last response
    would: each timed call frees its predecessor's result, never its own.
    """
    seconds = {key: [] for key in calls}
    order = list(calls.items())
    for i in range(repeats):
        for k in range(len(order)):
            key, call = order[(i + k) % len(order)]
            start = time.perf_counter_ns()
            held = call()  # noqa: F841 (the last result, freed by the next assignment)
            seconds[key].append((time.perf_counter_ns() - start) / 1e9)
    return seconds


def compare(times: dict[str, list[float]], scale: float = 1e3, digits: int = 1) -> dict[str, dict]:
    """Each variant's quartiles, times scale; every variant after the first also gets ``speedup``,
    the first's median over its own, ``faster_pct``, the share of repeats in which it beat the
    first's time of the same repeat, and ``resolved``: whether it beat the first in at least 90% of
    repeats and the medians differ by more than the first's q3 - q1, the least evidence a gain
    needs."""
    (base_name, base), *_ = times.items()
    base_q1, base_median, base_q3 = statistics.quantiles(base, n=4)
    rows = {}
    for name, xs in times.items():
        rows[name] = quartiles([x * scale for x in xs], digits)
        if name != base_name:
            faster = sum(x < b for b, x in zip(base, xs)) / len(xs)
            rows[name]["speedup"] = round(base_median / statistics.median(xs), 3)
            rows[name]["faster_pct"] = round(100.0 * faster, 1)
            rows[name]["resolved"] = faster >= 0.9 and base_median - statistics.median(xs) > base_q3 - base_q1
    return rows


def write_report(out: str, argv: list[str] | None, what: str, **fields) -> None:
    """Write what the tool measured, the command that reproduces it, the platform and fields as
    JSON to out. The tool is the script this process runs."""
    args = sys.argv[1:] if argv is None else argv
    report = {"what": what, "command": " ".join(["python3", f"tools/{Path(sys.argv[0]).name}", *args]),
              "platform": bench_env.fingerprint(), **fields}
    Path(out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
