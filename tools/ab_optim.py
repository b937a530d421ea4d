"""In-process A/B of one Adam step: the per-parameter oracle against the flat rule.

Builds the model the pretrain benchmark trains (200 seeded records, the
bundled prompts and soft token in the vocabulary, default ModelConfig, seed 7)
and times ``Adam.step`` on its two parameter sets: the whole model, as in the
encoder-training epochs, and the decoder alone, as after the encoder freezes.
Each variant (the oracle from ``tests/test_autodiff.py`` and the flat rule at
a few chunk sizes) steps its own copy of the parameters on the same seeded
gradients. Steps are interleaved, each step starting the rotation at the next
variant, so drift in machine load falls on every variant alike. After the
last step every variant's parameters must equal the oracle's bit for bit.

Run from the repository root:

    python3 tools/ab_optim.py [--steps 400] [--out BENCH_optim.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT)]

import bench_env  # noqa: E402

bench_env.prepare()  # the benchmark's thread pinning and import path

import numpy as np  # noqa: E402

from promptcal import autodiff as ad  # noqa: E402
from promptcal import optim  # noqa: E402
from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT  # noqa: E402
from promptcal.corpus import generate_corpus  # noqa: E402
from promptcal.harness import load_default_ensemble  # noqa: E402
from promptcal.model import EncoderDecoderLM, ModelConfig  # noqa: E402
from promptcal.vocab import Vocabulary  # noqa: E402
from tests.test_autodiff import OracleAdam  # noqa: E402

SEED = 7
LEARNING_RATE = 2e-3  # PretrainConfig's default
GRADIENT_SETS = 8  # distinct seeded gradients, cycled over the steps


def benchmark_model() -> EncoderDecoderLM:
    records = generate_corpus(200, SEED)
    texts = ([r.findings for r in records] + [r.impression for r in records]
             + list(load_default_ensemble().prompts) + [DEFAULT_SOFT_TOKEN_TEXT])
    return EncoderDecoderLM.initialize(Vocabulary.from_texts(texts), ModelConfig(), SEED)


def variants(chunks: list[int]):
    """(name, factory) pairs: a factory builds an optimizer over the given parameters."""
    out = [("oracle", lambda params: OracleAdam(params, LEARNING_RATE))]
    for chunk in chunks:
        def flat(params, chunk=chunk):
            saved, optim._CHUNK = optim._CHUNK, chunk
            try:
                return optim.Adam(params, LEARNING_RATE)
            finally:
                optim._CHUNK = saved
        out.append((f"flat_chunk_{chunk}", flat))
    return out


def quartiles(xs: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"median": round(q2, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def ab_one_set(values: list[np.ndarray], steps: int, chunks: list[int]) -> dict:
    rng = np.random.default_rng(SEED)
    grads = [[rng.normal(size=v.shape) * 1e-2 for v in values] for _ in range(GRADIENT_SETS)]
    runs = []
    for name, factory in variants(chunks):
        params = [ad.param(v.copy()) for v in values]
        runs.append((name, params, factory(params), []))
    for step in range(steps):
        grad_set = grads[step % GRADIENT_SETS]
        for k in range(len(runs)):
            name, params, opt, times = runs[(step + k) % len(runs)]
            for p, g in zip(params, grad_set):
                p.grad[...] = g
            start = time.perf_counter_ns()
            opt.step()
            times.append((time.perf_counter_ns() - start) / 1e3)
    oracle_params = runs[0][1]
    oracle_us = statistics.median(runs[0][3])
    result = {"floats": int(sum(v.size for v in values)), "parameters": len(values), "steps": steps}
    for name, params, _, times in runs:
        row = {"step_us": quartiles(times)}
        if name != "oracle":
            row["speedup_vs_oracle"] = round(oracle_us / statistics.median(times), 3)
            row["faster_than_oracle_pct"] = round(
                100.0 * sum(t < o for t, o in zip(times, runs[0][3])) / steps, 1)
            row["bit_identical_to_oracle"] = all(
                a.data.tobytes() == b.data.tobytes() for a, b in zip(params, oracle_params))
        result[name] = row
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=400)
    ap.add_argument("--chunks", default="8192,16384,32768,1048576",
                    help="comma-separated flat-rule chunk sizes in floats (the last is "
                         "larger than either set, so that variant is unchunked)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_optim.json"))
    args = ap.parse_args(argv)
    chunks = [int(c) for c in args.chunks.split(",")]
    lm = benchmark_model()
    sets = {
        "whole_model": [p.data for p in lm.trainable()],
        "decoder_only": [p.data for name, p in lm.params.items()
                         if p.requires_grad and name.startswith("dec.")],
    }
    report = {
        "what": "Adam.step time per step, per-parameter oracle vs flat rule, interleaved in one process",
        "command": "python3 tools/ab_optim.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "platform": bench_env.fingerprint(),
        "module_chunk": optim._CHUNK,
        "sets": {name: ab_one_set(values, args.steps, chunks) for name, values in sets.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, res in report["sets"].items():
        line = ", ".join(f"{k} {v['step_us']['median']:.0f} us" for k, v in res.items()
                         if isinstance(v, dict))
        print(f"{name} ({res['floats']} floats, {res['parameters']} parameters): {line}")
    identical = all(v.get("bit_identical_to_oracle", True) for res in report["sets"].values()
                    for v in res.values() if isinstance(v, dict))
    print(f"wrote {args.out}; every flat variant bit-identical to the oracle: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
