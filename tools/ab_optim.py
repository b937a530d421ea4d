"""In-process A/B of one Adam step: the per-parameter oracle against the flat rule.

Builds the model the pretrain benchmark trains (``abkit.benchmark_model``)
and times ``Adam.step`` on its two parameter sets: the whole model, as in the
encoder-training epochs, and the decoder alone, as after the encoder freezes.
Each variant (the oracle from ``tests/test_autodiff.py`` and the flat rule at
a few chunk sizes) steps its own copy of the parameters on the same seeded
gradients. Each step's gradients are set outside the timed call, so this tool
keeps its own loop: steps are interleaved, each step starting the rotation at
the next variant, so drift in machine load falls on every variant alike.
After the last step every variant's parameters must equal the oracle's bit
for bit.

The oracle is imported, not copied: ``tests/test_autodiff.py`` holds the flat
rule to the same ``OracleAdam`` bit for bit, so the tool and the tests share
one reference, and a second copy here could drift from it. The tool therefore
runs only in a checkout that has ``tests/``.

Run from the repository root:

    python3 tools/ab_optim.py [--steps 400] [--out BENCH_optim.json]
"""

from __future__ import annotations

import time

import abkit  # first: pins BLAS threads and puts the checkout's sources on the import path
import numpy as np
import promptcal
from promptcal import autodiff as ad
from promptcal import optim
from tests.test_autodiff import OracleAdam

LEARNING_RATE = 2e-3  # PretrainConfig's default
GRADIENT_SETS = 8  # distinct seeded gradients, cycled over the steps


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


def ab_one_set(values: list[np.ndarray], steps: int, chunks: list[int]) -> dict:
    rng = np.random.default_rng(abkit.SEED)
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
            times.append((time.perf_counter_ns() - start) / 1e9)
    oracle_params = runs[0][1]
    return {"floats": int(sum(v.size for v in values)), "parameters": len(values), "steps": steps,
            "step_us": abkit.compare({name: times for name, _, _, times in runs}, scale=1e6, digits=2),
            "bit_identical_to_oracle": {name: all(a.data.tobytes() == b.data.tobytes()
                                                  for a, b in zip(params, oracle_params))
                                        for name, params, _, _ in runs[1:]}}


def main(argv: list[str] | None = None) -> int:
    ap = abkit.parser(__doc__, "BENCH_optim.json")
    ap.add_argument("--steps", type=int, default=400)
    ap.add_argument("--chunks", default="8192,16384,32768,1048576",
                    help="comma-separated flat-rule chunk sizes in floats (the last is "
                         "larger than either set, so that variant is unchunked)")
    args = ap.parse_args(argv)
    chunks = [int(c) for c in args.chunks.split(",")]
    lm = abkit.benchmark_model(promptcal)
    sets = {
        "whole_model": [p.data for p in lm.trainable()],
        "decoder_only": [p.data for name, p in lm.params.items()
                         if p.requires_grad and name.startswith("dec.")],
    }
    results = {name: ab_one_set(values, args.steps, chunks) for name, values in sets.items()}
    abkit.write_report(args.out, argv, "Adam.step time per step, per-parameter oracle vs flat rule, "
                       "interleaved in one process", module_chunk=optim._CHUNK, sets=results)
    for name, res in results.items():
        line = ", ".join(f"{k} {v['median']:.0f} us" for k, v in res["step_us"].items())
        print(f"{name} ({res['floats']} floats, {res['parameters']} parameters): {line}")
    identical = all(all(res["bit_identical_to_oracle"].values()) for res in results.values())
    print(f"every flat variant bit-identical to the oracle: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
