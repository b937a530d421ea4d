"""promptcal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload evaluate --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout; it measures the checkout's own sources
under src/. With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, from a
traced phase followed by an untraced one. The lines before it print the
platform fingerprint, the frozen model's recipe and digest, the output
digests, the exact counts and the workload's own named figures. A full
record goes to .bench_build/results/, and the traced run's spans to
.bench_build/traces/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import bench_env

SETUP_REPEATS = 11
MIN_ROUNDS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ops_pct", "%"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
]

# (metric, unit, source): ("self_s" | "calls", span name), ("count", counter
# name), or ("round", exact count reported by the round itself).
PER_LAYER = [
    ("autodiff.backward.s", "s", ("self_s", "autodiff.backward")),
    ("autodiff.backward.calls", "count", ("calls", "autodiff.backward")),
    ("autodiff.attention_softmax.s", "s", ("self_s", "autodiff.attention_softmax")),
    ("autodiff.attention_softmax.calls", "count", ("calls", "autodiff.attention_softmax")),
    ("optim.adam_step.s", "s", ("self_s", "optim.adam_step")),
    ("optim.adam_step.calls", "count", ("calls", "optim.adam_step")),
    ("model.clip_gradients.s", "s", ("self_s", "model.clip_gradients")),
    ("model.pretrain.self_s", "s", ("self_s", "model.pretrain")),
    ("model.encoder_forward.s", "s", ("self_s", "model.encoder_forward")),
    ("model.encoder_forward.calls", "count", ("calls", "model.encoder_forward")),
    ("model.encoder_forward.tokens", "count", ("count", "model.encoder_forward.tokens")),
    ("model.decoder_forward.s", "s", ("self_s", "model.decoder_forward")),
    ("model.decoder_forward.calls", "count", ("calls", "model.decoder_forward")),
    ("model.decoder_forward.tokens", "count", ("count", "model.decoder_forward.tokens")),
    ("model.decode_greedy.s", "s", ("self_s", "model.decode_greedy")),
    ("model.decode_greedy.calls", "count", ("calls", "model.decode_greedy")),
    ("model.tokens_generated", "count", ("count", "model.tokens_generated")),
    ("calibration.train_calibrator.self_s", "s", ("self_s", "calibration.train_calibrator")),
    ("calibration.epochs.mse", "count", ("round", "calibration.epochs.mse")),
    ("calibration.epochs.cross_entropy", "count", ("round", "calibration.epochs.cross_entropy")),
    ("calibration.decode_soft_prompt.s", "s", ("self_s", "calibration.decode_soft_prompt")),
    ("calibration.decode_soft_prompt.calls", "count", ("calls", "calibration.decode_soft_prompt")),
    ("checkpoint.load_model.s", "s", ("self_s", "checkpoint.load_model")),
    ("checkpoint.load_calibrator.s", "s", ("self_s", "checkpoint.load_calibrator")),
    ("checkpoint.bytes_read", "bytes", ("count", "checkpoint.bytes_read")),
    ("rouge.suite.s", "s", ("self_s", "rouge.suite")),
    ("rouge.suite.calls", "count", ("calls", "rouge.suite")),
    ("vocab.tokenize.s", "s", ("self_s", "vocab.tokenize")),
    ("vocab.detokenize.s", "s", ("self_s", "vocab.detokenize")),
    ("harness.evaluate_prompt.self_s", "s", ("self_s", "harness.evaluate_prompt")),
    ("other.s", "s", ("self_s", "bench.round")),
]
ROUND_SPAN = "bench.round"


class Tally:
    """Attempted and failed ops, checked against the run's first round."""

    def __init__(self, ops_per_round: int):
        self.ops_per_round = ops_per_round
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = None

    def run(self, round_fn):
        try:
            rnd = round_fn()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            self.attempted += self.ops_per_round
            self.failed += self.ops_per_round
            self.failures.append(f"raised {exc!r}")
            return None
        self.attempted += len(rnd.digests)
        problems = list(rnd.problems)
        if self.reference is None:
            self.reference = rnd
        else:
            ref = self.reference
            if len(rnd.digests) != len(ref.digests):
                problems.append("op count differs from the first round")
            mismatched = sum(a != b for a, b in zip(rnd.digests, ref.digests))
            if mismatched:
                problems.append(f"{mismatched} op digest(s) differ from the first round")
            for key, value in ref.counts.items():
                if key in rnd.counts and rnd.counts[key] != value:
                    problems.append(f"exact count {key} {rnd.counts[key]} != {value} in the first round")
        if problems:
            self.failed += len(rnd.digests)
            self.failures.extend(problems)
        return rnd


def measure(workload, tally: Tally, seconds: float, min_rounds: int, tracer=None):
    """Run rounds until the next one would end past `seconds`; at least `min_rounds`."""
    rounds, attempts = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if attempts >= min_rounds and elapsed * (attempts + 1) / attempts > seconds:
            break
        attempts += 1
        if tracer is None:
            rnd = tally.run(workload.run_round)
        else:
            with tracer.span(ROUND_SPAN):
                rnd = tally.run(workload.run_round)
        if rnd is not None:
            rounds.append(rnd)
    return rounds


def end_to_end(setup_times, tally: Tally, rounds) -> dict[str, float]:
    latencies = [x for r in rounds for x in r.latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_pct": 100.0 * (tally.attempted - tally.failed) / tally.attempted,
        "items_per_s": sum(r.items for r in rounds) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
    }


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    """Per-round layer figures from the traced phase, plus the tracing overhead."""
    totals = tracer.layer_totals()
    n = len(traced)
    out = {}
    for metric, _unit, (kind, key) in PER_LAYER:
        if kind == "round":
            out[metric] = float(traced[0].counts.get(key, 0))
        elif kind == "count":
            out[metric] = tracer.counts.get(key, 0) / n
        else:
            out[metric] = totals.get(key, {}).get(kind, 0) / n
    traced_s = statistics.fmean(sum(r.latencies) for r in traced)
    untraced_s = statistics.fmean(sum(r.latencies) for r in untraced)
    out["trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "calibrate", "evaluate", "summarize"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_env.prepare()
    import frozen_model
    import spans
    import workloads

    frozen = frozen_model.ensure()
    workload = workloads.WORKLOADS[args.workload](args.seed, frozen)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        tally = Tally(workload.ops_per_round)
        tally.run(workload.warm_up)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(workload, tally, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            recorded = len(tracer.spans)
            rounds = measure(workload, tally, args.seconds / 2, 1)
            if len(tracer.spans) != recorded:
                tally.failed += 1
                tally.failures.append("the untraced phase ran wrapped functions")
            metrics = per_layer(tracer, traced, rounds) if traced and rounds else {}
            units = {m: u for m, u, _ in PER_LAYER} | {"trace_overhead_pct": "%"}
        else:
            rounds = measure(workload, tally, args.seconds, MIN_ROUNDS)
            metrics = end_to_end(setup_times, tally, rounds) if rounds else {}
            units = dict(END_TO_END)
    finally:
        workload.close()

    reference = tally.reference
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "platform": bench_env.fingerprint(),
        "frozen_model": frozen.info,
        "digests": reference.details if reference else {},
        "counts": reference.counts if reference else {},
        "named": workload.summary(rounds) if rounds else {},
        "rounds": len(rounds),
        "failures": tally.failures,
    }
    bench_env.BUILD_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    bench_env.BUILD_DIR.joinpath("results", f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record | {"metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        bench_env.BUILD_DIR.joinpath("traces").mkdir(parents=True, exist_ok=True)
        bench_env.BUILD_DIR.joinpath("traces", f"{stem}.json").write_text(
            json.dumps(tracer.dump() | {"workload": args.workload, "seed": args.seed}), encoding="utf-8")

    print(f"workload {args.workload}: {workload.why}")
    print(f"one op = {workload.op_unit}; items = {workload.item_unit}; {len(rounds)} rounds measured")
    print("platform " + json.dumps(record["platform"]))
    print(f"frozen model {frozen.info['model_digest']} recipe " + json.dumps(frozen.info["recipe"]))
    print("digests " + json.dumps(record["digests"]))
    print("exact counts per round " + json.dumps(record["counts"]))
    for name, (value, unit) in record["named"].items():
        print(f"{name} = {value:.6g} {unit}")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
