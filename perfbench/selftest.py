"""The benchmark's own test (about a minute): python3 perfbench/selftest.py

Checks that
- BENCHMARK.json names exactly the workloads and metrics that run.py prints;
- the traced run records calls for every layer each workload should exercise,
  so a rename in the package fails here instead of silently zeroing a layer;
- a patch target that no longer exists makes the tracer raise;
- tracing leaves outputs unchanged, every original comes back afterwards, and
  the untraced round runs the unwrapped functions (records no span).
"""

from __future__ import annotations

import json
import sys

import bench_env


def check_benchmark_json(failures: list[str]) -> None:
    import run
    import workloads

    spec = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", [(m, u) for m, u, _ in run.PER_LAYER] + [("trace_overhead_pct", "%")])):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(printed):
            failures.append(f"BENCHMARK.json {key} differs from what run.py prints")


def check_missing_target_raises(failures: list[str]) -> None:
    import spans

    spans.FUNCTIONS.append(("renamed.layer", "promptcal.model", "no_such_function", None))
    tracer = spans.Tracer()
    try:
        tracer.install()
        failures.append("install() accepted a patch target that does not exist")
    except AttributeError:
        pass
    finally:
        spans.FUNCTIONS.pop()
        tracer.uninstall()


def check_workload(name: str, frozen, failures: list[str]) -> None:
    import promptcal.harness
    import promptcal.rouge
    import spans
    import workloads

    workload = workloads.WORKLOADS[name](7, frozen)
    try:
        workload.setup()
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = workload.run_round()
        finally:
            tracer.uninstall()
        recorded = len(tracer.spans)
        untraced = workload.run_round()
    finally:
        workload.close()
    totals = tracer.layer_totals()
    for layer in workload.layers:
        if totals.get(layer, {}).get("calls", 0) == 0:
            failures.append(f"{name}: layer {layer} recorded no calls")
    if len(tracer.spans) != recorded:
        failures.append(f"{name}: the untraced round ran wrapped functions")
    if promptcal.harness.rouge_suite is not promptcal.rouge.rouge_suite:
        failures.append(f"{name}: harness.rouge_suite was not restored")
    if traced.digests != untraced.digests or traced.counts != untraced.counts:
        failures.append(f"{name}: tracing changed the outputs")
    if traced.problems or untraced.problems:
        failures.append(f"{name}: {traced.problems + untraced.problems}")
    print(f"{name}: {len(workload.layers)} layers recorded calls; {recorded} spans", flush=True)


def main() -> int:
    bench_env.prepare()
    import frozen_model
    import workloads

    failures: list[str] = []
    check_benchmark_json(failures)
    check_missing_target_raises(failures)
    frozen = frozen_model.ensure()
    for name in workloads.WORKLOADS:
        check_workload(name, frozen, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
