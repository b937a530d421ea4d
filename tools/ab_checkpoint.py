"""In-process A/B of checkpoint loading: an earlier revision's package against this checkout's.

Extracts ``src/promptcal`` at a git revision (``--parent``) into a temporary
directory and imports it beside the checkout's own package under another
name (``tools/ab_encode.py``'s ``parent_package``). Builds a frozen model with the summarize benchmark's shapes (200
seeded records, the bundled prompts and soft token in the vocabulary,
default ModelConfig, seed 7); each package saves it and a calibrator bound to
the digest its own load computes, and times the two requests the summarize
workload serves on its own files: ``load_model`` alone (uncalibrated) and
``load_model`` then ``load_calibrator`` (calibrated). As in the workload, each
loaded model stays alive until the next load has returned, so every load runs
beside a live 1.15 MB model and the previous one is freed inside the next
timed request; a model dropped at once would leave glibc's heap trimming, not
the loader, to set the median. Each repeat times every variant, starting the
rotation at the next one, so drift in machine load falls on both alike. Both
variants must save byte-identical model files and load bit-identical weights,
vocabulary, config, soft vector, token and calibration config, and each
package's loaded digest must equal its own ``weight_digest()``. Calibrator
files may differ, since the digest a calibrator records is defined by its
format version.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_checkpoint.py --parent HEAD [--repeats 400] [--out BENCH_checkpoint.json]
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from ab_encode import (ROOT, frozen_model, model_state_digest,  # also pins BLAS threads and the import path
                       parent_package, quartiles)

import bench_env  # noqa: E402
import promptcal  # noqa: E402
from promptcal import checkpoint  # noqa: E402
from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT, CalibrationConfig, SoftPromptToken  # noqa: E402


def loaded_state(module, model_path: Path, calibrator_path: Path) -> tuple[tuple, bool]:
    """What a calibrated request gets from the files, as plain values (the packages' classes differ),
    and whether the package's loaded digest equals its own weight_digest()."""
    lm = module.load_model(model_path)
    soft, tok, config = module.load_calibrator(calibrator_path, lm)
    state = (model_state_digest(lm), soft.tobytes(), tok.text, dataclasses.astuple(config))
    return state, lm.frozen_digest == lm.weight_digest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the package to compare against")
    ap.add_argument("--repeats", type=int, default=400)
    ap.add_argument("--out", default=str(ROOT / "BENCH_checkpoint.json"))
    args = ap.parse_args(argv)
    lm = frozen_model(promptcal)
    tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)
    soft = lm.encode(tok.ids).pooled.data
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = parent_package(args.parent, tmp / "parent")
        variants = {"parent": importlib.import_module(parent.__name__ + ".checkpoint"), "change": checkpoint}
        saved, states = {}, {}
        for name, module in variants.items():
            model_path, calibrator_path = tmp / f"{name}-model.bin", tmp / f"{name}-calibrator.bin"
            module.save_model(lm, model_path)
            bound = module.load_model(model_path).frozen_digest
            module.save_calibrator(soft, tok, CalibrationConfig(), bound, calibrator_path)
            saved[name] = (model_path, calibrator_path)
            states[name] = loaded_state(module, model_path, calibrator_path)
        model_files_identical = saved["parent"][0].read_bytes() == saved["change"][0].read_bytes()
        loads_identical = states["parent"][0] == states["change"][0]
        digests_consistent = all(consistent for _, consistent in states.values())

        times = {name: {"model_us": [], "model_and_calibrator_us": []} for name in variants}
        order = list(variants.items())
        held = None  # the last loaded model, released when the next load returns
        for i in range(args.repeats):
            for k in range(len(order)):
                name, module = order[(i + k) % len(order)]
                model_path, calibrator_path = saved[name]
                start = time.perf_counter_ns()
                held = module.load_model(model_path)
                times[name]["model_us"].append((time.perf_counter_ns() - start) / 1e3)
                start = time.perf_counter_ns()
                held = module.load_model(model_path)
                module.load_calibrator(calibrator_path, held)
                times[name]["model_and_calibrator_us"].append((time.perf_counter_ns() - start) / 1e3)
        model_bytes, calibrator_bytes = (path.stat().st_size for path in saved["change"])

    requests = {}
    for request in ("model_us", "model_and_calibrator_us"):
        parent, change = times["parent"][request], times["change"][request]
        requests[request] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "speedup": round(statistics.median(parent) / statistics.median(change), 3),
            "change_faster_pct": round(100.0 * sum(c < p for p, c in zip(parent, change)) / len(parent), 1),
        }
    report = {
        "what": "checkpoint load time per request, parent package vs checkout, interleaved in one process",
        "command": "python3 tools/ab_checkpoint.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "platform": bench_env.fingerprint(),
        "model_file_bytes": model_bytes,
        "calibrator_file_bytes": calibrator_bytes,
        "repeats": args.repeats,
        "saved_model_files_byte_identical": model_files_identical,
        "loaded_state_identical": loads_identical,
        "digests_equal_own_weight_digest": digests_consistent,
        "requests": requests,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for request, row in requests.items():
        print(f"{request}: parent {row['parent']['median']:.0f} us, change {row['change']['median']:.0f} us, "
              f"speedup {row['speedup']}, change faster in {row['change_faster_pct']}% of repeats")
    print(f"wrote {args.out}; saved model files byte-identical: {model_files_identical}; "
          f"loaded state identical: {loads_identical}; digests equal own weight_digest(): {digests_consistent}")
    return 0 if model_files_identical and loads_identical and digests_consistent else 1


if __name__ == "__main__":
    raise SystemExit(main())
