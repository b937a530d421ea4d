"""In-process A/B of checkpoint loading: an earlier revision's package against this checkout's.

Builds a frozen model with the summarize benchmark's shapes
(``abkit.frozen_model``); each package saves it and a calibrator bound to the
digest its own load computes, and times the two requests the summarize
workload serves on its own files: ``load_model`` alone (uncalibrated) and
``load_model`` then ``load_calibrator`` (calibrated). Each package writes its
calibrator from its own ``SoftPromptToken`` and default ``CalibrationConfig``,
since the config's fields change with the file format. As in the workload, each
loaded model stays alive until the next load has returned
(``abkit.interleave`` holds the last result), so every load runs beside a
live 1.06 MB model and the previous one is freed inside the next timed
request; a model dropped at once would leave glibc's heap trimming, not the
loader, to set the median. Both variants must save byte-identical model files
and load bit-identical weights, vocabulary, config, soft vector, token and
calibration config (the fields the checkout's ``CalibrationConfig`` has), and
each package's loaded digest must equal its own ``weight_digest()``.
Calibrator files may differ, since the digest a calibrator records is defined
by its format version.
A parent whose ``MODEL_VERSION`` differs from the checkout's writes another
model file format, so the tool says so and exits 1 without timing anything.

Run from the repository root, before committing a change (``--parent HEAD``)
or after it (``--parent HEAD~1``):

    python3 tools/ab_checkpoint.py --parent HEAD [--repeats 400] [--out BENCH_checkpoint.json]
"""

from __future__ import annotations

import dataclasses
import importlib
import tempfile
from functools import partial
from pathlib import Path

import abkit  # first: pins BLAS threads and puts the checkout's sources on the import path
import promptcal
from promptcal import calibration, checkpoint
from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT, CalibrationConfig, SoftPromptToken

# The calibration config fields both sides' loads are compared on.
CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(CalibrationConfig))

REQUESTS = ("model_us", "model_and_calibrator_us")


def load_calibrated(module, model_path: Path, calibrator_path: Path) -> tuple:
    """A calibrated request: the loaded model and what load_calibrator returns for it."""
    lm = module.load_model(model_path)
    return lm, module.load_calibrator(calibrator_path, lm)


def loaded_state(lm, calibrator) -> tuple[tuple, bool]:
    """What a calibrated request gets from the files, as plain values (the packages' classes differ),
    and whether the package's loaded digest equals its own weight_digest()."""
    soft, tok, config = calibrator
    state = (abkit.model_state_digest(lm), soft.tobytes(), tok.text,
             tuple(getattr(config, name, None) for name in CONFIG_FIELDS))
    return state, lm.frozen_digest == lm.weight_digest()


def main(argv: list[str] | None = None) -> int:
    args = abkit.parser(__doc__, "BENCH_checkpoint.json", repeats=400).parse_args(argv)
    lm = abkit.frozen_model(promptcal)
    tok = SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)
    soft = lm.encode(tok.ids).pooled.data
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = abkit.parent_package(args.parent, tmp / "parent")
        variants = {"parent": importlib.import_module(parent.__name__ + ".checkpoint"), "change": checkpoint}
        if variants["parent"].MODEL_VERSION != checkpoint.MODEL_VERSION:
            print(f"model file formats differ: the parent writes version {variants['parent'].MODEL_VERSION}, "
                  f"this checkout version {checkpoint.MODEL_VERSION}; nothing to compare")
            return 1
        calibrations = {"parent": importlib.import_module(parent.__name__ + ".calibration"), "change": calibration}
        saved, states, calls = {}, {}, {}
        for name, module in variants.items():
            own = calibrations[name]
            model_path, calibrator_path = tmp / f"{name}-model.bin", tmp / f"{name}-calibrator.bin"
            module.save_model(lm, model_path)
            bound = module.load_model(model_path).frozen_digest
            own_tok = own.SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)
            module.save_calibrator(soft, own_tok, own.CalibrationConfig(), bound, calibrator_path)
            saved[name] = (model_path, calibrator_path)
            states[name] = loaded_state(*load_calibrated(module, model_path, calibrator_path))
            calls[name, "model_us"] = partial(module.load_model, model_path)
            calls[name, "model_and_calibrator_us"] = partial(load_calibrated, module, model_path, calibrator_path)
        model_files_identical = saved["parent"][0].read_bytes() == saved["change"][0].read_bytes()
        loads_identical = states["parent"][0] == states["change"][0]
        digests_consistent = all(consistent for _, consistent in states.values())
        times = abkit.interleave(calls, args.repeats)
        model_bytes, calibrator_bytes = (path.stat().st_size for path in saved["change"])

    timed = {request: abkit.compare({name: times[name, request] for name in variants}, scale=1e6)
             for request in REQUESTS}
    abkit.write_report(args.out, argv, "checkpoint load time per request, parent package vs checkout, "
                       "interleaved in one process",
                       model_file_bytes=model_bytes, calibrator_file_bytes=calibrator_bytes, repeats=args.repeats,
                       saved_model_files_byte_identical=model_files_identical,
                       loaded_state_identical=loads_identical, digests_equal_own_weight_digest=digests_consistent,
                       requests=timed)
    for request, row in timed.items():
        print(f"{request}: parent {row['parent']['median']:.0f} us, change {row['change']['median']:.0f} us, "
              f"speedup {row['change']['speedup']}, change faster in {row['change']['faster_pct']}% of repeats, "
              f"resolved: {row['change']['resolved']}")
    print(f"saved model files byte-identical: {model_files_identical}; loaded state identical: "
          f"{loads_identical}; digests equal own weight_digest(): {digests_consistent}")
    return 0 if model_files_identical and loads_identical and digests_consistent else 1


if __name__ == "__main__":
    raise SystemExit(main())
