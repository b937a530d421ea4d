"""Smoke tests of the A/B tools' shared frame (tools/abkit.py), each tool run as a script,
and a check that every function the benchmark's tracer patches still exists.

The tools run in subprocesses: importing the frame pins BLAS threads through
environment variables and rewrites sys.path, which must not leak into the
test process.
"""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

needs_git = pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                               reason="the tools extract the parent package with git")


def run_tool(tmp_path, script, *args) -> dict:
    """The report a tool writes, after asserting that it exits 0 (every identity check held)."""
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, f"tools/{script}", *args, "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == " ".join(["python3", f"tools/{script}", *args, "--out", str(out)])
    assert {"what", "platform"} <= report.keys()
    return report


def working_tree_rev() -> str:
    """A git revision whose src/promptcal is the working tree's: the commit ``git stash create``
    makes of the uncommitted changes, or HEAD when there are none. The command writes no file of the
    tree. Untracked files are not in the stash, so a new file not yet added is missing from that side."""
    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.strip()
    return stash or "HEAD"


def assert_compared(rows: dict) -> None:
    """Every variant after the first carries the frame's comparison keys."""
    _, *others = rows.values()
    assert others
    for row in others:
        assert {"median", "q1", "q3", "speedup", "faster_pct", "resolved"} <= row.keys()


@needs_git
@pytest.mark.parametrize("bench", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_committed_bench_command_runs_a_tool_with_its_own_flags(bench):
    """A committed BENCH_*.json was made by a script under tools/ that still takes every flag it names."""
    python, script, *args = json.loads(bench.read_text(encoding="utf-8"))["command"].split()
    assert python.startswith("python") and script.startswith("tools/") and (ROOT / script).is_file()
    proc = subprocess.run([sys.executable, script, "--help"], cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    flags = [arg for arg in args if arg.startswith("--")]
    assert flags and all(flag in proc.stdout.split() for flag in flags), (flags, proc.stdout)


@needs_git
def test_ab_checkpoint_against_head(tmp_path):
    # both sides are the working tree, so every identity holds before a change is committed
    report = run_tool(tmp_path, "ab_checkpoint.py", "--parent", working_tree_rev(), "--repeats", "4")
    assert report["saved_model_files_byte_identical"]
    assert report["loaded_state_identical"]
    assert report["digests_equal_own_weight_digest"]
    assert report["requests"].keys() == {"model_us", "model_and_calibrator_us"}
    for rows in report["requests"].values():
        assert list(rows) == ["parent", "change"]
        assert_compared(rows)


@needs_git
def test_ab_checkpoint_stops_at_another_model_format(tmp_path):
    # afe3979 writes model file version 3, whose writer looks up weights this checkout's model lacks
    if subprocess.run(["git", "cat-file", "-e", "afe3979^{commit}"], cwd=ROOT).returncode != 0:
        pytest.skip("afe3979 is not in this clone's history")
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "tools/ab_checkpoint.py", "--parent", "afe3979", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "model file formats differ: the parent writes version 3, this checkout version 4" in proc.stdout
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@needs_git
def test_ab_optim_few_steps(tmp_path):
    report = run_tool(tmp_path, "ab_optim.py", "--steps", "4", "--chunks", "8192,1048576")
    assert report["sets"].keys() == {"whole_model", "decoder_only"}
    for result in report["sets"].values():
        assert result["bit_identical_to_oracle"] == {"flat_chunk_8192": True, "flat_chunk_1048576": True}
        assert list(result["step_us"]) == ["oracle", "flat_chunk_8192", "flat_chunk_1048576"]
        assert_compared(result["step_us"])


@needs_git
def test_ab_calibrate_few_inputs(tmp_path):
    report = run_tool(tmp_path, "ab_calibrate.py", "--parent", working_tree_rev(), "--repeats", "2",
                      "--inputs", "4")
    assert report["same_weights"]
    assert report["inputs"] == 4
    for distance in ("mse", "cross_entropy"):
        identical = report["bit_identical"][distance]
        assert identical["soft_vector"] and identical["loss_curve"] and identical["epochs"] >= 1
    assert list(report["op_ms"]) == ["parent", "change"]
    assert_compared(report["op_ms"])
    for row in report["op_ms"].values():
        assert row["minor_faults_median"] >= 0
        assert row["heap_peak_kib"].keys() == {"mse", "cross_entropy"}


def load_spans():
    """perfbench/spans.py, the benchmark's tracer, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_finds_every_target():
    """perfbench/spans.py patches package functions and methods by name, so a renamed or deleted one
    fails here, not only in perfbench/selftest.py. Every patch is undone even when install() fails."""
    spans = load_spans()
    for module_name in {target[1] for target in spans.FUNCTIONS + spans.METHODS}:
        importlib.import_module(module_name)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("calibrated", [False, True], ids=["baseline", "calibrated"])
def test_benchmark_tracer_sees_summarize_layers_and_changes_no_summary(varied_lm, ensemble, calibrated):
    """The benchmark's layer times come from the traced bindings: a call path that bypassed them would
    read as zero time, and a wrapper that changed a result would time different work."""
    from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT, SoftPromptToken, summarize_many
    from promptcal.vocab import tokenize

    calibration = None
    if calibrated:
        soft = np.random.default_rng(0).normal(size=varied_lm.cfg.embed_dim)
        calibration = soft, SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, varied_lm.vocab)
    notes = [tokenize(text, varied_lm.vocab) for text in ("no edema.", "small effusion seen.")]
    prompts = [tokenize(p, varied_lm.vocab) for p in ensemble.prompts[:2]]
    expected = summarize_many(notes, prompts, varied_lm, calibration)
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        got = summarize_many(notes, prompts, varied_lm, calibration)
    finally:
        tracer.uninstall()
    assert got == expected
    totals = tracer.layer_totals()
    assert totals["model.encoder_forward"]["calls"] > 0 and totals["model.decoder_forward"]["calls"] > 0
    assert totals.get("calibration.decode_soft_prompt", {"calls": 0})["calls"] == int(calibrated)
