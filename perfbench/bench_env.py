"""Paths, thread pinning and the platform fingerprint shared by the benchmark's scripts.

Call ``prepare()`` before anything imports numpy: OpenBLAS reads its thread
count once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"

# One BLAS thread (at most nproc): the matrices are at most vocab x 64, so
# extra threads only add scheduling noise, and criterion 4 reads the same with
# one or two threads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and put the checkout's own sources first on the import path.

    Exits with status 1 and no result when the checkout holds no sources, so
    the benchmark never measures an installed copy of the package.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "promptcal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no promptcal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import promptcal

    if SRC not in Path(promptcal.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported promptcal from {promptcal.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """Interpreter, numpy and BLAS build, thread setting and CPU: numbers only compare on one."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }
