"""Checkout location and process environment shared by the benchmark
scripts.  Imports nothing heavy, so callers can pin thread pools before
numpy loads."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_environment() -> None:
    """One ensemble worker; numeric-library threads capped at nproc."""
    os.environ["SDNLW_WORKERS"] = "1"
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def use_checkout_src() -> None:
    """Import ``sdnlw`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sdnlw" / "__init__.py").is_file():
        raise SystemExit(f"error: no sdnlw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sdnlw
    if Path(sdnlw.__file__).resolve().parent != (SRC / "sdnlw").resolve():
        raise SystemExit(f"error: sdnlw imported from {sdnlw.__file__}, not {SRC}")
