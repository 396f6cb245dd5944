"""Process set-up shared by the benchmark's entry points.

Import this module before NumPy: it pins the BLAS/OpenMP pools to one
thread and puts the checkout's ``src`` directory first on ``sys.path``, so
the benchmark measures the source tree next to it and nothing installed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"


def pin_cpu() -> None:
    """Keep this process, and the set-up interpreters it starts, on one CPU.

    On a shared VM each virtual CPU can run at its own speed at a given
    moment, so the calibration kernel only tells the speed of the work it
    scales when both run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/uavlift`` package to measure."""


def prepare() -> Path:
    """Pin threads and the CPU, and expose ``src``; returns the checkout root.

    Raises MissingSourceError when the package sources are absent, so the
    benchmark refuses to run rather than measuring some other copy.
    """
    os.environ.update(THREAD_PINS)
    pin_cpu()
    if not (SRC / "uavlift" / "__init__.py").is_file():
        raise MissingSourceError(f"no uavlift sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT


def check_imported(module) -> None:
    """Refuse a ``uavlift`` that was imported from anywhere but ``src``."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSourceError(f"uavlift was imported from {origin}, not from {SRC}")
