"""Adaptive RACH subframe allocation for LTE random access.

Analytic slotted-ALOHA throughput/utility model, a Lambert-W based
subframe optimizer with an exhaustive integer oracle, a two-branch
contention-load estimator driven by idle-preamble counts, and a
deterministic Monte Carlo contention simulator with fixed, maximum,
adaptive, and access-class-barring controllers.

The package root exports the few names a library user starts from; the
rest lives in the submodules (model, optimizer, estimator, lambertw,
simulator, scenario, cli).

Importing the package before numpy loads numpy's OpenBLAS single-threaded
in that process, where it would start a thread per usable CPU beyond the
first (rachsim calls no BLAS routine), so that run_replications can fork.
"""

import importlib
import os
import sys

if "numpy" not in sys.modules:
    # OpenBLAS reads the variable once, as numpy loads it; the caller's value is
    # put back, so its later subprocesses see the environment unchanged
    _caller = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        if _caller is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = _caller

from .model import RachConfig  # noqa: E402
from .optimizer import optimal_subframes_integer  # noqa: E402
from .scenario import default_scenario  # noqa: E402
from .simulator import run_replications  # noqa: E402

__all__ = ["RachConfig", "optimal_subframes_integer", "default_scenario", "run_replications"]

__version__ = "0.1.0"
