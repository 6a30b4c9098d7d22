"""Adaptive RACH subframe allocation for LTE random access.

Analytic slotted-ALOHA throughput/utility model, a Lambert-W based
subframe optimizer with an exhaustive integer oracle, a two-branch
contention-load estimator driven by idle-preamble counts, and a
deterministic Monte Carlo contention simulator with fixed, maximum,
adaptive, and access-class-barring controllers.

The package root exports the few names a library user starts from; the
rest lives in the submodules (model, optimizer, estimator, lambertw,
simulator, scenario, cli).
"""

from .model import RachConfig
from .optimizer import optimal_subframes_integer
from .scenario import default_scenario
from .simulator import run_replications

__all__ = ["RachConfig", "optimal_subframes_integer", "default_scenario", "run_replications"]

__version__ = "0.1.0"
