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

import signal

# The signals a command turns into an exception, as SIGINT raises KeyboardInterrupt.
INTERRUPTS = (signal.SIGTERM, signal.SIGHUP)
# The signals held where a handler that raises would do harm: here, while the
# submodules first import numpy, so that the threads numpy's OpenBLAS starts
# inherit the block for good and a signal sent to the process goes to the main
# thread; and in simulator.run_replications, over its numpy.random import and forks.
_HELD = (signal.SIGINT, *INTERRUPTS)

_mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])  # the importer's, to restore
try:
    signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)  # may raise, having blocked
    from .model import RachConfig
    from .optimizer import optimal_subframes_integer
    from .scenario import default_scenario
    from .simulator import run_replications
finally:
    signal.pthread_sigmask(signal.SIG_SETMASK, _mask)

__all__ = ["RachConfig", "optimal_subframes_integer", "default_scenario", "run_replications"]

__version__ = "0.1.0"
