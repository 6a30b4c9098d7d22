"""Analytic contention model: slotted-ALOHA throughput and its utility.

A frame offers n_s * n_preambles (subframe, preamble) transmission
opportunities. With N devices each picking one uniformly, the expected
number of winners is N * exp(-N / (n_s * n_preambles)), the classic
ALOHA curve with peak n_s * n_preambles / e at N = n_s * n_preambles.
Utility prices the subframes spent on random access: U = eta - alpha * n_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "FRAME_SUBFRAMES",
    "MAX_ALPHA",
    "SettingError",
    "check_range",
    "RachConfig",
    "throughput",
    "utility",
    "utility_of_load",
    "utility_gradient",
]

FRAME_SUBFRAMES = 10  # an LTE frame is 10 subframes of 1 ms

# Bound on the subframe price. A utility is eta - alpha * n_s with n_s <= 10,
# so it stays within about 1e101, its sum over a million frame rows within
# 1e107 and the square of a deviation between two utilities within 1e203,
# all far from float overflow (1.8e308). A price near that limit made
# utilities, their sums and the CIs -inf or NaN.
MAX_ALPHA = 1e100


class SettingError(ValueError):
    """A setting out of its range, raised by the dataclass that owns the field.

    `fields` names the fields the error concerns, the one to blame first.
    `template` is the message with each field as a `{field}` placeholder,
    so that a scenario file or a command line can name the field its own way.
    """

    def __init__(self, template: str, *fields: str):
        self.template = template
        self.fields = fields
        super().__init__(self.naming({field: field for field in fields}))

    def naming(self, names: Mapping[str, str]) -> str:
        """The message with each field called by its name in `names`."""
        return self.template.format_map(names)


def check_range(
    obj: object, field: str, lo: float, hi: float | None = None, lo_open: bool = False
) -> None:
    """Raise SettingError unless obj.field is finite and in [lo, hi], or (lo, hi] if lo_open."""
    x = getattr(obj, field)
    # finiteness is a float question: math.isfinite overflows on a huge int
    if isinstance(x, float) and not math.isfinite(x):
        raise SettingError(f"{{{field}}} must be finite, got {x}", field)
    if x < lo or (lo_open and x == lo) or (hi is not None and x > hi):
        if hi is None:
            bound = f"{'>' if lo_open else '>='} {lo}"
        else:
            bound = f"in {'(' if lo_open else '['}{lo}, {hi}]"
        raise SettingError(f"{{{field}}} must be {bound}, got {x}", field)


@dataclass(frozen=True)
class RachConfig:
    """Static per-cell random-access parameters.

    n_preambles: orthogonal preambles available per RACH subframe.
    n_s_min / n_s_max: admissible RACH subframes per frame (within the
        10-subframe frame; 2 is the 3GPP default allocation).
    alpha: operator-chosen price of a RACH subframe, in devices per
        subframe of forgone data capacity.
    """

    n_preambles: int = 64
    n_s_min: int = 2
    n_s_max: int = 8
    alpha: float = 25.0

    def __post_init__(self) -> None:
        # so that every pair count n_s * n_preambles is an exact float
        check_range(self, "n_preambles", 1, 2**53 // FRAME_SUBFRAMES)
        check_range(self, "n_s_min", 1, FRAME_SUBFRAMES)
        check_range(self, "n_s_max", 1, FRAME_SUBFRAMES)
        check_range(self, "alpha", 0.0, MAX_ALPHA)
        if self.n_s_min > self.n_s_max:
            raise SettingError("{n_s_min} must not exceed {n_s_max}", "n_s_min", "n_s_max")

    @property
    def subframe_range(self) -> range:
        return range(self.n_s_min, self.n_s_max + 1)


def throughput(n_devices: float, n_s: int, n_preambles: int) -> float:
    """Expected successful accesses per frame: N * exp(-N / (n_s * n_p))."""
    if n_s < 1:
        raise ValueError(f"n_s must be >= 1, got {n_s}")
    if n_preambles < 1:
        raise ValueError(f"n_preambles must be >= 1, got {n_preambles}")
    if n_devices < 0:
        raise ValueError(f"n_devices must be >= 0, got {n_devices}")
    return n_devices * math.exp(-n_devices / (n_s * n_preambles))


def utility(eta: float, alpha: float, n_s: int) -> float:
    """Throughput minus the subframe price: eta - alpha * n_s."""
    return eta - alpha * n_s


def utility_of_load(n_devices: float, n_s: int, config: RachConfig) -> float:
    """Utility evaluated straight from the load via the throughput curve."""
    return utility(throughput(n_devices, n_s, config.n_preambles), config.alpha, n_s)


def utility_gradient(n_devices: float, n_s: float, config: RachConfig) -> float:
    """Marginal balance alpha - (N^2 / (n_p * n_s^2)) * exp(-N / (n_s * n_p)).

    n_s may be real here; the stationarity condition treats it continuously.
    Note the sign: this is the negative of d(utility)/d(n_s), so a positive
    value means utility is falling as n_s grows. Zeros coincide with the
    stationary points of utility_of_load either way. The collision term is
    bounded by n_preambles * 4 * exp(-2), so for alpha above that the
    returned value is positive for every load.
    """
    if n_s <= 0:
        raise ValueError(f"n_s must be > 0, got {n_s}")
    if n_devices < 0:
        raise ValueError(f"n_devices must be >= 0, got {n_devices}")
    n_p = config.n_preambles
    collision_term = (n_devices**2 / (n_p * n_s**2)) * math.exp(
        -n_devices / (n_s * n_p)
    )
    return config.alpha - collision_term
