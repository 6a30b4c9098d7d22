"""Lambert W: defining identity, branch contracts, oracle agreement."""

import math

import numpy as np
import pytest

from rachsim.lambertw import BRANCH_POINT, BelowBranchPointError, WBranch, lambert_w

from conftest import w_bisect


def residual(w, x):
    return abs(w * math.exp(w) - x)


def test_known_principal_points():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) < 1e-14
    assert lambert_w(BRANCH_POINT) == -1.0


def test_known_lower_points():
    assert lambert_w(BRANCH_POINT, WBranch.LOWER) == -1.0
    # frozen from the bisection oracle
    assert lambert_w(-0.2, WBranch.LOWER) == pytest.approx(-2.5426413577735265, abs=1e-9)


def test_identity_on_random_domain_points():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        x = float(np.exp(rng.uniform(np.log(1e-10), np.log(1e6))))
        if rng.random() < 0.5:
            x = float(rng.uniform(BRANCH_POINT, 0.0))
        w = lambert_w(x, WBranch.PRINCIPAL)
        assert w >= -1.0
        assert residual(w, x) <= 1e-12 * max(1.0, abs(x))
    for _ in range(2000):
        x = -float(np.exp(rng.uniform(np.log(1e-9), np.log(-BRANCH_POINT))))
        x = max(x, BRANCH_POINT)
        w = lambert_w(x, WBranch.LOWER)
        assert w <= -1.0
        assert residual(w, x) <= 1e-12 * max(1.0, abs(x))


def test_oracle_agreement_principal():
    for x in np.linspace(BRANCH_POINT + 1e-6, 10.0, 500):
        assert lambert_w(float(x)) == pytest.approx(w_bisect(float(x), "principal"), abs=1e-10)


def test_oracle_agreement_lower():
    for x in np.linspace(BRANCH_POINT + 1e-6, -1e-6, 500):
        assert lambert_w(float(x), WBranch.LOWER) == pytest.approx(
            w_bisect(float(x), "lower"), abs=1e-10
        )


def test_monotonicity():
    xs = np.linspace(BRANCH_POINT + 1e-9, 5.0, 400)
    w0 = [lambert_w(float(x)) for x in xs]
    assert all(b > a for a, b in zip(w0, w0[1:]))
    xs = np.linspace(BRANCH_POINT + 1e-9, -1e-6, 400)
    wm1 = [lambert_w(float(x), WBranch.LOWER) for x in xs]
    assert all(b < a for a, b in zip(wm1, wm1[1:]))


def test_near_branch_point_round_trip():
    for eps in (1e-12, 1e-9, 1e-6):
        x = BRANCH_POINT + eps
        w0 = lambert_w(x, WBranch.PRINCIPAL)
        wm1 = lambert_w(x, WBranch.LOWER)
        assert -1.0 <= w0 < -0.9
        assert -1.1 < wm1 <= -1.0
        assert residual(w0, x) <= 1e-12
        assert residual(wm1, x) <= 1e-12


def test_clamp_just_below_branch_point():
    assert lambert_w(BRANCH_POINT - 1e-16) == -1.0
    assert lambert_w(BRANCH_POINT - 9e-16, WBranch.LOWER) == -1.0


def test_domain_errors():
    with pytest.raises(BelowBranchPointError):
        lambert_w(BRANCH_POINT - 1e-12)
    with pytest.raises(BelowBranchPointError):
        lambert_w(-1.0, WBranch.LOWER)
    with pytest.raises(ValueError):
        lambert_w(0.0, WBranch.LOWER)
    with pytest.raises(ValueError):
        lambert_w(0.5, WBranch.LOWER)
    with pytest.raises(ValueError):
        lambert_w(float("nan"))
    # a branch that is not a WBranch member, such as its value, is refused
    with pytest.raises(TypeError, match="unknown branch"):
        lambert_w(0.5, WBranch.PRINCIPAL.value)
