import math
import warnings

import numpy as np
import pytest

from autores import SystemParams
from autores.asymptotics import (STABLE, UNSTABLE, evaluate,
                                 evaluate_derivative, expand, residual,
                                 solve_psi0)
from oracles import mp_series, residual_slope

# regression values produced by the recurrence itself at gamma=0.1, lam=1
STABLE_PSI0 = 3.0414252324282334
STABLE_R = [0.99498743710662, -0.10050378152592128,
            0.5974429590676908, -1.0593529902694812]
STABLE_PSI = [-1.005037815259212, 0.9492405143808479, -1.2703230442835063]
UNSTABLE_PSI0 = 0.1001674211615598
UNSTABLE_R = [-0.9949874371066201, 0.10050378152592121,
              -0.3974429590676908, -0.9608490299325392]
UNSTABLE_PSI = [1.005037815259212, 1.0507594856191522, 1.068302842263304]


@pytest.fixture(scope="module")
def p():
    return SystemParams(lam=1.0, gamma=0.1)


def test_locked_phase_roots(p):
    for branch in (STABLE, UNSTABLE):
        psi0 = solve_psi0(p, branch)
        assert math.sin(psi0) == pytest.approx(p.gamma, abs=1e-14)
    assert math.cos(solve_psi0(p, STABLE)) < 0
    assert math.cos(solve_psi0(p, UNSTABLE)) > 0


def test_bad_branch_rejected(p):
    with pytest.raises(ValueError):
        solve_psi0(p, "sideways")
    with pytest.raises(ValueError):
        expand(p, "sideways", 2)


def test_frozen_coefficients_stable(p):
    e = expand(p, STABLE, 3)
    assert e.psi0 == pytest.approx(STABLE_PSI0, rel=1e-14)
    assert list(e.r_coeffs) == pytest.approx(STABLE_R, rel=1e-12)
    assert list(e.psi_coeffs) == pytest.approx(STABLE_PSI, rel=1e-12)


def test_frozen_coefficients_unstable(p):
    e = expand(p, UNSTABLE, 3)
    assert e.psi0 == pytest.approx(UNSTABLE_PSI0, rel=1e-14)
    assert list(e.r_coeffs) == pytest.approx(UNSTABLE_R, rel=1e-12)
    assert list(e.psi_coeffs) == pytest.approx(UNSTABLE_PSI, rel=1e-12)


def test_low_order_closed_forms(p):
    # r_0 = -cos(psi0); the first corrections obey psi_1 = 1/cos(psi0)
    # and r_1 = gamma * psi_1 (the amplitude equation at this order
    # forces the gamma-multiple, which equals tan(psi0))
    for branch in (STABLE, UNSTABLE):
        e = expand(p, branch, 1)
        c = math.cos(e.psi0)
        assert e.r_coeffs[0] == pytest.approx(-c, rel=1e-13)
        assert e.psi_coeffs[0] == pytest.approx(1.0 / c, rel=1e-13)
        assert e.r_coeffs[1] == pytest.approx(p.gamma / c, rel=1e-13)
        assert e.r_coeffs[1] == pytest.approx(math.tan(e.psi0), rel=1e-13)


def test_orders_are_consistent(p):
    # higher-order expansion must reproduce lower orders bitwise
    lo = expand(p, STABLE, 2)
    hi = expand(p, STABLE, 6)
    assert list(hi.r_coeffs[:3]) == list(lo.r_coeffs)
    assert list(hi.psi_coeffs[:2]) == list(lo.psi_coeffs)


# (lam, gamma, branch, K) -> relative tolerance where 1e-12 does not hold:
# at lam 3, gamma 0.9 the order-64 coefficients come out of sums of terms
# up to 100 times their size (psi_63 against r_63), and even the
# oracle's own recurrence in 16-digit arithmetic is 4.9e-13 off there;
# expand is 4.8e-12 off
SERIES_RTOL = {(3.0, 0.9, STABLE, 64): 1e-11}


@pytest.mark.parametrize("K", [16, 32, 64])
@pytest.mark.parametrize("branch", [STABLE, UNSTABLE])
@pytest.mark.parametrize("lam, gamma", [(1.0, 0.1), (2.0, 0.7), (0.5, 0.3),
                                        (3.0, 0.9), (0.1, 0.5)])
def test_coefficients_match_high_precision_oracle(lam, gamma, branch, K):
    # the coefficients grow factorially (about 5e59 at order 64 for lam 1,
    # gamma 0.1); each must still hold its relative accuracy
    e = expand(SystemParams(lam=lam, gamma=gamma), branch, K)
    want_r, want_psi = mp_series(lam, gamma, branch, K)
    rtol = SERIES_RTOL.get((lam, gamma, branch, K), 1e-12)
    np.testing.assert_allclose(e.r_coeffs, want_r, rtol=rtol, atol=0)
    np.testing.assert_allclose(e.psi_coeffs, want_psi, rtol=rtol, atol=0)


def test_overflowing_order_raises_silently():
    # at lam 1e-9 the coefficients pass the float range before order 64;
    # the error names the order and no RuntimeWarning escapes
    p = SystemParams(lam=1e-9, gamma=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError,
                           match=r"at order \d+ is not finite"):
            expand(p, STABLE, 64)


def test_evaluate_is_the_polynomial(p):
    e = expand(p, STABLE, 3)
    tau = 17.0
    x = 1.0 / tau
    r_hand = p.lam * tau + sum(c * x ** k for k, c in enumerate(e.r_coeffs))
    psi_hand = e.psi0 + sum(c * x ** (k + 1)
                            for k, c in enumerate(e.psi_coeffs))
    r, psi = evaluate(e, p, tau)
    assert r == pytest.approx(r_hand, rel=1e-15)
    assert psi == pytest.approx(psi_hand, rel=1e-15)


@pytest.mark.parametrize("fn", [evaluate, evaluate_derivative, residual])
def test_evaluation_refuses_overflowing_tau(p, fn):
    # the powers of 1/tau overflow at tau 1e-200: an error naming the
    # first such tau, not a RuntimeWarning (an error under this suite's
    # filter) and inf or NaN
    e = expand(p, STABLE, 3)
    with pytest.raises(ValueError,
                       match=r"order-3 series is not finite at tau = 1e-200"):
        fn(e, p, np.array([1.0, 1e-200, 1e-300]))
    # lam * tau overflows at 1e308 with lam 2; the derivative has no
    # such term
    big = SystemParams(lam=2.0, gamma=0.1)
    if fn is evaluate_derivative:
        assert np.isfinite(fn(expand(big, STABLE, 3), big, 1e308)).all()
    else:
        with pytest.raises(ValueError, match=r"not finite at tau = 1e\+308"):
            fn(expand(big, STABLE, 3), big, [10.0, 1e308])
    for tau in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=r"requires tau > 0"):
            fn(e, p, tau)


def test_evaluate_derivative_matches_finite_difference(p):
    e = expand(p, STABLE, 3)
    tau, h = 40.0, 1e-5
    r_hi, psi_hi = evaluate(e, p, tau + h)
    r_lo, psi_lo = evaluate(e, p, tau - h)
    dr, dpsi = evaluate_derivative(e, p, tau)
    assert dr == pytest.approx((r_hi - r_lo) / (2 * h), rel=1e-8)
    assert dpsi == pytest.approx((psi_hi - psi_lo) / (2 * h), rel=1e-6)


def test_residual_shrinks_with_order(p):
    tau = np.array([50.0, 100.0])
    res1 = np.abs(residual(expand(p, STABLE, 1), p, tau)).max()
    res4 = np.abs(residual(expand(p, STABLE, 4), p, tau)).max()
    assert res4 < res1 * 1e-3


def test_residual_slope_first_order(p):
    e = expand(p, STABLE, 1)
    slope = residual_slope(e, p, tau_lo=10.0, tau_hi=1000.0)
    assert slope <= -1.0 + 0.3
