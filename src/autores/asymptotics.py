"""Formal large-time series for captured solutions.

A captured solution grows like r = lam*tau + sum r_k tau^-k with phase
psi = psi0 + sum psi_k tau^-k.  Substituting the truncation into the
system and matching powers of x = 1/tau gives a linear recurrence for
the coefficients; there are no free parameters once the branch (the root
of sin psi0 = gamma) is chosen.  The expansion is treated as asymptotic,
never evaluated below tau = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import SystemParams, rhs_primary

STABLE = "stable"
UNSTABLE = "unstable"
_BRANCHES = (STABLE, UNSTABLE)


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Coefficients of the captured-solution series up to a given order.

    r_coeffs holds r_0..r_K, psi_coeffs holds psi_1..psi_K (one shorter:
    the phase series starts at order 1 above the constant psi0).
    """

    branch: str
    psi0: float
    r_coeffs: np.ndarray
    psi_coeffs: np.ndarray
    order: int

    def to_dict(self, p: SystemParams) -> dict:
        return {
            "gamma": p.gamma,
            "lambda": p.lam,
            "branch": self.branch,
            "K": self.order,
            "psi0": self.psi0,
            "r": [float(c) for c in self.r_coeffs],
            "psi": [float(c) for c in self.psi_coeffs],
        }


def solve_psi0(p: SystemParams, branch: str) -> float:
    """Constant phase of the captured branch: the chosen root of sin psi0 = gamma.

    The root in (0, pi/2) is linearly unstable; the mirrored root
    pi - arcsin(gamma), with negative cosine, is the attracting one.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    root = float(np.arcsin(p.gamma))
    return root if branch == UNSTABLE else float(np.pi) - root


def _residual_coeffs(gamma: float, lam: float, psi0: float,
                     r: np.ndarray, psi: np.ndarray, K: int):
    """Coefficient arrays (orders 0..K in x = 1/tau) of both equation residuals.

    r is r_0..r_K, psi is psi_1..psi_K.  Trigonometric functions of the
    phase series are expanded by Taylor composition around psi0, truncated
    at the same order as everything else.
    """
    n = K + 2  # keep one extra order so shifted products stay exact through K
    P = np.zeros(n)
    P[1:K + 1] = psi[:K]
    # cos(P), sin(P) as truncated Taylor series; P = O(x) so P^m needs m <= n
    cosP = np.zeros(n)
    cosP[0] = 1.0
    sinP = np.zeros(n)
    term = np.zeros(n)
    term[0] = 1.0  # running P^m / m!
    for m in range(1, n):
        term = np.convolve(term, P)[:n] / m
        if m % 2 == 1:
            sinP += term * (-1.0) ** ((m - 1) // 2)
        else:
            cosP += term * (-1.0) ** (m // 2)
    s0, c0 = np.sin(psi0), np.cos(psi0)
    sin_psi = s0 * cosP + c0 * sinP
    cos_psi = c0 * cosP - s0 * sinP

    R = np.zeros(n)
    R[:K + 1] = r[:K + 1]
    S = sin_psi.copy()
    S[0] -= gamma  # vanishes identically when sin psi0 = gamma

    # amplitude equation: d/dtau(lam/x + R) = (lam/x + R)(sin psi - gamma)
    RS = np.convolve(R, S)[:n]
    rhs1 = np.zeros(n)
    rhs1[:n - 1] += lam * S[1:]  # the lam/x factor shifts S down one order
    rhs1 += RS
    lhs1 = np.zeros(n)
    lhs1[0] = lam
    for k in range(1, K + 1):
        lhs1[k + 1] = -k * r[k]

    # phase equation: d psi/dtau = R + cos psi  (the lam*tau terms cancel)
    rhs2 = R + cos_psi
    lhs2 = np.zeros(n)
    for k in range(1, K + 1):
        lhs2[k + 1] = -k * psi[k - 1]

    return (lhs1 - rhs1)[:K + 1], (lhs2 - rhs2)[:K + 1]


def expand(p: SystemParams, branch: str, K: int) -> AsymptoticExpansion:
    """Coefficients through order K by matching powers of 1/tau.

    At order j the residual coefficients are affine in the new unknowns
    (r_j, psi_{j+1}) with closed-form pivots: the phase row is known
    terms - r_j, the amplitude row known terms - (sin psi0 - gamma) r_j -
    lam cos psi0 psi_{j+1}.  So one residual evaluation with both at zero
    solves the order, and no pivot vanishes (|cos psi0| = sqrt(1 -
    gamma^2)).  The coefficients grow factorially; one that overflows
    raises ArithmeticError naming its order.
    """
    if K < 0:
        raise ValueError(f"order K must be >= 0, got {K}")
    psi0 = solve_psi0(p, branch)
    coupling = np.sin(psi0) - p.gamma  # the residual's S[0], bit for bit
    phase_pivot = p.lam * np.cos(psi0)
    r = np.zeros(K + 1)
    psi = np.zeros(K)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(K + 1):
            e_r, e_psi = _residual_coeffs(p.gamma, p.lam, psi0, r, psi, K)
            r[j] = e_psi[j]
            if j < K:
                psi[j] = (e_r[j] - coupling * r[j]) / phase_pivot
            if not (np.isfinite(r[j]) and np.isfinite(psi[j:j + 1]).all()):
                raise ArithmeticError(
                    f"series coefficient at order {j} is not finite")

    return AsymptoticExpansion(branch=branch, psi0=psi0,
                               r_coeffs=r, psi_coeffs=psi, order=K)


def _checked(e: AsymptoticExpansion, tau, what: str, form) -> tuple:
    """form(tau, 1/tau) as two arrays of tau's shape, tau > 0 (what names
    the caller otherwise).  ValueError names the first tau where a value
    is not finite, where the powers of 1/tau (or lam tau) overflow."""
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau > 0):  # NaN included
        raise ValueError(f"{what} requires tau > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = (v + np.zeros_like(tau) for v in form(tau, 1.0 / tau))
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        raise ValueError(f"the order-{e.order} series is not finite at "
                         f"tau = {float(tau[bad][0])!r}")
    return a, b


def evaluate(e: AsymptoticExpansion, p: SystemParams, tau):
    """Truncated series value (r, psi) at tau > 0; accepts arrays."""
    return _checked(e, tau, "series evaluation", lambda tau, x: (
        p.lam * tau + sum(c * x ** k for k, c in enumerate(e.r_coeffs)),
        e.psi0 + sum(c * x ** k for k, c in enumerate(e.psi_coeffs, 1))))


def evaluate_derivative(e: AsymptoticExpansion, p: SystemParams, tau):
    """Exact tau-derivative of the truncated series at tau > 0."""
    return _checked(e, tau, "series derivative", lambda tau, x: (
        p.lam + sum(-k * c * x ** (k + 1)
                    for k, c in enumerate(e.r_coeffs[1:], 1)),
        sum(-k * c * x ** (k + 1) for k, c in enumerate(e.psi_coeffs, 1))))


def residual(e: AsymptoticExpansion, p: SystemParams, tau) -> Tuple:
    """Defect of the truncation in both equations at tau > 0.

    Returns (series derivative minus field) componentwise; the norm decays
    like a power of tau whose exponent improves with the order.
    """
    dr, dpsi = evaluate_derivative(e, p, tau)
    f_r, f_psi = rhs_primary(evaluate(e, p, tau), tau, p)
    return dr - f_r, dpsi - f_psi
