"""Domain types and closed-form vector fields for the autoresonance system.

The unperturbed system in slow time tau is

    dr/dtau   = r sin(psi) - gamma r
    dpsi/dtau = r - lambda tau + cos(psi)

with pump sweep rate lambda > 0 and damping 0 < gamma < 1.  The noise-
perturbed variant shares the same drift; the diffusion matrix couples a
multiplicative channel through sigma1 and an additive phase channel
through sigma2.  Everything here is a pure function of its arguments and
accepts numpy arrays componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class SystemParams:
    """Sweep rate and damping, with the derived constant nu = sqrt(1 - gamma^2)."""

    lam: float
    gamma: float
    nu: float = field(init=False)

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not (0 < self.gamma < 1):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        object.__setattr__(self, "nu", math.sqrt(1.0 - self.gamma**2))


@dataclass(frozen=True)
class Schedule:
    """Noise intensity preset c * tau**p; constant when p == 0."""

    coeff: float
    power: float = 0.0

    def __call__(self, tau: ArrayLike) -> ArrayLike:
        return self.coeff * np.asarray(tau, dtype=float) ** self.power


@dataclass(frozen=True)
class NoiseSchedule:
    """Noise amplitude mu with intensity schedules for the two channels.

    h is the declared class bound on sup over tau of |sigma1(tau)| tau
    + |sigma2(tau)|; whether the schedules actually satisfy it is checked
    separately, not assumed here.
    """

    mu: float
    sigma1: Schedule
    sigma2: Schedule
    h: float = 1.0

    def __post_init__(self):
        if not (0 < self.mu < 1):
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")


def constant_schedule(c: float) -> Schedule:
    return Schedule(coeff=float(c), power=0.0)


def power_schedule(c: float, p: float) -> Schedule:
    return Schedule(coeff=float(c), power=float(p))


def rhs_primary(s, tau: ArrayLike, p: SystemParams):
    """Right-hand side of the unperturbed system at state s = (r, psi),
    over the broadcast shape of r, psi and tau: rhs_primary_into on fresh
    rows, so the field is written once."""
    r, psi, tau = np.broadcast_arrays(*s, np.asarray(tau, dtype=float))
    f = np.empty((2, r.size))
    rhs_primary_into((r.ravel(), psi.ravel()), tau.ravel(), p, f,
                     np.empty((3, r.size)))
    return f[0].reshape(r.shape)[()], f[1].reshape(r.shape)[()]


def rhs_primary_into(x, tau: ArrayLike, p: SystemParams, f, scratch):
    """Write the unperturbed field r sin psi - gamma r, (r - lam tau) +
    cos psi at x = (r, psi) and tau into the two rows of f; at a float
    tau it makes no temporaries.  The three scratch rows take sin psi,
    cos psi and a temporary; sin psi and cos psi are left there for the
    caller.  f and scratch are sequences of rows; a tuple of views made
    once is cheaper to unpack than an array, which makes a view per row
    on every call."""
    r, psi = x
    f_r, f_psi = f
    sin_psi, cos_psi, tmp = scratch
    np.sin(psi, sin_psi)
    np.cos(psi, cos_psi)
    np.multiply(r, sin_psi, f_r)
    np.multiply(r, p.gamma, tmp)
    f_r -= tmp
    np.subtract(r, p.lam * tau, f_psi)
    f_psi += cos_psi


def scalar_field(p: SystemParams):
    """The unperturbed field as fun(tau, y) for one state y = (r, psi):
    rhs_primary's operations in its order on Python floats, so the same
    bits without numpy's per-operation overhead on scalars."""
    lam, gamma = p.lam, p.gamma

    def field(tau, y):
        r, psi = y.tolist()
        return r * math.sin(psi) - gamma * r, r - lam * tau + math.cos(psi)
    return field


def _noise(s1, s2, r, sin_psi, cos_psi, w, gw, tmp):
    """Write G w into gw for the diffusion matrix G; the amplitude mu is
    applied by the integrator.  Rows correspond to (r, psi), columns to
    the two Wiener channels: row 1 = (sigma1 r sin psi, 0), row 2 =
    (sigma1 cos psi, sigma2).  r may be gw[0]; tmp is a work row."""
    g_r, g_psi = gw
    w1, w2 = w[0], w[1]
    np.multiply(r, s1, g_r)
    g_r *= sin_psi
    g_r *= w1
    np.multiply(cos_psi, s1, g_psi)
    g_psi *= w1
    np.multiply(w2, s2, tmp)
    g_psi += tmp


def _intensities(n: NoiseSchedule, tau: np.ndarray):
    """(sigma1, sigma2) on the node times tau; ValueError names a
    schedule that is not finite there (a negative power at tau = 0)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = (np.asarray(n.sigma1(tau), dtype=float),
             np.asarray(n.sigma2(tau), dtype=float))
    for name, si in zip(("sigma1", "sigma2"), s):
        bad = ~np.isfinite(si)
        if bad.any():
            raise ValueError(f"{name} is not finite at "
                             f"tau={float(tau[np.argmax(bad)]):.6g}")
    return s


def perturbed_terms(p: SystemParams, n: NoiseSchedule, tau: np.ndarray):
    """Euler-Maruyama terms of the perturbed system on the node times tau.

    Returns terms(k, x, w, f, gw, scratch) under the integrators.em_paths
    buffer contract: it writes the drift into f and G w into gw for the
    state x = (r, psi) at node k and the two Wiener increments w of step
    k, with time and schedules read at node k, using the three scratch
    rows for sin, cos and a temporary.  The Ito drift is the unperturbed
    field, written by rhs_primary_into, so with rhs_primary's bits.

    With sigma1 zero at every step the noise is additive, G w = (0,
    sigma2 w2): terms then writes only f and carries sigma2 on tau as
    terms.additive, for em_paths to form the noise in bulk.
    """
    s1, s2 = _intensities(n, tau)
    additive = not s1.any()

    def terms(k, x, w, f, gw, scratch):
        rhs_primary_into(x, tau[k], p, f, scratch)
        if not additive:
            sin_psi, cos_psi, tmp = scratch
            _noise(s1[k], s2[k], x[0], sin_psi, cos_psi, w, gw, tmp)
    if additive:
        terms.additive = s2
    return terms


# The deviation functions take the reference sample star = (r*, psi*) at
# the time of interest, so one spline evaluation serves them all.

def hamiltonian(e, star) -> ArrayLike:
    """Energy-like function H for the deviation variables.

    H = R^2/2 + (R + r*)[cos(Psi + psi*) - cos psi*] + Psi r* sin psi*
    with (r*, psi*) the reference captured solution at tau.
    """
    R, Psi = e
    rs, ps = star
    return (
        R**2 / 2.0
        + (R + rs) * (np.cos(Psi + ps) - np.cos(ps))
        + Psi * rs * np.sin(ps)
    )


def hamiltonian_partials(e, star):
    """Closed-form (dH/dR, dH/dPsi); no finite differences."""
    R, Psi = e
    rs, ps = star
    return (R + np.cos(Psi + ps) - np.cos(ps),
            -(R + rs) * np.sin(Psi + ps) + rs * np.sin(ps))


def hamiltonian_time_partial(e, tau: ArrayLike, p: SystemParams,
                             star) -> ArrayLike:
    """Closed-form dH/dtau at frozen (R, Psi).

    Uses the chain rule through (r*(tau), psi*(tau)), whose derivatives are
    the unperturbed field evaluated on the reference solution.
    """
    R, Psi = e
    rs, ps = star
    drs, dps = rhs_primary((rs, ps), tau, p)
    return (
        drs * (np.cos(Psi + ps) - np.cos(ps))
        + (R + rs) * (-np.sin(Psi + ps) + np.sin(ps)) * dps
        + Psi * (drs * np.sin(ps) + rs * np.cos(ps) * dps)
    )


def hamiltonian_hessian(e, star):
    """Closed-form second partials (H_RR, H_RPsi, H_PsiPsi)."""
    R, Psi = e
    rs, ps = star
    H_RR = np.ones_like(np.asarray(R, dtype=float))
    H_RPsi = -np.sin(Psi + ps)
    H_PsiPsi = -(R + rs) * np.cos(Psi + ps)
    return H_RR, H_RPsi, H_PsiPsi


def error_terms(p: SystemParams, n: NoiseSchedule, tau: np.ndarray, star):
    """Euler-Maruyama terms of the deviation system (R, Psi).

    star = (r*, psi*) holds one reference sample per node of tau; the
    terms of step k read it and the noise schedules at node k, the
    step's start, as an Ito step does.  The diffusion matrix is the
    original-variable one at the shifted state (r* + R, psi* + Psi); the
    reference solution itself satisfies the deterministic equations, so
    its noise terms cancel.  Returns terms(k, x, w, f, gw, scratch) under
    the buffer contract of perturbed_terms, additive noise included; the
    drift is (-dH/dPsi - gamma R, dH/dR) in the operation order of
    tests/oracles.py::rhs_error, with sin and cos of psi* + Psi once a step.
    """
    s1, s2 = _intensities(n, tau)
    additive = not s1.any()
    rs, ps = star
    gamma = p.gamma

    def terms(k, x, w, f, gw, scratch):
        R, Psi = x
        f_R, f_Psi = f
        rsk, psk = rs[k], ps[k]
        sin_d, cos_d, tmp = scratch
        np.add(Psi, psk, tmp)
        np.cos(tmp, cos_d)
        np.sin(tmp, sin_d)
        np.add(R, cos_d, f_Psi)  # dH/dR
        f_Psi -= math.cos(psk)
        np.add(R, rsk, tmp)  # tmp = dH/dPsi
        np.negative(tmp, tmp)
        tmp *= sin_d
        tmp += rsk * math.sin(psk)
        np.negative(tmp, f_R)
        np.multiply(R, gamma, tmp)
        f_R -= tmp
        if not additive:
            np.add(R, rsk, gw[0])
            _noise(s1[k], s2[k], gw[0], sin_d, cos_d, w, gw, tmp)
    if additive:
        terms.additive = s2
    return terms
