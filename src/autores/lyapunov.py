"""Lyapunov machinery: the deviation-energy function V, numeric
certification of its inequalities, the comparison function U_1 and the
chain constants, and admissibility thresholds for the finite-time
stability guarantees.

Certification is sampled, not proved: inequalities are checked on a
dense grid plus random spot checks, and the certificate records the
worst observed slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import NoiseStream
from .model import (
    SystemParams,
    NoiseSchedule,
    hamiltonian,
    hamiltonian_partials,
    hamiltonian_time_partial,
    hamiltonian_hessian,
)


@dataclass(frozen=True)
class StabilityCertificate:
    """Numerically validated constants for the deviation-system inequalities.

    Valid on the tube sqrt(R^2 + Psi^2) <= d0, tau >= tau0.  The weighted
    norm is w = R^2/(nu tau) + Psi^2; U = 4V satisfies w <= U <= A w with
    A = 3, y-weight a = 1/nu, weight exponent b = 1, decay rate q.
    margin is the smallest slack seen over the grid (>= 0 iff certified).
    """

    d0: float
    tau0: float
    A: float
    B: float
    C: float
    q: float
    a: float
    b: float
    rho0: float
    grid: int
    margin: float
    tau_hi: float


@dataclass(frozen=True)
class NoCertificate:
    """Search failure: names the first violated inequality and where."""

    reason: str
    tau: float
    R: float
    Psi: float


@dataclass(frozen=True)
class ThresholdReport:
    N: int
    kappa: float
    h: float
    eps1: float
    eps2: float
    delta: float
    Delta: float
    T_mu_exponent: float
    empirical: bool = False


# V and its derivatives take the reference sample star = (r*, psi*) at tau.

def eval_V(e, tau, p: SystemParams, star):
    """V = [H + gamma R Psi / 2] / (nu tau); accepts arrays."""
    R, Psi = e
    tau = np.asarray(tau, dtype=float)
    H = hamiltonian(e, star)
    return (H + p.gamma * R * Psi / 2.0) / (p.nu * tau)


def grad_V(e, tau, p: SystemParams, star):
    """Closed-form (dV/dR, dV/dPsi)."""
    R, Psi = e
    tau = np.asarray(tau, dtype=float)
    dH_dR, dH_dPsi = hamiltonian_partials(e, star)
    gR = (dH_dR + p.gamma * Psi / 2.0) / (p.nu * tau)
    gP = (dH_dPsi + p.gamma * R / 2.0) / (p.nu * tau)
    return gR, gP


def hess_V(e, tau, p: SystemParams, star):
    """Closed-form Hessian entries (V_RR, V_RPsi, V_PsiPsi)."""
    tau = np.asarray(tau, dtype=float)
    H_RR, H_RP, H_PP = hamiltonian_hessian(e, star)
    s = 1.0 / (p.nu * tau)
    return H_RR * s, (H_RP + p.gamma / 2.0) * s, H_PP * s


def _dV_dtau(e, tau, p: SystemParams, star, V):
    """Total derivative of V along the deviation flow, in closed form, at
    the array tau, given V = eval_V(e, tau, p, star).

    Substituting the flow (-dH/dPsi - gamma R, dH/dR) collapses the
    Hamiltonian cross terms, leaving
      dV/dtau = -V/tau + [dH/dtau - (gamma/2)(R H_R + Psi H_Psi)
                          - gamma^2 R Psi / 2] / (nu tau).
    """
    R, Psi = e
    dH_dR, dH_dPsi = hamiltonian_partials(e, star)
    dH_dt = hamiltonian_time_partial(e, tau, p, star)
    bracket = (dH_dt
               - (p.gamma / 2.0) * (R * dH_dR + Psi * dH_dPsi)
               - p.gamma ** 2 * R * Psi / 2.0)
    return -V / tau + bracket / (p.nu * tau)


def weighted_norm(e, tau, p: SystemParams):
    """w = R^2/(nu tau) + Psi^2, the norm the sandwich is written in."""
    R, Psi = e
    tau = np.asarray(tau, dtype=float)
    return R * R / (p.nu * tau) + Psi * Psi


# the certified inequalities, in the order of _inequality_slacks' leading axis
INEQUALITIES = ("sandwich lower", "sandwich upper", "decay")


def _inequality_slacks(R, Psi, tau, p: SystemParams, star, q: float):
    """Pointwise slack of each certified inequality; negative = violated.

    R, Psi and the array tau broadcast, and star = ref.state(tau).
    Returns one array whose leading axis runs over INEQUALITIES:
      sandwich_lo = V - w/4,  sandwich_hi = 3w/4 - V,  decay = -qV - dV/dtau.
    All are normalized by w so slacks are comparable across the tube.
    """
    e = (R, Psi)
    w = weighted_norm(e, tau, p)
    V = eval_V(e, tau, p, star)
    dV = _dV_dtau(e, tau, p, star, V)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(w > 0, np.stack([V - 0.25 * w, 0.75 * w - V,
                                         -q * V - dV])
                        / np.maximum(w, 1e-300), np.inf)


def _tube_ok(d0, taus, star, p, q):
    """(passes, worst slack, (R, Psi), slack) of the d0 tube at the
    candidate's log-spaced times taus, star the reference state there.
    R and Psi, of shape (grid, grid, 1) over radius and angle, sample
    the disk's boundary and interior and broadcast against taus."""
    grid = taus.size
    radii = np.linspace(d0 / grid, d0, grid)[:, None, None]
    angles = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)[:, None]
    R, Psi = radii * np.cos(angles), radii * np.sin(angles)
    slack = _inequality_slacks(R, Psi, taus, p, star, q)
    worst = float(slack.min())
    return worst >= 0.0, worst, (R, Psi), slack


def certify(p: SystemParams, ref, d_range=(1e-3, 0.3),
            tau_range=(10.0, 50.0), grid: int = 32,
            q: Optional[float] = None):
    """Search for the largest certified tube on [tau0, ref.tau_max].

    tau0 candidates ascend through tau_range; for each, the largest d0 in
    d_range passing every inequality on the sampled tube is found by
    bisection; the certificate with maximal d0 wins, the earliest tau0 on
    a tie, so the search ends at the first tau0 whose d_hi tube passes.
    B and C are then measured as the smallest constants fitting the
    winning tube, as its accepting test sampled it.  When no candidate's
    d_lo tube passes, returns the first failure's NoCertificate, naming
    the violated inequality and its location.  Both ranges must ascend,
    and tau_range must lie in [ref.tau_min, ref.tau_max), where every
    candidate has a tube to test.
    """
    if grid < 32:
        raise ValueError("grid must be at least 32 points per axis")
    d_lo, d_hi = d_range
    if not (d_hi > d_lo and tau_range[1] > tau_range[0]):
        raise ValueError(f"d_range {tuple(d_range)} and tau_range "
                         f"{tuple(tau_range)} must be ascending")
    if not (ref.tau_min <= tau_range[0] and tau_range[1] < ref.tau_max):
        raise ValueError(f"tau_range {tuple(tau_range)} must lie in the "
                         f"reference domain [{ref.tau_min}, {ref.tau_max})")
    q = p.gamma / 6.0 if q is None else q
    tau_hi = ref.tau_max
    tau0_candidates = np.linspace(tau_range[0], tau_range[1], 9)

    best = None  # (d0, tau0, margin, tube, taus, star)
    first_violation = None
    for tau0 in tau0_candidates:
        # every radius tried at tau0 samples the same times
        taus = np.geomspace(tau0, tau_hi, grid)
        star = ref.state(taus)
        ok_lo, worst_lo, tube_lo, slack = _tube_ok(d_lo, taus, star, p, q)
        if not ok_lo:
            if first_violation is None:
                R, Psi = tube_lo
                which, i, j, k = np.unravel_index(np.argmin(slack),
                                                  slack.shape)
                first_violation = NoCertificate(
                    reason=f"{INEQUALITIES[which]} inequality violated",
                    tau=float(taus[k]), R=float(R[i, j, 0]),
                    Psi=float(Psi[i, j, 0]))
            continue
        ok_hi, worst_hi, tube_hi, _ = _tube_ok(d_hi, taus, star, p, q)
        if ok_hi:
            best = (d_hi, float(tau0), worst_hi, tube_hi, taus, star)
            break  # no later tau0 can beat d_hi
        # margin and tube are those of the last accepted radius
        a_, b_, margin, tube = d_lo, d_hi, worst_lo, tube_lo
        for _ in range(40):
            mid = 0.5 * (a_ + b_)
            ok_mid, worst_mid, tube_mid, _ = _tube_ok(mid, taus, star, p, q)
            if ok_mid:
                a_, margin, tube = mid, worst_mid, tube_mid
            else:
                b_ = mid
        if best is None or a_ > best[0]:
            best = (a_, float(tau0), margin, tube, taus, star)

    if best is None:  # every d_lo tube failed, the first set first_violation
        return first_violation

    d0, tau0, margin, (R, Psi), taus, star = best
    # measure the smallest B, C fitting the winning tube
    V = eval_V((R, Psi), taus, p, star)
    gR, gP = grad_V((R, Psi), taus, p, star)
    grad_sq = gR * gR + gP * gP
    with np.errstate(invalid="ignore", divide="ignore"):
        B = float(np.max(np.where(V > 0, grad_sq / np.maximum(V, 1e-300), 0.0)))
    h_rr, h_rp, h_pp = hess_V((R, Psi), taus, p, star)
    # spectral norm of a symmetric 2x2
    mean = (h_rr + h_pp) / 2.0
    disc = np.sqrt(((h_rr - h_pp) / 2.0) ** 2 + h_rp ** 2)
    C = float(np.max(np.abs(mean) + disc))
    return StabilityCertificate(
        d0=float(d0), tau0=float(tau0), A=3.0, B=B, C=C, q=float(q),
        a=1.0 / p.nu, b=1.0, rho0=float(d0), grid=grid,
        margin=float(margin), tau_hi=float(tau_hi))


def spot_check(cert: StabilityCertificate, p: SystemParams, ref,
               n: int = 10_000, seed: int = 0) -> int:
    """Random interior points; returns the number of inequality violations."""
    rng = NoiseStream(seed).generator()
    rad = cert.d0 * np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    taus = np.exp(rng.uniform(np.log(cert.tau0), np.log(cert.tau_hi), n))
    R = rad * np.cos(ang)
    Psi = rad * np.sin(ang)
    slack = _inequality_slacks(R, Psi, taus, p, ref.state(taus), cert.q)
    return int(np.count_nonzero(slack < 0))


def chain_a(k: int, n: int, h: float, B: float, C: float, q: float) -> float:
    """Chain constant a_k = (k+1) n^2 h (B + C) / q."""
    return (k + 1) * n * n * h * (B + C) / q


def chain_U(mu: float, h: float, n: int, C: float, T: float, U_value, t,
            t0: float):
    """First comparison function U_1 = U + mu^2 h n^2 C (T + t0 - t).

    Nondecreasing in U; equals U at the horizon t = t0 + T.
    """
    if min(h, n, C) <= 0 or T < 0:
        raise ValueError("constants must be positive and T nonnegative")
    t = np.asarray(t, dtype=float)
    if ((t < t0) | (t > t0 + T)).any():
        raise ValueError("t must lie in [t0, t0 + T]")
    U = np.asarray(U_value, dtype=float)
    return U + mu * mu * h * n * n * C * (T + t0 - t)


def thresholds(N: int, kappa: float, h: float, n: int, A: float, a: float,
               C: float, eps1: float, eps2: float) -> ThresholdReport:
    """Admissibility thresholds for the finite-horizon stability guarantee.

    The closed forms hold for N = 1:
      delta = (eps1^2 eps2 / (2 A (1 + a)))^{1/2}
      Delta = (eps1^2 eps2 / (2 n^2 h C))^{1/(2 kappa)}
    For N > 1 only the horizon exponent -2N(1-kappa) is exact; delta and
    Delta are then carried over and marked empirical.
    """
    if not (0 < kappa < 1):
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    if min(h, n, A, C, eps1, eps2) <= 0 or a < 0 or N < 1:
        raise ValueError("invalid threshold parameters")
    delta = math.sqrt(eps1 * eps1 * eps2 / (2.0 * A * (1.0 + a)))
    Delta = (eps1 * eps1 * eps2 / (2.0 * n * n * h * C)) ** (1.0 / (2.0 * kappa))
    return ThresholdReport(N=N, kappa=kappa, h=h, eps1=eps1, eps2=eps2,
                           delta=delta, Delta=Delta,
                           T_mu_exponent=-2.0 * N * (1.0 - kappa),
                           empirical=N > 1)


def thresholds_beta(beta: float, kappa: float) -> float:
    """Horizon exponent (kappa - 2)/(1 + beta) for decaying noise intensity."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not (0 < kappa < 1):
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    return (-2.0 + kappa) / (1.0 + beta)


def noise_class_check(n: NoiseSchedule, tau0: float) -> dict:
    """Closed-form sup over tau >= tau0 of |sigma1(tau)| tau + |sigma2(tau)|.

    Works on the power-law presets only: each term is |c| tau^e, which is
    unbounded when e > 0 and c != 0, else nonincreasing so the supremum
    sits at tau0.
    """
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
    for sched in (n.sigma1, n.sigma2):
        if not hasattr(sched, "coeff") or not hasattr(sched, "power"):
            raise TypeError("noise_class_check requires preset schedules "
                            "(constant or power-law)")
    e1 = n.sigma1.power + 1.0  # the tau weight shifts the exponent
    e2 = n.sigma2.power
    bound = 0.0
    for coeff, expo in ((n.sigma1.coeff, e1), (n.sigma2.coeff, e2)):
        if coeff != 0.0 and expo > 0:
            return {"bound": math.inf, "admissible": False}
        bound += abs(coeff) * tau0 ** expo
    return {"bound": bound, "admissible": bound <= n.h}
