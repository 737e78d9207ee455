"""Full pendulum oscillator and validation of its two-scale reduction.

The pumped pendulum

    u'' + (1 + eps cos 2*Phi(t)) sin u + theta u' = 0,  Phi(t) = t - alpha t^2 / 2

reduces, for small eps and amplitudes of order sqrt(eps), to the
autoresonance system in slow time tau = eps t / 2 with lam = 8 alpha /
eps^2 and gamma = 2 theta / eps.  The module integrates the full
equation and compares its envelope against sqrt(4 eps r(tau)) from an
averaged trajectory.

Only the deterministic pendulum is integrated.  The noisy variant maps
onto the perturbed averaged system with xi1(tau) = eta1(2 tau) and
xi2(tau) = 4 eta2(2 tau), but that correspondence is formal and is
recorded here for reference, not simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams
from .integrators import Trajectory, integrate_ode

SAMPLES_PER_UNIT = 20.0  # integrate_pendulum samples per unit of fast time


@dataclass(frozen=True)
class PendulumParams:
    """Constants of the deterministic pendulum."""

    eps: float
    alpha: float
    theta: float

    def __post_init__(self):
        # eps = 0 is a legal plain damped pendulum; the averaged-system
        # correspondence additionally needs eps > 0, checked in inverse_map
        if not (0 <= self.eps < 1):
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")


def inverse_map(p: SystemParams, eps: float) -> PendulumParams:
    """Pendulum constants realizing (lam, gamma) at a given eps."""
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return PendulumParams(eps=eps, alpha=p.lam * eps ** 2 / 8.0,
                          theta=p.gamma * eps / 2.0)


def seed_from_averaged(r0: float, psi0: float, eps: float):
    """Leading-order inverse of the envelope substitution at t = 0:
    u(0) = sqrt(4 eps r) cos(psi/2), u'(0) = -sqrt(4 eps r) sin(psi/2)."""
    amp = math.sqrt(4.0 * eps * r0)
    return amp * math.cos(psi0 / 2.0), -amp * math.sin(psi0 / 2.0)


def sample_count(t_end: float) -> int:
    """The samples integrate_pendulum records over [0, t_end]:
    SAMPLES_PER_UNIT per unit of fast time, at least 64."""
    return max(64, int(t_end * SAMPLES_PER_UNIT))


def integrate_pendulum(pp: PendulumParams, u0: float, v0: float,
                       t_end: float, tol: float = 1e-10) -> Trajectory:
    """Integrate the pumped pendulum from (u, u') = (u0, v0) at t = 0.

    SAMPLES_PER_UNIT is dense enough to resolve every fast oscillation,
    so envelope extraction downstream sees all extrema.
    """
    eps, alpha, theta = pp.eps, pp.alpha, pp.theta

    def field(t, y):
        u, v = y.tolist()
        pump = 1.0 + eps * math.cos(2.0 * t - alpha * t * t)
        return (v, -pump * math.sin(u) - theta * v)

    t_eval = np.linspace(0.0, t_end, sample_count(t_end))
    return integrate_ode(field, [u0, v0], 0.0, t_end, tol=tol, t_eval=t_eval)


def extract_envelope(traj: Trajectory):
    """Envelope samples (t_i, |u|_i) at the successive extrema of u.

    Extrema are located at sign changes of u' between samples and refined
    by a three-point parabola through |u|; a flat triple (zero second
    difference) has its vertex at the middle sample (t[i], |u|[i]).
    Raises ValueError when fewer than 20 extrema exist (window too short
    to define an envelope).
    """
    t = traj.times
    u = traj.states[:, 0]
    v = traj.states[:, 1]
    i = np.where(np.diff(np.signbit(v)))[0]
    # keep interior indices so the parabola has both neighbors
    i = i[(i > 0) & (i < t.size - 2)]
    if i.size < 20:
        raise ValueError(f"only {i.size} extrema found; need at least 20")
    a = np.abs(u)
    y0, y1, y2 = a[i - 1], a[i], a[i + 1]
    denom = y0 - 2.0 * y1 + y2
    # vertex of the parabola through the three samples
    delta = 0.5 * (y0 - y2) / np.where(denom == 0.0, np.inf, denom)
    delta = np.clip(delta, -1.0, 1.0)
    h = t[i + 1] - t[i]
    return t[i] + delta * h, y1 - 0.25 * (y0 - y2) * delta


def envelope_compare(pendulum_traj: Trajectory, averaged_traj: Trajectory,
                     pp: PendulumParams, transient_fraction: float = 0.1,
                     window=None) -> dict:
    """Relative error of the pendulum envelope against sqrt(4 eps r(tau)).

    The averaged trajectory provides r on its slow-time grid; envelope
    samples map to slow time via tau = eps t / 2.  The first
    transient_fraction of the common window is excluded; an explicit
    (tau_lo, tau_hi) window narrows it further.
    """
    eps = pp.eps
    t_ext, env = extract_envelope(pendulum_traj)
    tau_ext = eps * t_ext / 2.0
    tau_avg = averaged_traj.times
    r_avg = averaged_traj.states[:, 0]
    lo = max(tau_ext[0], tau_avg[0])
    hi = min(tau_ext[-1], tau_avg[-1])
    if not hi > lo:
        raise ValueError("trajectories share no slow-time window")
    lo = lo + transient_fraction * (hi - lo)
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    keep = (tau_ext >= lo) & (tau_ext <= hi)
    if keep.sum() < 20:
        raise ValueError(f"only {int(keep.sum())} extrema in the comparison window")
    tau_c = tau_ext[keep]
    predicted = np.sqrt(4.0 * eps * np.interp(tau_c, tau_avg, r_avg))
    rel = np.abs(env[keep] - predicted) / predicted
    return {
        "max_rel_err": float(rel.max()),
        "mean_rel_err": float(rel.mean()),
        "n_extrema": int(keep.sum()),
        "window": (float(lo), float(hi)),
        "tau": tau_c,
        "envelope": env[keep],
        "predicted": predicted,
        "rel_err": rel,
    }
