"""Deterministic adaptive integration and fixed-step Ito integration.

The adaptive side wraps an embedded Runge-Kutta pair with dense output.
The stochastic side is Euler-Maruyama with counter-based noise streams:
the increments for (master_seed, path_index) are reproducible across
runs, platforms, and thread counts, and distinct path indices give
statistically independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from . import asymptotics
from .model import SystemParams, rhs_primary


class IntegrationError(RuntimeError):
    """Adaptive step-size underflow or a failed solver run, with location."""

    def __init__(self, message: str, tau: float):
        super().__init__(f"{message} (at tau={tau:.6g})")
        self.tau = tau


@dataclass
class Trajectory:
    """Sampled path: strictly increasing times, one state row per time.

    A path that leaves the finite range is truncated at its last finite
    sample and flagged; truncation is data (escape happens), not failure.
    """

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)
    truncated: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.shape[0] != self.times.shape[0]:
            raise ValueError("times and states must have matching leading length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times must be finite")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states must be finite; truncate before construction")


def _truncate_finite(times: np.ndarray, states: np.ndarray):
    """Drop everything at and after the first non-finite sample."""
    finite = np.all(np.isfinite(states), axis=tuple(range(1, states.ndim)))
    if finite.all():
        return times, states, False
    last = int(np.argmin(finite))  # first False
    return times[:last], states[:last], True


def _solve(field_fn: Callable, y0: np.ndarray, tau0: float, tau1: float,
           tol: float, t_eval, method: str):
    """One checked adaptive run; returns (times, (len(y0), n) values, nfev)."""
    if not tau1 > tau0:
        raise ValueError(f"tau1 must exceed tau0, got [{tau0}, {tau1}]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    sol = solve_ivp(field_fn, (tau0, tau1), y0, method=method,
                    rtol=tol, atol=tol, t_eval=t_eval, dense_output=False)
    if not sol.success:
        reached = float(sol.t[-1]) if sol.t.size else tau0
        raise IntegrationError(f"adaptive solver failed: {sol.message}", reached)
    return sol.t, sol.y, int(sol.nfev)


def _trajectory(times, states, meta: dict) -> Trajectory:
    times, states, truncated = _truncate_finite(times, states)
    return Trajectory(times=times, states=states, truncated=truncated,
                      meta=meta)


def integrate_ode(field_fn: Callable, x0, tau0: float, tau1: float,
                  tol: float = 1e-10, t_eval=None,
                  method: str = "DOP853") -> Trajectory:
    """Adaptive integration of dx/dtau = field_fn(tau, x) over [tau0, tau1].

    Dense output is evaluated at t_eval when given, otherwise at the
    solver's own accepted steps.  Raises IntegrationError on step-size
    underflow, reporting how far the solver got.  The solver's count of
    field evaluations is kept as meta["nfev"].
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times, values, nfev = _solve(field_fn, x0, tau0, tau1, tol, t_eval,
                                 method)
    return _trajectory(times, values.T, {"integrator": method, "tol": tol,
                                         "seed": "deterministic",
                                         "nfev": nfev})


_BATCH_TOL = 1e-10  # per-member tolerance of integrate_ode_batch


def integrate_ode_batch(field_fn: Callable, x0s, tau0: float, tau1: float,
                        t_eval=None) -> list:
    """Integrate m starts of one field as a single stacked DOP853 system.

    x0s has shape (m, d).  The m states are stacked component-major into
    one vector of length d*m, and field_fn(tau, y) is called with y of
    shape (d, m), so a field written with array operations (rhs_primary)
    serves every member in one call; it returns d arrays of length m.
    One adaptive run with shared steps replaces m runs, and the result is
    split into m Trajectory objects, each truncated at its own first
    non-finite sample.  A failed run raises IntegrationError; a member
    that blows up makes the shared run fail where its solo run would.

    The run uses rtol = atol = tol/sqrt(m) with tol = 1e-10.  For a solver that
    accepts a step when the RMS over all d*m components of
    error/(atol + rtol*|y|) is at most 1 (Hairer, Norsett & Wanner,
    Solving ODEs I), the scaled tolerance reads: the sum of squared
    scaled errors over all components is at most d.  One member's share
    of that sum is at most the whole, so its own RMS over d components is
    at most 1, the test a solo run at tol applies.  DOP853 does not
    use a plain RMS norm: it blends a 5th- and a 3rd-order estimate, and
    a large 3rd-order estimate from one member can shrink the blended
    norm, so the rule is not exact there.  It is checked by measurement
    instead: tests/test_integrators.py holds each member within 2x the
    error of its solo solve.  Each member's meta["nfev"] is the shared
    count of the run.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.size == 0:
        raise ValueError(f"x0s must be a non-empty (m, d) array, got shape "
                         f"{x0s.shape}")
    m, d = x0s.shape

    def stacked(t, y):
        return np.asarray(field_fn(t, y.reshape(d, m)), dtype=float).ravel()

    times, values, nfev = _solve(stacked, x0s.T.ravel(), tau0, tau1,
                                 _BATCH_TOL / math.sqrt(m), t_eval, "DOP853")
    meta = {"integrator": "DOP853", "tol": _BATCH_TOL,
            "seed": "deterministic", "nfev": nfev}
    # member k's components sit at rows k, m + k, ...; views, no copies
    return [_trajectory(times, values[k::m].T, dict(meta))
            for k in range(m)]


@dataclass(frozen=True)
class NoiseStream:
    """Counter-based noise stream identity: (master_seed, path_index).

    Increment k of path j depends only on (master_seed, j, k), so paths
    can be generated in any order, on any thread, with identical output.
    """

    master_seed: int
    path_index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=[self.master_seed, self.path_index]))


def sde_step_count(tau0: float, tau1: float, dt: float) -> int:
    """Number of Euler-Maruyama steps, last partial step included."""
    span = tau1 - tau0
    n = int(math.floor(span / dt + 1e-12))
    if tau0 + n * dt < tau1 - 1e-12 * max(1.0, abs(tau1)):
        n += 1
    return n


def default_dt(mu: float) -> float:
    """Step size keeping the noise-term discretization below drift error."""
    if mu >= 0.05:
        return 1e-3
    return min(1e-3, mu * mu / 10.0)


def integrate_sde(drift: Callable, diffusion: Callable, x0, tau0: float,
                  tau1: float, dt: float, mu: float, stream: NoiseStream,
                  dW: Optional[np.ndarray] = None,
                  record_every: int = 1) -> Trajectory:
    """Euler-Maruyama path of dx = f dt + mu G dW in the Ito sense.

    drift(tau, x) returns the drift vector; diffusion(tau, x) the matrix
    G multiplying the Wiener increments.  Per step the two increments are
    drawn in fixed order (first channel, then second) from the stream;
    a precomputed dW array of shape (n_steps, m) overrides the stream so
    coupled-refinement studies can share one noise realization.  The end
    time is hit exactly via a shorter final step.  A non-finite state
    truncates the path and flags the trajectory.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not (0 <= mu < 1):
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    dim = x.size
    n_steps = sde_step_count(tau0, tau1, dt)
    n_channels = np.atleast_2d(np.asarray(diffusion(tau0, x))).shape[1]
    if dW is None:
        rng = stream.generator()
        dW = rng.standard_normal((n_steps, n_channels)) * math.sqrt(dt)
    else:
        dW = np.asarray(dW, dtype=float)
        if dW.shape != (n_steps, n_channels):
            raise ValueError(f"dW must have shape {(n_steps, n_channels)}, got {dW.shape}")

    times = [tau0]
    states = [x.copy()]
    tau = tau0
    truncated = False
    for k in range(n_steps):
        h = min(dt, tau1 - tau)
        if h <= 0:
            break
        f = np.asarray(drift(tau, x), dtype=float)
        G = np.atleast_2d(np.asarray(diffusion(tau, x), dtype=float))
        # partial last step rescales the increment variance to h
        w = dW[k] if h == dt else dW[k] * math.sqrt(h / dt)
        x = x + f * h + mu * (G @ w)
        tau = tau1 if k == n_steps - 1 else tau0 + (k + 1) * dt
        if not np.all(np.isfinite(x)):
            truncated = True
            break
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            times.append(tau)
            states.append(x.copy())
    return Trajectory(times=np.array(times), states=np.array(states),
                      truncated=truncated,
                      meta={"integrator": "euler-maruyama", "dt": dt, "mu": mu,
                            "seed": stream.master_seed,
                            "path_index": stream.path_index})


class ReferenceSolution:
    """Captured reference solution (r*, psi*) on a dense grid.

    Built by seeding the truncated series at a large time and sharpening
    it with the flow: tight-tolerance integration backward to tau_min and
    forward to tau_max, cached on a uniform grid with cubic interpolation.
    Read-only after construction; interpolation reproduces grid nodes
    exactly.

    The phase approaches psi0 = pi - arcsin(gamma) like psi0 - 1/(nu*tau),
    nu = sqrt(1 - gamma^2): with gamma = 0.1 it is 0.17 away at the default
    tau_min = 5 and inside 0.1 only from tau ~ 9.
    """

    def __init__(self, params: SystemParams, expansion, times: np.ndarray,
                 r_values: np.ndarray, psi_values: np.ndarray, meta: dict):
        self.params = params
        self.expansion = expansion
        self.times = times
        self.r_values = r_values
        self.psi_values = psi_values
        self.meta = meta
        self.tau_min = float(times[0])
        self.tau_max = float(times[-1])
        self._spline_r = CubicSpline(times, r_values)
        self._spline_psi = CubicSpline(times, psi_values)

    def _check_domain(self, tau):
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < self.tau_min - 1e-12) or np.any(tau > self.tau_max + 1e-12):
            raise ValueError(
                f"tau outside reference domain [{self.tau_min}, {self.tau_max}]")
        return tau

    def state(self, tau):
        """(r*, psi*) at tau; accepts arrays; errors outside the domain."""
        tau = self._check_domain(tau)
        return self._spline_r(tau), self._spline_psi(tau)

    def derivative(self, tau):
        """Exact time derivative via the governing equations (no spline noise)."""
        tau = self._check_domain(tau)
        return rhs_primary(self.state(tau), tau, self.params)


def reference_solution(params: SystemParams, K: int = 3,
                       tau_seed: float = 100.0, tol: float = 1e-12,
                       tau_min: float = 5.0, tau_max: float = 400.0,
                       seed_residual_tol: float = 1e-5,
                       grid_step: float = 0.05) -> ReferenceSolution:
    """Build the captured reference solution for the stable branch.

    The series truncation at tau_seed must have equation residual below
    seed_residual_tol (checked, not assumed; the integration tolerance
    tol is far below what any practical truncation can reach, so the two
    thresholds are separate knobs).  Integration runs backward from
    tau_seed to tau_min and forward to tau_max at tolerance tol.

    The default domain [5, 400] includes the approach to the lock: the
    phase follows psi0 - 1/(nu*tau), 0.17 from psi0 at tau_min = 5 and
    inside 0.1 only from tau ~ 9 (see ReferenceSolution).
    """
    if not (tau_min < tau_seed < tau_max):
        raise ValueError("need tau_min < tau_seed < tau_max")
    exp = asymptotics.expand(params, asymptotics.STABLE, K)
    res = asymptotics.residual(exp, params, tau_seed)
    res_norm = float(np.hypot(res[0], res[1]))
    if res_norm > seed_residual_tol:
        raise ValueError(
            f"series residual {res_norm:.3e} at tau_seed={tau_seed} exceeds "
            f"{seed_residual_tol:.3e}; increase K or tau_seed")
    r0, psi0 = asymptotics.evaluate(exp, params, tau_seed)
    y_seed = np.array([float(r0), float(psi0)])

    def field(tau, y):
        dr, dpsi = rhs_primary(y, tau, params)
        return (dr, dpsi)

    n_back = max(2, int(round((tau_seed - tau_min) / grid_step)) + 1)
    t_back = np.linspace(tau_seed, tau_min, n_back)
    sol_b = solve_ivp(field, (tau_seed, tau_min), y_seed, method="DOP853",
                      rtol=tol, atol=tol, t_eval=t_back)
    if not sol_b.success or not np.all(np.isfinite(sol_b.y)):
        reached = float(sol_b.t[-1]) if sol_b.t.size else tau_seed
        raise IntegrationError("backward reference integration lost stability",
                               reached)
    n_fwd = max(2, int(round((tau_max - tau_seed) / grid_step)) + 1)
    t_fwd = np.linspace(tau_seed, tau_max, n_fwd)
    sol_f = solve_ivp(field, (tau_seed, tau_max), y_seed, method="DOP853",
                      rtol=tol, atol=tol, t_eval=t_fwd)
    if not sol_f.success or not np.all(np.isfinite(sol_f.y)):
        reached = float(sol_f.t[-1]) if sol_f.t.size else tau_seed
        raise IntegrationError("forward reference integration failed", reached)

    times = np.concatenate([sol_b.t[::-1], sol_f.t[1:]])
    r_vals = np.concatenate([sol_b.y[0][::-1], sol_f.y[0][1:]])
    psi_vals = np.concatenate([sol_b.y[1][::-1], sol_f.y[1][1:]])
    meta = {"K": K, "tau_seed": tau_seed, "tol": tol,
            "seed_residual": res_norm, "grid_step": grid_step,
            "integrator": "DOP853"}
    return ReferenceSolution(params, exp, times, r_vals, psi_vals, meta)
