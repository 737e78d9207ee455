"""Deterministic adaptive integration and fixed-step Ito integration.

The adaptive side wraps an embedded Runge-Kutta pair with dense output.
The stochastic side is Euler-Maruyama with counter-based noise streams:
the increments for (master_seed, path_index) are reproducible across
runs, platforms and block widths, and distinct path indices give
statistically independent streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

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

    An Euler-Maruyama path that leaves the finite range is truncated at its
    last finite sample and flagged: escape is data, not failure.  Adaptive
    runs are never truncated; they raise IntegrationError instead.
    """

    times: np.ndarray
    states: np.ndarray
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


def _solve(field_fn: Callable, y0: np.ndarray, tau0: float, tau1: float,
           tol: float, t_eval):
    """One checked DOP853 run; returns (times, (len(y0), n) values).

    A failed run or non-finite output raises IntegrationError with the
    time reached.  tau1 may lie below tau0 for a backward run."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    # a blow-up is reported below with its location, so numpy's overflow
    # and invalid-value warnings on the way there add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(field_fn, (tau0, tau1), y0, method="DOP853",
                        rtol=tol, atol=tol, t_eval=t_eval, dense_output=False)
    if not sol.success:
        # sol.t is an empty list when the run fails before any t_eval sample
        reached = float(sol.t[-1]) if len(sol.t) else tau0
        raise IntegrationError(f"adaptive solver failed: {sol.message}", reached)
    finite = np.isfinite(sol.y).all(axis=0)
    if not finite.all():
        raise IntegrationError("adaptive solver left the finite range",
                               float(sol.t[np.argmin(finite)]))
    return sol.t, sol.y


def _check_window(tau0: float, tau1: float):
    if not tau1 > tau0:
        raise ValueError(f"tau1 must exceed tau0, got [{tau0}, {tau1}]")


def integrate_ode(field_fn: Callable, x0, tau0: float, tau1: float,
                  tol: float = 1e-10, t_eval=None) -> Trajectory:
    """DOP853 integration of dx/dtau = field_fn(tau, x) over [tau0, tau1].

    Dense output is evaluated at t_eval when given, otherwise at the
    solver's own accepted steps.  Raises IntegrationError on step-size
    underflow or non-finite output, reporting how far the solver got.
    """
    _check_window(tau0, tau1)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times, values = _solve(field_fn, x0, tau0, tau1, tol, t_eval)
    return Trajectory(times=times, states=values.T)


_BATCH_TOL = 1e-10  # per-member tolerance of integrate_ode_batch


def integrate_ode_batch(field_fn: Callable, x0s, tau0: float, tau1: float,
                        t_eval=None) -> list:
    """Integrate m starts of one field as a single stacked DOP853 system.

    x0s has shape (m, d).  The m states are stacked component-major into
    one vector of length d*m, and field_fn(tau, y) is called with y of
    shape (d, m), so a field written with array operations (rhs_primary)
    serves every member in one call; it returns d arrays of length m.
    One adaptive run with shared steps replaces m runs, and the result is
    split into m Trajectory objects.  Nothing is truncated: a failed run
    or non-finite output raises IntegrationError, and a member that blows
    up makes the shared run fail where its solo run would.

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
    error of its solo solve.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.size == 0:
        raise ValueError(f"x0s must be a non-empty (m, d) array, got shape "
                         f"{x0s.shape}")
    _check_window(tau0, tau1)
    m, d = x0s.shape

    def stacked(t, y):
        return np.asarray(field_fn(t, y.reshape(d, m)), dtype=float).ravel()

    times, values = _solve(stacked, x0s.T.ravel(), tau0, tau1,
                           _BATCH_TOL / math.sqrt(m), t_eval)
    # member k's components sit at rows k, m + k, ...; views, no copies
    return [Trajectory(times=times, states=values[k::m].T) for k in range(m)]


@dataclass(frozen=True)
class NoiseStream:
    """Counter-based noise stream identity: (master_seed, path_index).

    Increment k of path j depends only on (master_seed, j, k), so paths
    can be generated in any order, in blocks of any width, with identical
    output.
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


def step_grid(tau0: float, tau1: float, dt: float):
    """Euler-Maruyama step grid (tau_at, tau_next, h): per step its start
    and end time and its size; the last step ends exactly at tau1."""
    n_steps = sde_step_count(tau0, tau1, dt)
    k = np.arange(n_steps)
    tau_at = tau0 + k * dt
    tau_next = np.minimum(tau0 + (k + 1) * dt, tau1)
    tau_next[-1] = tau1
    return tau_at, tau_next, tau_next - tau_at


def default_dt(mu: float) -> float:
    """Step size keeping the noise-term discretization below drift error."""
    if mu >= 0.05:
        return 1e-3
    return min(1e-3, mu * mu / 10.0)


NOISE_BUDGET = 4 << 20  # bytes of noise increments drawn per chunk
N_CHANNELS = 2          # Wiener channels per path
N_SCRATCH = 3           # work rows em_paths lends to terms


def chunk_steps(m: int) -> int:
    """Steps per noise chunk for m paths: NOISE_BUDGET bytes of float64
    increments, at least one step."""
    return max(1, NOISE_BUDGET // (N_CHANNELS * 8 * m))


@np.errstate(over="ignore", invalid="ignore")  # escape is data
def em_paths(terms: Callable, x: np.ndarray, grid, dt: float, mu,
             streams, observe: Callable,
             ball_radius: float = 0.0) -> np.ndarray:
    """Euler-Maruyama steps of dx = f dtau + mu G dW (Ito) for m paths.

    x is the (d, m) start state and is advanced in place over grid, a
    step_grid result.  terms(k, x, w, f, gw, scratch) writes the drift f
    and the product G w at step k into f and gw and returns nothing.  Its
    arguments are rows of length m: d each of the state x and of f and
    gw, N_CHANNELS of increments w, and N_SCRATCH work rows in scratch.
    em_paths allocates these buffers once per call and terms must not
    keep them.  mu is one amplitude for every path or an array of m, one
    per path.

    m is a multiple of len(streams) = n, and path c draws from streams[c %
    n]: each stream is drawn once and its draws are copied into its m/n
    paths, which can differ only in mu.  A stream gives two uniforms for
    a start in the disc of radius ball_radius around x when ball_radius >
    0, then its increments in chunks of chunk_steps(m) steps, first
    channel then second per step.  A step shorter than dt rescales its
    increment variance to its length.

    A step that leaves the finite range is not applied and ends that
    path; the overflow on the way is data, so numpy does not warn of it.
    observe(k, x, moved) sees the start state as step -1 and then the
    state after every step k, with moved the mask of paths that took the
    step, or True when every path did; it may return a mask of paths to
    stop.  x is an em_paths buffer that the next step overwrites, so an
    observer copies what it keeps.  Stepping ends once no path is
    active.  Returns, per path, the end time of the step at which it left
    the finite range (NaN if it never did).
    """
    _, tau_next, h = grid
    n_steps = h.size
    m, n = x.shape[1], len(streams)
    if m % n:
        raise ValueError(f"{m} paths do not share {n} streams evenly")
    rngs = [s.generator() for s in streams]
    if ball_radius > 0:
        # ball start draws come first from each stream
        offset = np.empty((2, n))
        for i, rng in enumerate(rngs):
            u, ang = rng.uniform(size=2)
            rad = ball_radius * math.sqrt(u)
            offset[0, i] = rad * math.cos(2 * math.pi * ang)
            offset[1, i] = rad * math.sin(2 * math.pi * ang)
        x += np.tile(offset, m // n)
    sqrt_dt = math.sqrt(dt)
    active = np.ones(m, dtype=bool)
    n_active = m
    escaped_at = np.full(m, np.nan)
    observe(-1, x, True)
    x_out = x
    x_new, f, gw = (np.empty_like(x) for _ in range(3))
    # row views made once: terms reads and writes rows, the update whole
    # arrays, and x swaps with x_new instead of being copied
    x_rows, new_rows = tuple(x), tuple(x_new)
    f_rows, gw_rows = tuple(f), tuple(gw)
    scratch = tuple(np.empty((N_SCRATCH, m)))
    chunk = chunk_steps(m)
    dw_buf = np.empty((min(chunk, n_steps), N_CHANNELS, m))
    k0 = 0
    while k0 < n_steps and n_active:
        k1 = min(k0 + chunk, n_steps)
        dw = dw_buf[:k1 - k0]
        drawn = dw[:, :, :n]
        for i, rng in enumerate(rngs):
            drawn[:, :, i] = rng.standard_normal((k1 - k0, N_CHANNELS))
        drawn *= sqrt_dt
        # exactly 1.0 where h == dt, so one multiply per chunk rescales
        # the shorter steps and leaves every other increment as drawn
        drawn *= np.sqrt(h[k0:k1] / dt)[:, None, None]
        # path c >= n repeats the increments of path c % n
        dw.reshape(k1 - k0, N_CHANNELS, m // n, n)[:, :, 1:] = \
            drawn[:, :, None]
        for k in range(k0, k1):
            terms(k, x_rows, dw[k - k0], f_rows, gw_rows, scratch)
            # x_new = (x + f h) + mu G w, rounded in that order
            f *= h[k]
            np.add(x, f, out=x_new)
            gw *= mu
            x_new += gw
            if n_active == m and math.isfinite(x_new.sum()):
                # the common case: a finite sum has no inf or NaN term
                moved = True
                x, x_new = x_new, x
                x_rows, new_rows = new_rows, x_rows
            else:
                moved = active & np.isfinite(x_new).all(axis=0)
                np.copyto(x, x_new, where=moved)
                n_moved = int(np.count_nonzero(moved))
                if n_moved < n_active:
                    escaped_at[active & ~moved] = tau_next[k]
                    active, n_active = moved, n_moved
            stop = observe(k, x, moved)
            if stop is not None:
                active = active & ~stop
                n_active = int(np.count_nonzero(active))
            if not n_active:
                break
        k0 = k1
    if x is not x_out:
        np.copyto(x_out, x)
    return escaped_at


def integrate_sde(make_terms: Callable, x0, tau0: float, tau1: float,
                  dt: float, mu: float, stream: NoiseStream,
                  record_every: int = 1) -> Trajectory:
    """Euler-Maruyama path of dx = f dt + mu G dW in the Ito sense.

    make_terms(tau_at) gets the step start times of step_grid(tau0, tau1,
    dt), built here, and returns terms(k, x, w, f, gw, scratch) writing f
    and G w as in em_paths; partial(model.perturbed_terms, p, noise) is
    the perturbed system's.  This is em_paths for one path, recording
    every record_every-th step and the last, so the path for stream
    (master_seed, j) is bitwise path j of an ensemble with the same
    start.  The end time is hit exactly via a shorter final step.  A
    non-finite state truncates the path and flags the trajectory.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not (0 <= mu < 1):
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    grid = step_grid(tau0, tau1, dt)
    terms = make_terms(grid[0])
    n_steps = grid[0].size
    x = np.atleast_1d(np.asarray(x0, dtype=float))[:, None].copy()
    times, states = [], []

    def record(k, x, moved):
        if ((k + 1) % record_every == 0 or k == n_steps - 1) and (
                moved is True or moved[0]):
            times.append(grid[1][k] if k >= 0 else tau0)
            states.append(x[:, 0].copy())

    escaped_at = em_paths(terms, x, grid, dt, mu, [stream], record)
    return Trajectory(times=np.array(times), states=np.array(states),
                      truncated=not math.isnan(escaped_at[0]))


# reference build settings, see reference_solution
REF_K, REF_TAU_SEED, REF_SEED_RESIDUAL_TOL = 3, 100.0, 1e-5
REF_TOL, REF_TAU_MIN, REF_TAU_MAX, REF_GRID_STEP = 1e-12, 5.0, 400.0, 0.05


class ReferenceSolution:
    """Captured reference solution (r*, psi*) on a dense grid.

    Built by seeding the truncated series at a large time and sharpening
    it with the flow: tight-tolerance integration backward to tau_min and
    forward to tau_max, cached on a uniform grid with cubic interpolation.
    Read-only after construction, and shared: reference_solution hands
    one object to every caller with the same params.  Interpolation
    reproduces grid nodes exactly.

    The phase approaches psi0 = pi - arcsin(gamma) like psi0 - 1/(nu*tau),
    nu = sqrt(1 - gamma^2): with gamma = 0.1 it is 0.17 away at tau_min = 5
    and inside 0.1 only from tau ~ 9.
    """

    def __init__(self, times: np.ndarray, r_values: np.ndarray,
                 psi_values: np.ndarray):
        self.tau_min = float(times[0])
        self.tau_max = float(times[-1])
        self._spline_r = CubicSpline(times, r_values)
        self._spline_psi = CubicSpline(times, psi_values)

    def state(self, tau):
        """(r*, psi*) at tau; accepts arrays; errors outside the domain."""
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < self.tau_min - 1e-12) or np.any(tau > self.tau_max + 1e-12):
            raise ValueError(
                f"tau outside reference domain [{self.tau_min}, {self.tau_max}]")
        return self._spline_r(tau), self._spline_psi(tau)


@functools.lru_cache(maxsize=8)
def reference_solution(params: SystemParams) -> ReferenceSolution:
    """The captured reference solution for the stable branch.

    The order-REF_K series at REF_TAU_SEED must leave an equation residual
    below REF_SEED_RESIDUAL_TOL (checked, not assumed).  Both legs, back to
    REF_TAU_MIN = 5 and on to REF_TAU_MAX = 400, run through _solve at
    REF_TOL, sampled every REF_GRID_STEP, so a failed or non-finite leg
    raises IntegrationError.  The domain includes the approach to the lock
    (see ReferenceSolution).

    The build is deterministic, so it runs once per SystemParams per
    process: equal params return the same object, which every caller
    shares and none may change.  A build that raises is not kept.
    reference_solution.__wrapped__ builds afresh.
    """
    exp = asymptotics.expand(params, asymptotics.STABLE, REF_K)
    res = asymptotics.residual(exp, params, REF_TAU_SEED)
    res_norm = float(np.hypot(res[0], res[1]))
    if res_norm > REF_SEED_RESIDUAL_TOL:
        raise ValueError(
            f"series residual {res_norm:.3e} at tau_seed={REF_TAU_SEED} "
            f"exceeds {REF_SEED_RESIDUAL_TOL:.3e}")
    r0, psi0 = asymptotics.evaluate(exp, params, REF_TAU_SEED)
    y_seed = np.array([float(r0), float(psi0)])

    def field(tau, y):
        return rhs_primary(y, tau, params)

    def leg(tau_end):
        n = int(round(abs(tau_end - REF_TAU_SEED) / REF_GRID_STEP)) + 1
        return _solve(field, y_seed, REF_TAU_SEED, tau_end, REF_TOL,
                      np.linspace(REF_TAU_SEED, tau_end, n))

    t_b, y_b = leg(REF_TAU_MIN)
    t_f, y_f = leg(REF_TAU_MAX)
    times = np.concatenate([t_b[::-1], t_f[1:]])
    r_vals = np.concatenate([y_b[0][::-1], y_f[0][1:]])
    psi_vals = np.concatenate([y_b[1][::-1], y_f[1][1:]])
    return ReferenceSolution(times, r_vals, psi_vals)
