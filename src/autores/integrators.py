"""Deterministic adaptive integration and fixed-step Ito integration.

The adaptive side takes the steps of the embedded Runge-Kutta pair DOP853,
with dense output, as scipy's solve_ivp takes them: the tableau is a
verbatim copy of scipy's (dop853_coefficients), and the start, the step and
the interpolant are ports of scipy's code that keep its numpy calls (its
sums as ndarray.dot, np.dot's routine without the dispatcher), so a run
gives solve_ivp's bits.  A field gets its state in a buffer the driver
rewrites, valid only during the call, and neither keeps nor writes it.  The
driver runs forward only; a backward run is the forward run of the
time-reversed field.  The reference solution is its own series above a
switch time, and below it a not-a-knot cubic spline through one backward
leg, built and evaluated as scipy's CubicSpline does, its one linear
solve scipy.linalg.solve_banded.  The stochastic side is
Euler-Maruyama with counter-based noise streams: the increments for
(master_seed, path_index) are reproducible across runs, platforms and block
widths, and distinct path indices give statistically independent streams.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from . import asymptotics, model
from . import dop853_coefficients as dop853
from .model import SystemParams


class IntegrationError(RuntimeError):
    """A failed adaptive run, located: tau is where the solver stopped,
    with scipy's message, when a step would fall below ten spacings of
    floating-point numbers at tau (the one way a DOP853 step fails), or
    the first sample of output that left the finite range.  An exception
    raised by the field itself passes through unchanged."""

    def __init__(self, message: str, tau: float):
        super().__init__(f"{message} (at tau={tau:.6g})")
        self.message, self.tau = message, tau


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


# accepted steps whose interpolants _solve evaluates together: 16 stage
# rows of n values a step, not its 7 coefficient rows, 512 kB at fig1's
# 64 components; all of a run's steps would hold megabytes
DENSE_PIECE = 64

# scipy's step-size control for its Runge-Kutta pairs: the safety factor,
# the bounds on one step's change and DOP853's error exponent -1/(7 + 1)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_ORDER = 7  # the order of DOP853's error estimate
ERROR_EXPONENT = -1 / (ERROR_ORDER + 1)
# scipy's OdeSolver message for a step below ten spacings of t
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
RTOL_MIN = 100 * np.finfo(float).eps  # scipy's floor on rtol


def _solve(field_fn: Callable, y0: np.ndarray, tau0: float, tau1: float,
           tol: float, t_eval, max_steps=math.inf):
    """One checked DOP853 run forward from tau0 to tau1 > tau0; returns
    (times, (len(y0), n) values) at the n samples of t_eval, which
    increase strictly inside the window.

    The run is scipy's DOP853 at rtol = atol = tol with solve_ivp's
    sampling rules, and it returns solve_ivp's bits (tests/oracles.py
    keeps solve_ivp's run as the oracle).  tol must be at least RTOL_MIN,
    scipy's floor on rtol, so the run is at the tol it was given.
    _dop853_start does what scipy's DOP853 constructor does: it checks
    y0, evaluates the field at tau0 and picks the first step.  The stage
    buffer is the constructor's K_extended, one row per stage of the
    extended tableau, and _dop853_steps takes the steps.  Each step that
    covers samples runs the extended tableau's three extra stages and
    keeps its stage buffer with the samples it covers; _dense_values
    forms the interpolants' coefficients and evaluates them DENSE_PIECE
    steps at once.

    A failed run raises IntegrationError at the time the solver stopped,
    with scipy's message; non-finite output raises it at the first
    non-finite sample, and at the end of the last step allowed if the
    run needs more than max_steps accepted steps.  _check_window refuses
    tau1 <= tau0: a backward run is _solve_backward's.

    field_fn gets y in a buffer the driver rewrites (_run_stages), valid
    during the call only, and neither keeps nor writes it.  It may return
    one buffer rewritten on every call: the driver copies each value into
    its stage buffer before the next call, and f0 (_dop853_start), the
    one value it holds across a second call, is a copy."""
    if not tol >= RTOL_MIN:
        raise ValueError(f"tol must be at least RTOL_MIN = {RTOL_MIN:.3g}, "
                         f"got {tol}")
    if y0.size == 0:
        raise ValueError("y0 must not be empty")
    tau0, tau1 = float(tau0), float(tau1)
    _check_window(tau0, tau1)
    times = np.asarray(t_eval, dtype=float)
    if (times.ndim != 1 or not ((tau0 <= times) & (times <= tau1)).all()
            or not (np.diff(times) > 0).all()):
        raise ValueError(f"t_eval must be a 1-d array increasing strictly "
                         f"inside {[tau0, tau1]}")
    values = np.empty((y0.size, times.size))
    # the samples times[:j] lie at or before the solver's time t for
    # j = bisect_right(keys, t)
    keys = times.tolist()
    j, piece = 0, []
    # a blow-up is reported below with its location, so numpy's reports
    # of overflow and invalid values on the way there add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        y0, f0, h_abs = _dop853_start(field_fn, tau0, y0, tau1, tol)
        K = np.empty((dop853.N_STAGES_EXTENDED, y0.size))
        K[0] = f0
        y_s = np.empty(y0.size)  # the stage state handed to field_fn
        first = dop853.N_STAGES + 1
        extra = _stages(K, dop853.A[first:], dop853.C[first:], first)
        Ks = np.empty((DENSE_PIECE,) + K.shape)  # a piece's stage buffers
        steps = _dop853_steps(field_fn, K, tau0, y0, tau1, h_abs, tol, y_s)
        for n, (t_old, y_old, t, y, h) in enumerate(steps, 1):
            if n > max_steps:
                raise IntegrationError(f"adaptive solver needs more than "
                                       f"{max_steps} steps", t_old)
            j_new = bisect.bisect_right(keys, t)
            if j_new > j:
                _run_stages(field_fn, K, extra, t_old, y_old, h, y_s)
                Ks[len(piece)] = K
                piece.append((t_old, h, y_old, y, j, j_new))
                j = j_new
                if len(piece) == DENSE_PIECE:
                    _dense_values(piece, Ks, times, values)
                    piece = []
        if piece:
            _dense_values(piece, Ks, times, values)
    # the last step ends on tau1, so every sample is covered
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        raise IntegrationError("adaptive solver left the finite range",
                               float(times[np.argmin(finite)]))
    return times, values


def _dop853_start(fun: Callable, t0: float, y0, t_bound: float, tol: float):
    """The start of a DOP853 run from (t0, y0) forward to t_bound > t0, as
    scipy's DOP853(fun, t0, y0, t_bound, rtol=tol, atol=tol) constructor
    makes it (OdeSolver, RungeKutta and check_arguments): y0 as a checked
    float64 vector, f0 = fun(t0, y0) as a float64 copy, and the first
    step size.

    The size is scipy's select_initial_step (Hairer, Norsett & Wanner,
    Solving ODEs I, Sec. II.4), ported line for line with DOP853's error
    order and no bound on the step; it calls fun once more, at the trial
    step.  The numpy calls and their order are scipy's, its RMS norm
    included, so the size keeps its bits.  Returns (y0, f0, h_abs)."""
    y0 = np.asarray(y0).astype(float, copy=False)
    if y0.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y0).all():
        raise ValueError(
            "All components of the initial state `y0` must be finite.")
    # a copy: the trial step's call may rewrite fun's buffer (_solve)
    f0 = np.array(fun(t0, y0), dtype=float)
    interval_length = t_bound - t0
    scale = tol + np.abs(y0) * tol
    root_n = y0.size ** 0.5
    d0 = np.linalg.norm(y0 / scale) / root_n
    d1 = np.linalg.norm(f0 / scale) / root_n
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    # the trial step stays inside [t0, t_bound]
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = np.asarray(fun(t0 + h0, y1), dtype=float)
    d2 = np.linalg.norm((f1 - f0) / scale) / root_n / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ORDER + 1))

    return y0, f0, min(100 * h0, h1, interval_length)


def _stages(K: np.ndarray, A: np.ndarray, C: np.ndarray, first: int) -> list:
    """(s, K[:s].T, a[:s], c) for the stages s = first, first + 1, ... of
    the tableau rows A and nodes C: views into K and the node as a Python
    float, made once per run, not once per stage."""
    return [(s, K[:s].T, a[:s], float(c))
            for s, (a, c) in enumerate(zip(A, C), start=first)]


def _run_stages(fun: Callable, K: np.ndarray, stages: list, t: float,
                y: np.ndarray, h: float, y_s: np.ndarray):
    """K[s] = fun(t + c h, y + np.dot(K[:s].T, a) * h) for the stages
    (_stages), scipy's bits: fun gets the state in the buffer y_s, formed
    as K[:s].T.dot(a) * h + y, since IEEE addition commutes.  ndarray.dot
    is np.dot's routine without the dispatcher: the same BLAS call."""
    for s, K_s, a, c in stages:
        K_s.dot(a, y_s)
        y_s *= h
        y_s += y
        K[s] = fun(t + c * h, y_s)


def _dop853_steps(fun: Callable, K: np.ndarray, t: float, y: np.ndarray,
                  t_bound: float, h_abs, tol: float, y_s: np.ndarray):
    """The accepted steps of the DOP853 run from (t, y) forward to t_bound at
    first step size h_abs and rtol = atol = tol, as (t_old, y_old, t, y,
    h).  K is the stage buffer, with f(t, y) in K[0]; it holds the step's
    stages until the next step is asked for, y_s each stage's state.

    A step is scipy's (RungeKutta._step_impl, rk_step and DOP853's error
    norm): the same stage times, field calls, rejections and step-size
    updates, so the same bits.  The tableau is read from
    dop853_coefficients, sliced as scipy's DOP853 class slices it.  Every
    numpy operation whose rounding matters stays the numpy call scipy
    makes, with the same shapes: each stage sum np.dot(K[:s].T, a) * h,
    the solution update, the error scale and the error vectors.  The
    stage sums cannot become Python sums, since BLAS's dot does not round
    as a sequential sum does.  What goes is overhead: each sum is
    ndarray.dot, np.dot's routine without its Python-level dispatcher,
    the field is called directly, not through scipy's counting and
    asarray wrappers, the stage views are made once (_stages), |y_new|
    is kept as the next step's |y|, the error norms are np.linalg.norm's
    sqrt(v.dot(v)) without its checks, and t, h and the step control are
    Python floats, which round as numpy's scalars do.

    A step size below ten spacings of t raises IntegrationError with
    scipy's message at t."""
    n_stages = dop853.N_STAGES
    stages = _stages(K, dop853.A[1:n_stages], dop853.C[1:n_stages], 1)
    K_B, K_E = K[:n_stages].T, K[:n_stages + 1].T
    B, E3, E5 = dop853.B, dop853.E3, dop853.E5
    h_abs, n = float(h_abs), y.size
    abs_y = np.abs(y)
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    f"adaptive solver failed: {TOO_SMALL_STEP}", t)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            _run_stages(fun, K, stages, t, y, h, y_s)
            y_new = y + h * K_B.dot(B)
            K[n_stages] = fun(t + h, y_new)
            abs_new = np.abs(y_new)
            scale = tol + np.maximum(abs_y, abs_new) * tol
            v5, v3 = K_E.dot(E5) / scale, K_E.dot(E3) / scale
            err5, err3 = math.sqrt(v5.dot(v5)) ** 2, math.sqrt(v3.dot(v3)) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old, t, y, abs_y = t, y, t_new, y_new, abs_new
        yield t_old, y_old, t, y, h
        # the next step starts from this one's last stage, f(t, y)
        K[0] = K[n_stages]


def _dense_values(piece: list, Ks: np.ndarray, t: np.ndarray,
                  out: np.ndarray):
    """Write DOP853 interpolants' values at their samples into out.

    piece holds (t_old, h, y_old, y, i, j) for P consecutive steps: the
    step's start, size, start and end states, covering the samples t[i:j]
    and the columns out[:, i:j], so the piece covers one run of samples;
    Ks[:P] holds their stage buffers.  The coefficients F are scipy's
    DOP853._dense_output_impl's, its h np.dot(D, K) one np.matmul for the
    piece, and the evaluation its Dop853DenseOutput Horner scheme over
    all the piece's samples, elementwise operations in scipy's order, so
    every value keeps its bits."""
    t_old, h, y_old, y, lo, hi = zip(*piece)
    K, h = Ks[:len(piece)], np.array(h)[:, None]
    y_old = np.stack(y_old)
    f_old, delta_y = K[:, 0], np.stack(y) - y_old
    F = np.empty((len(piece), dop853.D.shape[0] + 3, y_old.shape[1]))
    F[:, 0] = delta_y
    F[:, 1] = h * f_old - delta_y
    F[:, 2] = 2 * delta_y - h * (K[:, dop853.N_STAGES] + f_old)
    F[:, 3:] = h[:, :, None] * np.matmul(dop853.D, K)
    at = np.repeat(np.arange(len(piece)), np.subtract(hi, lo))
    x = ((t[lo[0]:hi[-1]] - np.array(t_old)[at]) / h[at, 0])[:, None]
    y = np.zeros((at.size, F.shape[2]))
    for i in range(F.shape[1]):
        y += F[at, -1 - i]
        y *= x if i % 2 == 0 else 1 - x
    y += y_old[at]
    out[:, lo[0]:hi[-1]] = y.T


def _time_reversed(field_fn: Callable) -> Callable:
    """g(s, y) = -field_fn(-s, y), the field of y(-s)."""
    return lambda s, y: [-v for v in field_fn(-s, y)]


def _solve_backward(field_fn: Callable, y0: np.ndarray, tau0: float,
                    tau1: float, tol: float, t_eval, max_steps=math.inf):
    """_solve's run from tau0 back to tau1 < tau0 at the decreasing
    t_eval: the forward run of _time_reversed(field_fn) over [-tau0,
    -tau1] at -t_eval, its times negated back and a failure located at
    tau.  IEEE negation is exact and round-to-nearest symmetric in sign,
    so every stage, step size and sample is the exact negative of
    scipy's backward run, and the values are solve_ivp's bits."""
    try:
        s, values = _solve(_time_reversed(field_fn), y0, -tau0, -tau1, tol,
                           -np.asarray(t_eval, dtype=float), max_steps)
    except IntegrationError as exc:
        raise IntegrationError(exc.message, -exc.tau) from None
    return -s, values


def _check_window(tau0: float, tau1: float):
    if not -math.inf < tau0 < tau1 < math.inf:
        raise ValueError(f"tau1 must exceed tau0, both finite: {[tau0, tau1]}")


def integrate_ode(field_fn: Callable, x0, tau0: float, tau1: float,
                  t_eval, tol: float = 1e-10) -> Trajectory:
    """DOP853 integration of dx/dtau = field_fn(tau, x) over [tau0, tau1],
    sampled at t_eval, at rtol = atol = tol >= RTOL_MIN: _solve's run,
    solve_ivp's to the bit.  field_fn is called directly, once per stage,
    with tau a Python float after the two calls that pick the first
    step, and x a buffer of the driver's, valid only during the call,
    which it neither keeps nor writes; it returns len(x0) values.  Raises
    IntegrationError on step-size underflow, at the time the solver
    stopped whatever t_eval holds, or on non-finite output, at its first
    non-finite sample."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times, values = _solve(field_fn, x0, tau0, tau1, tol, t_eval)
    return Trajectory(times=times, states=values.T)


_BATCH_TOL = 1e-10  # per-member tolerance of integrate_ode_batch


def integrate_ode_batch(field_fn: Callable, x0s, tau0: float, tau1: float,
                        t_eval) -> list:
    """Integrate m starts of one field as a single stacked DOP853 system,
    sampled at t_eval.

    x0s has shape (m, d).  The m states are stacked component-major into
    one vector of length d*m, and field_fn(tau, y) is called with y the d
    rows of length m, views of _solve's buffer valid only during the
    call, which it neither keeps nor writes; a field written with array
    operations (rhs_primary) serves every member in one call.  It returns
    d arrays of length m, or one (d, m) buffer that it rewrites on every
    call (model.rhs_primary_into), since _solve copies what it keeps.
    One adaptive run with shared steps, one field call per stage for all
    members, replaces m runs, and is split into m Trajectory objects.
    Nothing is truncated: a failed run or non-finite output raises
    IntegrationError, and a member that blows up makes the shared run
    fail where its solo run would, at the time the solver stopped.

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
    m, d = x0s.shape
    buf = rows = None

    def stacked(t, y):
        # views made once per buffer: the stage states share _solve's one
        nonlocal buf, rows
        if y is not buf:
            buf, rows = y, tuple(y.reshape(d, m))
        return np.asarray(field_fn(t, rows), dtype=float).ravel()

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
    """Number of Euler-Maruyama steps, last partial step included, and the
    one check of a run's steps: a finite window (_check_window), a finite
    dt > 0 and at most MAX_SDE_STEPS steps.  A window within the rounding
    tolerance of 1e-12 is one step."""
    _check_window(tau0, tau1)
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    n = int(min((tau1 - tau0) / dt + 1e-12, MAX_SDE_STEPS + 1))
    if tau0 + n * dt < tau1 - 1e-12 * max(1.0, abs(tau1)):
        n += 1
    if n > MAX_SDE_STEPS:
        raise ValueError(f"dt {dt} on [{tau0}, {tau1}] breaks the step budget")
    return max(n, 1)


def step_grid(tau0: float, tau1: float, dt: float) -> np.ndarray:
    """The n + 1 node times of the n Euler-Maruyama steps (sde_step_count):
    tau0 + k dt for k < n, then tau1 exactly; step k ends at node k + 1."""
    n_steps = sde_step_count(tau0, tau1, dt)
    return np.append(tau0 + np.arange(n_steps) * dt, tau1)


def default_dt(mu: float) -> float:
    """Step size keeping the noise-term discretization below drift error."""
    if mu >= 0.05:
        return 1e-3
    return mu * mu / 10.0  # below 2.5e-4


MAX_SDE_STEPS = 50_000_000  # the step budget of one run
NOISE_BUDGET = 4 << 20  # bytes of chunk buffers per em_paths call
N_CHANNELS = 2          # Wiener channels per path
N_SCRATCH = 3           # work rows em_paths lends to terms
N_OBSERVE = 3           # float64 per path and step left for the observer
VIEW_BYTES = 128        # bytes of one numpy view, and of a tuple of views
# steps per chunk at most: a chunk's fixed costs, a draw call per stream
# and one observer call, are then within about 2 % of its steps' cost, so
# longer chunks would only hold more memory
MAX_CHUNK_STEPS = 512


def chunk_steps(m: int, n: int, d: int, n_chans: int) -> int:
    """Steps per chunk, one to MAX_CHUNK_STEPS, for m paths of d components
    drawing from n streams and reading n_chans increment channels: per
    step, the stream-major draws (N_CHANNELS float64 per stream), the
    increments (n_chans per path), a slab row (d per path; row 0 is not
    counted), the row's views (d + 2 of VIEW_BYTES) and the observer's
    share (N_OBSERVE per path, set from traced peaks; it also covers
    np.take's transient copy of the strided draws) fit in NOISE_BUDGET."""
    per_step = (8 * (N_CHANNELS * n + (n_chans + d + N_OBSERVE) * m)
                + VIEW_BYTES * (d + 2))
    return max(1, min(MAX_CHUNK_STEPS, NOISE_BUDGET // per_step))


def _narrow(a: np.ndarray, w: int) -> np.ndarray:
    """The leading elements of the C-contiguous array a as an array of w
    columns, a contiguous view with a's other dimensions."""
    return a.ravel()[:a.size // a.shape[-1] * w].reshape(a.shape[:-1] + (w,))


@np.errstate(over="ignore", invalid="ignore")  # escape is data
def em_paths(terms: Callable, x: np.ndarray, tau: np.ndarray, dt: float,
             mu, rngs: list, observe: Callable) -> np.ndarray:
    """Euler-Maruyama steps of dx = f dtau + mu G dW (Ito) for m paths.

    x is the (d, m) finite start at node tau[0] and is advanced in place
    over the node times tau (step_grid).  terms(k, x, w, f, gw, scratch)
    writes the drift f and the product G w of step k into f and gw and
    returns nothing; it reads x, time and reference at node k, the
    step's start (Ito).  Its arguments are rows of one length, the
    number of running paths: d each of the state x and of f and gw,
    N_CHANNELS of increments w, and N_SCRATCH work rows in scratch.
    em_paths allocates these buffers once per call and terms must not
    keep them.  mu is an array of m amplitudes, one per path.

    Additive terms carry terms.additive, the intensity sigma per node of
    G w = (0, ..., 0, sigma[k] w_last), w_last the last channel's
    increment.  They write only f; em_paths forms a chunk's increments
    mu G w in bulk, as (((z sqrt(dt)) sqrt(h / dt)) sigma) mu, the
    operations and order of the general step, and adds one row per step
    to the last component.

    m is a multiple of len(rngs) = n, and path c draws from the generator
    rngs[c % n], once for all its paths, which can differ only in mu: the
    increments, in chunks of chunk_steps steps, first channel then
    second per step.  Each generator fills its own contiguous rows of a
    stream-major buffer; the channels the terms read are gathered from
    there into the step-major increments, one column per running path,
    read from its stream's rows, and scaled there by sqrt(dt).  A step
    shorter than dt rescales its increment variance to its length.

    Only running paths are stepped.  The chunk of steps from k0 on
    writes them into a (chunk + 1, d, w) slab xs whose row i is the state
    at node k0 + i: row 0 is x in the first chunk and the last row of the
    chunk before in the others.  The step writes there, so nothing is
    copied.  observe(k0, xs, live, cols) is called once per chunk, after
    its steps.  cols[j] is the index in x of the path in slab column j,
    and live[i, j] holds if row i of xs is finite there.  A step keeps a
    non-finite component non-finite, so the live rows are a prefix, row
    0 at least; the overflow on the way out is data, so numpy does not
    warn of it.  The next chunk overwrites xs, so an observer copies
    what it keeps.  observe may return a mask over the slab
    columns of paths that need no more steps.  At the end of each chunk
    the paths in it and those that left the finite range are dropped:
    from then on they are neither stepped nor observed, and a stream
    none of whose paths runs draws no more.  Paths do not mix and each
    stream's draws stay in order, so a path's states do not depend on
    which others run.  Stepping ends when no path runs.

    x ends as each path's last finite state; for a path dropped on the
    observer's mask, that is its state at the end of the chunk in which
    it was dropped.  Returns, per path, the time of the node at which it
    left the finite range (NaN if it never did).
    """
    h = tau[1:] - tau[:-1]
    n_steps = h.size
    (d, m), n = x.shape, len(rngs)
    if m % n:
        raise ValueError(f"{m} paths do not share {n} streams evenly")
    if not np.isfinite(x).all():
        raise ValueError("the starts x must be finite")
    sqrt_dt = math.sqrt(dt)
    escaped_at = np.full(m, np.nan)
    sigma = getattr(terms, "additive", None)
    # additive terms need only the last channel's increments
    chans = slice(None) if sigma is None else slice(-1, None)
    n_chans = N_CHANNELS if sigma is None else 1
    chunk = min(chunk_steps(m, n, d, n_chans), n_steps)
    z_buf = np.empty((n, chunk, N_CHANNELS))
    f, gw = np.empty_like(x), np.empty_like(x)
    scratch = np.empty((N_SCRATCH, m))
    dw_buf = np.empty((chunk, n_chans, m))
    slab = np.empty((chunk + 1, d, m))

    def views():
        # made once per width: terms reads and writes rows, the update
        # whole states, and step k of a chunk writes row k + 1 of the slab
        states = list(slab)
        return (tuple(f), tuple(gw), tuple(scratch), states,
                [tuple(state) for state in states])

    f_rows, gw_rows, scratch_rows, states, rows = views()
    cols = np.arange(m)
    drawing = rngs  # the streams of the running paths
    src = cols % n  # the index in drawing of each running path's stream
    slab[0] = x
    k0 = 0
    while True:
        k1 = min(k0 + chunk, n_steps)
        dw = dw_buf[:k1 - k0]
        z = z_buf[:len(drawing), :k1 - k0]
        for zi, rng in zip(z, drawing):
            rng.standard_normal(out=zi)
        # each running path's column is a copy of its stream's; src is in
        # range, and "clip" lets take write into dw without a buffer
        np.take(z[:, :, chans].transpose(1, 2, 0), src, axis=2, out=dw,
                mode="clip")
        dw *= sqrt_dt
        # exactly 1.0 where h == dt, so one multiply per chunk rescales
        # the shorter steps and leaves every other increment as drawn
        dw *= np.sqrt(h[k0:k1] / dt)[:, None, None]
        if sigma is not None:
            dw *= sigma[k0:k1, None, None]
            dw *= mu
        for i, k in enumerate(range(k0, k1)):
            w = dw[i]
            terms(k, rows[i], w, f_rows, gw_rows, scratch_rows)
            # x_new = (x + f h) + mu G w, rounded in that order
            f *= h[k]
            x_new = states[i + 1]
            np.add(states[i], f, out=x_new)
            if sigma is None:
                gw *= mu
                x_new += gw
            else:
                last = rows[i + 1][-1]
                np.add(last, w[0], out=last)
        xs = slab[:k1 - k0 + 1]
        live = np.isfinite(xs).all(1)
        n_live = live.sum(axis=0)
        out = n_live < xs.shape[0]
        escaped_at[cols[out]] = tau[k0 + n_live[out]]
        stop = observe(k0, xs, live, cols)
        # each path's last finite state
        x[:, cols] = xs[n_live - 1, :, np.arange(cols.size)].T
        k0 = k1
        run = ~out if stop is None else ~(out | stop)
        if k0 == n_steps or not run.any():
            return escaped_at
        start = xs[-1]
        if not run.all():
            start = start[:, run]
            cols = cols[run]
            running, src = np.unique(cols % n, return_inverse=True)
            mu = mu[run]
            drawing = [rngs[i] for i in running]
            # the narrower buffers are views of the first allocation
            f, gw, scratch, dw_buf, slab = (
                _narrow(a, cols.size) for a in (f, gw, scratch, dw_buf, slab))
            f_rows, gw_rows, scratch_rows, states, rows = views()
        slab[0] = start


def integrate_sde(make_terms: Callable, x0, tau0: float, tau1: float,
                  dt: float, mu, streams, record_every: int = 1) -> list:
    """Euler-Maruyama paths of dx = f dt + mu G dW in the Ito sense, one
    Trajectory per stream, all from x0.

    make_terms(tau) gets the node times of step_grid(tau0, tau1, dt),
    built here, and returns terms(k, x, w, f, gw, scratch) writing f and
    G w of step k as in em_paths; partial(model.perturbed_terms, p,
    noise) is the perturbed system's.  mu is one amplitude or one per
    stream.  The streams run as the columns of one em_paths call, one
    amplitude each, each recording node 0, every record_every-th node
    and the last one while it is finite, so the path for stream
    (master_seed, j) is bitwise path j of an ensemble with the same
    start, whatever the other columns do.  A non-finite state truncates
    that path and flags its trajectory.  ValueError names an empty
    streams, a non-finite x0, a record_every that is not an integer >= 1,
    a mu of another length than streams and mu outside [0, 1).
    """
    m = len(streams)
    if not m:
        raise ValueError("streams must hold at least one NoiseStream")
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0}")
    if not (isinstance(record_every, numbers.Integral) and record_every >= 1):
        raise ValueError(f"record_every {record_every} is not an integer >= 1")
    mu = np.asarray(mu, dtype=float)
    if mu.shape not in ((), (m,)):
        raise ValueError(f"mu must be one amplitude or one per stream, "
                         f"{m}, got shape {mu.shape}")
    mu = np.broadcast_to(mu, (m,))
    if not np.all((0 <= mu) & (mu < 1)):
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    tau = step_grid(tau0, tau1, dt)
    terms = make_terms(tau)
    x = np.tile(x0.reshape(-1, 1), m)
    times, states, kept = [], [], []

    def record(k0, xs, live, cols):
        # slab row i is node g = k0 + i; row 0 is new only in the first
        # chunk, and the last row of the chunk before in the others
        g = np.arange(k0 + (k0 > 0), k0 + xs.shape[0])
        g = g[(g % record_every == 0) | (g == tau.size - 1)]
        times.append(tau[g])
        # a path that has left the finite range keeps none of its rows
        states.append(np.empty((g.size,) + x.shape))
        states[-1][:, :, cols] = xs[g - k0]
        kept.append(np.zeros((g.size, m), dtype=bool))
        kept[-1][:, cols] = live[g - k0]

    escaped_at = em_paths(terms, x, tau, dt, mu,
                          [s.generator() for s in streams], record)
    times, states = np.concatenate(times), np.concatenate(states)
    kept = np.concatenate(kept)
    return [Trajectory(times=times[keep], states=states[keep, :, c],
                       truncated=not math.isnan(escaped_at[c]))
            for c, keep in enumerate(kept.T)]


# reference build settings, see reference_solution
REF_K, REF_SEED_RESIDUAL_TOL, REF_MAX_STEPS = 24, 1e-13, 10_000
REF_SEED_RESIDUAL_ULPS = 16
REF_SWITCH_LADDER = (10.0, 15.0, 20.0, 30.0, 50.0, 100.0, 200.0, 400.0)
REF_TOL, REF_TAU_MIN, REF_TAU_MAX, REF_GRID_STEP = 1e-12, 5.0, 400.0, 0.05


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through the n >= 4 strictly increasing
    nodes x and the (n, k) finite values y, as a (4, k, n - 1) array: on
    [x[i], x[i + 1]] component j is c[0] s^3 + c[1] s^2 + c[2] s + c[3]
    with c = spline[:, j, i] and s = tau - x[i].  Each coefficient's
    pieces are contiguous, so gathering the pieces of many times is four
    times k contiguous gathers.

    Built as scipy's CubicSpline(x, y) builds it (CubicSpline.__init__
    with both ends not-a-knot, then CubicHermiteSpline.__init__): the
    same tridiagonal system for the slopes at the nodes, solved by the
    same LAPACK call, solve_banded, and the same coefficient formulas,
    each a numpy operation of scipy's in its order, so the same bits."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if (x.ndim != 1 or y.ndim != 2 or y.shape[0] != x.size
            or not (np.isfinite(x).all() and np.isfinite(y).all())
            or not (np.diff(x) > 0).all()):
        raise ValueError("spline nodes must be finite and strictly "
                         "increasing, with one row of finite values each")
    n = x.size
    if n < 4:
        raise ValueError(f"a not-a-knot spline needs at least 4 nodes, "
                         f"got {n}")
    dx = np.diff(x)
    dxr = dx.reshape(n - 1, 1)
    slope = np.diff(y, axis=0) / dxr
    # the system in banded form: the continuity of the second derivative
    # at the inner nodes, and at each end the continuity of the third
    A = np.zeros((3, n))
    b = np.empty((n, y.shape[1]))
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    A[1, 0] = dx[1]
    A[0, 1] = x[2] - x[0]
    d = x[2] - x[0]
    b[0] = ((dxr[0] + 2*d) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / d
    A[1, -1] = dx[-2]
    A[-1, -2] = x[-1] - x[-3]
    d = x[-1] - x[-3]
    b[-1] = ((dxr[-1]**2*slope[-2] + (2*d + dxr[-1])*dxr[-2]*slope[-1]) / d)
    s = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return np.ascontiguousarray(c.transpose(0, 2, 1))


class ReferenceSolution:
    """Captured reference solution (r*, psi*) on [tau_min, tau_max].

    Up to tau_s, the last of times, one not-a-knot cubic spline through
    the (n, 2) node values (_not_a_knot_spline, scipy's CubicSpline to
    the bit, as state evaluates it); above it, up to tau_max, series(tau)
    as two arrays of tau's shape.  Read-only after construction, and
    shared: reference_solution hands one object to every caller with the
    same params.

    The phase approaches psi0 = pi - arcsin(gamma) like psi0 - 1/(nu*tau),
    nu = sqrt(1 - gamma^2): with gamma = 0.1 it is 0.17 away at tau_min = 5
    and inside 0.1 only from tau ~ 9.
    """

    def __init__(self, times: np.ndarray, values: np.ndarray,
                 series: Callable, tau_max: float):
        self._spline = _not_a_knot_spline(times, values)
        self._nodes = np.asarray(times, dtype=float)
        self._series = series
        self.tau_min = float(self._nodes[0])
        self.tau_s = float(self._nodes[-1])
        self.tau_max = float(tau_max)

    def state(self, tau):
        """(r*, psi*) at tau as the two contiguous rows of one array, of
        tau's shape each; accepts arrays; errors outside the domain and on
        NaN.

        At tau <= tau_s the value is scipy's PPoly evaluation of the
        spline, to the bit: the piece is the last whose node is at or
        below tau, clipped to the first and last piece, and its cubic is
        summed from 0 in increasing powers of s = tau - x[i].  So tau_s
        itself comes back within one ulp of its node value, not always
        exactly.  Above tau_s the value is the series'."""
        tau = np.asarray(tau, dtype=float)
        # NaN fails both comparisons
        if not ((self.tau_min - 1e-12 <= tau)
                & (tau <= self.tau_max + 1e-12)).all():
            raise ValueError(
                f"tau outside reference domain [{self.tau_min}, {self.tau_max}]")
        flat = tau.ravel()
        above = flat > self.tau_s
        value = np.empty((2, flat.size))
        value[:, ~above] = self._spline_state(flat[~above])
        if above.any():
            value[:, above] = self._series(flat[above])
        return value.reshape((2,) + tau.shape)

    def _spline_state(self, tau: np.ndarray) -> np.ndarray:
        x = self._nodes
        i = np.clip(np.searchsorted(x, tau, "right") - 1, 0, x.size - 2)
        s = tau - x[i]
        c = np.take(self._spline, i, axis=2)
        ss = s * s
        value = ((0.0 + c[3]) + c[2] * s) + c[1] * ss
        value += c[0] * (ss * s)
        return value


@functools.lru_cache(maxsize=8)
def reference_solution(params: SystemParams) -> ReferenceSolution:
    """The captured reference solution for the stable branch.

    The order-REF_K series is the reference above tau_s, the first time
    of REF_SWITCH_LADDER where its equation residual norm is at most
    REF_SEED_RESIDUAL_TOL or REF_SEED_RESIDUAL_ULPS eps |r|, whichever is
    larger: both equations cancel terms of size r, so their rounding
    alone leaves a few eps |r|.  This is checked, not assumed; ValueError
    names the best rung if none passes.  The series runs up to
    REF_TAU_MAX = 400.  Below tau_s, one leg of model.scalar_field from
    the series' value there runs back to REF_TAU_MIN = 5
    (_solve_backward) at REF_TOL, sampled every REF_GRID_STEP, so a
    failed or non-finite leg raises IntegrationError.
    The domain includes the approach to the lock (see ReferenceSolution).
    The flow's divergence is -gamma: going back, a locked leg widens an
    error at tau_s about exp(gamma (tau_s - 5) / 2)-fold, and one that
    leaves the lock winds ever faster, so past REF_MAX_STEPS accepted
    steps the leg raises IntegrationError (from 400 at (5, 0.99)).

    The build is deterministic, so it runs once per SystemParams per
    process: equal params return the same object, which every caller
    shares and none may change.  A build that raises is not kept.
    reference_solution.__wrapped__ builds afresh.
    """
    exp = asymptotics.expand(params, asymptotics.STABLE, REF_K)
    ladder = np.array(REF_SWITCH_LADDER)
    norms = np.hypot(*asymptotics.residual(exp, params, ladder))
    r = asymptotics.evaluate(exp, params, ladder)[0]
    tols = np.maximum(REF_SEED_RESIDUAL_TOL, REF_SEED_RESIDUAL_ULPS
                      * np.finfo(float).eps * np.abs(r))
    passed = np.flatnonzero(norms <= tols)
    if not passed.size:
        best = int(np.argmin(norms / tols))
        raise ValueError(
            f"series residual {norms[best]:.3e} at tau={ladder[best]:g}, the "
            f"best of {REF_SWITCH_LADDER}, exceeds {tols[best]:.3e}")
    tau_s = float(ladder[passed[0]])
    y_seed = np.array(asymptotics.evaluate(exp, params, tau_s), dtype=float)
    n = int(round((tau_s - REF_TAU_MIN) / REF_GRID_STEP)) + 1
    times, values = _solve_backward(
        model.scalar_field(params), y_seed, tau_s, REF_TAU_MIN, REF_TOL,
        np.linspace(tau_s, REF_TAU_MIN, n), REF_MAX_STEPS)
    return ReferenceSolution(
        times[::-1], values[:, ::-1].T,
        functools.partial(asymptotics.evaluate, exp, params), REF_TAU_MAX)
