import dataclasses
import json
import math
import os
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from autores import (asymptotics, cli, dop853_coefficients, ensemble,
                     integrators, model, pendulum)
from autores.asymptotics import STABLE, evaluate, expand
from autores.integrators import (IntegrationError, NoiseStream, Trajectory,
                                 default_dt, integrate_ode,
                                 integrate_ode_batch, integrate_sde,
                                 reference_solution, sde_step_count)
from autores.ensemble import classify_capture
from autores.model import (NoiseSchedule, SystemParams, constant_schedule,
                           power_schedule, rhs_primary)
from oracles import (mp_series, n_chans_of, plain_ball_starts, plain_em,
                     plain_solve, rhs_error, seed_residual_tol,
                     set_chunk)


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0, 1.0], states=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=[[0.0, 0.0], [np.nan, 1.0]])
    t = Trajectory(times=[0.0, 1.0], states=[[0.0, 0.0], [1.0, 2.0]])
    assert not t.truncated


def test_integrate_ode_known_solution():
    traj = integrate_ode(lambda t, y: [-y[0]], [1.0], 0.0, 3.0, tol=1e-12,
                         t_eval=np.linspace(0.0, 3.0, 7))
    assert traj.times[-1] == 3.0
    assert traj.states[:, 0] == pytest.approx(np.exp(-traj.times), rel=1e-10)


def test_integrate_ode_rejects_bad_window():
    with pytest.raises(ValueError):
        integrate_ode(lambda t, y: [0.0], [1.0], 5.0, 5.0, [5.0])
    with pytest.raises(ValueError):
        integrate_ode(lambda t, y: [0.0], [1.0], 5.0, 4.0, [5.0, 4.0])
    # nor does the driver, which runs forward only
    with pytest.raises(ValueError, match=r"tau1 must exceed tau0.*\[5.0, 5.0\]"):
        integrators._solve(lambda t, y: [0.0], np.array([1.0]), 5.0, 5.0,
                           1e-10, [5.0])


def test_solve_refuses_backward_window():
    # a backward run is _solve_backward's, the forward run of the
    # time-reversed field; _solve names the window it refuses
    with pytest.raises(ValueError, match=r"tau1 must exceed tau0.*\[5.0, 4.0\]"):
        integrators._solve(lambda t, y: [-y[0]], np.array([1.0]), 5.0, 4.0,
                           1e-10, [5.0, 4.0])


def test_backward_blowup_located_at_positive_tau(params, ref, monkeypatch):
    # a reference field that blows up below tau = 12 fails the backward
    # leg from tau_s = 20 there: the error is located at tau, not at the
    # reversed run's time -tau
    field = model.scalar_field(params)

    def blowing_up(p):
        def fun(tau, y):
            return (-y[0] ** 2, 0.0) if tau < 12.0 else field(tau, y)
        return fun
    monkeypatch.setattr(model, "scalar_field", blowing_up)
    with pytest.raises(IntegrationError) as exc:
        reference_solution.__wrapped__(params)
    assert integrators.REF_TAU_MIN <= exc.value.tau < 12.0 < ref.tau_s
    assert exc.value.tau == pytest.approx(12.0, abs=0.1)
    assert str(exc.value).endswith(f"(at tau={exc.value.tau:.6g})")


def test_integrate_ode_hits_nodes_exactly():
    grid = np.linspace(1.0, 2.0, 11)
    traj = integrate_ode(lambda t, y: [y[0]], [1.0], 1.0, 2.0, t_eval=grid)
    assert np.array_equal(traj.times, grid)


def test_batch_of_one_is_the_solo_solve(params):
    calls = []

    def field_fn(t, y):
        calls.append(t)
        return rhs_primary(y, t, params)

    t_eval = np.linspace(0.0, 60.0, 2400)
    solo = integrate_ode(field_fn, [0.75, math.pi], 0.0, 60.0, t_eval=t_eval)
    solo_calls, calls[:] = calls[:], []
    (one,) = integrate_ode_batch(field_fn, [[0.75, math.pi]], 0.0, 60.0,
                                 t_eval=t_eval)
    assert np.array_equal(one.times, solo.times)
    assert np.array_equal(one.states, solo.states)
    assert calls == solo_calls  # the same solver run, step for step


def test_batch_members_as_accurate_as_solo(params):
    # six fig1 starts, both verdicts; each member is measured against a
    # tol = 1e-12 solo solve and may be off by at most twice what the
    # tol = 1e-10 solo solve is
    starts = [(0.25, 0.0), (0.25, math.pi / 2), (0.25, math.pi),
              (0.25, 3 * math.pi / 2), (0.5, 0.0), (0.5, 3 * math.pi / 2)]
    t_eval = np.linspace(0.0, 60.0, 2400)
    field_fn = lambda t, y: rhs_primary(y, t, params)
    batch = integrate_ode_batch(field_fn, starts, 0.0, 60.0, t_eval=t_eval)
    assert len(batch) == len(starts)
    verdicts = set()
    for x0, member in zip(starts, batch):
        tight = integrate_ode(field_fn, x0, 0.0, 60.0, tol=1e-12,
                              t_eval=t_eval)
        solo = integrate_ode(field_fn, x0, 0.0, 60.0, tol=1e-10,
                             t_eval=t_eval)
        assert np.array_equal(member.times, solo.times)
        solo_err = np.abs(solo.states - tight.states).max()
        batch_err = np.abs(member.states - tight.states).max()
        assert batch_err <= 2.0 * solo_err
        verdict = classify_capture(member, params)
        assert verdict == classify_capture(solo, params)
        verdicts.add(verdict)
    assert verdicts == {"captured", "escaped"}


def test_batch_splits_members():
    x0s = [[1.0], [2.0], [-1.0]]
    batch = integrate_ode_batch(lambda t, y: [-y[0]], x0s, 0.0, 1.0,
                                t_eval=np.linspace(0.0, 1.0, 5))
    for (x0,), member in zip(x0s, batch):
        assert not member.truncated
        assert member.states.shape == (5, 1)
        assert member.states[:, 0] == pytest.approx(
            x0 * np.exp(-member.times), rel=1e-8)


def test_batch_blowup_fails_the_run():
    # y' = y^2 from y0 = 2 blows up at tau = 0.5; the solo solve of that
    # start fails there, and so does the shared run
    field_fn = lambda t, y: [y[0] ** 2]
    t_eval = np.linspace(0.0, 0.9, 4)
    with pytest.raises(IntegrationError) as solo:
        integrate_ode(field_fn, [2.0], 0.0, 0.9, t_eval)
    with pytest.raises(IntegrationError) as batch:
        integrate_ode_batch(field_fn, [[0.5], [2.0]], 0.0, 0.9, t_eval)
    assert batch.value.tau == pytest.approx(0.5, abs=1e-6)
    assert solo.value.tau == pytest.approx(0.5, abs=1e-6)


def test_batch_field_may_reuse_its_buffer(params):
    # a field that rewrites and returns one (d, m) buffer on every call
    # gives rhs_primary's run: the driver copies the value at tau0 before
    # its trial call, which would otherwise overwrite it and change the
    # first step
    starts = [(0.25, math.pi / 2), (0.5, 0.0), (1.0, math.pi),
              (2.0, 3 * math.pi / 2)]
    buf = np.empty((2, len(starts)))
    calls = []

    def reused(t, y):
        calls.append(t)
        buf[0], buf[1] = rhs_primary(y, t, params)
        return buf
    t_eval = np.linspace(0.0, 20.0, 800)
    got = integrate_ode_batch(reused, starts, 0.0, 20.0, t_eval=t_eval)
    want_calls = []

    def fresh(t, y):
        want_calls.append(t)
        return rhs_primary(y, t, params)
    want = integrate_ode_batch(fresh, starts, 0.0, 20.0, t_eval=t_eval)
    assert calls == want_calls
    for a, b in zip(got, want):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)


def test_batch_field_reads_rows_at_three_components():
    # a three-component linear field over four starts gets its state as
    # three rows of length 4 and returns three arrays; the run is
    # solve_ivp's run of the same stacked system, bit for bit
    A = np.array([[-0.5, 1.0, 0.0], [-1.0, -0.5, 0.3], [0.2, -0.3, -0.1]])
    starts = np.array([[1.0, 0.0, -0.5], [0.5, 2.0, 0.0], [-1.0, 0.3, 0.7],
                       [0.0, -0.4, 1.5]])
    m, d = starts.shape
    shapes = set()

    def linear(t, rows):
        shapes.add(tuple(row.shape for row in rows))
        x, y, z = rows
        return tuple(a * x + b * y + c * z + 0.1 * t for a, b, c in A)
    t_eval = np.linspace(0.0, 8.0, 161)
    batch = integrate_ode_batch(linear, starts, 0.0, 8.0, t_eval=t_eval)
    assert shapes == {((m,),) * d}
    times, values = plain_solve(
        lambda t, y: np.concatenate(linear(t, tuple(y.reshape(d, m)))),
        starts.T.ravel(), 0.0, 8.0, integrators._BATCH_TOL / math.sqrt(m),
        t_eval)
    for k, member in enumerate(batch):
        assert np.array_equal(member.times, times)
        assert np.array_equal(member.states, values[k::m].T)


def _numpy_calls_per_step(monkeypatch, run) -> tuple:
    """(calls into Python frames under numpy's package directory made
    inside integrators._solve, accepted steps) over run().  Counting is
    on only inside _solve: the checks a Trajectory makes run once per
    member, not once per step."""
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    solve, steps = integrators._solve, integrators._dop853_steps
    count = {"calls": 0, "steps": 0}

    def profile(frame, event, arg):
        if (event == "call"
                and frame.f_code.co_filename.startswith(numpy_dir)):
            count["calls"] += 1

    def profiled_solve(*args):
        sys.setprofile(profile)
        try:
            return solve(*args)
        finally:
            sys.setprofile(None)

    def counted_steps(*args):
        for step in steps(*args):
            count["steps"] += 1
            yield step
    monkeypatch.setattr(integrators, "_solve", profiled_solve)
    monkeypatch.setattr(integrators, "_dop853_steps", counted_steps)
    run()
    return count["calls"], count["steps"]


@pytest.mark.parametrize("sub,cfg", [
    ("simulate", {"gamma": 0.1, "lam": 1.0, "r0": 1.09, "psi0": 2.15,
                  "tau1": 200.0}),
    ("figures", {"which": "fig1", "horizon": 60.0}),
], ids=["simulate", "fig1"])
def test_dop853_steps_make_no_numpy_python_calls(monkeypatch, tmp_path, sub,
                                                 cfg):
    # a DOP853 step is per-call overhead at 2 to 64 components, so its
    # sums are ndarray.dot, not np.dot with its Python-level dispatcher,
    # and fig1's field gets row views, not an array to reshape and unpack:
    # what is left of numpy's Python code runs once per run or dense
    # piece (np.linalg.norm, np.stack, np.repeat), not once per step
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    calls, steps = _numpy_calls_per_step(monkeypatch, lambda: cli.main(
        [sub, "--config", str(path), "--out", str(tmp_path / "out")]))
    assert steps >= 1000
    assert calls < steps


@pytest.mark.parametrize("t_eval", [np.linspace(0.0, 0.9, 4), [0.9]])
def test_failed_run_located_where_the_solver_stopped(t_eval):
    # y' = y^2 from 2 blows up at 0.5; the last t_eval sample passed
    # there is 0.3 or none at all, and neither is where the run failed
    with pytest.raises(IntegrationError) as exc:
        integrate_ode(lambda t, y: [y[0] ** 2], [2.0], 0.0, 0.9,
                      t_eval=t_eval)
    assert exc.value.tau == pytest.approx(0.5, abs=1e-6)


def test_non_finite_solver_output_fails_the_run(monkeypatch):
    # DOP853 fails before it returns non-finite samples on every blow-up
    # tried, so steps that do return them are faked at the one place the
    # driver takes its steps; the run must raise at the first non-finite
    # sample, not come back truncated.  The samples are the fake steps'
    # ends, where the interpolant holds the step's non-finite end state
    def fake_steps(fun, K, t, y, *control):
        yield 0.0, y, 0.5, np.array([np.inf]), 0.5
        yield 0.5, np.array([np.inf]), 1.0, np.array([np.nan]), 0.5
    monkeypatch.setattr(integrators, "_dop853_steps", fake_steps)
    with pytest.raises(IntegrationError) as exc:
        integrate_ode(lambda t, y: [0.0], [1.0], 0.0, 1.0, [0.5, 1.0])
    assert exc.value.tau == 0.5


def _step_ends(field_fn, y0, tau0, tau1, tol):
    # the times of the accepted steps of scipy's DOP853 run, tau0 first
    return solve_ivp(field_fn, (tau0, tau1), y0, method="DOP853", rtol=tol,
                     atol=tol).t


def _run(field_fn, y0, tau0, tau1, tol, t_eval):
    # a forward run is _solve's; a backward one runs as the reference's
    # backward leg does, through _solve_backward
    solve = (integrators._solve if tau1 > tau0
             else integrators._solve_backward)
    return solve(field_fn, y0, tau0, tau1, tol, t_eval)


def _reference_leg(params, seed, tau_end, sampled=True):
    # a leg as reference_solution runs its one, from the series at seed
    # to tau_end, on its grid or at the solver's accepted steps
    exp = expand(params, STABLE, integrators.REF_K)
    y0 = np.array([float(v) for v in evaluate(exp, params, seed)])
    field = model.scalar_field(params)
    n = round(abs(tau_end - seed) / integrators.REF_GRID_STEP) + 1
    t_eval = (np.linspace(seed, tau_end, n) if sampled else
              _step_ends(field, y0, seed, tau_end, integrators.REF_TOL))
    return _run(field, y0, seed, tau_end, integrators.REF_TOL, t_eval)


def _simulate(params, tau0, tau1, t_eval=None):
    # t_eval None samples at the solver's accepted steps
    field, y0 = model.scalar_field(params), np.array([1.09, 2.15])
    if t_eval is None:
        t_eval = _step_ends(field, y0, tau0, tau1, 1e-10)
    return _run(field, y0, tau0, tau1, 1e-10, t_eval)


def _fig1(params):
    starts = [(r0, psi0) for r0 in np.arange(0.25, 2.01, 0.25)
              for psi0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    trajs = integrate_ode_batch(lambda t, y: rhs_primary(y, t, params),
                                starts, 0.0, 60.0,
                                t_eval=np.linspace(0.0, 60.0, 2400))
    return (np.array([t.times for t in trajs]),
            np.array([t.states for t in trajs]))


def _pendulum(params):
    # the pendulum command's leg at eps 0.05 from (r, psi) = (1, 2), cut
    # to t = 80: 254 accepted steps and 55 rejected ones
    pp = pendulum.inverse_map(params, 0.05)
    u0, v0 = pendulum.seed_from_averaged(1.0, 2.0, 0.05)
    traj = pendulum.integrate_pendulum(pp, u0, v0, 80.0)
    return traj.times, traj.states


# _simulate takes about 1600 accepted steps on [20, 60]; the "steps"
# cases sample at every step's end, the edge of two steps' interpolants.
# The reference's leg runs from tau_s = 20 at (1, 0.1); the legs from the
# series at tau 100 are long runs each way, back over 1900 samples and on
# over 6000
_SOLVES = {
    "reference leg 20 -> 5": lambda p: _reference_leg(p, 20.0, 5.0),
    "reference leg 100 -> 5": lambda p: _reference_leg(p, 100.0, 5.0),
    "reference leg 100 -> 400": lambda p: _reference_leg(p, 100.0, 400.0),
    "steps": lambda p: _simulate(p, 20.0, 60.0),
    "steps backward": lambda p: _simulate(p, 60.0, 20.0),
    "sparser than the steps": lambda p: _simulate(
        p, 20.0, 60.0, np.linspace(20.0, 60.0, 7)),
    "denser than the steps": lambda p: _simulate(
        p, 20.0, 60.0, np.linspace(20.0, 60.0, 8001)),
    "denser backward": lambda p: _simulate(
        p, 60.0, 20.0, np.linspace(60.0, 20.0, 8001)),
    "one point": lambda p: _simulate(p, 20.0, 60.0, [41.3]),
    "on tau0 and tau1": lambda p: _simulate(p, 20.0, 60.0,
                                            [20.0, 33.3, 60.0]),
    "on tau0 and tau1 backward": lambda p: _simulate(p, 60.0, 20.0,
                                                     [60.0, 33.3, 20.0]),
    "fig1 batch": _fig1,
    "pendulum": _pendulum,
    "reference leg 20 -> 5 steps": lambda p: _reference_leg(p, 20.0, 5.0,
                                                           False),
    "reference leg 100 -> 5 steps": lambda p: _reference_leg(p, 100.0, 5.0,
                                                            False),
}


def _recorded(solve, runs: list):
    """solve with its field wrapped in a recorder: each run appends to
    runs the (t, y) of its field calls in order, y copied, since the
    driver hands the field a buffer it rewrites.  A backward run (tau1 <
    tau0) records its times negated, as the calls of the time-reversed
    field that _solve_backward hands to _solve."""
    def run(field_fn, y0, tau0, tau1, *args):
        sign = -1.0 if tau1 < tau0 else 1.0
        calls = []
        runs.append(calls)

        def field(t, y):
            calls.append((sign * t, np.array(y, dtype=float)))
            return field_fn(t, y)
        return solve(field, y0, tau0, tau1, *args)
    return run


@pytest.fixture(scope="module")
def solve_ivp_runs():
    """Each _SOLVES case through oracles.plain_solve, run once, backward
    cases as scipy's backward run: (times, values, solve_ivp's nfev,
    field calls recorded)."""
    return {}


def _oracle(solve_ivp_runs, case, params, monkeypatch):
    if case not in solve_ivp_runs:
        runs, nfev = [], []

        def oracle(*args):
            stats = {}
            out = plain_solve(*args, stats=stats)
            nfev.append(stats["nfev"])
            return out
        with monkeypatch.context() as mp:
            for name in ("_solve", "_solve_backward"):
                mp.setattr(integrators, name, _recorded(oracle, runs))
            t, y = _SOLVES[case](params)
        solve_ivp_runs[case] = t, y, nfev, runs
    return solve_ivp_runs[case]


@pytest.mark.parametrize("piece", [1, 7, integrators.DENSE_PIECE])
@pytest.mark.parametrize("case", list(_SOLVES))
def test_driver_is_solve_ivp_bit_for_bit(params, monkeypatch,
                                         solve_ivp_runs, case, piece):
    want_t, want_y, *_ = _oracle(solve_ivp_runs, case, params, monkeypatch)
    monkeypatch.setattr(integrators, "DENSE_PIECE", piece)
    got_t, got_y = _SOLVES[case](params)
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_y, want_y)


@pytest.mark.parametrize("case", list(_SOLVES))
def test_driver_makes_solve_ivp_field_calls(params, monkeypatch,
                                            solve_ivp_runs, case):
    # equal samples could come from other steps; equal field calls, each
    # at the same time and state to the bit, show the same stages,
    # rejections and dense-output stages ran.  A backward case's calls
    # are those of its reversed field, made by _solve
    _, _, nfev, oracle_runs = _oracle(solve_ivp_runs, case, params,
                                      monkeypatch)
    assert [len(calls) for calls in oracle_runs] == nfev
    runs = []
    monkeypatch.setattr(integrators, "_solve",
                        _recorded(integrators._solve, runs))
    _SOLVES[case](params)
    assert [len(calls) for calls in runs] == nfev
    for got, want in zip(runs, oracle_runs):
        got_t, got_y = zip(*got)
        want_t, want_y = zip(*want)
        assert np.array_equal(_bits(got_t), _bits(want_t))
        assert np.array_equal(_bits(np.stack(got_y)),
                              _bits(np.stack(want_y)))


def test_pendulum_case_rejects_steps(params, monkeypatch):
    # the pendulum case must exercise rejected steps: without t_eval,
    # solve_ivp calls the field twice before the first step and 12 times
    # per attempted step
    sols = []

    def steps_too(field_fn, y0, tau0, tau1, tol, t_eval):
        sols.append(solve_ivp(field_fn, (tau0, tau1), y0, method="DOP853",
                              rtol=tol, atol=tol))
        return plain_solve(field_fn, y0, tau0, tau1, tol, t_eval)
    monkeypatch.setattr(integrators, "_solve", steps_too)
    _pendulum(params)
    sol, = sols
    assert (sol.nfev - 2) // 12 > sol.t.size - 1


def _bits(a):
    # the bit patterns of a float64 array: equal bits, -0.0 included
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_tableau_is_scipys():
    # the copied coefficients, sliced as scipy's DOP853 class slices them,
    # are its class attributes to the bit
    c, n = dop853_coefficients, dop853_coefficients.N_STAGES
    ours = {"A": c.A[:n, :n], "B": c.B, "C": c.C[:n], "E3": c.E3,
            "E5": c.E5, "D": c.D, "A_EXTRA": c.A[n + 1:],
            "C_EXTRA": c.C[n + 1:]}
    for name, got in ours.items():
        want = getattr(DOP853, name)
        assert got.shape == want.shape, name
        assert np.array_equal(_bits(got), _bits(want)), name
    assert (n, integrators.ERROR_ORDER) == (DOP853.n_stages,
                                            DOP853.error_estimator_order)
    assert c.N_STAGES_EXTENDED == DOP853.D.shape[1]
    assert integrators.TOO_SMALL_STEP == DOP853.TOO_SMALL_STEP


def _counted_calls(fun):
    calls = []

    def counted(t, y):
        calls.append((t, y.copy()))
        return fun(t, y)
    return counted, calls


_STARTS = {
    "forward": (lambda p: lambda t, y: rhs_primary(y, t, p),
                [1.0, 2.0], 20.0, 60.0, 1e-10),
    "backward": (model.scalar_field, [100.0, 3.0], 100.0, 5.0, 1e-12),
    # d0 and d1 below 1e-5: the 1e-6 branch
    "zero field": (lambda p: lambda t, y: np.zeros_like(y),
                   [0.0, 0.0], 0.0, 1.0, 1e-10),
    # h0 = 0.01 here, so the window clips it
    "short window": (lambda p: lambda t, y: -y, [1.0], 0.0, 1e-3, 1e-10),
}


@pytest.mark.parametrize("case", list(_STARTS))
def test_start_is_scipys(params, case):
    # y0, f0 and the first step are the DOP853 constructor's, from the
    # same field calls, and the constructor keeps rtol = tol.  The
    # backward case starts as the reference's backward leg does, on the
    # time-reversed field from -t0, whose times and f0 are the negated
    # bits of scipy's backward start
    make, y0, t0, t1, tol = _STARTS[case]
    y0 = np.array(y0)
    sign = 1.0 if t1 > t0 else -1.0
    field = make(params)
    fun, calls = _counted_calls(
        field if sign > 0 else integrators._time_reversed(field))
    got_y, f0, h_abs = integrators._dop853_start(fun, sign * t0, y0,
                                                 sign * t1, tol)
    fun_s, calls_s = _counted_calls(make(params))
    solver = DOP853(fun_s, t0, y0, t1, rtol=tol, atol=tol)
    assert np.array_equal(_bits(got_y), _bits(solver.y))
    assert np.array_equal(_bits(f0), _bits(sign * solver.f))
    assert h_abs == solver.h_abs and solver.rtol == tol
    assert len(calls) == solver.nfev == 2
    for (t, y), (t_s, y_s) in zip(calls, calls_s):
        assert t == sign * t_s and np.array_equal(_bits(y), _bits(y_s))


def test_tol_below_floor_refused():
    # a run is at the tol it was given: below RTOL_MIN, where scipy would
    # raise rtol alone and warn, the driver refuses the run; at the floor
    # it is solve_ivp's run, which does not warn there.  A backward run
    # passes its tol on to _solve
    field_fn = lambda t, y: -y
    floor = integrators.RTOL_MIN
    for tol in (1e-15, np.nextafter(floor, 0.0), math.nan):
        with pytest.raises(ValueError, match="tol"):
            integrate_ode(field_fn, [1.0], 0.0, 1.0, [1.0], tol=tol)
        with pytest.raises(ValueError, match="tol"):
            integrators._solve_backward(field_fn, np.array([1.0]), 1.0, 0.0,
                                        tol, [0.0])
    traj = integrate_ode(field_fn, [1.0], 0.0, 1.0, [0.5, 1.0], tol=floor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ivp(field_fn, (0.0, 1.0), [1.0], method="DOP853",
                        rtol=floor, atol=floor, t_eval=[0.5, 1.0])
    assert np.array_equal(traj.states.T, sol.y)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 0.9, 4), [0.9]])
def test_failure_matches_scipy(t_eval):
    # y' = y^2 from 2 blows up at 0.5: the driver fails with solve_ivp's
    # message, where scipy's own step loop stopped, to the bit.  None
    # samples at the steps scipy accepted before it failed
    field_fn = lambda t, y: [y[0] ** 2]
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(field_fn, (0.0, 0.9), [2.0], method="DOP853",
                        rtol=1e-10, atol=1e-10, t_eval=t_eval)
        solver = DOP853(field_fn, 0.0, np.array([2.0]), 0.9, rtol=1e-10,
                        atol=1e-10)
        while solver.status == "running":
            solver.step()
    assert sol.status == -1 and solver.status == "failed"
    if t_eval is None:
        t_eval = sol.t
    with pytest.raises(IntegrationError) as exc:
        integrate_ode(field_fn, [2.0], 0.0, 0.9, t_eval=t_eval)
    assert str(exc.value).startswith(
        f"adaptive solver failed: {sol.message} (at tau=")
    assert exc.value.tau == solver.t


@pytest.mark.parametrize("t_eval", [
    [0.5, 1.5], [0.5, 0.5], [0.6, 0.4], [[0.5]], [0.2, math.nan]])
def test_t_eval_checked(t_eval):
    with pytest.raises(ValueError, match="t_eval"):
        integrate_ode(lambda t, y: [-y[0]], [1.0], 0.0, 1.0, t_eval=t_eval)


def test_empty_state_refused():
    with pytest.raises(ValueError, match="empty"):
        integrate_ode(lambda t, y: [], [], 0.0, 1.0, [1.0])


def test_batch_rejects_bad_input():
    field_fn = lambda t, y: [-y[0]]
    with pytest.raises(ValueError):
        integrate_ode_batch(field_fn, [1.0, 2.0], 0.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        integrate_ode_batch(field_fn, np.zeros((0, 1)), 0.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        integrate_ode_batch(field_fn, [[1.0]], 1.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        integrate_ode_batch(field_fn, [[1.0]], 1.0, 0.5, [1.0, 0.5])


def test_noise_stream_is_reproducible():
    a = NoiseStream(99, 3).generator().standard_normal(8)
    b = NoiseStream(99, 3).generator().standard_normal(8)
    c = NoiseStream(99, 4).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sde_step_count():
    assert sde_step_count(0.0, 1.0, 0.1) == 10
    assert sde_step_count(0.0, 1.05, 0.1) == 11
    assert sde_step_count(2.0, 2.0001, 0.1) == 1


def test_default_dt():
    assert default_dt(0.5) == 1e-3
    assert default_dt(0.05) == 1e-3
    assert default_dt(0.01) == pytest.approx(1e-5, rel=1e-12)


def _terms(drift, g_row):
    """make_terms(tau) for integrate_sde: its terms(k, x, w, f, gw,
    scratch) are those of the autonomous one-dimensional system dx =
    drift(x) dt + mu g_row . dW, with g_row the single row of G."""
    g = np.asarray(g_row, dtype=float)

    def terms(k, x, w, f, gw, scratch):
        f[0][...] = drift(x[0])
        np.add(g[0] * w[0], g[1] * w[1], out=gw[0])
    return lambda tau: terms


def test_sde_zero_noise_is_euler():
    # with G = 0 the scheme is the deterministic Euler map
    stream = NoiseStream(1, 0)
    traj, = integrate_sde(_terms(lambda x: -x, [0.0, 0.0]),
                          [1.0], 0.0, 1.0, 0.25, 0.3, [stream])
    x = 1.0
    for _ in range(4):
        x += -x * 0.25
    assert traj.states[-1, 0] == pytest.approx(x, rel=1e-14)


def test_sde_pure_noise_variance():
    # dx = mu dW: Var x(T) = mu^2 T
    mu, T, n = 0.4, 2.0, 400
    ends = np.empty(n)
    for j in range(n):
        traj, = integrate_sde(_terms(lambda x: 0.0 * x, [1.0, 0.0]),
                              [0.0], 0.0, T, 1e-2, mu, [NoiseStream(7, j)])
        ends[j] = traj.states[-1, 0]
    var = ends.var(ddof=1)
    se = var * math.sqrt(2.0 / (n - 1))
    assert abs(var - mu * mu * T) < 4 * se


def test_sde_final_partial_step_lands_on_end():
    traj, = integrate_sde(_terms(np.ones_like, [0.0, 0.0]),
                          [0.0], 0.0, 0.55, 0.1, 0.1, [NoiseStream(2, 0)])
    assert traj.times[-1] == pytest.approx(0.55, abs=1e-14)
    assert traj.states[-1, 0] == pytest.approx(0.55, rel=1e-12)


def test_sde_rejects_bad_window():
    # integrate_ode's window rule, checked where the step grid is built
    terms = _terms(lambda x: -x, [1.0, 0.0])
    for tau1 in (5.0, 4.0):
        with pytest.raises(ValueError, match="tau1 must exceed tau0"):
            integrate_sde(terms, [1.0], 5.0, tau1, 0.1, 0.2,
                          [NoiseStream(1, 0)])
        with pytest.raises(ValueError, match="tau1 must exceed tau0"):
            integrators.step_grid(5.0, tau1, 0.1)


def test_window_below_rounding_tolerance_is_one_step():
    # a span under the step count's 1e-12 tolerance is one step ending at
    # tau1, not an empty grid
    tau1 = 100.0 + 5e-11
    assert integrators.step_grid(100.0, tau1, 1e-3).tolist() == [100.0, tau1]
    traj, = integrate_sde(_terms(lambda x: -x, [1.0, 0.0]), [1.0], 100.0,
                          tau1, 1e-3, 0.2, [NoiseStream(1, 0)])
    assert traj.times.tolist() == [100.0, tau1]
    assert traj.states.shape == (2, 1) and not traj.truncated


@pytest.mark.parametrize("tau1, dt", [
    (6.0, math.nan), (6.0, math.inf), (math.nan, 0.1), (math.inf, 0.1)])
def test_step_grid_rejects_non_finite(tau1, dt):
    with pytest.raises(ValueError, match="finite"):
        integrators.step_grid(5.0, tau1, dt)


def test_sde_step_budget_checked_before_allocation():
    # dt 1e-12 over [0, 60] asks for 6e13 steps: the step count refuses
    # them before the grid is built or the terms are made
    def make_terms(tau):
        raise AssertionError("terms made past the step budget")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            integrate_sde(make_terms, [1.0], 0.0, 60.0, 1e-12, 0.1,
                          [NoiseStream(1, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the budget's edge
    assert sde_step_count(0.0, 50.0, 1e-6) == integrators.MAX_SDE_STEPS
    with pytest.raises(ValueError, match="budget"):
        sde_step_count(0.0, 50.000001, 1e-6)


def test_sde_record_every_thins_output():
    terms = _terms(lambda x: 0.0 * x, [1.0, 0.0])
    full, = integrate_sde(terms, [0.0], 0.0, 1.0, 0.01, 0.2,
                          [NoiseStream(3, 1)])
    thin, = integrate_sde(terms, [0.0], 0.0, 1.0, 0.01, 0.2,
                          [NoiseStream(3, 1)], record_every=10)
    assert thin.times.size < full.times.size
    # identical noise, so the recorded subsequence matches
    idx = np.searchsorted(full.times, thin.times)
    assert np.allclose(full.states[idx, 0], thin.states[:, 0], rtol=0,
                       atol=1e-14)


def test_sde_truncates_blowup():
    traj, = integrate_sde(_terms(lambda x: x ** 2, [0.0, 0.0]),
                          [5.0], 0.0, 2.0, 1e-3, 0.1, [NoiseStream(4, 0)])
    assert traj.truncated
    assert traj.times[-1] < 2.0
    assert np.all(np.isfinite(traj.states))


def _solo_runs(make_terms, x0, tau1, dt, mus, streams, record_every):
    return [integrate_sde(make_terms, x0, 0.0, tau1, dt, mu, [stream],
                          record_every=record_every)[0]
            for mu, stream in zip(mus, streams)]


@pytest.mark.parametrize("record_every", [1, 7])
def test_sde_streams_stack_as_columns(monkeypatch, record_every):
    # one call with n streams is n one-stream calls, bit for bit: each
    # column draws its own stream, steps at its own mu and records its
    # own rows.  The budget gives chunks of 64 steps for three columns
    # and 82 for one, so both runs cross chunks, at different steps;
    # the grid ends on a partial step
    set_chunk(monkeypatch, 64, 3, 3, d=1)
    assert integrators.chunk_steps(1, 1, 1, integrators.N_CHANNELS) == 82
    mus = (0.1, 0.35, 0.55)
    streams = [NoiseStream(9, j) for j in (0, 4, 2)]
    ou = _terms(lambda x: -x, [1.0, 0.5])
    stacked = integrate_sde(ou, [1.0], 0.0, 10.005, 0.01, mus, streams,
                            record_every=record_every)
    solo = _solo_runs(ou, [1.0], 10.005, 0.01, mus, streams, record_every)
    assert len(stacked) == 3
    for got, want in zip(stacked, solo):
        assert not got.truncated and not want.truncated
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)
    # columns see different noise and amplitudes, so the paths differ
    assert stacked[0].states[-1, 0] != stacked[2].states[-1, 0]

    # x' = x^2 from 5 leaves the finite range near tau 0.21, at a step
    # that depends on each column's noise (tau 0.216, 0.210 and 0.212
    # here): a column that is out stops recording while the others step
    # on, and each keeps its own prefix and its own truncation flag
    blowup = _terms(lambda x: x ** 2, [1.0, 0.5])
    streams = [NoiseStream(2, j) for j in range(3)]
    stacked = integrate_sde(blowup, [5.0], 0.0, 0.213, 1e-3, mus, streams,
                            record_every=record_every)
    solo = _solo_runs(blowup, [5.0], 0.213, 1e-3, mus, streams,
                      record_every)
    assert [t.truncated for t in stacked] == [False, True, True]
    for got, want in zip(stacked, solo):
        assert got.truncated == want.truncated
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)
    if record_every == 1:
        # the last row is the last finite state, or the end
        assert [t.times[-1] for t in stacked] == pytest.approx(
            [0.213, 0.209, 0.211], abs=1e-12)


def test_sde_mu_per_stream_checked():
    terms = _terms(lambda x: -x, [1.0, 0.0])
    streams = [NoiseStream(1, 0), NoiseStream(1, 1)]
    with pytest.raises(ValueError, match="mu must lie"):
        integrate_sde(terms, [1.0], 0.0, 1.0, 0.1, (0.2, 1.0), streams)
    for mu in ((0.2, 0.3, 0.4), (0.2,), [[0.2, 0.3]]):
        with pytest.raises(ValueError, match="mu must be one amplitude or "
                                             "one per stream"):
            integrate_sde(terms, [1.0], 0.0, 1.0, 0.1, mu, streams)


@pytest.mark.parametrize("name, value", [
    ("streams", []), ("x0", [math.nan]), ("x0", [math.inf]),
    ("x0", [1.0, -math.inf]), ("record_every", 0), ("record_every", -3),
    ("record_every", math.nan),
    # 2.5 would record every fifth node
    ("record_every", 2.5)])
def test_sde_rejects_bad_input(name, value):
    args = {"make_terms": _terms(lambda x: -x, [1.0, 0.0]), "x0": [1.0],
            "tau0": 0.0, "tau1": 1.0, "dt": 0.1, "mu": 0.2,
            "streams": [NoiseStream(1, 0)], name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            integrate_sde(**args)


def test_deviation_step_reads_reference_at_step_start(params, ref):
    # with zero intensity, an Euler-Maruyama path of the deviation system
    # kicked off the reference is the Euler map x + h f(x, star), with
    # the reference read at each step's start tau[k] (Ito), over a grid
    # that ends on a half step
    noise = NoiseSchedule(mu=0.3, sigma1=constant_schedule(0.0),
                          sigma2=constant_schedule(0.0))
    tau = integrators.step_grid(20.0, 20.2055, 1e-3)
    terms = model.error_terms(params, noise, tau, ref.state(tau))
    x = np.array([[1e-3], [-2e-3]])
    integrators.em_paths(terms, x, tau, 1e-3, np.full(1, noise.mu),
                         [NoiseStream(5, 0).generator()],
                         lambda k0, xs, live, cols: None)
    want = np.array([1e-3, -2e-3])
    for k in range(tau.size - 1):
        f = rhs_error(want, params, ref.state(tau[k]))
        want = np.array([xi + (tau[k + 1] - tau[k]) * fi
                         for xi, fi in zip(want, f)])
    assert np.array_equal(x[:, 0], want)


def test_reference_matches_series_far_out(params, ref):
    e = expand(params, STABLE, 3)
    for tau in (150.0, 300.0):
        r_s, psi_s = evaluate(e, params, tau)
        r_f, psi_f = ref.state(tau)
        assert r_f == pytest.approx(r_s, abs=2e-5)
        assert psi_f == pytest.approx(psi_s, abs=2e-5)


def test_reference_slope_equals_field(params, ref):
    # spline derivative against the vector field it was built from
    h = 1e-5
    for tau in (20.0, 77.0, 250.0):
        r_hi, p_hi = ref.state(tau + h)
        r_lo, p_lo = ref.state(tau - h)
        dr, dp = rhs_primary(ref.state(tau), tau, params)
        assert (r_hi - r_lo) / (2 * h) == pytest.approx(dr, rel=1e-4, abs=1e-6)
        assert (p_hi - p_lo) / (2 * h) == pytest.approx(dp, rel=1e-4, abs=1e-6)


def test_reference_built_once_per_params(params, ref):
    # one build per parameter set: equal params, however built, share the
    # object, and it is the one a fresh build would make, bit for bit
    assert reference_solution(params) is ref
    assert reference_solution(SystemParams(lam=1.0, gamma=0.1)) is ref
    other = reference_solution(SystemParams(lam=1.0, gamma=0.2))
    assert other is not ref
    assert other.state(50.0)[1] != ref.state(50.0)[1]
    fresh = reference_solution.__wrapped__(params)
    assert fresh is not ref
    nodes = ref._nodes
    assert np.array_equal(nodes, fresh._nodes)
    between = (nodes[:-1] + nodes[1:]) / 2.0
    for tau in (nodes, between):
        for got, want in zip(ref.state(tau), fresh.state(tau)):
            assert np.array_equal(got, want)


def test_reference_is_two_splines_bit_for_bit(ref, plain_ref):
    # one spline through the (n, 2) node values gives each component's
    # own spline, bit for bit, as two contiguous rows, and above tau_s
    # both read the series
    assert ref.tau_s == plain_ref.tau_s == 20.0
    assert np.array_equal(ref._nodes, plain_ref.times)
    nodes = plain_ref.times
    rng = np.random.default_rng(11)
    for tau in (nodes, (nodes[:-1] + nodes[1:]) / 2.0,
                rng.uniform(ref.tau_min, ref.tau_max, 100_000),
                rng.uniform(ref.tau_min, ref.tau_max, (40, 50)), 12.3, 77.3,
                [ref.tau_s, np.nextafter(ref.tau_s, 400.0)]):
        got = ref.state(tau)
        assert got.shape == (2,) + np.shape(tau)
        assert got[0].flags.c_contiguous and got[1].flags.c_contiguous
        for row, want in zip(got, plain_ref.state(tau)):
            assert np.array_equal(row, want)


def test_reference_nodes_within_one_ulp(ref, plain_ref):
    # the spline reproduces the backward leg's node values to one ulp; at
    # tau_s it sums the last piece's polynomial
    r, psi = ref.state(plain_ref.times)
    np.testing.assert_array_max_ulp(r, plain_ref.r, maxulp=1)
    np.testing.assert_array_max_ulp(psi, plain_ref.psi, maxulp=1)


def test_reference_refuses_nan(ref):
    # NaN lies in no domain; state(nan) returned [nan, nan]
    for tau in (math.nan, [20.0, math.nan], np.full((2, 3), math.nan)):
        with pytest.raises(ValueError, match="reference domain"):
            ref.state(tau)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_spline_refuses_fewer_than_four_nodes(n):
    x = np.arange(float(n))
    with pytest.raises(ValueError, match=f"at least 4 nodes, got {n}"):
        integrators.ReferenceSolution(x, np.ones((n, 2)), None, 400.0)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 1.0, 2.0, 3.0], np.ones((5, 2))),
    ([0.0, 2.0, 1.0, 3.0, 4.0], np.ones((5, 2))),
    ([0.0, 1.0, 2.0, 3.0, math.inf], np.ones((5, 2))),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [[1.0, 1.0]] * 4 + [[math.nan, 1.0]]),
    ([0.0, 1.0, 2.0, 3.0, 4.0], np.ones((4, 2))),
    ([0.0, 1.0, 2.0, 3.0, 4.0], np.ones(5)),
], ids=["repeated", "unsorted", "inf node", "nan value", "short values",
        "1-d values"])
def test_spline_refuses_bad_nodes(x, y):
    # CubicSpline's input checks, kept: the reference leg never breaks them
    with pytest.raises(ValueError, match="strictly increasing"):
        integrators.ReferenceSolution(np.array(x), np.array(y), None, 400.0)


def test_reference_field_is_rhs_primary(params, ref):
    # the reference build's field on Python floats gives rhs_primary's
    # bits: at random states and along the backward leg, node for node
    field = model.scalar_field(params)
    rng = np.random.default_rng(3)
    for tau, r, psi in rng.uniform([5.0, -50.0, -10.0], [400.0, 50.0, 10.0],
                                   size=(1000, 3)):
        got = field(tau, np.array([r, psi]))
        want = rhs_primary(np.array([r, psi]), tau, params)
        assert np.array_equal(np.array(got), np.array(want))
    exp = expand(params, STABLE, integrators.REF_K)
    y0 = np.array([float(v) for v in evaluate(exp, params, ref.tau_s)])
    t_eval = ref._nodes[::-1]
    legs = [integrators._solve_backward(fn, y0, ref.tau_s,
                                        integrators.REF_TAU_MIN,
                                        integrators.REF_TOL, t_eval)
            for fn in (field, lambda tau, y: rhs_primary(y, tau, params))]
    assert np.array_equal(legs[0][0], legs[1][0])
    assert np.array_equal(legs[0][1], legs[1][1])


def test_failed_reference_build_not_kept(monkeypatch):
    # a build that raises is not cached: the next call builds again
    calls = []

    def bad_residual(e, p, tau):
        calls.append(tau)
        return np.ones_like(tau), np.zeros_like(tau)
    monkeypatch.setattr(asymptotics, "residual", bad_residual)
    p = SystemParams(lam=2.0, gamma=0.3)
    for n in (1, 2):
        with pytest.raises(ValueError, match="series residual"):
            reference_solution(p)
        assert len(calls) == n


def _mp_series_at(p, taus, K=40):
    # the order-K series at each of taus, summed at 40 digits from
    # mp_series' coefficients: (r, psi) as two lists of mpf
    r, psi = mp_series(p.lam, p.gamma, STABLE, K)
    with mpmath.workdps(40):
        psi0 = mpmath.pi - mpmath.asin(p.gamma)
        xs = [1 / mpmath.mpf(tau) for tau in taus]
        return ([p.lam / x + mpmath.fsum(c * x ** k for k, c in enumerate(r))
                 for x in xs],
                [psi0 + mpmath.fsum(c * x ** k for k, c in enumerate(psi, 1))
                 for x in xs])


def _max_errors(got, want_r, want_psi):
    # (largest relative error in r, largest absolute error in psi)
    with mpmath.workdps(40):
        return (float(max(abs(mpmath.mpf(float(g)) / w - 1)
                          for g, w in zip(got[0], want_r))),
                float(max(abs(mpmath.mpf(float(g)) - w)
                          for g, w in zip(got[1], want_psi))))


@pytest.mark.parametrize("lam, gamma", [(1.0, 0.1), (2.0, 0.7),
                                        (1000.0, 0.1)])
def test_reference_above_switch_is_the_series(lam, gamma):
    # above tau_s the reference is the order-24 series, within 1e-13 of
    # the order-40 series summed at 40 digits up to tau 400; measured
    # at most 2e-16 in r and 1.1e-15 in psi.  The two-leg build, seeded
    # from the order-3 series at tau 100, was 5.6e-7 off on [20, 60]
    p = SystemParams(lam=lam, gamma=gamma)
    ref = reference_solution(p)
    taus = np.geomspace(ref.tau_s, ref.tau_max, 50)
    taus[0] = np.nextafter(ref.tau_s, math.inf)
    err_r, err_psi = _max_errors(ref.state(taus), *_mp_series_at(p, taus))
    assert err_r <= 1e-13 and err_psi <= 1e-13


@pytest.mark.parametrize("lam, gamma, bound", [
    # measured 2.2e-11 (r) and 4.7e-10 (psi): the spline's error at
    # step 0.05
    (1.0, 0.1, 2e-9),
    # measured 2.0e-10 and 6.5e-9: the phase bends more at gamma 0.7
    (2.0, 0.7, 2.5e-8),
    # measured 1.0e-13 and 1.4e-9: a short leg from tau_s 10
    (1000.0, 0.1, 5e-9)])
def test_reference_below_switch_is_the_flow(lam, gamma, bound):
    # below tau_s the reference is within bound (relative in r, absolute
    # in psi) of a tol-1e-13 solve_ivp leg seeded from the mpmath series
    # at tau_s, at the spline's nodes and midway between them
    p = SystemParams(lam=lam, gamma=gamma)
    ref = reference_solution(p)
    nodes = ref._nodes
    want_r, want_psi = _mp_series_at(p, [ref.tau_s])
    y0 = [float(want_r[0]), float(want_psi[0])]
    taus = np.sort(np.concatenate([nodes, (nodes[1:] + nodes[:-1]) / 2]))
    sol = solve_ivp(model.scalar_field(p), (ref.tau_s, ref.tau_min), y0,
                    method="DOP853", rtol=1e-13, atol=1e-13,
                    t_eval=taus[::-1])
    got = ref.state(sol.t)
    assert np.max(np.abs(got[0] / sol.y[0] - 1)) <= bound
    assert np.max(np.abs(got[1] - sol.y[1])) <= bound


@pytest.mark.parametrize("lam, gamma, tau_s", [
    (1.0, 0.1, 20.0), (2.0, 0.7, 15.0), (0.25, 0.05, 30.0),
    # the order-3 series at tau 100 refused these three
    (0.1, 0.5, 100.0), (3.0, 0.9, 30.0), (0.1, 0.1, 50.0),
    # here 16 eps |r|, r ~ lam tau, is above 1e-13 and sets the
    # tolerance: 1e-13 alone would put (100, 0.1) at 20 and refuse
    # (1000, 0.1)
    (100.0, 0.1, 10.0), (1000.0, 0.1, 10.0)])
def test_reference_switches_at_first_passing_rung(lam, gamma, tau_s):
    p = SystemParams(lam=lam, gamma=gamma)
    ref = reference_solution.__wrapped__(p)
    assert ref.tau_s == tau_s
    assert (ref.tau_min, ref.tau_max) == (integrators.REF_TAU_MIN,
                                          integrators.REF_TAU_MAX)
    exp = expand(p, STABLE, integrators.REF_K)
    passes = [math.hypot(*asymptotics.residual(exp, p, tau))
              <= seed_residual_tol(exp, p, tau)
              for tau in integrators.REF_SWITCH_LADDER]
    assert passes.index(True) == integrators.REF_SWITCH_LADDER.index(tau_s)


@pytest.mark.parametrize("lam, gamma, match", [
    # no rung's residual meets the tolerance
    (1e-3, 0.5, r"series residual .* at tau=400,"),
])
def test_reference_refuses_series_on_no_rung(lam, gamma, match):
    with pytest.raises(ValueError, match=match):
        reference_solution.__wrapped__(SystemParams(lam=lam, gamma=gamma))


def test_reference_leg_has_a_step_budget():
    # at (5, 0.99) only tau 400 passes, and the leg back from there
    # leaves the lock by tau 355: r then grows like exp(gamma (400 -
    # tau)) and the phase winds ever faster.  The build stops at
    # REF_MAX_STEPS accepted steps instead of running for hours
    with pytest.raises(IntegrationError, match="more than 10000 steps") as exc:
        reference_solution.__wrapped__(SystemParams(lam=5.0, gamma=0.99))
    assert integrators.REF_TAU_MIN < exc.value.tau < 355.0


def test_reference_build_field_calls(params, monkeypatch):
    # the build at (1, 0.1) is one short leg: 1847 field calls, against
    # 38 401 for the two legs from tau 100
    field, calls = model.scalar_field, []

    def counted(p):
        fun = field(p)

        def count(tau, y):
            calls.append(tau)
            return fun(tau, y)
        return count
    monkeypatch.setattr(model, "scalar_field", counted)
    reference_solution.__wrapped__(params)
    assert 0 < len(calls) <= 3000


def test_reference_domain_enforced(params, ref):
    with pytest.raises(ValueError):
        ref.state(ref.tau_min - 0.5)
    with pytest.raises(ValueError):
        ref.state(ref.tau_max + 0.5)


def test_reference_phase_stays_locked(params, ref):
    # the captured phase approaches psi0 like psi0 - 1/(nu*tau), so it is
    # 0.17 away at the default tau_min = 5 and inside 0.1 only from
    # tau ~ 9; the band is checked from tau = 10, where certify's default
    # tau_range and the CLI's tau_lo first read the reference
    taus = np.linspace(ref.tau_min, ref.tau_max, 200)
    psi = np.array([ref.state(t)[1] for t in taus])
    psi0 = math.pi - math.asin(params.gamma)
    dev = np.abs(psi - psi0)
    # attracting branch everywhere, and the phase never slips
    assert np.all(np.cos(psi) < 0)
    assert np.all(np.diff(dev) < 0)
    band = np.linspace(10.0, ref.tau_max, 200)
    assert np.all(np.abs(ref.state(band)[1] - psi0) < 0.1)


def _allocating_terms(kind, p, noise, tau, star):
    """The perturbed or deviation terms as plain expressions that return
    fresh (f, G w) arrays; the fused terms must match them bit for bit."""
    s1, s2 = model._intensities(noise, tau)

    def g_w(k, r, sin, cos, w):
        return s1[k] * r * sin * w[0], s1[k] * cos * w[0] + s2[k] * w[1]

    def perturbed(k, x, w):
        r, psi = x
        sin, cos = np.sin(psi), np.cos(psi)
        return ((r * sin - p.gamma * r, r - p.lam * tau[k] + cos),
                g_w(k, r, sin, cos, w))

    def error(k, x, w):
        R, Psi = x
        rs, ps = star[0][k], star[1][k]
        sin, cos = np.sin(Psi + ps), np.cos(Psi + ps)
        dH_dR = R + cos - math.cos(ps)
        dH_dPsi = -(R + rs) * sin + rs * math.sin(ps)
        return ((-dH_dPsi - p.gamma * R, dH_dR),
                g_w(k, rs + R, sin, cos, w))
    return perturbed if kind == "perturbed" else error


class _Recorder:
    """plain_em observer that keeps, per path, every state it sees while
    the path moves, and stops a path whose first component leaves [c -
    lim, c + lim]."""

    def __init__(self, c, lim, m):
        self.c, self.lim = c, lim
        self.seen = [[] for _ in range(m)]
        self.stopped = np.zeros(m, dtype=bool)

    def __call__(self, k, x, moved):
        moved = np.broadcast_to(moved, x.shape[1])
        for j in np.flatnonzero(moved):
            self.seen[j].append((k, x[:, j].copy()))
        if k > 0:
            stop = moved & (np.abs(x[0] - self.c) > self.lim)
            self.stopped |= stop
            return stop


class _ChunkRecorder(_Recorder):
    """The em_paths observer that sees what _Recorder sees: per path,
    each state up to the path's stop or its escape row, with the same
    stopping rule applied row by row; it counts its calls and checks
    that no path stopped or escaped in an earlier chunk reaches it."""

    def __init__(self, c, lim, m):
        super().__init__(c, lim, m)
        self.calls = 0
        self.gone = np.zeros(m, dtype=bool)

    def __call__(self, k0, xs, live, cols):
        self.calls += 1
        assert not self.gone[cols].any()
        # live covers every slab row and is a prefix of each column
        n_live = live.sum(axis=0)
        assert live.shape == (xs.shape[0], cols.size) and (n_live > 0).all()
        assert np.array_equal(live, np.arange(xs.shape[0])[:, None] < n_live)
        x = np.full((xs.shape[1], self.gone.size), np.nan)
        moved = np.zeros(self.gone.size, dtype=bool)
        for i in range(0 if k0 == 0 else 1, xs.shape[0]):
            x[:, cols] = xs[i]
            moved[cols] = (i < n_live) & ~self.stopped[cols]
            super().__call__(k0 + i, x, moved)
        self.gone[cols[n_live < xs.shape[0]]] = True
        self.gone |= self.stopped
        return self.stopped[cols]


@pytest.mark.parametrize("kind", ["perturbed", "error"])
@pytest.mark.parametrize("start, sigma1", [
    ("tube", 0.4), ("overflow", 0.4), ("tube", 0.0), ("overflow", 0.0)],
    ids=["tube", "overflow", "tube-additive", "overflow-additive"])
def test_em_paths_matches_plain_loop(params, ref, monkeypatch, kind, start,
                                     sigma1):
    # sigma1 != 0 feeds both channels, a window of 205.5 dt ends on a
    # half step, and the generators reach the engines after a ball start
    # has drawn from them (plain_ball_starts); near the largest double a
    # step overflows for some paths, and the observer stops others.  With
    # sigma1 = 0 the terms are additive and em_paths forms the noise in
    # bulk, while the plain loop still adds the zero channel; sigma2 is
    # not a power of two, so the order of the products shows in the bits.
    # em_paths runs in one chunk and in chunks of 7 steps.  A stopped
    # path steps on to its chunk's end there, where the plain loop
    # freezes it, so states are compared up to each path's stop or
    # escape, and a stopped path's end state and escape time are not.
    # Neither a stopped nor an escaped path is observed after its chunk
    noise = NoiseSchedule(mu=0.3, sigma1=constant_schedule(sigma1),
                          sigma2=power_schedule(3.0, -0.5))
    tau0, dt, m = 20.0, 1e-3, 100
    tau = integrators.step_grid(tau0, tau0 + 0.2055, dt)
    n_steps = tau.size - 1
    assert tau[-1] - tau[-2] == pytest.approx(dt / 2)
    star = ref.state(tau)
    if start == "overflow":
        x0, radius, lim = (1.6e308, 2.0), 1e307, 8e306
    else:
        x0 = ref.state(tau0) if kind == "perturbed" else (0.0, 0.0)
        radius, lim = 0.05, 0.3
    fused = (model.perturbed_terms(params, noise, tau)
             if kind == "perturbed"
             else model.error_terms(params, noise, tau, star))
    assert hasattr(fused, "additive") == (sigma1 == 0)
    plain = _allocating_terms(kind, params, noise, tau, star)

    def run(engine, terms, obs):
        x = np.empty((2, m))
        x[0], x[1] = x0
        rngs = [NoiseStream(17, j).generator() for j in range(m)]
        plain_ball_starts(x, rngs, radius)
        with np.errstate(over="ignore", invalid="ignore"):
            esc = engine(terms, x, tau, dt, np.full(m, noise.mu), rngs, obs)
        return esc, x, obs

    esc_ref, x_ref, obs_ref = run(plain_em, plain,
                                  _Recorder(float(x0[0]), lim, m))
    free = ~obs_ref.stopped
    for chunk in (None, 7):
        if chunk is not None:
            set_chunk(monkeypatch, chunk, m, m, n_chans=n_chans_of(noise))
        esc, x, obs = run(integrators.em_paths, fused,
                          _ChunkRecorder(float(x0[0]), lim, m))
        assert obs.calls == -(-n_steps // (chunk or n_steps))
        assert np.array_equal(obs.stopped, obs_ref.stopped)
        assert np.array_equal(esc[free], esc_ref[free], equal_nan=True)
        assert np.array_equal(x[:, free], x_ref[:, free])
        for j, (seen, seen_ref) in enumerate(zip(obs.seen, obs_ref.seen)):
            assert [k for k, _ in seen] == [k for k, _ in seen_ref], j
            for (k, state), (_, state_ref) in zip(seen, seen_ref):
                assert np.array_equal(state, state_ref), (j, k)
    # the case is exercised: stopped paths, escapes near overflow, and
    # paths that take the final half step
    assert obs_ref.stopped.any()
    assert (~np.isnan(esc_ref)).any() == (start == "overflow")
    assert max(seen[-1][0] for seen in obs_ref.seen) == n_steps


def test_em_paths_observes_once_per_chunk(monkeypatch):
    # 1000 steps in chunks of 64 are 16 observer calls; row 0 of each
    # chunk is the start state, then the last row of the chunk before
    set_chunk(monkeypatch, 64, 3, 3, d=1)
    tau = integrators.step_grid(0.0, 1.0, 1e-3)
    terms = _terms(lambda x: -x, [1.0, 0.5])(tau)

    def rngs():
        return [NoiseStream(5, j).generator() for j in range(3)]
    calls = []

    def observe(k0, xs, live, cols):
        assert np.array_equal(cols, np.arange(3))
        calls.append((k0, xs.copy(), live.sum(axis=0)))

    x = np.ones((1, 3))
    escaped_at = integrators.em_paths(terms, x, tau, 1e-3, np.full(3, 0.3),
                                      rngs(), observe)
    assert [k0 for k0, _, _ in calls] == list(range(0, 1000, 64))
    assert [xs.shape[0] for _, xs, _ in calls] == [65] * 15 + [41]
    assert np.array_equal(calls[0][1][0], np.ones((1, 3)))
    for (_, before, _), (_, after, _) in zip(calls, calls[1:]):
        assert np.array_equal(after[0], before[-1])
    assert all(np.array_equal(n_live, [xs.shape[0]] * 3)
               for _, xs, n_live in calls)
    assert np.array_equal(x, calls[-1][1][-1])
    assert np.isnan(escaped_at).all()

    # an observer that stops every path ends stepping after its chunk
    calls.clear()

    def stop_all(k0, xs, live, cols):
        calls.append(k0)
        return np.ones(xs.shape[2], dtype=bool)
    integrators.em_paths(terms, np.ones((1, 3)), tau, 1e-3, np.full(3, 0.3),
                         rngs(), stop_all)
    assert calls == [0]


@pytest.mark.parametrize("sigma1", [0.4, 0.0], ids=["general", "additive"])
def test_path_leaving_finite_range_never_returns(params, monkeypatch,
                                                 sigma1):
    # em_paths marks a slab row live when it is finite, and that is a
    # prefix of each column: a step keeps a non-finite component
    # non-finite.  Paths from next to the largest double overflow at
    # steps their noise decides, mid-chunk, and each row after a path's
    # first non-finite row, to its chunk's end, stays non-finite
    noise = NoiseSchedule(mu=0.3, sigma1=constant_schedule(sigma1),
                          sigma2=power_schedule(3.0, -0.5))
    tau = integrators.step_grid(20.0, 20.2055, 1e-3)
    terms = model.perturbed_terms(params, noise, tau)
    m = 40
    set_chunk(monkeypatch, 7, m, m, n_chans=n_chans_of(noise))
    past_escape = []

    def observe(k0, xs, live, cols):
        finite = np.isfinite(xs).all(axis=1)
        n_live = finite.sum(axis=0)
        assert np.array_equal(live, finite)
        assert np.array_equal(finite, np.arange(xs.shape[0])[:, None] < n_live)
        past_escape.append(n_live[n_live < xs.shape[0]] < xs.shape[0] - 1)
    x = np.empty((2, m))
    x[0], x[1] = np.linspace(1.6e308, 1.79e308, m), 2.0
    escaped_at = integrators.em_paths(
        terms, x, tau, 1e-3, np.full(m, noise.mu),
        [NoiseStream(23, j).generator() for j in range(m)], observe)
    assert np.isfinite(x).all()
    # paths escape at different nodes, and some have non-finite rows
    # after the first one
    assert np.unique(escaped_at[~np.isnan(escaped_at)]).size > 2
    assert np.concatenate(past_escape).any()


def test_em_paths_refuses_non_finite_start():
    # row 0 of the first chunk is the start, and a live mask that is the
    # rows' finiteness holds only from a finite one
    tau = integrators.step_grid(0.0, 1.0, 0.1)
    terms = _terms(lambda x: -x, [1.0, 0.0])(tau)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="starts x must be finite"):
            integrators.em_paths(terms, np.array([[1.0, bad]]), tau, 0.1,
                                 np.full(2, 0.2),
                                 [NoiseStream(1, j).generator()
                                  for j in range(2)],
                                 lambda k0, xs, live, cols: None)


def _tube_observer(params, ref, tau, m, cls=ensemble._TubeObserver):
    cfg = SimpleNamespace(tau0=20.0, horizon=1.1, eps1=0.3, params=params)
    obs = cls(cfg, tau, ref.state(tau), m)
    # the window ends before a capture verdict; a tube observer still
    # folds the phase range, as in a run that gives one, so its peak is
    # the most it holds
    obs.verdict = cls.VERDICT
    return obs


def _stopped_u1(params, ref, cert, tau, m):
    noise = NoiseSchedule(mu=0.3, sigma1=constant_schedule(0.0),
                          sigma2=constant_schedule(1.0))
    cfg = SimpleNamespace(tau0=20.0, horizon=1.1, params=params, noise=noise)
    obs_idx = np.arange(0, tau.size, 100)
    # a tube no path leaves, so every chunk is stepped and observed
    wide = dataclasses.replace(cert, d0=10.0)
    return ensemble._StoppedU1(cfg, wide, tau, ref.state(tau), obs_idx, m)


def _em_paths_peak(params, ref, cert, sigma1, observer=None):
    """Traced peak of one em_paths call at 256 paths with a stream each
    over 1100 steps, five chunks, with no-op, tube, exit (a tube that
    stops paths at their exit) or U_1 observer."""
    noise = NoiseSchedule(mu=0.3, sigma1=constant_schedule(sigma1),
                          sigma2=constant_schedule(1.0))
    m = 256
    tau = integrators.step_grid(20.0, 21.1, 1e-3)
    # additive terms read one channel and take the longest chunks
    assert tau.size - 1 > 4 * integrators.chunk_steps(m, m, 2, 1)
    x = np.empty((2, m))
    if observer == "stopped":
        terms = model.error_terms(params, noise, tau, ref.state(tau))
        obs = _stopped_u1(params, ref, cert, tau, m)
        x[:] = 0.0
    else:
        terms = model.perturbed_terms(params, noise, tau)
        obs = (_tube_observer(params, ref, tau, m) if observer == "tube"
               else _tube_observer(params, ref, tau, m,
                                   ensemble._ExitObserver)
               if observer == "exit" else lambda k0, xs, live, cols: None)
        x[0], x[1] = ref.state(20.0)
    tracemalloc.start()
    try:
        integrators.em_paths(terms, x, tau, 1e-3, np.full(m, noise.mu),
                             [NoiseStream(3, j).generator() for j in range(m)],
                             obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(x).all()
    return peak, obs


@pytest.mark.parametrize("sigma1", [0.0, 0.4])
def test_em_paths_noise_within_budget(params, ref, cert, sigma1):
    # the stream-major draws, the step-major increments and the state
    # slab of one call fit in NOISE_BUDGET together, peak within the
    # budget plus a tenth of it (the 256 generators, about 600 bytes
    # each, the slab's row views and the per-chunk temporaries use the
    # tenth)
    peak, _ = _em_paths_peak(params, ref, cert, sigma1)
    assert peak <= integrators.NOISE_BUDGET * 1.1


@pytest.mark.parametrize("observer", ["tube", "stopped", "exit"])
def test_em_paths_observer_within_budget(params, ref, cert, observer):
    # and so does the observers' work on the slab: a reference-tracked
    # _TubeObserver, and a _StoppedU1 on the deviation system.  Paths that
    # stop at their exit narrow the slab, whose narrower buffers are views
    # of the first ones
    peak, obs = _em_paths_peak(params, ref, cert, 0.0, observer)
    assert peak <= integrators.NOISE_BUDGET * 1.1
    if observer != "stopped":
        assert obs.exited.any() and not obs.exited.all()
