import math
from types import SimpleNamespace

import numpy as np
import pytest

from autores import asymptotics, integrators, model
from autores.asymptotics import STABLE, evaluate, expand
from autores.integrators import (IntegrationError, NoiseStream, Trajectory,
                                 default_dt, integrate_ode,
                                 integrate_ode_batch, integrate_sde,
                                 reference_solution, sde_step_count)
from autores.ensemble import classify_capture
from autores.model import (NoiseSchedule, SystemParams, constant_schedule,
                           rhs_primary)


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
        integrate_ode(lambda t, y: [0.0], [1.0], 5.0, 5.0)
    with pytest.raises(ValueError):
        integrate_ode(lambda t, y: [0.0], [1.0], 5.0, 4.0)


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
    with pytest.raises(IntegrationError) as solo:
        integrate_ode(field_fn, [2.0], 0.0, 0.9)
    with pytest.raises(IntegrationError) as batch:
        integrate_ode_batch(field_fn, [[0.5], [2.0]], 0.0, 0.9)
    assert batch.value.tau == pytest.approx(0.5, abs=1e-6)
    assert solo.value.tau == pytest.approx(0.5, abs=1e-6)


def test_non_finite_solver_output_fails_the_run(monkeypatch):
    # DOP853 fails before it returns non-finite samples on every blow-up
    # tried, so a run that does return them is faked; it must raise at
    # the first non-finite sample, not come back truncated
    def fake(fun, t_span, y0, **kw):
        return SimpleNamespace(success=True, t=np.array([0.0, 0.5, 1.0]),
                               y=np.array([[1.0, np.inf, np.nan]]))
    monkeypatch.setattr(integrators, "solve_ivp", fake)
    with pytest.raises(IntegrationError) as exc:
        integrate_ode(lambda t, y: [0.0], [1.0], 0.0, 1.0)
    assert exc.value.tau == 0.5


def test_batch_rejects_bad_input():
    field_fn = lambda t, y: [-y[0]]
    with pytest.raises(ValueError):
        integrate_ode_batch(field_fn, [1.0, 2.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_ode_batch(field_fn, np.zeros((0, 1)), 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_ode_batch(field_fn, [[1.0]], 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_ode_batch(field_fn, [[1.0]], 1.0, 0.5)


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
    traj = integrate_sde(_terms(lambda x: -x, [0.0, 0.0]),
                         [1.0], 0.0, 1.0, 0.25, 0.3, stream)
    x = 1.0
    for _ in range(4):
        x += -x * 0.25
    assert traj.states[-1, 0] == pytest.approx(x, rel=1e-14)


def test_sde_pure_noise_variance():
    # dx = mu dW: Var x(T) = mu^2 T
    mu, T, n = 0.4, 2.0, 400
    ends = np.empty(n)
    for j in range(n):
        traj = integrate_sde(_terms(lambda x: 0.0 * x, [1.0, 0.0]),
                             [0.0], 0.0, T, 1e-2, mu, NoiseStream(7, j))
        ends[j] = traj.states[-1, 0]
    var = ends.var(ddof=1)
    se = var * math.sqrt(2.0 / (n - 1))
    assert abs(var - mu * mu * T) < 4 * se


def test_sde_final_partial_step_lands_on_end():
    traj = integrate_sde(_terms(np.ones_like, [0.0, 0.0]),
                         [0.0], 0.0, 0.55, 0.1, 0.1, NoiseStream(2, 0))
    assert traj.times[-1] == pytest.approx(0.55, abs=1e-14)
    assert traj.states[-1, 0] == pytest.approx(0.55, rel=1e-12)


def test_sde_record_every_thins_output():
    terms = _terms(lambda x: 0.0 * x, [1.0, 0.0])
    full = integrate_sde(terms, [0.0], 0.0, 1.0, 0.01, 0.2,
                         NoiseStream(3, 1))
    thin = integrate_sde(terms, [0.0], 0.0, 1.0, 0.01, 0.2,
                         NoiseStream(3, 1), record_every=10)
    assert thin.times.size < full.times.size
    # identical noise, so the recorded subsequence matches
    idx = np.searchsorted(full.times, thin.times)
    assert np.allclose(full.states[idx, 0], thin.states[:, 0], rtol=0,
                       atol=1e-14)


def test_sde_truncates_blowup():
    traj = integrate_sde(_terms(lambda x: x ** 2, [0.0, 0.0]),
                         [5.0], 0.0, 2.0, 1e-3, 0.1, NoiseStream(4, 0))
    assert traj.truncated
    assert traj.times[-1] < 2.0
    assert np.all(np.isfinite(traj.states))


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
    nodes = ref._spline_r.x
    assert np.array_equal(nodes, fresh._spline_r.x)
    between = (nodes[:-1] + nodes[1:]) / 2.0
    for tau in (nodes, between):
        for got, want in zip(ref.state(tau), fresh.state(tau)):
            assert np.array_equal(got, want)


def test_failed_reference_build_not_kept(monkeypatch):
    # a build that raises is not cached: the next call builds again
    calls = []

    def bad_residual(*args):
        calls.append(args)
        return (1.0, 0.0)
    monkeypatch.setattr(asymptotics, "residual", bad_residual)
    p = SystemParams(lam=2.0, gamma=0.3)
    for n in (1, 2):
        with pytest.raises(ValueError, match="series residual"):
            reference_solution(p)
        assert len(calls) == n


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


def _plain_em(terms, x, grid, dt, mu, streams, observe, ball_radius):
    """em_paths written plainly: every increment drawn up front, fresh
    arrays on every step, a row-by-row update and an explicit mask."""
    _, tau_next, h = grid
    rngs = [s.generator() for s in streams]
    for i, rng in enumerate(rngs if ball_radius > 0 else ()):
        u, ang = rng.uniform(size=2)
        rad = ball_radius * math.sqrt(u)
        x[0, i] += rad * math.cos(2 * math.pi * ang)
        x[1, i] += rad * math.sin(2 * math.pi * ang)
    z = np.stack([rng.standard_normal((h.size, 2)) for rng in rngs], axis=-1)
    active = np.ones(x.shape[1], dtype=bool)
    escaped_at = np.full(x.shape[1], np.nan)
    observe(-1, x, True)
    for k in range(h.size):
        w = z[k] * math.sqrt(dt)
        if h[k] != dt:
            w = w * math.sqrt(h[k] / dt)
        f, gw = terms(k, x, w)
        x_new = np.array([xi + fi * h[k] + mu * gi
                          for xi, fi, gi in zip(x, f, gw)])
        moved = active & np.isfinite(x_new).all(axis=0)
        escaped_at[active & ~moved] = tau_next[k]
        x[:, moved] = x_new[:, moved]
        stop = observe(k, x, moved)
        active = moved if stop is None else moved & ~stop
        if not active.any():
            break
    return escaped_at


class _Recorder:
    """Observer that keeps every state it sees and stops a path whose
    first component leaves [c - lim, c + lim]."""

    def __init__(self, c, lim, m):
        self.c, self.lim, self.seen = c, lim, []
        self.stopped = np.zeros(m, dtype=bool)

    def __call__(self, k, x, moved):
        moved = np.broadcast_to(moved, x.shape[1]).copy()
        self.seen.append((k, x.copy(), moved))
        if k >= 0:
            stop = moved & (np.abs(x[0] - self.c) > self.lim)
            self.stopped |= stop
            return stop


@pytest.mark.parametrize("kind", ["perturbed", "error"])
@pytest.mark.parametrize("start", ["tube", "overflow"])
def test_em_paths_matches_plain_loop(params, ref, kind, start):
    # sigma1 != 0 feeds both channels, a window of 205.5 dt ends on a
    # half step, and a ball start draws first; near the largest double a
    # step overflows for some paths, and the observer stops others
    noise = NoiseSchedule(mu=0.3, sigma1=constant_schedule(0.4),
                          sigma2=constant_schedule(1.0))
    tau0, dt, m = 20.0, 1e-3, 100
    grid = integrators.step_grid(tau0, tau0 + 0.2055, dt)
    assert grid[2][-1] == pytest.approx(dt / 2)
    star = ref.state(grid[1])
    if start == "overflow":
        x0, radius, lim = (1.6e308, 2.0), 1e307, 8e306
    else:
        x0 = ref.state(tau0) if kind == "perturbed" else (0.0, 0.0)
        radius, lim = 0.05, 0.3
    fused = (model.perturbed_terms(params, noise, grid[0])
             if kind == "perturbed"
             else model.error_terms(params, noise, grid[0], star))
    plain = _allocating_terms(kind, params, noise, grid[0], star)
    runs = []
    for engine, terms in ((integrators.em_paths, fused), (_plain_em, plain)):
        x = np.empty((2, m))
        x[0], x[1] = x0
        obs = _Recorder(float(x0[0]), lim, m)
        with np.errstate(over="ignore", invalid="ignore"):
            esc = engine(terms, x, grid, dt, noise.mu,
                         [NoiseStream(17, j) for j in range(m)], obs,
                         ball_radius=radius)
        runs.append((esc, x, obs))
    (esc, x, obs), (esc_ref, x_ref, obs_ref) = runs
    assert np.array_equal(esc, esc_ref, equal_nan=True)
    assert np.array_equal(x, x_ref)
    assert len(obs.seen) == len(obs_ref.seen)
    for (k, xs, moved), (k_ref, xs_ref, moved_ref) in zip(obs.seen,
                                                          obs_ref.seen):
        assert k == k_ref
        assert np.array_equal(xs, xs_ref), k
        assert np.array_equal(moved, moved_ref), k
    # the case is exercised: stopped paths, escapes near overflow, and
    # paths that take the final half step
    assert obs.stopped.any()
    assert (~np.isnan(esc)).any() == (start == "overflow")
    assert obs.seen[-1][0] == grid[2].size - 1
