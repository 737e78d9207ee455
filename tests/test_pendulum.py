import math

import numpy as np
import pytest

from autores.model import SystemParams, rhs_primary
from autores.integrators import Trajectory, integrate_ode
from autores.ensemble import classify_capture
from autores.pendulum import (PendulumParams, envelope_compare,
                              extract_envelope, integrate_pendulum,
                              inverse_map, seed_from_averaged)


def test_params_validation():
    PendulumParams(eps=0.0, alpha=1e-4, theta=1e-3)  # plain damped pendulum
    with pytest.raises(ValueError):
        PendulumParams(eps=1.0, alpha=1e-4, theta=1e-3)
    with pytest.raises(ValueError):
        PendulumParams(eps=-0.1, alpha=1e-4, theta=1e-3)


def test_inverse_map_round_trip():
    # the averaged system's lam = 8 alpha / eps^2 and gamma = 2 theta / eps
    p = SystemParams(lam=1.0, gamma=0.1)
    pp = inverse_map(p, 0.05)
    assert pp.alpha == pytest.approx(3.125e-4, rel=1e-14)
    assert pp.theta == pytest.approx(2.5e-3, rel=1e-14)
    for eps in (0.025, 0.05, 0.1):
        pp = inverse_map(p, eps)
        assert pp.eps == eps
        assert 8.0 * pp.alpha / eps ** 2 == pytest.approx(p.lam, rel=1e-14)
        assert 2.0 * pp.theta / eps == pytest.approx(p.gamma, rel=1e-14)
    with pytest.raises(ValueError):
        inverse_map(p, 0.0)
    with pytest.raises(ValueError):
        inverse_map(p, 1.0)


def test_seed_formula():
    u0, v0 = seed_from_averaged(2.0, math.pi / 2.0, 0.05)
    amp = math.sqrt(4.0 * 0.05 * 2.0)
    assert u0 == pytest.approx(amp * math.cos(math.pi / 4.0), rel=1e-14)
    assert v0 == pytest.approx(-amp * math.sin(math.pi / 4.0), rel=1e-14)
    u0, v0 = seed_from_averaged(1.0, 0.0, 0.05)
    assert v0 == 0.0 and u0 == pytest.approx(math.sqrt(0.2), rel=1e-14)


def test_plain_damped_energy_decreases():
    pp = PendulumParams(eps=0.0, alpha=0.0, theta=0.05)
    traj = integrate_pendulum(pp, 2.0, 0.0, 40.0)
    u = traj.states[:, 0]
    v = traj.states[:, 1]
    energy = 0.5 * v * v + (1.0 - np.cos(u))
    assert np.all(np.diff(energy) <= 1e-9)
    assert energy[-1] < 0.5 * energy[0]


def test_small_oscillation_period():
    pp = PendulumParams(eps=0.0, alpha=0.0, theta=0.0)
    traj = integrate_pendulum(pp, 0.01, 0.0, 50.0)
    u = traj.states[:, 0]
    t = traj.times
    flips = np.where(np.diff(np.signbit(u)))[0]
    # linear interpolation at each sign change
    zeros = t[flips] - u[flips] * (t[flips + 1] - t[flips]) / (
        u[flips + 1] - u[flips])
    gaps = np.diff(zeros)
    assert np.max(np.abs(gaps - math.pi)) < 1e-3


def test_extract_envelope_synthetic():
    t = np.linspace(0.0, 100.0, 4001)
    amp = 2.0 + 0.01 * t
    u = amp * np.cos(t)
    v = 0.01 * np.cos(t) - amp * np.sin(t)
    traj = Trajectory(t, np.column_stack([u, v]))
    te, env = extract_envelope(traj)
    assert te.size >= 30
    assert np.max(np.abs(env - (2.0 + 0.01 * te))) < 1e-3

    short = Trajectory(t[:200], np.column_stack([u[:200], v[:200]]))
    with pytest.raises(ValueError, match="extrema"):
        extract_envelope(short)


def test_extract_envelope_flat_triple():
    # a flat |u| triple at an extremum has no parabola vertex to refine
    # towards: the extremum reads as its middle sample, and the others do
    # not move
    t = np.linspace(0.0, 100.0, 4001)
    u = (2.0 + 0.01 * t) * np.cos(t)
    v = 0.01 * np.cos(t) - (2.0 + 0.01 * t) * np.sin(t)
    te, env = extract_envelope(Trajectory(t, np.column_stack([u, v])))
    flips = np.where(np.diff(np.signbit(v)))[0]
    flips = flips[(flips > 0) & (flips < t.size - 2)]
    assert flips.size >= 20
    j = 9
    i = flips[j]
    flat = u.copy()
    flat[i - 1:i + 2] = u[i]
    te_flat, env_flat = extract_envelope(
        Trajectory(t, np.column_stack([flat, v])))
    assert (te_flat[j], env_flat[j]) == (t[i], abs(u[i]))
    others = np.arange(te.size) != j
    assert np.array_equal(te_flat[others], te[others])
    assert np.array_equal(env_flat[others], env[others])


def test_envelope_compare_synthetic():
    # fabricated pendulum whose envelope is exactly the predicted profile
    eps, lam, nu = 0.05, 1.0, math.sqrt(1.0 - 0.01)
    pp = PendulumParams(eps=eps, alpha=lam * eps ** 2 / 8.0,
                        theta=0.1 * eps / 2.0)
    t = np.linspace(0.0, 600.0, 12001)
    amp = np.sqrt(2.0 * lam * eps ** 2 * t + 4.0 * eps * nu)
    damp = lam * eps ** 2 / amp
    u = amp * np.cos(t + 0.3)
    v = damp * np.cos(t + 0.3) - amp * np.sin(t + 0.3)
    pend = Trajectory(t, np.column_stack([u, v]))

    tau = np.linspace(0.0, 15.0, 1501)
    avg = Trajectory(tau, np.column_stack([lam * tau + nu,
                                           np.full_like(tau, 3.0)]))
    out = envelope_compare(pend, avg, pp)
    assert out["mean_rel_err"] < 2e-3
    assert out["max_rel_err"] < 5e-3
    # profile value near tau = 10
    want = math.sqrt(4.0 * eps * (lam * 10.0 + nu))
    got = float(np.interp(10.0, out["tau"], out["predicted"]))
    assert got == pytest.approx(want, abs=1e-3)
    assert want == pytest.approx(1.4829, abs=1e-4)


def test_envelope_compare_window_errors():
    eps = 0.05
    pp = PendulumParams(eps=eps, alpha=eps ** 2 / 8.0, theta=0.05 * eps)
    t = np.linspace(0.0, 600.0, 12001)
    u = np.cos(t)
    v = -np.sin(t)
    pend = Trajectory(t, np.column_stack([u, v]))
    tau = np.linspace(20.0, 25.0, 100)
    avg = Trajectory(tau, np.column_stack([tau, np.zeros_like(tau)]))
    with pytest.raises(ValueError, match="window"):
        envelope_compare(pend, avg, pp)


def _averaged_capture_run(p, r0, psi0, tau_end=60.0):
    t_eval = np.linspace(0.0, tau_end, 3000)
    return integrate_ode(lambda t, y: rhs_primary(y, t, p), [r0, psi0],
                         0.0, tau_end, tol=1e-10, t_eval=t_eval)


def test_error_decreases_with_eps():
    p = SystemParams(lam=1.0, gamma=0.1)
    avg = _averaged_capture_run(p, 1.0, 2.0, tau_end=14.0)
    errs = []
    for eps in (0.1, 0.05):
        pp = inverse_map(p, eps)
        u0, v0 = seed_from_averaged(1.0, 2.0, eps)
        pend = integrate_pendulum(pp, u0, v0, 2.0 * 14.0 / eps, tol=1e-9)
        out = envelope_compare(pend, avg, pp, window=(5.0, 12.0))
        errs.append(out["mean_rel_err"])
    assert errs[1] < errs[0]
    assert errs[0] < 0.1


def test_capture_verdicts_transfer():
    # the averaged verdict and raw-pendulum envelope growth agree on at
    # least 18 of 20 seed points (boundary cells may straddle)
    p = SystemParams(lam=1.0, gamma=0.1)
    eps = 0.05
    pp = inverse_map(p, eps)
    agree = 0
    for r0 in (0.25, 0.75, 1.25, 1.75, 2.0):
        for psi0 in (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi):
            avg = _averaged_capture_run(p, r0, psi0)
            captured = classify_capture(avg, p) == "captured"
            u0, v0 = seed_from_averaged(r0, psi0, eps)
            pend = integrate_pendulum(pp, u0, v0, 2.0 * 30.0 / eps,
                                      tol=1e-9)
            te, env = extract_envelope(pend)
            keep = te >= te[0] + 0.1 * (te[-1] - te[0])
            te, env = te[keep], env[keep]
            q = env.size // 4
            grew = float(np.mean(env[-q:])) > 1.4 * float(np.mean(env[:q]))
            agree += int(captured == grew)
    assert agree >= 18
