import math

import numpy as np
import pytest

from autores.model import NoiseSchedule, constant_schedule, power_schedule
from autores import lyapunov
from autores.integrators import integrate_ode
from autores.lyapunov import (NoCertificate, StabilityCertificate, certify,
                              chain_U, chain_a, eval_V, grad_V, hess_V,
                              noise_class_check, spot_check, thresholds,
                              thresholds_beta, weighted_norm)
from oracles import (dV_dtau, plain_first_violation,
                     plain_inequality_slacks, plain_tube_samples, rhs_error)


def _tube_points(d0, tau_lo, tau_hi, n, seed=5):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    rad = d0 * np.sqrt(rng.uniform(0, 1, n))
    ang = rng.uniform(0, 2 * np.pi, n)
    taus = np.exp(rng.uniform(np.log(tau_lo), np.log(tau_hi), n))
    return rad * np.cos(ang), rad * np.sin(ang), taus


def test_sandwich_on_tube(params, ref, cert):
    R, Psi, taus = _tube_points(cert.d0, cert.tau0, 300.0, 500)
    for r_, p_, t_ in zip(R, Psi, taus):
        v = eval_V((r_, p_), t_, params, ref.state(t_))
        w = weighted_norm((r_, p_), t_, params)
        assert 0.25 * w - 1e-15 <= v <= 0.75 * w + 1e-15


def test_decay_inequality_on_tube(params, ref, cert):
    R, Psi, taus = _tube_points(cert.d0, cert.tau0, 300.0, 500, seed=6)
    for r_, p_, t_ in zip(R, Psi, taus):
        v = eval_V((r_, p_), t_, params, ref.state(t_))
        dv = dV_dtau((r_, p_), t_, params, ref.state(t_))
        assert dv <= -cert.q * v + 1e-12


def test_dV_matches_difference_along_flow(params, ref):
    # independent check: finite difference of V along the deviation flow
    e0 = (0.15, -0.1)
    tau0, h = 40.0, 1e-4
    traj = integrate_ode(lambda t, y: rhs_error(y, params, ref.state(t)),
                         e0, tau0, tau0 + h, [tau0 + h], tol=1e-12)
    v0 = eval_V(e0, tau0, params, ref.state(tau0))
    v1 = eval_V(tuple(traj.states[-1]), tau0 + h, params,
                ref.state(tau0 + h))
    assert dV_dtau(e0, tau0, params, ref.state(tau0)) == pytest.approx(
        (v1 - v0) / h, rel=1e-3)


def test_grad_matches_finite_difference(params, ref):
    e = (0.1, 0.05)
    tau, h = 30.0, 1e-6
    star = ref.state(tau)
    gr, gp = grad_V(e, tau, params, star)
    fr = (eval_V((e[0] + h, e[1]), tau, params, star)
          - eval_V((e[0] - h, e[1]), tau, params, star)) / (2 * h)
    fp = (eval_V((e[0], e[1] + h), tau, params, star)
          - eval_V((e[0], e[1] - h), tau, params, star)) / (2 * h)
    assert gr == pytest.approx(fr, rel=1e-5, abs=1e-9)
    assert gp == pytest.approx(fp, rel=1e-5, abs=1e-9)


def test_hessian_matches_difference_of_gradient(params, ref, cert):
    # certify reads its C from hess_V; central differences of grad_V at
    # points of the certified tube check each closed-form entry
    R, Psi, taus = _tube_points(cert.d0, cert.tau0, 300.0, 200, seed=7)
    star = ref.state(taus)
    h = 1e-5

    def grad_at(dR, dPsi):
        return grad_V((R + dR, Psi + dPsi), taus, params, star)

    (gR_hi, gP_hi), (gR_lo, gP_lo) = grad_at(h, 0.0), grad_at(-h, 0.0)
    d_R = ((gR_hi - gR_lo) / (2 * h), (gP_hi - gP_lo) / (2 * h))
    (gR_hi, gP_hi), (gR_lo, gP_lo) = grad_at(0.0, h), grad_at(0.0, -h)
    d_Psi = ((gR_hi - gR_lo) / (2 * h), (gP_hi - gP_lo) / (2 * h))
    V_RR, V_RP, V_PP = hess_V((R, Psi), taus, params, star)
    for got, want in ((V_RR, d_R[0]), (V_RP, d_R[1]), (V_RP, d_Psi[0]),
                      (V_PP, d_Psi[1])):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def test_certificate_regression(params, cert):
    assert cert.d0 == pytest.approx(0.3, abs=1e-12)
    assert cert.tau0 == 10.0
    assert cert.A == 3.0
    assert cert.a == pytest.approx(1.0 / params.nu, rel=1e-14)
    assert cert.b == 1.0
    assert cert.q == pytest.approx(params.gamma / 6.0, rel=1e-14)
    assert cert.rho0 == cert.d0
    assert cert.margin > 0
    assert 2.0 < cert.B < 2.5
    assert 1.0 < cert.C < 1.3


@pytest.mark.parametrize("ranges", [
    {"d_range": (0.5, 0.1)}, {"d_range": (0.3, 0.3)},
    {"tau_range": (60.0, 20.0)}, {"tau_range": (20.0, 20.0)}])
def test_certify_refuses_inverted_ranges(params, ref, ranges):
    # the search reads d_range's upper end as the largest radius and its
    # tau0 candidates as ascending; an inverted range broke both
    with pytest.raises(ValueError, match="ascending"):
        certify(params, ref, **ranges)


@pytest.mark.parametrize("tau_range", [(2.0, 50.0), (300.0, 500.0),
                                       (300.0, 400.0)])
def test_certify_refuses_tau_range_outside_reference(params, ref, tau_range):
    # the reference covers [5, 400]: a candidate before it cannot be
    # evaluated, and one at or past its end has no tube to test
    with pytest.raises(ValueError, match="tau_range"):
        certify(params, ref, tau_range=tau_range)


def test_certify_bisects_when_d_hi_fails(params, ref, monkeypatch):
    # at tau0 = 5 and 5.125 the d_hi tube fails, so the radius is bisected
    # there; the next candidate (5.25) passes at d_hi and ends the search
    calls = []

    def tube_ok(d0, taus, *args):
        res = orig(d0, taus, *args)
        calls.append((float(taus[0]), d0, res[0]))
        return res
    orig = lyapunov._tube_ok
    monkeypatch.setattr(lyapunov, "_tube_ok", tube_ok)
    c = certify(params, ref, d_range=(1e-3, 2.0), tau_range=(5.0, 6.0))
    assert isinstance(c, StabilityCertificate)
    assert (c.d0, c.tau0) == (2.0, 5.25)
    assert [t for t, _, _ in calls] == [5.0] * 42 + [5.125] * 42 + [5.25] * 2
    for tau0 in (5.0, 5.125):
        tried = [(d0, ok) for t, d0, ok in calls if t == tau0]
        assert tried[:2] == [(1e-3, True), (2.0, False)]
        passed = [d0 for d0, ok in tried[2:] if ok]
        failed = [d0 for d0, ok in tried[2:] if not ok]
        # 40 halvings close the bracket on one radius from both sides
        assert passed and failed and max(passed) < min(failed)
        assert min(failed) - max(passed) < 2.0 * 2.0 ** -40
    assert [ok for t, _, ok in calls if t == 5.25] == [True, True]


@pytest.mark.parametrize("grid", [32, 37])
def test_tube_slacks_match_flat_oracle(params, ref, plain_ref, grid):
    # the broadcast tube, read once per time, gives the flat mesh's
    # slacks bit for bit, one row of the leading axis per inequality
    for d0, tau0, q in ((0.3, 10.0, params.gamma / 6.0), (0.5, 10.0, 5.0),
                        (2.0, 5.0, params.gamma / 6.0)):
        taus = np.geomspace(tau0, ref.tau_max, grid)
        _, _, (R, Psi), got = lyapunov._tube_ok(d0, taus, ref.state(taus),
                                                params, q)
        assert R.shape == Psi.shape == (grid, grid, 1)
        flat = plain_tube_samples(d0, tau0, ref.tau_max, grid)
        for mine, theirs in zip((R, Psi, taus), flat):
            assert np.array_equal(
                np.broadcast_to(mine, (grid,) * 3).ravel(), theirs)
        want = plain_inequality_slacks(*flat, params, plain_ref, q)
        assert got.shape == (len(lyapunov.INEQUALITIES),) + (grid,) * 3
        for row, w in zip(got, want):
            assert np.array_equal(row.ravel(), w)


def test_slacks_at_random_points_match_flat_oracle(params, ref, plain_ref):
    R, Psi, taus = _tube_points(0.4, 5.0, ref.tau_max, 20_000, seed=9)
    for q in (params.gamma / 6.0, 5.0):
        got = lyapunov._inequality_slacks(R, Psi, taus, params,
                                          ref.state(taus), q)
        want = plain_inequality_slacks(R, Psi, taus, params, plain_ref, q)
        assert np.array_equal(got, np.stack(want))


@pytest.mark.parametrize("q", [5.0, 0.3])
def test_first_violation_matches_flat_oracle(params, ref, plain_ref, q):
    c = certify(params, ref, q=q)
    assert isinstance(c, NoCertificate)
    flat = plain_tube_samples(1e-3, 10.0, ref.tau_max, 32)
    want = plain_first_violation(
        *flat, *plain_inequality_slacks(*flat, params, plain_ref, q))
    assert (c.reason, c.tau, c.R, c.Psi) == want


@pytest.mark.parametrize("grid", [32, 33])
def test_tube_check_reads_reference_once_per_time(params, ref, monkeypatch,
                                                  grid):
    # the search asks the reference for grid times once per tau0
    # candidate, not once per sample of the grid^3 tube nor once per
    # radius its bisection tries
    asked, per_check = [], []

    class Spy:
        tau_min, tau_max = ref.tau_min, ref.tau_max

        def state(self, tau):
            asked.append(np.size(tau))
            return ref.state(tau)

    def tube_ok(d0, taus, *args):
        start = len(asked)
        res = orig(d0, taus, *args)
        per_check.append((float(taus[0]), sum(asked[start:])))
        return res
    orig = lyapunov._tube_ok
    monkeypatch.setattr(lyapunov, "_tube_ok", tube_ok)
    c = certify(params, Spy(), d_range=(1e-3, 2.0), tau_range=(5.0, 6.0),
                grid=grid)
    assert isinstance(c, StabilityCertificate)
    # the search bisected at least one tau0 candidate; no tube check
    # reads the reference, nor does the B, C fit, which reads the
    # winning candidate's
    assert len(per_check) > 40
    assert max(n for _, n in per_check) == 0
    assert asked == [grid] * len({tau0 for tau0, _ in per_check})


def test_spot_check_clean(params, ref, cert):
    assert spot_check(cert, params, ref, n=2000, seed=31) == 0


def test_chain_constants():
    assert chain_a(1, n=2, h=1.0, B=1.0, C=1.0, q=0.5) == 32.0
    # linear growth in the index
    a1 = chain_a(1, 2, 1.0, 1.0, 1.0, 0.5)
    a3 = chain_a(3, 2, 1.0, 1.0, 1.0, 0.5)
    assert a3 == pytest.approx(2.0 * a1, rel=1e-14)


def test_chain_U_first_level():
    # at the horizon the clock term vanishes and U_1 = U
    val = chain_U(mu=0.1, h=1.0, n=2, C=1.0, T=10.0, U_value=0.7, t=10.0,
                  t0=0.0)
    assert val == pytest.approx(0.7, rel=1e-14)
    # at the start it carries the full budget
    val = chain_U(mu=0.1, h=1.0, n=2, C=1.0, T=10.0, U_value=0.7, t=0.0,
                  t0=0.0)
    assert val == pytest.approx(0.7 + 0.01 * 4.0 * 10.0, rel=1e-14)


def test_chain_U_validates_clock():
    with pytest.raises(ValueError):
        chain_U(mu=0.1, h=1.0, n=2, C=1.0, T=10.0, U_value=0.7, t=11.0,
                t0=0.0)


def test_threshold_values():
    rep = thresholds(N=1, kappa=0.5, h=1.0, n=2, A=3.0, a=1.005038,
                     C=1.0, eps1=0.1, eps2=0.1)
    assert rep.delta == pytest.approx(
        math.sqrt(0.01 * 0.1 / (2 * 3 * 2.005038)), rel=1e-14)
    assert rep.Delta == pytest.approx((0.001 / 8.0) ** 1.0, rel=1e-14)
    assert rep.T_mu_exponent == -1.0
    assert not rep.empirical
    assert thresholds(N=3, kappa=0.5, h=1, n=2, A=3, a=1, C=1,
                      eps1=0.1, eps2=0.1).empirical


def test_threshold_domain():
    with pytest.raises(ValueError):
        thresholds(N=1, kappa=0.0, h=1, n=2, A=3, a=1, C=1, eps1=0.1, eps2=0.1)
    with pytest.raises(ValueError):
        thresholds(N=1, kappa=1.0, h=1, n=2, A=3, a=1, C=1, eps1=0.1, eps2=0.1)
    with pytest.raises(ValueError):
        thresholds(N=0, kappa=0.5, h=1, n=2, A=3, a=1, C=1, eps1=0.1, eps2=0.1)


def test_beta_exponent():
    assert thresholds_beta(1.0, 0.5) == pytest.approx(-0.75, rel=1e-14)
    assert thresholds_beta(3.0, 0.5) == pytest.approx(-0.375, rel=1e-14)
    with pytest.raises(ValueError):
        thresholds_beta(0.0, 0.5)


def test_noise_class_check():
    ok = NoiseSchedule(mu=0.1, sigma1=constant_schedule(0.0),
                       sigma2=constant_schedule(1.0), h=1.0)
    res = noise_class_check(ok, 10.0)
    assert res["admissible"] and res["bound"] == 1.0

    big = NoiseSchedule(mu=0.1, sigma1=constant_schedule(0.0),
                        sigma2=constant_schedule(2.0), h=1.0)
    assert not noise_class_check(big, 10.0)["admissible"]

    # a constant first channel is weighted by tau, hence unbounded
    grow = NoiseSchedule(mu=0.1, sigma1=constant_schedule(0.5),
                         sigma2=constant_schedule(0.0), h=1.0)
    res = noise_class_check(grow, 10.0)
    assert not res["admissible"] and res["bound"] == math.inf

    # sigma1 ~ 1/tau keeps the weighted term bounded
    decay = NoiseSchedule(mu=0.1, sigma1=power_schedule(0.5, -1.0),
                          sigma2=constant_schedule(0.25), h=1.0)
    res = noise_class_check(decay, 10.0)
    assert res["admissible"] and res["bound"] == pytest.approx(0.75, rel=1e-14)
