import math

import numpy as np
import pytest

from autores import SystemParams
from autores.integrators import N_SCRATCH
from autores.model import (NoiseSchedule, Schedule, constant_schedule,
                           error_terms, hamiltonian, hamiltonian_hessian,
                           hamiltonian_partials, hamiltonian_time_partial,
                           perturbed_terms, power_schedule, rhs_primary)
from oracles import plain_rhs_primary, rhs_error


def test_params_validation():
    p = SystemParams(lam=2.0, gamma=0.6)
    assert p.nu == pytest.approx(math.sqrt(1 - 0.36), rel=1e-15)
    with pytest.raises(ValueError):
        SystemParams(lam=0.0, gamma=0.5)
    with pytest.raises(ValueError):
        SystemParams(lam=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        SystemParams(lam=1.0, gamma=1.0)


def test_rhs_primary_hand_point():
    p = SystemParams(lam=1.0, gamma=0.1)
    dr, dpsi = rhs_primary((2.0, 0.5), 3.0, p)
    assert dr == pytest.approx(2.0 * math.sin(0.5) - 0.2, rel=1e-15)
    assert dpsi == pytest.approx(2.0 - 3.0 + math.cos(0.5), rel=1e-15)


def test_rhs_primary_broadcasts():
    # rhs_primary gives the plain broadcast field's bits, -0.0 included,
    # over the broadcast shape of r, psi and tau, and scalars for scalars
    p = SystemParams(lam=1.5, gamma=0.1)
    taus = np.geomspace(10.0, 400.0, 32)
    cases = [
        (2.0, 0.5, 3.0),  # scalars
        (np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -0.0]),
         np.array([5.0, 6.0, 7.0])),  # rows
        (taus + 1.0, 3.0 - 1.0 / taus, taus),  # certify's (32,) star and tau
        # states against times: a column of states, one state, one time
        (np.array([[1.0], [2.0], [3.0]]), np.array([[0.5], [1.5], [2.5]]),
         np.array([5.0, 6.0, 7.0, 8.0])),
        (1.5, 0.7, np.linspace(5.0, 9.0, 5)),
        (np.array([1.0, -2.0]), np.array([0.3, 4.0]), 9.0)]
    for r, psi, tau in cases:
        shape = np.broadcast_shapes(np.shape(r), np.shape(psi),
                                    np.shape(tau))
        got = rhs_primary((r, psi), tau, p)
        for g, want in zip(got, plain_rhs_primary((r, psi), tau, p)):
            assert np.shape(g) == shape
            assert isinstance(g, (float, np.ndarray))
            assert np.array_equal(_bits(g),
                                  _bits(np.broadcast_to(want, shape)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_schedules():
    c = constant_schedule(0.7)
    assert float(c(3.0)) == 0.7
    assert np.all(c(np.array([1.0, 10.0])) == 0.7)
    s = power_schedule(2.0, -0.5)
    assert float(s(4.0)) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        NoiseSchedule(mu=0.0, sigma1=c, sigma2=c)
    with pytest.raises(ValueError):
        NoiseSchedule(mu=1.0, sigma1=c, sigma2=c)


def test_drift_matches_unperturbed():
    p = SystemParams(lam=1.0, gamma=0.1)
    n = NoiseSchedule(mu=0.2, sigma1=constant_schedule(0.3),
                      sigma2=constant_schedule(1.0))
    drift, _ = _step0(perturbed_terms(p, n, np.array([9.0])),
                      np.array([[1.5], [0.7]]), np.zeros((2, 1)))
    assert tuple(np.ravel(drift)) == rhs_primary((1.5, 0.7), 9.0, p)


def _step0(terms, x, w):
    """(f, G w) that terms writes at step 0, into fresh buffers."""
    f, gw = np.empty_like(x), np.empty_like(x)
    terms(0, tuple(x), w, tuple(f), tuple(gw),
          tuple(np.empty((N_SCRATCH, x.shape[1]))))
    return f, gw


def _matrix(terms, x):
    """The diffusion matrix G of terms at step 0, column by column."""
    cols = [np.ravel(_step0(terms, x, w[:, None])[1]) for w in np.eye(2)]
    return np.column_stack(cols)


def test_diffusion_matrix_rows():
    p = SystemParams(lam=1.0, gamma=0.1)
    n = NoiseSchedule(mu=0.2, sigma1=power_schedule(0.5, -1.0),
                      sigma2=constant_schedule(2.0))
    r, psi, tau = 3.0, 0.4, 5.0
    g = _matrix(perturbed_terms(p, n, np.array([tau])),
                np.array([[r], [psi]]))
    s1 = 0.5 / tau
    assert g == pytest.approx(np.array([[s1 * r * math.sin(psi), 0.0],
                                        [s1 * math.cos(psi), 2.0]]), rel=1e-14)


def _fd(fun, e, tau, i, h=1e-6):
    lo = list(e)
    hi = list(e)
    lo[i] -= h
    hi[i] += h
    return (fun(hi, tau) - fun(lo, tau)) / (2 * h)


def test_hamiltonian_zero_and_critical_at_origin(params, ref):
    for tau in (10.0, 40.0, 200.0):
        assert hamiltonian((0.0, 0.0), ref.state(tau)) == 0.0
        hr, hp = hamiltonian_partials((0.0, 0.0), ref.state(tau))
        assert abs(hr) < 1e-14
        assert abs(hp) < 1e-14


def test_hamiltonian_partials_match_finite_differences(params, ref):
    e = (0.12, -0.2)
    tau = 30.0
    fun = lambda x, t: hamiltonian(x, ref.state(t))
    hr, hp = hamiltonian_partials(e, ref.state(tau))
    assert hr == pytest.approx(_fd(fun, e, tau, 0), rel=1e-6, abs=1e-8)
    assert hp == pytest.approx(_fd(fun, e, tau, 1), rel=1e-6, abs=1e-8)


def test_hamiltonian_time_partial_matches_finite_difference(params, ref):
    e = (0.1, 0.15)
    tau = 50.0
    h = 1e-5
    fd = (hamiltonian(e, ref.state(tau + h))
          - hamiltonian(e, ref.state(tau - h))) / (2 * h)
    assert hamiltonian_time_partial(e, tau, params,
                                    ref.state(tau)) == pytest.approx(
        fd, rel=1e-5, abs=1e-8)


def test_hessian_matches_finite_differences(params, ref):
    e = (0.08, -0.1)
    tau = 25.0
    hrr, hrp, hpp = hamiltonian_hessian(e, ref.state(tau))
    fr = lambda x, t: hamiltonian_partials(x, ref.state(t))[0]
    fp = lambda x, t: hamiltonian_partials(x, ref.state(t))[1]
    assert hrr == pytest.approx(_fd(fr, e, tau, 0), rel=1e-6, abs=1e-8)
    assert hrp == pytest.approx(_fd(fr, e, tau, 1), rel=1e-6, abs=1e-8)
    assert hpp == pytest.approx(_fd(fp, e, tau, 1), rel=1e-6, abs=1e-8)


def test_error_field_from_hamiltonian(params, ref):
    e = (0.1, -0.07)
    tau = 35.0
    hr, hp = hamiltonian_partials(e, ref.state(tau))
    dR, dP = rhs_error(e, params, ref.state(tau))
    assert dR == pytest.approx(-hp - params.gamma * e[0], rel=1e-12)
    assert dP == pytest.approx(hr, rel=1e-12)


def test_reference_is_equilibrium_of_error_field(params, ref):
    # zero deviation must stay zero up to spline interpolation error
    for tau in (10.0, 60.0, 300.0):
        dR, dP = rhs_error((0.0, 0.0), params, ref.state(tau))
        assert abs(dR) < 1e-9
        assert abs(dP) < 1e-9


def test_diffusion_error_is_shifted_state_matrix(params, ref):
    n = NoiseSchedule(mu=0.1, sigma1=constant_schedule(0.4),
                      sigma2=constant_schedule(1.0))
    e = (0.2, -0.3)
    tau = 20.0
    rstar, pstar = ref.state(tau)
    shifted = _matrix(perturbed_terms(params, n, np.array([tau])),
                      np.array([[e[0] + rstar], [e[1] + pstar]]))
    star = (np.array([rstar]), np.array([pstar]))
    g = _matrix(error_terms(params, n, np.array([tau]), star),
                np.array([[e[0]], [e[1]]]))
    assert g == pytest.approx(shifted, rel=1e-14)
