"""Property tests: Wilson intervals, the Euler-Maruyama step grid, the
ensemble's path blocks, the noise-class bound, the reference spline
against scipy's CubicSpline, rhs_primary and the in-place drift writer
against the plain field, the series residual's decay, noise schedules
on the step grid, the numpy identities the DOP853 driver leans on, and
ensemble outputs under any chunk length, block width and amplitude
stacking, over generated inputs."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline

from autores import dop853_coefficients as dop853
from autores import ensemble, integrators
from autores.asymptotics import STABLE, expand
from autores.ensemble import (EnsembleConfig, run_ensemble, run_ensembles,
                              supermartingale_check, wilson_interval)
from autores.integrators import ReferenceSolution, sde_step_count, step_grid
from autores.lyapunov import noise_class_check
from autores.model import (NoiseSchedule, Schedule, SystemParams,
                           constant_schedule, error_terms, perturbed_terms,
                           power_schedule, rhs_primary, rhs_primary_into)
from oracles import plain_rhs_primary, residual_slope


@st.composite
def _counts(draw):
    n = draw(st.integers(1, 10**6))
    return draw(st.integers(0, n)), n


@settings(max_examples=500, deadline=None)
@given(_counts())
def test_wilson_contains_estimate_and_mirrors(kn):
    k, n = kn
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
    # k successes bound p from below as n - k failures bound 1 - p above
    lo_m, hi_m = wilson_interval(n - k, n)
    assert abs(lo - (1.0 - hi_m)) <= 1e-12
    assert abs(hi - (1.0 - lo_m)) <= 1e-12


@st.composite
def _spline_data(draw):
    # n nodes with gaps spread over four decades, values of either sign
    # (zeros of both signs included), and a seed for the sample points
    n = draw(st.integers(4, 200))
    gaps = draw(arrays(np.float64, n - 1, elements=st.floats(1e-3, 10.0)))
    x = draw(st.floats(-1e3, 1e3)) + np.concatenate([[0.0], np.cumsum(gaps)])
    y = draw(arrays(np.float64, (n, 2), elements=st.floats(-1e3, 1e3)))
    return x, y, draw(st.integers(0, 2**32 - 1))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(_spline_data())
# -x^3 - x^2 - x: every coefficient is negative and the value at x = 0
# is -0.0, which CubicSpline returns as +0.0, since PPoly sums from 0
@example((np.arange(4.0), np.repeat([[-0.0], [-3.0], [-14.0], [-39.0]], 2,
                                    axis=1), 0))
def test_reference_spline_is_cubic_spline(data):
    # the not-a-knot spline's coefficients and values are CubicSpline's
    # bits: at the nodes, the midpoints, random points and up to 1e-12
    # before the first node, where the first piece extrapolates.  Past
    # the last node, the switch time, the reference reads its series
    x, y, seed = data
    spline = ReferenceSolution(x, y, lambda tau: (3.0 * tau, -tau), x[-1])
    want = CubicSpline(x, y)
    assert np.array_equal(_bits(spline._spline),
                          _bits(want.c.transpose(0, 2, 1)))
    rng = np.random.default_rng(seed)
    outside = rng.uniform(0.0, 1e-12, 8)
    for tau in (x, (x[:-1] + x[1:]) / 2, rng.uniform(x[0], x[-1], 500),
                x[0] - outside, rng.uniform(x[0], x[-1], (3, 7)), x[-1]):
        got = spline.state(tau)
        assert np.array_equal(_bits(got), _bits(np.moveaxis(want(tau), -1, 0)))
    above = x[-1] + outside
    above = above[above > x[-1]]
    assert np.array_equal(_bits(spline.state(above)),
                          _bits(np.stack([3.0 * above, -above])))


@st.composite
def _windows(draw):
    tau0 = draw(st.floats(0.0, 400.0))
    dt = draw(st.floats(1e-4, 1.0))
    span = draw(st.floats(1e-6, 100.0).filter(lambda s: s / dt <= 20_000))
    return tau0, tau0 + span, dt


@settings(max_examples=300, deadline=None)
@given(_windows())
@example((0.0, 100.00000000005, 1e-3))
def test_step_grid_covers_window(window):
    tau0, tau1, dt = window
    tau = step_grid(tau0, tau1, dt)
    h = tau[1:] - tau[:-1]
    assert h.size == sde_step_count(tau0, tau1, dt)
    assert tau[0] == tau0 and tau[-1] == tau1
    # every node but the last is tau0 + k dt, bit for bit
    assert np.array_equal(tau[:-1], tau0 + np.arange(h.size) * dt)
    assert np.all(h > 0) and np.all(h[:-1] <= dt * (1 + 1e-9))
    # a remainder within sde_step_count's rounding tolerance joins the
    # last step instead of making a step of its own
    assert h[-1] <= dt * (1 + 1e-9) + 1e-12 * max(1.0, abs(tau1))


@settings(max_examples=300, deadline=None)
@given(window=_windows(), c=st.floats(-1e300, 1e300), p=st.floats(-3.0, 3.0),
       which=st.sampled_from(["sigma1", "sigma2"]),
       kind=st.sampled_from(["perturbed", "error"]))
# a negative power at tau0 = 0, and a power that overflows mid-grid
@example(window=(0.0, 1.0, 0.1), c=2.0, p=-1.0, which="sigma1",
         kind="perturbed")
@example(window=(100.0, 1000.0, 0.5), c=1e300, p=3.0, which="sigma2",
         kind="error")
def test_schedule_on_grid_is_the_formula(params, window, c, p, which, kind):
    # Schedule(c, p) on the node grid is c * tau ** p bit for bit, and
    # additive terms carry those bits as the sigma2 they read.  A
    # schedule that is not finite at some node is refused by either
    # terms factory, naming the schedule and the first such node
    tau = step_grid(*window)
    schedule = Schedule(c, p)
    with np.errstate(all="ignore"):
        want = c * tau ** p
        got = schedule(tau)
    assert np.array_equal(_bits(got), _bits(want))
    # sigma1 is zero with a generated sigma2, so the terms are additive
    other = ({"sigma1": constant_schedule(0.0)} if which == "sigma2"
             else {"sigma2": constant_schedule(1.0)})
    noise = NoiseSchedule(mu=0.3, **{which: schedule}, **other)
    star = (np.ones(tau.size), np.zeros(tau.size))

    def make():
        if kind == "perturbed":
            return perturbed_terms(params, noise, tau)
        return error_terms(params, noise, tau, star)
    bad = ~np.isfinite(want)
    if bad.any():
        first = f"tau={float(tau[np.argmax(bad)]):.6g}"
        with pytest.raises(ValueError, match=re.escape(
                f"{which} is not finite at {first}")):
            make()
    elif which == "sigma2":
        assert np.array_equal(_bits(make().additive), _bits(want))


@st.composite
def _drift_states(draw):
    # (2, m) states, psi up to 1e3 in size, where sin and cos reduce
    # their argument
    m = draw(st.integers(1, 70))
    return draw(arrays(np.float64, (2, m), elements=st.floats(-1e3, 1e3)))


@settings(max_examples=300, deadline=None)
@given(x=_drift_states(), tau=st.floats(-1e3, 1e3),
       lam=st.floats(1e-3, 1e3),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(x=np.array([[0.0, -0.0], [0.0, np.pi]]), tau=0.0, lam=1.0,
         gamma=0.1)
def test_drift_writer_is_rhs_primary(x, tau, lam, gamma):
    # rhs_primary and the in-place writer give the plain broadcast
    # field's bits, -0.0 included, and the writer leaves sin psi and cos
    # psi in its scratch rows, from rows given as an array or as a tuple
    # of views
    p = SystemParams(lam, gamma)
    want = plain_rhs_primary(x, tau, p)
    for got, expect in zip(rhs_primary(x, tau, p), want):
        assert np.array_equal(_bits(got), _bits(expect))
    for as_rows in (np.asarray, tuple):
        f, scratch = np.empty_like(x), np.empty((3, x.shape[1]))
        rhs_primary_into(x, tau, p, as_rows(f), as_rows(scratch))
        for got, expect in zip(f, want):
            assert np.array_equal(_bits(got), _bits(expect))
        assert np.array_equal(_bits(scratch[0]), _bits(np.sin(x[1])))
        assert np.array_equal(_bits(scratch[1]), _bits(np.cos(x[1])))


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.3, 3.0), gamma=st.floats(0.01, 0.9))
@example(lam=1.0, gamma=0.1)
@example(lam=3.0, gamma=0.9)
# where psi_2 is 0.0094, near its sign change
@example(lam=0.6571564005374051, gamma=0.7728637117646149)
def test_series_residual_decays_with_order(lam, gamma):
    # the order-K series matches the equations through order K, so its
    # residual decays at least like tau^-K over [10, 1000]: an order
    # left unmatched gives a slope near -K + 1.  The residual's leading
    # term is lam cos(psi0) psi_{K+1} tau^-K.  For even K the slope is
    # -K within 0.12 over the whole box.  For odd K, psi_{K+1} changes
    # sign along a curve of (lam, gamma), through (0.66, 0.77) for
    # psi_2, and near it the next order takes over inside the window:
    # fitted slopes from -K - 1.26 to -K + 0.26 were seen there.  K = 5
    # is left out: its residual nears roundoff at tau 1000
    p = SystemParams(lam, gamma)
    for K in range(1, 5):
        slope = residual_slope(expand(p, STABLE, K), p)
        assert slope <= -K + 0.4, (K, slope)
        if K % 2 == 0:
            assert abs(slope + K) <= 0.15, (K, slope)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**7))
def test_path_blocks_partition_paths(n_paths):
    blocks = ensemble._path_blocks(n_paths)
    widths = [hi - lo for lo, hi in blocks]
    assert blocks[0][0] == 0 and blocks[-1][1] == n_paths
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert min(widths) > 0 and max(widths) <= ensemble.MAX_BLOCK_PATHS
    assert max(widths) - min(widths) <= 1


# nonzero coefficients stay clear of subnormals, where a product of
# two roundings is no longer within a relative 1e-12
_coeffs = st.one_of(st.just(0.0), st.floats(1e-6, 10.0),
                    st.floats(-10.0, -1e-6))
_powers = st.one_of(st.sampled_from([-3.0, -1.0, 0.0, 1.0, 2.0]),
                    st.floats(-3.0, 2.0))


@settings(max_examples=500, deadline=None)
@given(c1=_coeffs, p1=_powers, c2=_coeffs, p2=_powers,
       tau0=st.floats(0.01, 1000.0), h=st.floats(0.0, 100.0))
def test_noise_class_bound_is_the_sup(c1, p1, c2, p2, tau0, h):
    noise = NoiseSchedule(mu=0.1, sigma1=power_schedule(c1, p1),
                          sigma2=power_schedule(c2, p2), h=h)
    res = noise_class_check(noise, tau0)
    bound = res["bound"]
    taus = np.geomspace(tau0, 1e6 * tau0, 200)
    sampled = (np.abs(noise.sigma1(taus)) * taus
               + np.abs(noise.sigma2(taus)))
    assert np.all(sampled <= bound * (1.0 + 1e-12))
    # unbounded exactly when a nonzero term grows: tau weights sigma1
    grows = (c1 != 0.0 and p1 + 1.0 > 0) or (c2 != 0.0 and p2 > 0)
    assert (bound == math.inf) == grows
    if not grows:
        # every term is nonincreasing, so the sup sits at tau0
        assert abs(bound - sampled[0]) <= 1e-12 * bound
    assert res["admissible"] == (bound <= h)


_MUS = (0.2, 0.3, 0.45)
_expected = {}


def _engine_cases(params, ref, cert):
    """A reference-tracked ensemble with a ball start and both noise
    channels, where 9 to 73 % of the paths exit, and a supermartingale
    run where a third of them stop, with their outputs at the default
    budget and block width: the ensemble at each amplitude of _MUS run
    alone, and the report."""
    if not _expected:
        ens = EnsembleConfig(
            params=params, noise=NoiseSchedule(
                mu=0.3, sigma1=power_schedule(0.02, -1.0),
                sigma2=constant_schedule(0.5)),
            tau0=20.0, horizon=0.3005, dt=1e-3, n_paths=100, master_seed=5,
            x0=tuple(ref.state(20.0)), ball_radius=0.02, eps1=0.1)
        err = EnsembleConfig(
            params=params, noise=NoiseSchedule(
                mu=0.3, sigma1=constant_schedule(0.0),
                sigma2=constant_schedule(0.5)),
            tau0=cert.tau0, horizon=0.3, dt=1e-3, n_paths=100,
            master_seed=6, x0=(0.1, 0.1))
        _expected.update(
            ens=ens, err=err,
            each=[run_ensemble(dataclasses.replace(
                ens, noise=dataclasses.replace(ens.noise, mu=mu)), ref)
                for mu in _MUS],
            report=supermartingale_check(err, cert, N=1, ref=ref))
    return _expected


@settings(max_examples=10, deadline=None)
@given(budget=st.integers(1, 1 << 22), width=st.integers(30, 2048),
       order=st.permutations(range(len(_MUS))))
def test_outputs_do_not_depend_on_chunks_blocks_or_stacking(
        params, ref, cert, budget, width, order):
    # any noise budget (chunks of one step up to the whole run), any
    # block width, and the amplitudes stacked in any order give the bits
    # of each amplitude run alone at the defaults.  The window ends
    # before tau 50; with the threshold at 0 it carries per-path capture
    # flags, so the phase-range fold is compared too
    with mock.patch.object(ensemble, "CAPTURE_MIN_TAU", 0.0):
        case = _engine_cases(params, ref, cert)
        with mock.patch.object(integrators, "NOISE_BUDGET", budget), \
                mock.patch.object(ensemble, "MAX_BLOCK_PATHS", width):
            stacked = run_ensembles(case["ens"], [_MUS[i] for i in order],
                                    ref)
            report = supermartingale_check(case["err"], cert, N=1, ref=ref)
    for i, got in zip(order, stacked):
        want = case["each"][i]
        assert want.captured is not None
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert np.array_equal(a, b, equal_nan=True), field.name
            else:
                assert a == b, field.name
    assert report == case["report"]


@st.composite
def _stage_stacks(draw):
    # P stage buffers of 16 rows of n values, like a dense piece's: each
    # row scaled by its own power of ten across 1e-150..1e150, with zeros
    # of either sign
    n, P = draw(st.integers(1, 70)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exps = draw(arrays(np.int64, (P, dop853.N_STAGES_EXTENDED, 1),
                       elements=st.integers(-150, 150)))
    K = rng.standard_normal((P, dop853.N_STAGES_EXTENDED, n)) * 10.0 ** exps
    zero = rng.random(K.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    K[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
    return K


@settings(max_examples=300, deadline=None)
@given(Ks=_stage_stacks())
def test_driver_numpy_identities(Ks):
    # the DOP853 driver's reshaped numpy calls keep the bits of the calls
    # scipy makes: one np.matmul over a piece's stage buffers is np.dot
    # per buffer; a stage sum written through out= is the fresh one; and
    # sqrt(v.dot(v)) ** 2 is np.linalg.norm(v) ** 2
    stacked = np.matmul(dop853.D, Ks)
    for K, got in zip(Ks, stacked):
        assert np.array_equal(_bits(got), _bits(np.dot(dop853.D, K)))
    K, y_s = Ks[0], np.empty(Ks.shape[2])
    for s, a in enumerate(dop853.A[1:], start=1):
        np.dot(K[:s].T, a[:s], out=y_s)
        assert np.array_equal(_bits(y_s), _bits(np.dot(K[:s].T, a[:s])))
    for v in K:
        assert (_bits(math.sqrt(v.dot(v)) ** 2)
                == _bits(float(np.linalg.norm(v) ** 2)))
