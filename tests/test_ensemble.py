import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest

from autores import ensemble, integrators
from autores.model import (NoiseSchedule, SystemParams, constant_schedule,
                           perturbed_terms, power_schedule)
from autores.integrators import NoiseStream, Trajectory, integrate_sde
from autores.ensemble import (EnsembleConfig, classify_capture,
                              exit_time_scaling, run_ensemble, run_ensembles,
                              supermartingale_check, wilson_interval)


def _noise(mu, s2=1.0):
    return NoiseSchedule(mu=mu, sigma1=constant_schedule(0.0),
                         sigma2=constant_schedule(s2), h=1.0)


@pytest.fixture
def cfg_maker(params, ref):
    def make(mu=0.3, eps1=0.05, n_paths=256, horizon=2.0, seed=101, **kw):
        tau0 = 20.0
        base = dict(params=params, noise=_noise(mu), tau0=tau0,
                    horizon=horizon, dt=1e-3, n_paths=n_paths,
                    master_seed=seed, x0=tuple(ref.state(tau0)), eps1=eps1)
        base.update(kw)
        return EnsembleConfig(**base)
    return make


def test_wilson_properties():
    lo, hi = wilson_interval(40, 100)
    assert lo == pytest.approx(0.3094012864324589, rel=1e-12)
    assert hi == pytest.approx(0.4979974132089382, rel=1e-12)
    assert lo < 0.4 < hi
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo > 0.9
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    # the interval holds k/n exactly at the ends, where rounding gave
    # 1.7e-18 at (0, 150) and 1 - 1.1e-16 at (256, 256)
    for n in range(1, 1500):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0


def test_config_validation(params):
    good = dict(params=params, noise=_noise(0.1), tau0=10.0, horizon=5.0,
                dt=1e-3, n_paths=100, master_seed=1)
    EnsembleConfig(**good)
    with pytest.raises(ValueError, match="n_paths"):
        EnsembleConfig(**{**good, "n_paths": 99})
    with pytest.raises(ValueError):
        EnsembleConfig(**{**good, "dt": 0.0})
    with pytest.raises(ValueError, match="budget"):
        EnsembleConfig(**{**good, "horizon": 600.0, "dt": 1e-5})


def test_out_of_class_schedule_refused(ref, cfg_maker):
    cfg = cfg_maker(n_paths=100, noise=_noise(0.1, s2=2.0))
    with pytest.raises(ValueError, match="out_of_class"):
        run_ensemble(cfg, ref)
    stats = run_ensemble(cfg, ref, out_of_class_ok=True)
    assert stats.out_of_class


def test_schedule_not_finite_on_grid_refused(params):
    # sigma2 = tau^-1/2 is infinite at tau0 = 0; the run must fail instead
    # of reporting every path escaped
    noise = NoiseSchedule(mu=0.1, sigma1=constant_schedule(0.0),
                          sigma2=power_schedule(1.0, -0.5))
    cfg = EnsembleConfig(params=params, noise=noise, tau0=0.0, horizon=1.0,
                         dt=1e-3, n_paths=100, master_seed=1, x0=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"sigma2 is not finite at tau=0\b"):
        run_ensemble(cfg, out_of_class_ok=True)


def test_censoring_consistency(ref, cfg_maker):
    cfg = cfg_maker(mu=0.1, eps1=0.15)
    stats = run_ensemble(cfg, ref)
    # a sensible mix, not all one class
    assert 0.0 < float(np.mean(stats.censored)) < 1.0
    exceeded = (stats.sup_psi_dev >= cfg.eps1) | (
        stats.sup_r_dev_weighted >= cfg.eps1)
    assert np.array_equal(exceeded, ~stats.censored)
    assert np.all(stats.exit_times[stats.censored] == cfg.horizon)
    assert np.all(stats.exit_times <= cfg.horizon)
    assert np.all(stats.exit_times > 0)


def test_untracked_run_reports_no_deviation(params):
    # without a reference nothing is tracked: no deviation, no exceedance,
    # and a path exits only by blowing up, else it is censored at the
    # horizon.  sigma1 = 1e200 makes every path overflow within two steps
    for sigma1, all_dead in ((0.0, False), (1e200, True)):
        noise = NoiseSchedule(mu=0.35, sigma1=constant_schedule(sigma1),
                              sigma2=constant_schedule(1.0), h=1.0)
        cfg = EnsembleConfig(params=params, noise=noise, tau0=0.0,
                             horizon=5.0, dt=1e-3, n_paths=150,
                             master_seed=3, x0=(1.09, 2.15))
        stats = run_ensemble(cfg, out_of_class_ok=True)
        for key in ("sup_psi_dev", "sup_r_dev_weighted", "sup_r_dev_raw"):
            assert np.all(getattr(stats, key) == 0.0), key
        assert stats.exceed_prob_psi == stats.exceed_prob_r == 0.0
        assert stats.exceed_psi_interval[0] == 0.0
        assert stats.exceed_r_interval[0] == 0.0
        assert np.all(stats.censored == (stats.exit_times == cfg.horizon))
        assert np.all(stats.censored != all_dead)
        assert np.all(stats.exit_times[~stats.censored] < cfg.horizon)


def test_blowup_prints_no_warning(params):
    # escape is data: paths that overflow (all of them within two steps at
    # sigma1 = 1e200) end quietly, without numpy's overflow warnings
    noise = NoiseSchedule(mu=0.35, sigma1=constant_schedule(1e200),
                          sigma2=constant_schedule(1.0), h=1.0)
    cfg = EnsembleConfig(params=params, noise=noise, tau0=0.0, horizon=1.0,
                         dt=1e-3, n_paths=100, master_seed=3,
                         x0=(1.09, 2.15))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = run_ensemble(cfg, out_of_class_ok=True)
    assert not stats.censored.any()


def _at_each_mu(cfg, mus, ref=None, out_of_class_ok=False):
    """run_ensemble once per amplitude: cfg with only mu replaced."""
    return [run_ensemble(dataclasses.replace(
        cfg, noise=dataclasses.replace(cfg.noise, mu=mu)), ref,
        out_of_class_ok) for mu in mus]


def test_run_ensembles_blowup_at_one_amplitude(params):
    # at sigma1 = 1e104 the third step overflows for some paths at the
    # larger amplitudes only; each amplitude still matches its own run
    noise = NoiseSchedule(mu=0.1, sigma1=constant_schedule(1e104),
                          sigma2=constant_schedule(1.0), h=1.0)
    cfg = EnsembleConfig(params=params, noise=noise, tau0=0.0,
                         horizon=0.003, dt=1e-3, n_paths=100,
                         master_seed=3, x0=(1.09, 2.15))
    mus = [0.05, 0.5, 0.95]
    stacked = run_ensembles(cfg, mus, out_of_class_ok=True)
    dead = [~s.censored for s in stacked]
    assert not dead[0].any() and (dead[2] & ~dead[1]).any()
    for got, want in zip(stacked,
                         _at_each_mu(cfg, mus, out_of_class_ok=True)):
        _stats_equal(got, want)


def test_tube_nesting(ref, cfg_maker):
    # same noise realizations; a wider tube can only be exited later
    narrow = run_ensemble(cfg_maker(eps1=0.05), ref)
    wide = run_ensemble(cfg_maker(eps1=0.10), ref)
    assert np.all(wide.exit_times >= narrow.exit_times)
    assert np.array_equal(wide.sup_psi_dev, narrow.sup_psi_dev)


def test_ball_start_reproducible(ref, cfg_maker, monkeypatch):
    cfg = cfg_maker(n_paths=128, ball_radius=0.02)
    a = run_ensemble(cfg, ref)
    # the ball draws come from each path's own stream, whatever its block
    monkeypatch.setattr(ensemble, "MAX_BLOCK_PATHS", 43)
    b = run_ensemble(cfg, ref)
    assert np.array_equal(a.end_states, b.end_states)
    point = run_ensemble(cfg_maker(n_paths=128), ref)
    assert not np.array_equal(a.end_states, point.end_states)


def test_pure_noise_exit_scaling():
    # harness oracle: with the drift removed the phase is a scaled
    # Brownian motion, so median exit from |x| < eps1 is const * eps1^2/mu^2
    def median_exit(mu, eps1, n_paths=300, dt=2e-4, horizon=6.0, seed=99):
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        n_steps = int(round(horizon / dt))
        t = np.full(n_paths, horizon)
        done = np.zeros(n_paths, dtype=bool)
        x = np.zeros(n_paths)
        s = mu * math.sqrt(dt)
        for k in range(n_steps):
            x = x + s * rng.standard_normal(n_paths)
            out = ~done & (np.abs(x) >= eps1)
            t[out] = (k + 1) * dt
            done |= out
            if done.all():
                break
        assert done.all()
        return float(np.median(t))

    consts = [median_exit(mu, eps1) * mu * mu / (eps1 * eps1)
              for mu, eps1 in [(0.2, 0.1), (0.1, 0.1), (0.15, 0.12)]]
    assert max(consts) / min(consts) < 1.15


def _traj(times, r, psi, truncated=False):
    return Trajectory(np.asarray(times, dtype=float),
                      np.column_stack([r, psi]), truncated=truncated)


def test_classify_capture_synthetic(params):
    t = np.linspace(0.0, 60.0, 1201)
    locked = _traj(t, params.lam * t + params.nu, np.full_like(t, 3.04))
    assert classify_capture(locked, params) == "captured"

    slipping = _traj(np.linspace(0.0, 100.0, 2001),
                     np.full(2001, 2.0),
                     -10.0 * math.pi * np.linspace(0.0, 1.0, 2001))
    assert classify_capture(slipping, params) == "escaped"

    low = _traj(t, np.full_like(t, 5.0), np.full_like(t, 3.04))
    assert classify_capture(low, params) == "escaped"

    short = _traj(np.linspace(0.0, 40.0, 801),
                  params.lam * np.linspace(0.0, 40.0, 801) + params.nu,
                  np.full(801, 3.04))
    assert classify_capture(short, params) == "indeterminate"

    dead = _traj(t, params.lam * t + params.nu, np.full_like(t, 3.04),
                 truncated=True)
    assert classify_capture(dead, params) == "escaped"

    # phase winding in the tail flips the verdict even at full amplitude
    psi = np.full_like(t, 3.04)
    tail = t >= 48.0
    psi[tail] += 4.0 * math.pi * (t[tail] - 48.0) / 12.0
    winding = _traj(t, params.lam * t + params.nu, psi)
    assert classify_capture(winding, params) == "escaped"


def test_classify_noisy_tolerates_jitter(params):
    # dense zigzag: huge total variation, small range; the verdict reads
    # the range, so jitter does not break the lock
    t = np.linspace(0.0, 60.0, 2401)
    psi = 3.04 + 0.05 * np.where(np.arange(t.size) % 2 == 0, 1.0, -1.0)
    traj = _traj(t, params.lam * t + params.nu, psi)
    assert classify_capture(traj, params) == "captured"
    smooth = _traj(t, params.lam * t + params.nu, np.full_like(t, 3.04))
    assert classify_capture(smooth, params) == "captured"


def test_exit_time_scaling_validation(ref, cfg_maker):
    cfg = cfg_maker(n_paths=100)
    with pytest.raises(ValueError, match="at least 3"):
        exit_time_scaling(cfg, [0.2, 0.3], ref)
    with pytest.raises(ValueError, match="distinct"):
        exit_time_scaling(cfg, [0.2, 0.3, 0.3], ref)


def test_exit_time_scaling_runs_cfg_at_each_mu(ref, cfg_maker, monkeypatch):
    # one ensemble per amplitude: cfg with only mu replaced, whatever mu
    # cfg itself carries.  They run stacked (run_ensembles), as one block
    # of 300 columns or, at a cap of 128, as paths 33 + 33 + 34 at 3
    # amplitudes each
    noise = NoiseSchedule(mu=0.1, sigma1=power_schedule(0.02, -1.0),
                          sigma2=constant_schedule(0.5))
    cfg = cfg_maker(n_paths=100, horizon=1.0, noise=noise)
    mus = [0.2, 0.3, 0.45]
    each = _at_each_mu(cfg, mus, ref)
    for max_block, n_blocks in ((2048, 1), (128, 3)):
        monkeypatch.setattr(ensemble, "MAX_BLOCK_PATHS", max_block)
        assert len(ensemble._path_blocks(100, len(mus))) == n_blocks
        res = exit_time_scaling(cfg, mus, ref, n_boot=10)
        assert res["mus"] == mus
        for stats, median, censored in zip(each, res["medians"],
                                           res["censored_fractions"]):
            assert median == float(np.median(stats.exit_times))
            assert censored == float(np.mean(stats.censored))
        for got, want in zip(run_ensembles(cfg, mus, ref), each):
            _stats_equal(got, want)


def test_supermartingale_depth_limit(ref, cert, cfg_maker):
    cfg = cfg_maker(mu=0.05, n_paths=100, horizon=1.0)
    with pytest.raises(NotImplementedError):
        supermartingale_check(cfg, cert, N=2, ref=ref)


@pytest.mark.parametrize("tau0, match", [
    pytest.param(395.0, "reference domain", id="395.0"),
    pytest.param(2.0, "reference domain", id="2.0"),
    pytest.param(8.0, "certificate's tau0", id="8.0")])
def test_supermartingale_refuses_window_outside_reference(ref, cert,
                                                          cfg_maker, tau0,
                                                          match):
    # the reference covers [5, 400]: past its end the error terms turn NaN
    # and every path would count as stopped; before its start the start
    # value of U_1 would be NaN.  Inside it, the certified inequalities
    # hold only from the certificate's tau0 (10) on
    assert cert.tau0 == 10.0
    cfg = cfg_maker(mu=0.05, n_paths=100, horizon=10.0, x0=(0.0, 0.0),
                    tau0=tau0)
    with pytest.raises(ValueError, match=match):
        supermartingale_check(cfg, cert, N=1, ref=ref)


@pytest.mark.parametrize("tau0", [395.0, 2.0])
def test_run_ensemble_refuses_window_outside_reference(ref, cfg_maker, tau0):
    # past 400 (or before 5) no path could leave the tube, so its paths
    # would count as censored without a word
    cfg = cfg_maker(n_paths=100, horizon=10.0, x0=(1.0, 3.0), tau0=tau0)
    with pytest.raises(ValueError, match=r"window \[.*reference domain"):
        run_ensemble(cfg, ref)


@pytest.mark.parametrize("sigma1", [0.0, 0.02])
def test_single_path_is_ensemble_path(params, sigma1):
    # one engine: the single path for (master_seed, j) is path j of the
    # ensemble, bit for bit; 2050 steps cross a noise chunk boundary and
    # the grid's step sizes differ from dt in their last bits
    noise = NoiseSchedule(mu=0.35, sigma1=constant_schedule(sigma1),
                          sigma2=constant_schedule(1.0), h=1.0)
    cfg = EnsembleConfig(params=params, noise=noise, tau0=0.0, horizon=2.05,
                         dt=1e-3, n_paths=100, master_seed=31,
                         x0=(1.09, 2.15))
    stats = run_ensemble(cfg, out_of_class_ok=True)
    tau1 = cfg.tau0 + cfg.horizon
    make_terms = partial(perturbed_terms, params, noise)
    for j in (0, 5):
        traj = integrate_sde(make_terms, cfg.x0, cfg.tau0, tau1, cfg.dt,
                             noise.mu, NoiseStream(cfg.master_seed, j))
        assert not traj.truncated
        assert np.array_equal(traj.states[-1], stats.end_states[j])


def test_single_path_verdict_is_ensemble_verdict():
    # classify_capture on a recorded path and the ensemble observer compute
    # the capture verdict separately; they must agree path by path.  At
    # dt = 1e-2 the step is too coarse to hold the lock at lam = 1, so
    # lam = 0.25 gives both verdicts
    params = SystemParams(lam=0.25, gamma=0.1)
    noise = _noise(0.35)
    cfg = EnsembleConfig(params=params, noise=noise, tau0=0.0, horizon=60.0,
                         dt=1e-2, n_paths=100, master_seed=7,
                         x0=(1.09, 2.15))
    stats = run_ensemble(cfg, out_of_class_ok=True)
    tau1 = cfg.tau0 + cfg.horizon
    make_terms = partial(perturbed_terms, params, noise)
    captured = np.flatnonzero(stats.captured)[:4]
    escaped = np.flatnonzero(~stats.captured)[:4]
    assert captured.size == escaped.size == 4
    for j in np.concatenate([captured, escaped]):
        traj = integrate_sde(make_terms, cfg.x0, cfg.tau0, tau1, cfg.dt,
                             noise.mu, NoiseStream(cfg.master_seed, int(j)),
                             record_every=1)
        verdict = classify_capture(traj, params)
        assert verdict == ("captured" if stats.captured[j] else "escaped"), j


def _stats_equal(a, b):
    for key in ("exit_times", "censored", "sup_psi_dev", "sup_r_dev_weighted",
                "sup_r_dev_raw", "captured", "end_states"):
        assert np.array_equal(getattr(a, key), getattr(b, key),
                              equal_nan=True), key
    assert a.to_dict() == b.to_dict()


def test_block_width_invariance(ref, cert, cfg_maker, monkeypatch):
    # 150 paths run as blocks of 150, 75 and 50, and 160 paths as 160 or
    # as the ragged 53 + 53 + 54
    ens_cfg = cfg_maker(n_paths=150)
    err_cfg = cfg_maker(mu=0.05, n_paths=150, horizon=1.0, x0=(0.0, 0.0),
                        tau0=cert.tau0)
    ragged_ens = dataclasses.replace(ens_cfg, n_paths=160)
    ragged_err = dataclasses.replace(err_cfg, n_paths=160)
    stats = run_ensemble(ens_cfg, ref)
    report = supermartingale_check(err_cfg, cert, N=1, ref=ref)
    ragged_stats = run_ensemble(ragged_ens, ref)
    ragged_report = supermartingale_check(ragged_err, cert, N=1, ref=ref)
    with monkeypatch.context() as m:
        for width, widths in ((75, [75, 75]), (50, [50, 50, 50])):
            m.setattr(ensemble, "MAX_BLOCK_PATHS", width)
            assert [hi - lo for lo, hi in ensemble._path_blocks(150)] == widths
            _stats_equal(run_ensemble(ens_cfg, ref), stats)
            assert supermartingale_check(err_cfg, cert, N=1,
                                         ref=ref) == report
        m.setattr(ensemble, "MAX_BLOCK_PATHS", 54)
        assert [hi - lo for lo, hi in ensemble._path_blocks(160)] == [
            53, 53, 54]
        _stats_equal(run_ensemble(ragged_ens, ref), ragged_stats)
        assert supermartingale_check(ragged_err, cert, N=1,
                                     ref=ref) == ragged_report

    # nor on the length of the noise chunks: 2050 steps span two chunks at
    # the default budget, a ball start draws first, and with sigma1 != 0
    # both noise channels reach the paths
    noise = NoiseSchedule(mu=0.3, sigma1=power_schedule(0.02, -1.0),
                          sigma2=constant_schedule(0.5))
    ball_cfg = cfg_maker(n_paths=150, horizon=2.05, ball_radius=0.02,
                         noise=noise)
    assert integrators.chunk_steps(150) < 2050
    ball = run_ensemble(ball_cfg, ref)
    # and stacked with other amplitudes, every path keeps its ball start
    # and its increments at each of them
    mus = [0.2, 0.3, 0.45]
    ball_each = _at_each_mu(ball_cfg, mus, ref)

    def stacked_is_each():
        for got, want in zip(run_ensembles(ball_cfg, mus, ref), ball_each):
            _stats_equal(got, want)
    stacked_is_each()
    for chunk in (500, 7):
        # the budget of `chunk` steps for one block of 150 paths
        monkeypatch.setattr(integrators, "NOISE_BUDGET",
                            chunk * integrators.N_CHANNELS * 8 * 150)
        assert integrators.chunk_steps(150) == chunk
        _stats_equal(run_ensemble(ball_cfg, ref), ball)
        assert supermartingale_check(err_cfg, cert, N=1, ref=ref) == report
        stacked_is_each()


@pytest.mark.parametrize("n_paths, widths", [
    (256, [256]), (2048, [2048]), (2049, [1024, 1025]),
    (5000, [1666, 1667, 1667]), (10**7, None)])
def test_path_blocks(n_paths, widths):
    blocks = ensemble._path_blocks(n_paths)
    got = [hi - lo for lo, hi in blocks]
    if widths is not None:
        assert got == widths
    # as few blocks as the cap allows, none wider, widths within one path
    assert len(blocks) == -(-n_paths // ensemble.MAX_BLOCK_PATHS)
    assert max(got) <= ensemble.MAX_BLOCK_PATHS
    assert max(got) - min(got) <= 1
    # contiguous, in path order, every path once
    assert blocks[0][0] == 0 and blocks[-1][1] == n_paths
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


def test_supermartingale_all_paths_stopped(ref, cert, cfg_maker):
    # a tube this thin is left within the first step, so stepping ends
    # early and U_1 stays at its stopped values on every later band
    tiny = dataclasses.replace(cert, d0=1e-9)
    cfg = cfg_maker(mu=0.05, n_paths=100, horizon=1.0, x0=(0.0, 0.0),
                    tau0=cert.tau0)
    report = supermartingale_check(cfg, tiny, N=1, ref=ref)
    assert report["stopped_fraction"] == 1.0
    assert report["bands"][0]["mean_diff"] != 0.0
    assert all(band["mean_diff"] == 0.0 for band in report["bands"][1:])
