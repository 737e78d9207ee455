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
from autores.lyapunov import chain_U, eval_V
from autores.ensemble import (EnsembleConfig, classify_capture,
                              exit_time_scaling, run_ensemble, run_ensembles,
                              supermartingale_check, wilson_interval)
from oracles import set_chunk


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


@pytest.mark.parametrize("field, value", [
    ("x0", (math.nan, 2.0)), ("x0", (1.0, -math.inf)),
    ("ball_radius", math.nan), ("ball_radius", math.inf),
    ("ball_radius", -0.1),
    ("eps1", math.nan), ("eps1", math.inf), ("eps1", 0.0),
])
def test_config_rejects_non_finite(params, field, value):
    # a NaN start "exited" every path at the first step, a NaN eps1 never
    # exits, and a NaN or negative ball_radius started no path in a ball
    good = dict(params=params, noise=_noise(0.1), tau0=10.0, horizon=5.0,
                dt=1e-3, n_paths=100, master_seed=1)
    with pytest.raises(ValueError, match=field):
        EnsembleConfig(**good, **{field: value})


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


def test_run_ensembles_blowup_at_one_amplitude(params,
                                              verdict_at_any_horizon):
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


def test_exit_time_scaling_refuses_censored_median(params, ref):
    # criterion 09's config at horizon 3: every path at mu 0.05 stays in
    # the tube, so its "median" would be the horizon, a lower bound
    cfg = EnsembleConfig(params=params, noise=_noise(0.05), tau0=20.0,
                         horizon=3.0, dt=1e-3, n_paths=300, master_seed=7,
                         x0=tuple(ref.state(20.0)), eps1=0.3)
    with pytest.raises(ValueError, match=r"mu=0\.05 .* horizon=3\.0"):
        exit_time_scaling(cfg, [0.05, 0.3, 0.45], ref, n_boot=20)


@pytest.mark.parametrize("n_censored, refused", [(49, False), (50, True),
                                                 (100, True)])
def test_exit_time_scaling_censored_share_at_one_mu(ref, cfg_maker,
                                                    monkeypatch, n_censored,
                                                    refused):
    # a median is censored from half the paths on, at any one amplitude
    cfg = cfg_maker(n_paths=100)

    def runs(cfg, mus, ref, out_of_class_ok, observer):
        exits = np.linspace(0.1, 1.0, cfg.n_paths)
        censored = np.arange(cfg.n_paths) < n_censored
        return [{"exit_times": np.where(censored, cfg.horizon, exits),
                 "censored": censored if mu == 0.3
                 else np.zeros_like(censored)} for mu in mus], None
    monkeypatch.setattr(ensemble, "_tube_runs", runs)
    if refused:
        with pytest.raises(ValueError, match=r"mu=0\.3 .* horizon"):
            exit_time_scaling(cfg, [0.2, 0.3, 0.45], ref, n_boot=10)
    else:
        res = exit_time_scaling(cfg, [0.2, 0.3, 0.45], ref, n_boot=10)
        assert res["censored_fractions"] == [0.0, 0.49, 0.0]
        # just under half censored: a resample draws half or more of
        # them censored often, and its median is then a lower bound
        shares = res["boot_censored_median_fractions"]
        assert shares[0] == shares[2] == 0.0 and shares[1] > 0.0


def test_exit_time_scaling_runs_cfg_at_each_mu(ref, cfg_maker, monkeypatch,
                                               verdict_at_any_horizon):
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


def test_supermartingale_refuses_out_of_class_schedule(ref, cert,
                                                       cfg_maker):
    # U_1's constant assumes the class bound h; sigma2 5 against h 1 is
    # outside it, so the check has nothing to test and no override
    cfg = cfg_maker(mu=0.05, n_paths=100, horizon=1.0, x0=(0.0, 0.0),
                    tau0=cert.tau0, noise=_noise(0.05, s2=5.0))
    with pytest.raises(ValueError, match="not in class") as exc:
        supermartingale_check(cfg, cert, N=1, ref=ref)
    assert "out_of_class_ok" not in str(exc.value)


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


def test_noise_class_refused_before_reference_domain(ref, cert, cfg_maker):
    # a schedule out of class (sigma2 5 against h 1) and a window past
    # the reference's end: both runs name the class first; with the
    # class override, run_ensemble names the window
    cfg = cfg_maker(mu=0.05, n_paths=100, horizon=10.0, x0=(0.0, 0.0),
                    tau0=395.0, noise=_noise(0.05, s2=5.0))
    with pytest.raises(ValueError, match="not in class"):
        run_ensemble(cfg, ref)
    with pytest.raises(ValueError, match="not in class"):
        supermartingale_check(cfg, cert, N=1, ref=ref)
    with pytest.raises(ValueError, match=r"window \[.*reference domain"):
        run_ensemble(cfg, ref, out_of_class_ok=True)


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
        traj, = integrate_sde(make_terms, cfg.x0, cfg.tau0, tau1, cfg.dt,
                              noise.mu, [NoiseStream(cfg.master_seed, j)])
        assert not traj.truncated
        assert np.array_equal(traj.states[-1], stats.end_states[j])


def test_supermartingale_paths_are_single_paths(params, ref, cert):
    # the supermartingale check steps the perturbed system from the
    # reference at tau0 plus x0 and reads each path's deviation from the
    # reference at every node: U_1 of integrate_sde's paths, with the
    # same streams and start, minus ref.state at the recorded nodes,
    # averaged over the paths at the observation nodes, gives the
    # report's means bit for bit.  The window crosses the switch time
    # tau_s = 20, where the reference goes from its spline to its
    # series, both channels carry noise, and no path leaves the tube
    assert ref.tau_s == 20.0
    noise = NoiseSchedule(mu=0.1, sigma1=power_schedule(0.02, -1.0),
                          sigma2=constant_schedule(0.5))
    cfg = EnsembleConfig(params=params, noise=noise, tau0=19.9,
                         horizon=0.2055, dt=1e-3, n_paths=100,
                         master_seed=53, x0=(0.01, -0.02))
    report = supermartingale_check(cfg, cert, N=1, ref=ref)
    assert report["stopped_fraction"] == 0.0
    tau1 = cfg.tau0 + cfg.horizon
    start = [s + d for s, d in zip(ref.state(cfg.tau0), cfg.x0)]
    paths = integrate_sde(partial(perturbed_terms, params, noise), start,
                          cfg.tau0, tau1, cfg.dt, noise.mu,
                          [NoiseStream(cfg.master_seed, j)
                           for j in range(cfg.n_paths)], record_every=1)
    tau = paths[0].times
    assert tau[0] < 20.0 < tau[-1]
    star = ref.state(tau)
    dev = np.array([path.states.T for path in paths]) - star
    u1 = chain_U(noise.mu, noise.h, 2, cert.C, cfg.horizon,
                 4.0 * eval_V(dev.transpose(1, 2, 0), tau[:, None], params,
                              [s[:, None] for s in star]),
                 tau[:, None], cfg.tau0)
    ends = np.unique(np.linspace(0, tau.size - 2,
                                 ensemble.N_OBS - 1).astype(int)) + 1
    means = u1[np.concatenate([[0], ends])].mean(axis=1)
    assert report["mean_start"] == means[0]
    assert [band["mean_after"] for band in report["bands"]] == list(means[1:])


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
        traj, = integrate_sde(make_terms, cfg.x0, cfg.tau0, tau1, cfg.dt,
                              noise.mu, [NoiseStream(cfg.master_seed, int(j))],
                              record_every=1)
        verdict = classify_capture(traj, params)
        assert verdict == ("captured" if stats.captured[j] else "escaped"), j


def test_short_window_has_no_capture_verdict(params, monkeypatch):
    # a run that ends before tau 50 is too short for a capture verdict,
    # as classify_capture says of one path: no fraction, no interval and
    # no per-path flags (at the threshold's end this run gave fraction 1
    # with interval [0.963, 1]).  Moved to the run's end, the threshold
    # lets them through, and no other statistic changes
    cfg = EnsembleConfig(params=params, noise=_noise(0.35), tau0=0.0,
                         horizon=10.0, dt=1e-3, n_paths=100,
                         master_seed=12345, x0=(1.09, 2.15))
    short = run_ensemble(cfg)
    assert short.capture_fraction is None
    assert short.capture_interval is None and short.captured is None
    doc = short.to_dict()
    assert doc["capture_fraction"] is None and doc["capture_interval"] is None
    monkeypatch.setattr(ensemble, "CAPTURE_MIN_TAU", 10.0)
    decided = run_ensemble(cfg)
    assert decided.captured.dtype == bool and decided.captured.any()
    assert decided.capture_interval == wilson_interval(
        int(decided.captured.sum()), 100)
    for field in dataclasses.fields(short):
        if not field.name.startswith("capture"):
            assert np.array_equal(getattr(short, field.name),
                                  getattr(decided, field.name),
                                  equal_nan=True), field.name


def test_phase_fold_only_for_a_capture_verdict(ref, cfg_maker, monkeypatch):
    # the phase range over the capture window (the np.minimum fold) is
    # folded only where a capture verdict is returned: not by
    # exit_time_scaling, which reads none, even on a window that ends at
    # tau 60, nor by a run that ends before tau 50; the deviation maxima
    # are folded by every run_ensemble and by no exit_time_scaling, which
    # reads only exit times
    folds = []
    fold = ensemble._fold

    def spy(ufunc, *args):
        folds.append(ufunc)
        return fold(ufunc, *args)
    monkeypatch.setattr(ensemble, "_fold", spy)
    early = cfg_maker(n_paths=100, horizon=5.0, eps1=0.3)
    late = cfg_maker(n_paths=100, horizon=5.0, eps1=0.3, tau0=55.0,
                     x0=tuple(ref.state(55.0)))
    for cfg in (early, late):
        exit_time_scaling(cfg, [0.2, 0.3, 0.45], ref, n_boot=10)
        assert folds == []
    assert run_ensemble(early, ref).captured is None
    assert np.maximum in folds and np.minimum not in folds
    assert run_ensemble(late, ref).captured.dtype == bool
    assert np.minimum in folds


@pytest.fixture
def verdict_at_any_horizon(monkeypatch):
    # the windows compared by _stats_equal end before tau 50; with the
    # threshold at 0 they still carry per-path capture flags, so the
    # phase-range fold is compared with everything else
    monkeypatch.setattr(ensemble, "CAPTURE_MIN_TAU", 0.0)


def _stats_equal(a, b):
    assert b.captured is not None
    for key in ("exit_times", "censored", "sup_psi_dev", "sup_r_dev_weighted",
                "sup_r_dev_raw", "captured", "end_states"):
        assert np.array_equal(getattr(a, key), getattr(b, key),
                              equal_nan=True), key
    assert a.to_dict() == b.to_dict()


def test_block_width_invariance(ref, cert, cfg_maker, monkeypatch,
                                verdict_at_any_horizon):
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
    assert integrators.chunk_steps(150, 150, 2, integrators.N_CHANNELS) < 2050
    ball = run_ensemble(ball_cfg, ref)
    # and stacked with other amplitudes, every path keeps its ball start
    # and its increments at each of them; with sigma1 = 0 as well, where
    # the noise is additive and em_paths forms it a chunk at a time
    mus = [0.2, 0.3, 0.45]
    additive_cfg = dataclasses.replace(ball_cfg, noise=_noise(0.3, s2=0.5))
    each = [(cfg, _at_each_mu(cfg, mus, ref))
            for cfg in (ball_cfg, additive_cfg)]

    def stacked_is_each():
        for cfg, cfg_each in each:
            for got, want in zip(run_ensembles(cfg, mus, ref), cfg_each):
                _stats_equal(got, want)
    stacked_is_each()
    for chunk in (500, 7):
        # the budget of `chunk` steps for one block of 150 paths with a
        # stream each (the stacked blocks of 450 get 201 and 2 steps)
        set_chunk(monkeypatch, chunk, 150, 150)
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


def test_supermartingale_start_reads_reference_at_tau0(params, ref, cert,
                                                       cfg_maker):
    # off the reference, U_1 at node 0 depends on (r*, psi*): the report's
    # mean start is U_1 at tau0 with the reference read at tau0, at the
    # deviation the paths start with, (r* + R0) - r* and (psi* + Psi0) -
    # psi*, rounded as the start state is
    x0, tau0 = (0.02, -0.01), cert.tau0
    cfg = cfg_maker(mu=0.05, n_paths=100, horizon=0.5, x0=x0, tau0=tau0)
    report = supermartingale_check(cfg, cert, N=1, ref=ref)
    star = ref.state(tau0)
    e0 = [(s + d) - s for s, d in zip(star, x0)]
    assert e0 != list(x0)
    V = eval_V(e0, tau0, params, star)
    u1 = chain_U(0.05, cfg.noise.h, 2, cert.C, cfg.horizon, 4.0 * V, tau0,
                 tau0)
    assert report["mean_start"] == float(np.full(cfg.n_paths, u1).mean())
