"""The chunked observers against their per-step oracles (tests/oracles.py):
run_ensembles, supermartingale_check, exit_time_scaling and integrate_sde
give the bits of the per-step observers driven by the plain
Euler-Maruyama loop, at chunks of 1 and 7 steps and at the default
budget.  The plain loop steps every path the observer does not stop to
the horizon; em_paths drops the stopped and escaped ones."""

import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest

from autores import ensemble, integrators
from autores.ensemble import (EnsembleConfig, exit_time_scaling,
                              run_ensembles, supermartingale_check)
from autores.integrators import NoiseStream, integrate_sde
from autores.model import (NoiseSchedule, constant_schedule,
                           perturbed_terms, power_schedule)
from oracles import (PlainStoppedU1, PlainTube, plain_bootstrap,
                     plain_integrate_sde, plain_run_blocks, n_chans_of,
                     set_chunk)

CHUNKS = (1, 7, None)  # None: the default budget


def _oracle(monkeypatch, run):
    """run() with _run_blocks and the observers replaced by the per-step
    oracles; returns its result and the oracle observers it made."""
    made = []

    def run_blocks(cfg, mus, tau, terms, observer):
        def make(m):
            made.append(observer(m))
            return made[-1]
        return plain_run_blocks(cfg, mus, tau, terms, make)
    with monkeypatch.context() as mp:
        mp.setattr(ensemble, "_run_blocks", run_blocks)
        mp.setattr(ensemble, "_TubeObserver", PlainTube)
        # the oracle steps every path to the horizon
        mp.setattr(ensemble, "_ExitObserver", PlainTube)
        mp.setattr(ensemble, "_StoppedU1", PlainStoppedU1)
        mp.setattr(ensemble, "_bootstrap", plain_bootstrap)
        with np.errstate(over="ignore", invalid="ignore"):
            return run(), made


def _watch(mp):
    """Make ensemble's em_paths record each observer call as (k0, cols,
    the escape mask, the stop mask or None); returns the record."""
    calls = []

    def em_paths(terms, x, tau, dt, mu, rngs, observe):
        def watched(k0, xs, live, cols):
            stop = observe(k0, xs, live, cols)
            calls.append((k0, cols.copy(), live.sum(axis=0) < xs.shape[0],
                          None if stop is None else stop.copy()))
            return stop
        return integrators.em_paths(terms, x, tau, dt, mu, rngs, watched)
    mp.setattr(ensemble, "em_paths", em_paths)
    return calls


def _keep_tubes(mp):
    """Make run_ensembles keep each block's _TubeObserver; returns the
    list they are kept in."""
    tubes = []
    make = ensemble._TubeObserver

    def keep(*args):
        tubes.append(make(*args))
        return tubes[-1]
    mp.setattr(ensemble, "_TubeObserver", keep)
    return tubes


def _assert_dropped_unseen(calls):
    """No path reaches the observer after the chunk in which it escaped
    or was stopped; a block starts afresh at k0 = 0."""
    for k0, cols, esc, stop in calls:
        if k0 == 0:
            gone = np.zeros(cols.size, dtype=bool)
        assert not gone[cols].any()
        gone[cols[esc if stop is None else esc | stop]] = True


def _noise(mu, sigma1=0.0):
    return NoiseSchedule(mu=mu, sigma1=power_schedule(sigma1, -1.0),
                         sigma2=constant_schedule(0.5))


def _ensemble_cases(params, ref):
    base = dict(params=params, tau0=20.0, dt=1e-3, n_paths=100,
                master_seed=23, x0=tuple(ref.state(20.0)))
    mus = [0.2, 0.3, 0.45]
    return {
        # exits mid-chunk, a ball start, both noise channels, a last
        # step of half dt
        "tracked": (EnsembleConfig(noise=_noise(0.3, 0.02), horizon=1.0025,
                                   ball_radius=0.02, eps1=0.05, **base),
                    mus, ref),
        "additive": (EnsembleConfig(noise=_noise(0.3), horizon=1.0025,
                                    eps1=0.05, **base), mus, ref),
        # near the largest double paths leave the finite range at
        # different steps, tracked and untracked
        "escape": (EnsembleConfig(noise=_noise(0.3, 0.4), horizon=0.2055,
                                  ball_radius=1e307, eps1=0.05,
                                  **{**base, "x0": (1.6e308, 2.0)}),
                   mus, ref),
        "escape-untracked": (EnsembleConfig(
            noise=_noise(0.3, 0.4), horizon=0.2055, ball_radius=1e307,
            **{**base, "x0": (1.6e308, 2.0)}), mus, None),
    }


def _stats_equal(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("case", ["tracked", "additive", "escape",
                                  "escape-untracked"])
def test_run_ensembles_match_per_step_oracle(params, ref, monkeypatch, case):
    cfg, mus, ref_or_none = _ensemble_cases(params, ref)[case]
    if not case.startswith("escape"):
        # these runs end before tau 50, too early for a capture verdict
        # and so for the phase-range fold; with the threshold at 0 the
        # fold runs and its per-path flags are compared with the rest
        monkeypatch.setattr(ensemble, "CAPTURE_MIN_TAU", 0.0)
    want, made = _oracle(monkeypatch,
                         lambda: run_ensembles(cfg, mus, ref_or_none))
    for chunk in CHUNKS:
        with monkeypatch.context() as mp:
            if chunk is not None:
                set_chunk(mp, chunk, len(mus) * cfg.n_paths, cfg.n_paths,
                          n_chans=n_chans_of(cfg.noise))
            calls = _watch(mp)
            tubes = _keep_tubes(mp)
            got = run_ensembles(cfg, mus, ref_or_none)
        for stats, expect in zip(got, want):
            _stats_equal(stats, expect)
        if not case.startswith("escape"):
            # the phase range over the capture window is the oracle's
            tube, = tubes
            assert np.array_equal(tube.psi_lo, made[0].psi_lo)
            assert np.array_equal(tube.psi_hi, made[0].psi_hi)
        # the capture and deviation statistics stop no path
        assert all(stop is None for *_, stop in calls)
        _assert_dropped_unseen(calls)
        if case.startswith("escape") and chunk == 7:
            assert calls[-1][1].size < calls[0][1].size
    # the cases are exercised, and the last chunk of 7 is a short one
    obs, = made
    n_steps = obs.tau.size - 1
    escaped = ~np.isnan(obs.escaped_at)
    if case.startswith("escape"):
        nodes = np.searchsorted(obs.tau, obs.escaped_at[escaped])
        # some escape mid-chunk at chunks of 7 (a chunk ends on a node
        # that is a multiple of 7), and not all at one node
        assert escaped.any() and not escaped.all()
        assert (nodes % 7 != 0).any()
        assert np.unique(nodes).size > 3
    else:
        assert not escaped.any()
        assert obs.exited.any() and not obs.exited.all()
        assert want[0].captured.dtype == bool
        assert (obs.psi_lo < obs.psi_hi).all()
        assert np.isfinite(obs.psi_hi - obs.psi_lo).all()
    assert n_steps % 7 != 0


class _CountingGenerator:
    """A stream's generator that counts its standard_normal calls; its
    other draws (the ball start, the bootstrap's stream) pass through."""

    def __init__(self, gen, counts, j):
        self.gen, self.counts, self.j = gen, counts, j

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def standard_normal(self, *args, **kwargs):
        self.counts[self.j] += 1
        return self.gen.standard_normal(*args, **kwargs)


def test_exit_time_scaling_matches_per_step_oracle(params, ref, monkeypatch):
    # each path stops at its first exit and its columns are dropped, where
    # the oracle steps every path to the horizon: the exit times, the
    # censoring and so the whole fit and its bootstrap are the same bits
    cfg, mus, _ = _ensemble_cases(params, ref)["tracked"]
    cfg = dataclasses.replace(cfg, eps1=0.1)

    def run():
        return exit_time_scaling(cfg, mus, ref, n_boot=50, seed=3)
    want, made = _oracle(monkeypatch, run)
    n_steps = made[0].tau.size - 1
    for chunk in CHUNKS:
        counts = np.zeros(cfg.n_paths, dtype=int)
        with monkeypatch.context() as mp:
            if chunk is not None:
                set_chunk(mp, chunk, len(mus) * cfg.n_paths, cfg.n_paths)
            calls = _watch(mp)
            generator = NoiseStream.generator
            mp.setattr(NoiseStream, "generator", lambda s: _CountingGenerator(
                generator(s), counts, s.path_index))
            assert run() == want
        _assert_dropped_unseen(calls)
        # the slab narrows as paths exit, and stepping ends with the last
        # path that has not exited
        widths = [cols.size for _, cols, _, _ in calls]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < widths[0]
        # a stream draws until the chunk in which the last of its paths
        # exits, and in every chunk if one of them is censored; node n is
        # the end of chunk ceil(n / chunk_len)
        chunk_len = calls[1][0]
        obs, = made
        last_node = np.where(
            obs.exited, np.searchsorted(obs.tau - cfg.tau0, obs.exit_time),
            n_steps)
        last_node = last_node.reshape(len(mus), cfg.n_paths).max(axis=0)
        assert np.array_equal(counts, -(-last_node // chunk_len))
        if chunk == 7:
            assert counts.min() < counts.max() == -(-n_steps // 7)
    # exits mid-chunk at chunks of 7, and censored paths at the two
    # smaller amplitudes
    obs, = made
    exit_node = np.searchsorted(obs.tau - cfg.tau0, obs.exit_time[obs.exited])
    assert (exit_node % 7 != 0).any()
    assert np.array_equal(obs.tau[exit_node] - cfg.tau0,
                          obs.exit_time[obs.exited])
    censored = want["censored_fractions"]
    assert censored[0] > 0.3 and censored[1] > 0
    assert np.isnan(obs.escaped_at).all()


def _exits(n_paths):
    # exit times on the step grid with ties, and censored paths at the
    # horizon 5
    rng = np.random.default_rng(n_paths)
    return np.minimum(np.round(rng.exponential([[0.5], [1.0], [2.0]],
                                               (3, n_paths)), 3), 5.0)


@pytest.mark.parametrize("n_paths", [100, 301])
@pytest.mark.parametrize("n_boot", [1, 200])
@pytest.mark.parametrize("piece", [7, None])  # None: the default budget
def test_bootstrap_matches_per_resample_oracle(monkeypatch, n_paths, n_boot,
                                               piece):
    # medians of even and odd path counts, in one piece or in pieces of
    # 7 resamples, the last one short
    exits = _exits(n_paths)
    if piece is not None:
        monkeypatch.setattr(integrators, "NOISE_BUDGET",
                            piece * 24 * exits.size)
    log_mu = np.log([0.2, 0.3, 0.45])
    # the paths at or above each row's median are flagged censored, about
    # half of them, so resamples fall on both sides of the half
    censored = exits >= np.median(exits, axis=1, keepdims=True)
    got = ensemble._bootstrap(exits, censored, log_mu, n_boot, 11)
    want = plain_bootstrap(exits, censored, log_mu, n_boot, 11)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    assert (exits == 5.0).any()
    if n_boot > 1:
        assert ((0 < got[2]) & (got[2] < 1)).all()


def test_bootstrap_within_budget():
    # 2000 resamples of 3 x 300 paths would take 43 MB drawn at once; in
    # pieces the draws and medians fit in NOISE_BUDGET, and the fit on
    # the (2000, 3) medians takes a small part of a tenth more
    exits = _exits(300)
    tracemalloc.start()
    try:
        ensemble._bootstrap(exits, exits == 5.0, np.log([0.2, 0.3, 0.45]),
                            2000, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= integrators.NOISE_BUDGET * 1.1


def _smc_cases(cert):
    thin = dataclasses.replace(cert, d0=1e-9)
    return {
        # stops mid-chunk and on a chunk's last row; most paths run on
        "stops": (_noise(0.2), 2.0025, 0.0, (0.0, 0.0), cert),
        # every path stops, the last 100 steps before the horizon
        "all-stop": (_noise(0.8), 2.0, 0.0, (0.0, 0.0), cert),
        # the tube is left within the first step
        "thin": (_noise(0.05), 1.0, 0.0, (0.0, 0.0), thin),
        "ball-sigma1": (_noise(0.2, 0.02), 1.5, 0.03, (0.05, -0.02), cert),
        # some ball starts lie outside the tube: stopped at node 0, tau0
        "start-outside": (_noise(0.2), 0.5, 0.03, (cert.d0 - 0.01, 0.0),
                          cert),
    }


@pytest.mark.parametrize("case", ["stops", "all-stop", "thin",
                                  "ball-sigma1", "start-outside"])
def test_supermartingale_matches_per_step_oracle(params, ref, cert,
                                                 monkeypatch, case):
    noise, horizon, radius, x0, c = _smc_cases(cert)[case]
    cfg = EnsembleConfig(params=params, noise=noise, tau0=cert.tau0,
                         horizon=horizon, dt=1e-3, n_paths=100,
                         master_seed=41, x0=x0, ball_radius=radius)

    def run():
        return supermartingale_check(cfg, c, N=1, ref=ref)
    want, made = _oracle(monkeypatch, run)
    for chunk in CHUNKS:
        with monkeypatch.context() as mp:
            if chunk is not None:
                set_chunk(mp, chunk, cfg.n_paths, cfg.n_paths,
                          n_chans=n_chans_of(cfg.noise))
            calls = _watch(mp)
            assert run() == want
        _assert_dropped_unseen(calls)
        if case == "all-stop" and chunk == 7:
            assert calls[-1][1].size < calls[0][1].size
    obs, = made
    n_steps = obs.tau.size - 1
    stop = obs.stop_node[obs.stopped]
    if case == "stops":
        assert 0.1 < obs.stopped.mean() < 0.9
        assert (stop % 7 == 0).any() and (stop % 7 != 0).any()
    elif case == "ball-sigma1":
        assert obs.stopped.any()
    elif case == "start-outside":
        assert (stop == 0).any() and (stop > 0).any()
    else:
        assert obs.stopped.all() and stop.max() <= n_steps - 100
        assert want["stopped_fraction"] == 1.0


@pytest.mark.parametrize("record_every", [1, 7])
def test_integrate_sde_matches_per_step_oracle(params, monkeypatch,
                                               record_every):
    def terms_1d(drift, g):
        def terms(k, x, w, f, gw, scratch):
            f[0][...] = drift(x[0])
            np.add(g[0] * w[0], g[1] * w[1], out=gw[0])
        return lambda tau: terms
    mus = (0.1, 0.35, 0.55)
    runs = [
        # an OU path per column over a grid that ends on a partial step
        (terms_1d(lambda x: -x, (1.0, 0.5)), [1.0], 10.005, 0.01, 3),
        # x' = x^2 from 5 leaves the finite range near tau 0.21, at a
        # step that depends on each column's noise
        (terms_1d(lambda x: x ** 2, (1.0, 0.5)), [5.0], 0.213, 1e-3, 2),
        # the perturbed system with both noise channels
        (partial(perturbed_terms, params, NoiseSchedule(
            mu=0.3, sigma1=constant_schedule(0.02),
            sigma2=constant_schedule(1.0))), [1.09, 2.15], 3.0005, 1e-3, 4),
    ]
    for make_terms, x0, tau1, dt, seed in runs:
        streams = [NoiseStream(seed, j) for j in (0, 4, 2)]
        args = (make_terms, x0, 0.0, tau1, dt, mus, streams)
        with np.errstate(over="ignore", invalid="ignore"):
            want = plain_integrate_sde(*args, record_every=record_every)
        for chunk in CHUNKS:
            with monkeypatch.context() as mp:
                if chunk is not None:
                    set_chunk(mp, chunk, 3, 3, d=len(x0))
                got = integrate_sde(*args, record_every=record_every)
            for a, b in zip(got, want):
                assert a.truncated == b.truncated
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.states, b.states)
        if x0 == [5.0]:
            assert any(t.truncated for t in want)
            assert not all(t.truncated for t in want)
