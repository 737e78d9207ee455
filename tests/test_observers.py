"""The chunked observers against their per-step oracles (tests/oracles.py):
run_ensembles, supermartingale_check and integrate_sde give the bits of
the per-step observers driven by the plain Euler-Maruyama loop, at chunks
of 1 and 7 steps and at the default budget."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from autores import ensemble, integrators
from autores.ensemble import (EnsembleConfig, run_ensembles,
                              supermartingale_check)
from autores.integrators import NoiseStream, integrate_sde
from autores.model import (NoiseSchedule, constant_schedule,
                           perturbed_terms, power_schedule)
from oracles import (PlainStoppedU1, PlainTube, plain_integrate_sde,
                     plain_run_blocks, set_chunk)

CHUNKS = (1, 7, None)  # None: the default budget


def _oracle(monkeypatch, run):
    """run() with _run_blocks and the observers replaced by the per-step
    oracles; returns its result and the oracle observers it made."""
    made = []

    def run_blocks(cfg, mus, grid, terms, observer):
        def make(m):
            made.append(observer(m))
            return made[-1]
        return plain_run_blocks(cfg, mus, grid, terms, make)
    with monkeypatch.context() as mp:
        mp.setattr(ensemble, "_run_blocks", run_blocks)
        mp.setattr(ensemble, "_TubeObserver", PlainTube)
        mp.setattr(ensemble, "_StoppedU1", PlainStoppedU1)
        with np.errstate(over="ignore", invalid="ignore"):
            return run(), made


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
    want, made = _oracle(monkeypatch,
                         lambda: run_ensembles(cfg, mus, ref_or_none))
    for chunk in CHUNKS:
        with monkeypatch.context() as mp:
            if chunk is not None:
                set_chunk(mp, chunk, len(mus) * cfg.n_paths, cfg.n_paths)
            got = run_ensembles(cfg, mus, ref_or_none)
        for stats, expect in zip(got, want):
            _stats_equal(stats, expect)
    # the cases are exercised, and the last chunk of 7 is a short one
    obs, = made
    n_steps = obs.tau_next.size
    escaped = ~np.isnan(obs.escaped_at)
    if case.startswith("escape"):
        steps = np.searchsorted(obs.tau_next, obs.escaped_at[escaped])
        # some escape mid-chunk at chunks of 7, and not all at one step
        assert escaped.any() and not escaped.all()
        assert (steps % 7 != 6).any()
        assert np.unique(steps).size > 3
    else:
        assert not escaped.any()
        assert obs.exited.any() and not obs.exited.all()
        assert want[0].captured.any()
    assert n_steps % 7 != 0


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
    }


@pytest.mark.parametrize("case", ["stops", "all-stop", "thin",
                                  "ball-sigma1"])
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
                set_chunk(mp, chunk, cfg.n_paths, cfg.n_paths)
            assert run() == want
    obs, = made
    n_steps = obs.tau_next.size
    stop = obs.stop_step[obs.stopped]
    if case == "stops":
        assert 0.1 < obs.stopped.mean() < 0.9
        assert (stop % 7 == 6).any() and (stop % 7 != 6).any()
    elif case == "ball-sigma1":
        assert obs.stopped.any()
    else:
        assert obs.stopped.all() and stop.max() < n_steps - 100
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
