"""Monte Carlo engine: deviation probabilities, first-exit times,
capture fractions, and the supermartingale sanity test.

Paths are integrated in blocks of at most MAX_BLOCK_PATHS columns,
vectorized across each block, one block after another on the calling
thread.  Every path owns a counter-based noise stream keyed by
(master_seed, path_index), and blocks are merged in path order, so
aggregates are bit-identical at any block width.  A study at several
noise amplitudes runs them as columns of the same blocks, each path's
stream drawn once for all of them.  A block's statistics are read from
every step of every running path, a chunk of steps at a time, as
em_paths hands them over with their live-row mask, one amplitude per
path.  Every study steps the perturbed system, and a tracked one reads
a path's deviation (R, Psi) as its state minus the reference sample of
the same node.  A study that reads a path only up to a stopping time
stops it there: em_paths then steps it to the end of that chunk and no
further.  The supermartingale check stops paths at the certified tube,
and the exit-time study at their first exit; capture and deviation
statistics read every path to the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import integrators
from .model import SystemParams, NoiseSchedule, perturbed_terms
from .integrators import (NoiseStream, Trajectory, ReferenceSolution,
                          em_paths, sde_step_count, step_grid)
from .lyapunov import (StabilityCertificate, chain_U, eval_V,
                       noise_class_check)

MAX_BLOCK_PATHS = 2048  # no block is wider
# elements per piece of a chunk that _StoppedU1 evaluates U_1 on: its
# temporaries then stay in a core's cache.  On a Xeon with 2 MB of L2
# per core a piece cost 42 ns per element, one pass over 131 steps of
# 1000 paths 73 ns
U1_PIECE = 1 << 14
CAPTURE_WINDOW = 0.8  # capture reads the phase from this share of the run on
CAPTURE_MIN_TAU = 50.0  # a run ending earlier gets no capture verdict
N_OBS = 41          # supermartingale_check observation times, tau0 included
DOOB_LADDER = (1.0, 2.0, 4.0)  # its maximal-bound levels / mean U_1 at tau0


@dataclass(frozen=True)
class EnsembleConfig:
    """One Monte Carlo experiment on the perturbed system.

    Paths start at x0 = (r, psi) at tau0, or, when ball_radius > 0, at
    uniform points of the disk of radius ball_radius centred on x0, and
    run to tau0 + horizon with Euler-Maruyama steps dt, as checked by
    integrators.sde_step_count, the one check of a run's steps.
    """

    params: SystemParams
    noise: NoiseSchedule
    tau0: float
    horizon: float
    dt: float
    n_paths: int
    master_seed: int
    x0: tuple = (1.0, 0.0)
    ball_radius: float = 0.0
    eps1: float = 0.1

    def __post_init__(self):
        if self.n_paths < 100:
            raise ValueError("n_paths must be at least 100 for probability estimates")
        # NaN compares false with every bound, so a NaN start or tube
        # would pass as paths that exit at once or never
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not 0 <= self.ball_radius < math.inf:
            raise ValueError(f"ball_radius must be finite and >= 0, got "
                             f"{self.ball_radius}")
        if not 0 < self.eps1 < math.inf:
            raise ValueError(f"eps1 must be finite and > 0, got {self.eps1}")
        sde_step_count(self.tau0, self.tau0 + self.horizon, self.dt)


def wilson_interval(k: int, n: int):
    """Wilson 95% score interval for a binomial proportion: exactly 0 at
    k = 0 and 1 at k = n, strictly inside (0, 1) elsewhere."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = k / n
    z = 1.959963984540054  # two-sided 95% normal quantile
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return (center - half if k else 0.0, center + half if k < n else 1.0)


@dataclass
class EnsembleStats:
    """Aggregates over one ensemble; all intervals are Wilson 95%.

    exit_times hold the elapsed time from tau0 to the first exit from
    the eps1 tube; censored paths carry the horizon and are flagged.
    A run that ends before CAPTURE_MIN_TAU has no capture verdict:
    capture_fraction, capture_interval and captured are None.
    """

    n_paths: int
    exceed_prob_psi: float
    exceed_psi_interval: tuple
    exceed_prob_r: float
    exceed_r_interval: tuple
    capture_fraction: Optional[float]
    capture_interval: Optional[tuple]
    exit_times: np.ndarray
    censored: np.ndarray
    sup_psi_dev: np.ndarray
    sup_r_dev_weighted: np.ndarray
    sup_r_dev_raw: np.ndarray
    captured: Optional[np.ndarray]
    end_states: np.ndarray
    out_of_class: bool = False

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "exceed_prob_psi": self.exceed_prob_psi,
            "exceed_psi_interval": list(self.exceed_psi_interval),
            "exceed_prob_r": self.exceed_prob_r,
            "exceed_r_interval": list(self.exceed_r_interval),
            "capture_fraction": self.capture_fraction,
            "capture_interval": (None if self.capture_interval is None
                                 else list(self.capture_interval)),
            "median_exit_time": float(np.median(self.exit_times)),
            "censored_fraction": float(np.mean(self.censored)),
            "out_of_class": self.out_of_class,
        }


def _path_blocks(n_paths: int, n_mus: int = 1) -> list:
    """The (lo, hi) path ranges of the blocks, in path order: as few
    blocks as keep n_mus * width within MAX_BLOCK_PATHS columns (one
    path per block at least), with widths that differ by at most one
    path, so a large ensemble runs as bounded blocks, each with its own
    bounded set of noise streams.
    """
    n_blocks = -(-n_paths // max(1, MAX_BLOCK_PATHS // n_mus))
    edges = [i * n_paths // n_blocks for i in range(n_blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _run_blocks(cfg: EnsembleConfig, mus: Sequence[float], tau: np.ndarray,
                terms, observer) -> list:
    """Integrate all paths at every amplitude in mus, block by block
    (_path_blocks), with em_paths over the node times tau, and merge the
    per-block results in path order, so they do not depend on the block
    width.  Returns one merged dict per amplitude.

    A block of paths [lo, hi) runs as len(mus) * (hi - lo) columns,
    amplitude-major: each path's stream is drawn once and feeds its column
    at every amplitude, and em_paths gets one amplitude per column.  The
    stream's first two uniforms place a ball start (EnsembleConfig), then
    em_paths draws the increments.  observer(m) makes a fresh observer for
    a block of m columns; em_paths calls it once per chunk of steps with
    that chunk's states of the running columns, their live-row mask and
    their indices, and drops the columns it returns as stopped.  Its
    result(x, escaped_at) returns a dict of arrays whose last axis runs
    over the columns.
    """
    mus = np.asarray(mus, dtype=float)
    blocks = []
    for lo, hi in _path_blocks(cfg.n_paths, mus.size):
        m = mus.size * (hi - lo)
        x = np.empty((2, m))
        x[0], x[1] = float(cfg.x0[0]), float(cfg.x0[1])
        obs = observer(m)
        rngs = [NoiseStream(cfg.master_seed, j).generator()
                for j in range(lo, hi)]
        if cfg.ball_radius > 0:
            # ball start draws come first from each stream
            offset = np.empty((2, hi - lo))
            for i, rng in enumerate(rngs):
                u, ang = rng.uniform(size=2)
                rad = cfg.ball_radius * math.sqrt(u)
                offset[0, i] = rad * math.cos(2 * math.pi * ang)
                offset[1, i] = rad * math.sin(2 * math.pi * ang)
            x += np.tile(offset, mus.size)
        escaped_at = em_paths(terms, x, tau, cfg.dt, np.repeat(mus, hi - lo),
                              rngs, obs)
        blocks.append({key: np.split(value, mus.size, axis=-1)
                       for key, value in obs.result(x, escaped_at).items()})
    return [{key: np.concatenate([block[key][a] for block in blocks], axis=-1)
             for key in blocks[0]} for a in range(mus.size)]


def _fold(ufunc, acc, cols, values, where, initial):
    """acc[cols] = ufunc(acc[cols], ufunc over axis 0 of values where
    `where` holds); a column with no such row keeps acc.  ufunc is
    np.maximum or np.minimum, so the order of the rows does not change a
    bit."""
    acc[cols] = ufunc(acc[cols], ufunc.reduce(values, axis=0, where=where,
                                              initial=initial))


class _TubeObserver:
    """Deviation, exit and capture statistics of one block of paths.  The
    deviation maxima are kept only where DEVIATIONS is true, and the
    capture statistic only for a capture verdict: not for a run that
    ends before CAPTURE_MIN_TAU, nor where VERDICT is false."""

    VERDICT = True
    DEVIATIONS = True

    def __init__(self, cfg: EnsembleConfig, tau, star, m: int):
        self.cfg, self.tau = cfg, tau
        self.star = star  # deviation statistics exist only with a reference
        if self.DEVIATIONS:
            self.sup_psi = np.zeros(m)
            self.sup_rw = np.zeros(m)
            self.sup_rr = np.zeros(m)
        # exit times are elapsed since tau0; censored paths carry the horizon
        self.exit_time = np.full(m, cfg.horizon)
        self.exited = np.zeros(m, dtype=bool)
        # phase range over the classification window, the statistic of
        # classify_capture
        self.verdict = (self.VERDICT
                        and cfg.tau0 + cfg.horizon >= CAPTURE_MIN_TAU)
        self.window_start = cfg.tau0 + CAPTURE_WINDOW * cfg.horizon
        self.psi_lo = np.full(m, np.inf)
        self.psi_hi = np.full(m, -np.inf)

    def __call__(self, k0, xs, live, cols):
        # slab row i is node k0 + i; row 0, the start state or a state
        # seen in the chunk before, adds nothing
        live = live[1:]
        r, psi = xs[1:, 0], xs[1:, 1]
        nodes = slice(k0 + 1, k0 + xs.shape[0])
        tau = self.tau[nodes]
        if self.star is not None:
            rs, ps = (s[nodes, None] for s in self.star)
            eps1, keep = self.cfg.eps1, self.DEVIATIONS
            dev = np.subtract(psi, ps)
            np.abs(dev, out=dev)
            if keep:
                _fold(np.maximum, self.sup_psi, cols, dev, live, 0.0)
            out = dev >= eps1
            np.subtract(r, rs, out=dev)
            np.abs(dev, out=dev)
            if keep:
                _fold(np.maximum, self.sup_rr, cols, dev, live, 0.0)
            dev *= (1.0 / np.sqrt(tau))[:, None]
            if keep:
                _fold(np.maximum, self.sup_rw, cols, dev, live, 0.0)
            out |= dev >= eps1
            out &= live
            new = out.any(axis=0) & ~self.exited[cols]
            if new.any():
                first = out.argmax(axis=0)
                self.exit_time[cols[new]] = tau[first[new]] - self.cfg.tau0
                self.exited[cols[new]] = True
        if not self.verdict:
            return
        # the steps that end in the window are the last ones
        j = int(np.searchsorted(tau, self.window_start))
        if j < tau.size:
            _fold(np.minimum, self.psi_lo, cols, psi[j:], live[j:], np.inf)
            _fold(np.maximum, self.psi_hi, cols, psi[j:], live[j:], -np.inf)

    def result(self, x, escaped_at):
        cfg = self.cfg
        dead = ~np.isnan(escaped_at)
        # escape by blow-up counts as an exit wherever the tube was being
        # tracked
        exit_times = np.where(dead & ~self.exited, escaped_at - cfg.tau0,
                              self.exit_time)
        # the fields of EnsembleStats, the deviation maxima only where
        # kept and captured only with a verdict; end_states is transposed
        # to one row per path once the blocks are merged
        res = {"exit_times": exit_times, "censored": ~(self.exited | dead),
               "end_states": x}
        if self.DEVIATIONS:
            res.update(sup_psi_dev=self.sup_psi,
                       sup_r_dev_weighted=self.sup_rw,
                       sup_r_dev_raw=self.sup_rr)
        if self.verdict:
            res["captured"] = ~dead & _captured(
                x[0], cfg.tau0 + cfg.horizon, self.psi_hi - self.psi_lo,
                cfg.params)
        return res


class _ExitObserver(_TubeObserver):
    """_TubeObserver that stops each path at its first exit from the
    tube.  Its exit times and censoring are those of the paths stepped to
    the horizon; it keeps no deviation maxima and gives no capture
    verdict (exit_time_scaling reads neither)."""

    VERDICT = False
    DEVIATIONS = False

    def __call__(self, k0, xs, live, cols):
        super().__call__(k0, xs, live, cols)
        return self.exited[cols]


def _window(cfg: EnsembleConfig, ref: Optional[ReferenceSolution],
            ok: Optional[bool]) -> tuple:
    """The node times tau of all paths (step_grid), star, the reference
    samples (r*, psi*) at every node or None with no reference, and
    whether cfg's noise schedule leaves its class (sup over the run of
    |sigma1| tau + |sigma2| above h).

    ValueError, in this order: a schedule out of class, unless ok (None:
    the caller has no out-of-class override to name); with a reference,
    a window [tau0, tau0 + horizon] outside its domain, where a path has
    no reference to deviate from.
    """
    check = noise_class_check(cfg.noise, max(cfg.tau0, 1e-6))
    if not check["admissible"] and not ok:
        raise ValueError(
            f"noise schedule not in class (bound {check['bound']}, h "
            f"{cfg.noise.h})" + ("" if ok is None else
                                 "; pass out_of_class_ok=True to run anyway"))
    tau1 = cfg.tau0 + cfg.horizon
    if ref is not None and not (ref.tau_min <= cfg.tau0
                                and tau1 <= ref.tau_max):
        raise ValueError(f"window [{cfg.tau0}, {tau1}] is not inside the "
                         f"reference domain [{ref.tau_min}, {ref.tau_max}]")
    tau = step_grid(cfg.tau0, tau1, cfg.dt)
    return (tau, None if ref is None else ref.state(tau),
            not check["admissible"])


def _tube_runs(cfg: EnsembleConfig, mus: Sequence[float],
               ref: Optional[ReferenceSolution], out_of_class_ok: bool,
               observer) -> tuple:
    """run_ensembles' checks and engine pass, with observer(cfg, tau,
    star, m) making each block's observer: the merged result dict per
    amplitude (_run_blocks) and whether the schedule is out of class."""
    if not len(mus):
        raise ValueError("need at least one noise amplitude")
    for mu in mus:
        replace(cfg.noise, mu=mu)  # NoiseSchedule refuses mu outside (0, 1)
    tau, star, out_of_class = _window(cfg, ref, out_of_class_ok)
    per_mu = _run_blocks(cfg, mus, tau,
                         perturbed_terms(cfg.params, cfg.noise, tau),
                         lambda m: observer(cfg, tau, star, m))
    return per_mu, out_of_class


def run_ensembles(cfg: EnsembleConfig, mus: Sequence[float],
                  ref: Optional[ReferenceSolution] = None,
                  out_of_class_ok: bool = False) -> list:
    """The ensemble cfg at each noise amplitude in mus, as one engine pass:
    one EnsembleStats per amplitude, in the order of mus.

    Entry a equals run_ensemble of cfg with its amplitude replaced by
    mus[a], field by field and bit for bit, since every path draws the
    same increments at every amplitude (see _run_blocks); cfg's own
    amplitude is not run unless mus holds it.

    The noise schedule must pass its class check unless the run is
    explicitly marked out-of-class.  Deviation and exit metrics are
    measured against ref, whose domain must hold the window [tau0, tau0 +
    horizon] (ValueError otherwise); with no ref, only capture statistics
    are meaningful.  Blow-up is recorded as escape data, never an error.
    Every path runs to the horizon or its blow-up.  A window that ends
    before CAPTURE_MIN_TAU is too short for a capture verdict, as in
    classify_capture.
    """
    per_mu, out_of_class = _tube_runs(cfg, mus, ref, out_of_class_ok,
                                      _TubeObserver)
    n = cfg.n_paths
    stats = []
    for res in per_mu:
        res["end_states"] = res["end_states"].T
        k_psi = int(np.sum(res["sup_psi_dev"] >= cfg.eps1))
        k_r = int(np.sum(res["sup_r_dev_weighted"] >= cfg.eps1))
        # no capture verdict, no "captured" (_TubeObserver)
        decided = res.setdefault("captured", None) is not None
        k_cap = int(np.sum(res["captured"])) if decided else 0
        stats.append(EnsembleStats(
            n_paths=n,
            exceed_prob_psi=k_psi / n,
            exceed_psi_interval=wilson_interval(k_psi, n),
            exceed_prob_r=k_r / n,
            exceed_r_interval=wilson_interval(k_r, n),
            capture_fraction=k_cap / n if decided else None,
            capture_interval=wilson_interval(k_cap, n) if decided else None,
            out_of_class=out_of_class,
            **res,
        ))
    return stats


def run_ensemble(cfg: EnsembleConfig, ref: Optional[ReferenceSolution] = None,
                 out_of_class_ok: bool = False) -> EnsembleStats:
    """Integrate the ensemble and aggregate deviation/exit/capture
    statistics: run_ensembles at cfg's own amplitude."""
    return run_ensembles(cfg, [cfg.noise.mu], ref, out_of_class_ok)[0]


def _captured(r_end, tau_end: float, psi_range, p: SystemParams):
    """The capture rule: final amplitude above lam*tau_end/2 and the
    phase range over the classification window below 2*pi."""
    return (r_end > p.lam * tau_end / 2.0) & (psi_range < 2.0 * math.pi)


def classify_capture(traj: Trajectory, p: SystemParams) -> str:
    """Capture verdict for a finished trajectory, deterministic or noisy.

    captured: final amplitude above lam*tau_end/2 and the phase's range
    (max minus min) over the last 20% of the window below 2*pi, the rule
    run_ensemble applies to every path.  The range stays bounded on a
    diffusion path, where the total variation grows without bound as the
    recording step shrinks.  A truncated (blown-up) or slipping-phase
    path is escaped.  Windows ending before tau_end = CAPTURE_MIN_TAU
    are indeterminate.
    """
    tau_end = float(traj.times[-1])
    if tau_end < CAPTURE_MIN_TAU:
        return "indeterminate"
    if traj.truncated:
        return "escaped"
    t_start = traj.times[0] + CAPTURE_WINDOW * (tau_end - traj.times[0])
    psi_tail = traj.states[traj.times >= t_start, 1]
    psi_range = float(psi_tail.max() - psi_tail.min())
    if _captured(float(traj.states[-1, 0]), tau_end, psi_range, p):
        return "captured"
    return "escaped"


def exit_time_scaling(cfg: EnsembleConfig, mus: Sequence[float],
                      ref: ReferenceSolution, n_boot: int = 1000,
                      seed: int = 12345) -> dict:
    """Fit log(median first-exit time) against log(mu) across ensembles.

    One ensemble per amplitude in mus (at least three, distinct): cfg
    with its noise amplitude replaced, everything else shared, so path j
    draws the same increments at every mu.  They run as one run_ensembles
    pass, which draws those increments once, except that each path stops
    at its first exit: its exit time is then known.  Censored paths enter
    at the horizon value, and the fit is refused when half or more of the
    paths are censored at any mu: that median is only a lower bound.
    Returns slope with a bootstrap percentile interval (paths resampled
    per ensemble, n_boot times), and per amplitude the fraction of
    resamples whose median is censored: the percentile intervals hold
    only where that fraction is 0.
    """
    mus = [float(mu) for mu in mus]
    if len(mus) < 3:
        raise ValueError("need at least 3 noise amplitudes")
    if len(set(mus)) != len(mus):
        raise ValueError("noise amplitudes must be distinct")
    per_mu, _ = _tube_runs(cfg, mus, ref, False, _ExitObserver)
    censored = [float(np.mean(res["censored"])) for res in per_mu]
    for mu, frac in zip(mus, censored):
        if frac >= 0.5:
            raise ValueError(
                f"at mu={mu} a share of {frac:.3g} of the paths is censored, "
                f"so the median exit time is only bounded by horizon="
                f"{cfg.horizon}; increase horizon")
    log_mu = np.log(np.asarray(mus, dtype=float))
    exits = np.array([res["exit_times"] for res in per_mu])
    medians = np.median(exits, axis=1)
    slope = float(np.polyfit(log_mu, np.log(medians), 1)[0])
    boot, boot_med, boot_censored = _bootstrap(
        exits, np.array([res["censored"] for res in per_mu]), log_mu,
        n_boot, seed)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    med_lo, med_hi = np.percentile(boot_med, [2.5, 97.5], axis=0)
    return {
        "mus": mus,
        "medians": medians.tolist(),
        "median_intervals": [[float(a), float(b)]
                             for a, b in zip(med_lo, med_hi)],
        "censored_fractions": censored,
        "boot_censored_median_fractions": boot_censored.tolist(),
        "slope": slope,
        "slope_interval": (float(lo), float(hi)),
        "n_boot": n_boot,
    }


def _bootstrap(exits: np.ndarray, censored: np.ndarray, log_mu: np.ndarray,
               n_boot: int, seed: int) -> tuple:
    """The slope fit on n_boot resamples of the paths: exits holds one
    row of exit times per amplitude, each resampled with replacement
    from the Philox stream (seed, 0), resample by resample and row by
    row.  The resamples are drawn and reduced in pieces whose indices,
    gathered exits and median work (24 bytes per element) fit in
    NOISE_BUDGET; the stream is read in the same order at any piece
    size.  censored, of exits' shape, flags the censored paths; a
    resample's median is censored, a lower bound, when half or more of
    the paths it draws are.  Returns the (n_boot,) slopes, the (n_boot,
    len(exits)) medians and, per amplitude, the fraction of resamples
    whose median is censored."""
    rng = NoiseStream(seed).generator()
    n_mus, n = exits.shape
    rows = max(1, integrators.NOISE_BUDGET // (24 * n_mus * n))
    boot_med = np.empty((n_boot, n_mus))
    n_censored = np.zeros(n_mus, dtype=int)
    amp = np.arange(n_mus)[:, None]
    for b0 in range(0, n_boot, rows):
        pick = rng.integers(0, n, size=(min(rows, n_boot - b0), n_mus, n))
        drawn = np.count_nonzero(censored[amp, pick], axis=2)
        n_censored += np.count_nonzero(2 * drawn >= n, axis=0)
        np.median(exits[amp, pick], axis=2,
                  out=boot_med[b0:b0 + pick.shape[0]])
    return (np.polyfit(log_mu, np.log(boot_med).T, 1)[0], boot_med,
            n_censored / n_boot)


class _StoppedU1:
    """Stopped comparison function U_1 of one block of perturbed paths.

    A path's deviation (R, Psi) at a node is its state minus star's
    reference sample there.  Each path is stopped at its first node
    outside the certified tube d <= d0 (or at a blow-up); U_1 = 4V +
    mu^2 h n^2 C (T + t0 - t), chain_U with n = 2, is evaluated at the
    stopped deviation and time: at the nodes obs_idx (node 0 is tau0)
    plus the pathwise running supremum over every node, of the rows
    em_paths marks live.  em_paths drops a stopped path at the end of
    the chunk in which it stopped, so the observer reads none of its
    states after the stop.
    """

    def __init__(self, cfg: EnsembleConfig, cert: StabilityCertificate,
                 tau, star, obs_idx: np.ndarray, m: int):
        self.cfg, self.cert, self.tau, self.star = cfg, cert, tau, star
        self.obs_idx = obs_idx
        self.stopped = np.zeros(m, dtype=bool)
        self.obs = np.empty((obs_idx.size, m))
        self.obs_ptr = 0
        self.u_now = np.empty(m)
        self.u_sup = np.full(m, -np.inf)

    def __call__(self, k0, xs, live, cols):
        # the chunk's new nodes: row 0 is node 0 in the first chunk, and a
        # node read in the chunk before in the others
        first = k0 + (k0 > 0)
        xs, live = xs[first - k0:], live[first - k0:]
        n_rows, w = xs.shape[0], xs.shape[2]
        cfg, d0 = self.cfg, self.cert.d0
        out = np.empty((n_rows, w), dtype=bool)
        u = np.empty((n_rows, w))
        piece = max(1, U1_PIECE // w)
        for lo in range(0, n_rows, piece):
            hi = min(lo + piece, n_rows)
            k = slice(first + lo, first + hi)
            tau, star = self.tau[k, None], [s[k, None] for s in self.star]
            R, Psi = np.subtract(xs[lo:hi].transpose(1, 0, 2), star)
            np.greater(R * R + Psi * Psi, d0 * d0, out=out[lo:hi])
            V = eval_V((R, Psi), tau, cfg.params, star)
            u[lo:hi] = chain_U(cfg.noise.mu, cfg.noise.h, 2, self.cert.C,
                               cfg.horizon, 4.0 * V, tau, cfg.tau0)
        out &= live
        stop = out.any(axis=0)
        # a path counts its rows up to its stop, or those it is live in
        n_counted = np.where(stop, out.argmax(axis=0) + 1, live.sum(axis=0))
        counted = np.arange(n_rows)[:, None] < n_counted
        _fold(np.maximum, self.u_sup, cols, u, counted, -np.inf)
        # U_1 of each path after the chunk: at its last counted row, or
        # as it was
        held = np.where(n_counted > 0, u[n_counted - 1, np.arange(w)],
                        self.u_now[cols])
        while (self.obs_ptr < self.obs_idx.size
               and self.obs_idx[self.obs_ptr] < first + n_rows):
            row = self.obs_idx[self.obs_ptr] - first
            # a path dropped in an earlier chunk keeps its stopped value
            self.obs[self.obs_ptr] = self.u_now
            self.obs[self.obs_ptr, cols] = np.where(counted[row], u[row],
                                                    held)
            self.obs_ptr += 1
        self.u_now[cols] = held
        self.stopped[cols] = stop
        return stop

    def result(self, x, escaped_at):
        # stepping ends once every path has stopped; U_1 then stays put
        self.obs[self.obs_ptr:] = self.u_now
        return {"obs": self.obs, "u_sup": self.u_sup,
                "stopped": self.stopped | ~np.isnan(escaped_at)}


def _records(columns: dict) -> list:
    """Equal-length columns as one dict of Python scalars per row."""
    rows = zip(*(np.asarray(col).tolist() for col in columns.values()))
    return [dict(zip(columns, row)) for row in rows]


def supermartingale_check(cfg: EnsembleConfig, cert: StabilityCertificate,
                          N: int, ref: ReferenceSolution,
                          threads: int = 1) -> dict:
    """Empirical supermartingale and maximal-inequality test for U_1.

    cfg.x0 is the starting deviation (R, Psi) at tau0, with a ball start
    around it: the perturbed system is stepped from the reference at
    tau0 plus that deviation, and _StoppedU1 reads each path's deviation
    node by node.  Paths are stopped at their first node outside the
    certified tube and observed at N_OBS nodes: tau0 and the ends of
    N_OBS - 1 evenly spaced steps, the last at the horizon.  The report
    carries, per observation band, whether the mean is non-increasing
    within 2 paired standard errors, and the maximal-bound ladder: the
    fraction of paths whose running sup of U_1 reaches c times the start
    value, for c in DOOB_LADDER, against the mean-start/c bound, within
    3 standard errors.  The window [tau0, tau0 + horizon] must lie in the
    reference domain: outside it a path has no reference to deviate
    from.  It must also start no earlier than cert.tau0, from where the
    certified inequalities hold, and its noise schedule must be in
    class, since U_1's constant assumes the class bound h.  threads is
    accepted for older callers and has no effect: the blocks run on the
    calling thread.
    """
    if N != 1:
        raise NotImplementedError("only the N=1 comparison chain is testable "
                                  "with closed-form constants")
    tau, star, _ = _window(cfg, ref, None)
    if cfg.tau0 < cert.tau0:
        raise ValueError(f"window starts at tau0 {cfg.tau0}, before the "
                         f"certificate's tau0 {cert.tau0}")
    # node 0, then the ends of N_OBS - 1 evenly spaced steps
    ends = np.unique(np.linspace(0, tau.size - 2, N_OBS - 1).astype(int)) + 1
    obs_idx = np.concatenate([[0], ends])
    start = replace(cfg, x0=(star[0][0] + cfg.x0[0], star[1][0] + cfg.x0[1]))
    res = _run_blocks(start, [cfg.noise.mu], tau,
                      perturbed_terms(cfg.params, cfg.noise, tau),
                      lambda m: _StoppedU1(cfg, cert, tau, star, obs_idx,
                                           m))[0]
    obs, u_sup, stopped = res["obs"], res["u_sup"], res["stopped"]

    n = cfg.n_paths
    means = obs.mean(axis=1)
    diff = np.diff(obs, axis=0)
    diff_mean = diff.mean(axis=1)
    se = diff.std(axis=1, ddof=1) / math.sqrt(n)
    band_pass = diff_mean <= 2.0 * se
    bands = _records({"mean_before": means[:-1], "mean_after": means[1:],
                      "mean_diff": diff_mean, "se": se, "pass": band_pass})

    mean_start = float(obs[0].mean())
    c = np.array(DOOB_LADDER) * mean_start
    frac = (u_sup >= c[:, None]).mean(axis=1)
    bound = np.minimum(1.0, mean_start / c)
    se = np.sqrt(np.maximum(frac * (1 - frac), 1.0 / n) / n)
    ladder_pass = frac <= bound + 3.0 * se
    ladder = _records({"c_multiple": DOOB_LADDER, "c": c, "fraction": frac,
                       "bound": bound, "se": se, "pass": ladder_pass})

    return {
        "mean_nonincreasing": bool(band_pass.all()),
        "bands": bands,
        "doob_ok": bool(ladder_pass.all()),
        "doob_ladder": ladder,
        "stopped_fraction": float(np.mean(stopped)),
        "mean_start": mean_start,
        "n_paths": n,
    }
