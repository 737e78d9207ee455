"""Monte Carlo engine: deviation probabilities, first-exit times,
capture fractions, and the supermartingale sanity test.

Paths are integrated in blocks of at most MAX_BLOCK_PATHS columns,
vectorized across each block, one block after another on the calling
thread.  Every path owns a counter-based noise stream keyed by
(master_seed, path_index), and blocks are merged in path order, so
aggregates are bit-identical at any block width.  A study at several
noise amplitudes runs them as columns of the same blocks, each path's
stream drawn once for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .model import SystemParams, NoiseSchedule, error_terms, perturbed_terms
from .integrators import (NoiseStream, Trajectory, ReferenceSolution,
                          em_paths, sde_step_count, step_grid)
from .lyapunov import (StabilityCertificate, chain_U, eval_V,
                       noise_class_check)

MAX_BLOCK_PATHS = 2048  # no block is wider
CAPTURE_WINDOW = 0.8  # capture reads the phase from this share of the run on
N_OBS = 41          # supermartingale_check observation times, tau0 included
DOOB_LADDER = (1.0, 2.0, 4.0)  # its maximal-bound levels / mean U_1 at tau0


@dataclass(frozen=True)
class EnsembleConfig:
    """One Monte Carlo experiment on the perturbed system.

    Paths start at x0 = (r, psi) at tau0, or in a ball of radius
    ball_radius around the reference solution when ball_radius > 0, and
    run to tau0 + horizon with Euler-Maruyama steps dt.
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
        if self.horizon <= 0 or self.dt <= 0:
            raise ValueError("horizon and dt must be positive")
        n_steps = sde_step_count(self.tau0, self.tau0 + self.horizon, self.dt)
        if n_steps > 50_000_000:
            raise ValueError("horizon/dt implies an unreasonable step budget")


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
    """

    n_paths: int
    exceed_prob_psi: float
    exceed_psi_interval: tuple
    exceed_prob_r: float
    exceed_r_interval: tuple
    capture_fraction: float
    capture_interval: tuple
    exit_times: np.ndarray
    censored: np.ndarray
    sup_psi_dev: np.ndarray
    sup_r_dev_weighted: np.ndarray
    sup_r_dev_raw: np.ndarray
    captured: np.ndarray
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
            "capture_interval": list(self.capture_interval),
            "median_exit_time": float(np.median(self.exit_times)),
            "censored_fraction": float(np.mean(self.censored)),
            "out_of_class": self.out_of_class,
        }


def _precompute_step_grid(cfg: EnsembleConfig,
                          ref: Optional[ReferenceSolution]):
    """The step grid of all paths (step_grid) and star, the reference
    samples (r*, psi*) at the step end times, or None with no reference.

    With a reference the window [tau0, tau0 + horizon] must lie in its
    domain: outside it a path has no reference to deviate from.
    """
    tau1 = cfg.tau0 + cfg.horizon
    if ref is not None and not (ref.tau_min <= cfg.tau0
                                and tau1 <= ref.tau_max):
        raise ValueError(f"window [{cfg.tau0}, {tau1}] is not inside the "
                         f"reference domain [{ref.tau_min}, {ref.tau_max}]")
    grid = step_grid(cfg.tau0, tau1, cfg.dt)
    return grid, None if ref is None else ref.state(grid[1])


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


def _run_blocks(cfg: EnsembleConfig, mus: Sequence[float], grid, terms,
                observer) -> list:
    """Integrate all paths at every amplitude in mus, block by block
    (_path_blocks), with em_paths, and merge the per-block results in path
    order, so they do not depend on the block width.  Returns one merged
    dict per amplitude.

    A block of paths [lo, hi) runs as len(mus) * (hi - lo) columns,
    amplitude-major: each path's stream is drawn once and feeds its
    column at every amplitude.  observer(m) makes a fresh observer for a
    block of m columns; it is called after every step and its result(x,
    escaped_at) returns a dict of arrays whose last axis runs over the
    columns.
    """
    mus = np.asarray(mus, dtype=float)
    blocks = []
    for lo, hi in _path_blocks(cfg.n_paths, mus.size):
        m = mus.size * (hi - lo)
        x = np.empty((2, m))
        x[0], x[1] = float(cfg.x0[0]), float(cfg.x0[1])
        obs = observer(m)
        streams = [NoiseStream(cfg.master_seed, j) for j in range(lo, hi)]
        escaped_at = em_paths(terms, x, grid, cfg.dt, np.repeat(mus, hi - lo),
                              streams, obs, ball_radius=cfg.ball_radius)
        blocks.append({key: np.split(value, mus.size, axis=-1)
                       for key, value in obs.result(x, escaped_at).items()})
    return [{key: np.concatenate([block[key][a] for block in blocks], axis=-1)
             for key in blocks[0]} for a in range(mus.size)]


class _TubeObserver:
    """Deviation, exit and capture statistics of one block of paths."""

    def __init__(self, cfg: EnsembleConfig, grid, star, m: int):
        self.cfg = cfg
        self.tau_next = grid[1]
        self.star = star  # deviation statistics exist only with a reference
        self.sup_psi = np.zeros(m)
        self.sup_rw = np.zeros(m)
        self.sup_rr = np.zeros(m)
        # exit times are elapsed since tau0; censored paths carry the horizon
        self.exit_time = np.full(m, cfg.horizon)
        self.exited = np.zeros(m, dtype=bool)
        # phase range over the classification window, the statistic of
        # classify_capture
        self.window_start = cfg.tau0 + CAPTURE_WINDOW * cfg.horizon
        self.psi_lo = np.full(m, np.inf)
        self.psi_hi = np.full(m, -np.inf)

    def __call__(self, k, x, moved):
        if k < 0:  # the start state carries no statistics
            return
        r, psi = x
        tau = self.tau_next[k]
        if self.star is not None:
            rs, ps = self.star
            eps1 = self.cfg.eps1
            dev_psi = np.abs(psi - ps[k])
            dev_r = np.abs(r - rs[k])
            dev_rw = dev_r * (1.0 / math.sqrt(tau))
            np.maximum(self.sup_psi, dev_psi, out=self.sup_psi, where=moved)
            np.maximum(self.sup_rw, dev_rw, out=self.sup_rw, where=moved)
            np.maximum(self.sup_rr, dev_r, out=self.sup_rr, where=moved)
            newly_out = moved & ((dev_psi >= eps1) | (dev_rw >= eps1))
            newly_out &= ~self.exited
            if newly_out.any():
                self.exit_time[newly_out] = tau - self.cfg.tau0
                self.exited |= newly_out
        if tau >= self.window_start:
            np.minimum(self.psi_lo, psi, out=self.psi_lo, where=moved)
            np.maximum(self.psi_hi, psi, out=self.psi_hi, where=moved)

    def result(self, x, escaped_at):
        cfg = self.cfg
        dead = ~np.isnan(escaped_at)
        captured = ~dead & _captured(x[0], cfg.tau0 + cfg.horizon,
                                     self.psi_hi - self.psi_lo, cfg.params)
        # escape by blow-up counts as an exit wherever the tube was being
        # tracked
        exit_times = np.where(dead & ~self.exited, escaped_at - cfg.tau0,
                              self.exit_time)
        # the fields of EnsembleStats; end_states is transposed to one row
        # per path once the blocks are merged
        return {
            "exit_times": exit_times, "censored": ~(self.exited | dead),
            "sup_psi_dev": self.sup_psi, "sup_r_dev_weighted": self.sup_rw,
            "sup_r_dev_raw": self.sup_rr, "captured": captured,
            "end_states": x,
        }


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
    """
    if not len(mus):
        raise ValueError("need at least one noise amplitude")
    for mu in mus:
        replace(cfg.noise, mu=mu)  # NoiseSchedule refuses mu outside (0, 1)
    check = noise_class_check(cfg.noise, max(cfg.tau0, 1e-6))
    out_of_class = not check["admissible"]
    if out_of_class and not out_of_class_ok:
        raise ValueError(
            f"noise schedule not in class (bound {check['bound']}, "
            f"h {cfg.noise.h}); pass out_of_class_ok=True to run anyway")
    grid, star = _precompute_step_grid(cfg, ref)
    per_mu = _run_blocks(cfg, mus, grid,
                         perturbed_terms(cfg.params, cfg.noise, grid[0]),
                         lambda m: _TubeObserver(cfg, grid, star, m))
    n = cfg.n_paths
    stats = []
    for res in per_mu:
        res["end_states"] = res["end_states"].T
        k_psi = int(np.sum(res["sup_psi_dev"] >= cfg.eps1))
        k_r = int(np.sum(res["sup_r_dev_weighted"] >= cfg.eps1))
        k_cap = int(np.sum(res["captured"]))
        stats.append(EnsembleStats(
            n_paths=n,
            exceed_prob_psi=k_psi / n,
            exceed_psi_interval=wilson_interval(k_psi, n),
            exceed_prob_r=k_r / n,
            exceed_r_interval=wilson_interval(k_r, n),
            capture_fraction=k_cap / n,
            capture_interval=wilson_interval(k_cap, n),
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
    path is escaped.  Windows shorter than tau_end = 50 are
    indeterminate.
    """
    tau_end = float(traj.times[-1])
    if tau_end < 50.0:
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
    pass, which draws those increments once.  Censored paths enter
    at the horizon value; the fit is refused when more than half the
    paths are censored at every mu.  Returns slope with a bootstrap
    percentile interval (paths resampled per ensemble, n_boot times).
    """
    mus = [float(mu) for mu in mus]
    if len(mus) < 3:
        raise ValueError("need at least 3 noise amplitudes")
    if len(set(mus)) != len(mus):
        raise ValueError("noise amplitudes must be distinct")
    stats = run_ensembles(cfg, mus, ref)
    if all(float(np.mean(s.censored)) > 0.5 for s in stats):
        raise ValueError("more than half the paths censored at every mu; "
                         "increase the horizon")
    log_mu = np.log(np.asarray(mus, dtype=float))
    medians = np.array([float(np.median(s.exit_times)) for s in stats])
    slope = float(np.polyfit(log_mu, np.log(medians), 1)[0])

    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    boot = np.empty(n_boot)
    boot_med = np.empty((n_boot, len(mus)))
    exits = [s.exit_times for s in stats]
    for b in range(n_boot):
        med = [np.median(rng.choice(e, size=e.size, replace=True))
               for e in exits]
        boot_med[b] = med
        boot[b] = np.polyfit(log_mu, np.log(med), 1)[0]
    lo, hi = np.percentile(boot, [2.5, 97.5])
    med_lo, med_hi = np.percentile(boot_med, [2.5, 97.5], axis=0)
    return {
        "mus": mus,
        "medians": medians.tolist(),
        "median_intervals": [[float(a), float(b)]
                             for a, b in zip(med_lo, med_hi)],
        "censored_fractions": [float(np.mean(s.censored)) for s in stats],
        "slope": slope,
        "slope_interval": (float(lo), float(hi)),
        "n_boot": n_boot,
    }


class _StoppedU1:
    """Stopped comparison function U_1 of one block of error-system paths.

    Each path is stopped at its first exit from the certified tube d <=
    d0 (or at a blow-up); U_1 = 4V + mu^2 h n^2 C (T + t0 - t), chain_U
    with n = 2, is evaluated at the stopped state and time: observations
    at obs_idx steps (-1 marks tau0) plus the pathwise running supremum
    over every step.
    """

    def __init__(self, cfg: EnsembleConfig, cert: StabilityCertificate,
                 grid, star, obs_idx: np.ndarray, m: int):
        self.cfg, self.cert, self.obs_idx = cfg, cert, obs_idx
        self.tau_next = grid[1]
        self.rs, self.ps = star
        self.stopped = np.zeros(m, dtype=bool)
        self.obs = np.empty((obs_idx.size, m))
        self.obs_ptr = 0
        self.u_now = np.empty(m)
        self.u_sup = np.full(m, -np.inf)

    def __call__(self, k, x, moved):
        cfg = self.cfg
        out = None
        if k >= 0:
            R, Psi = x
            out = moved & (R * R + Psi * Psi > self.cert.d0 * self.cert.d0)
            self.stopped |= out
            tau, star = self.tau_next[k], (self.rs[k], self.ps[k])
        else:
            tau, star = cfg.tau0, (self.rs[0], self.ps[0])
        # em_paths freezes a path that did not move, so its U_1 stays put
        V = eval_V(x, tau, cfg.params, star)
        np.copyto(self.u_now, chain_U(cfg.noise.mu, cfg.noise.h, 2,
                                      self.cert.C, cfg.horizon, 4.0 * V, tau,
                                      cfg.tau0), where=moved)
        np.maximum(self.u_sup, self.u_now, out=self.u_sup)
        ptr = self.obs_ptr
        if ptr < self.obs_idx.size and k == self.obs_idx[ptr]:
            self.obs[ptr] = self.u_now
            self.obs_ptr = ptr + 1
        return out

    def result(self, x, escaped_at):
        # stepping ends once every path has stopped; U_1 then stays put
        self.obs[self.obs_ptr:] = self.u_now
        return {"obs": self.obs, "u_sup": self.u_sup,
                "stopped": self.stopped | ~np.isnan(escaped_at)}


def supermartingale_check(cfg: EnsembleConfig, cert: StabilityCertificate,
                          N: int, ref: ReferenceSolution,
                          threads: int = 1) -> dict:
    """Empirical supermartingale and maximal-inequality test for U_1.

    cfg.x0 is read as the starting deviation (R, Psi).  Paths are stopped
    at first exit from the certified tube and observed at N_OBS evenly
    spaced times.  The report carries, per observation band, whether the
    mean is non-increasing within 2 paired standard errors, and the
    maximal-bound ladder: the fraction of paths whose running sup of U_1
    reaches c times the start value, for c in DOOB_LADDER, against the
    mean-start/c bound, within 3 standard errors.  The window [tau0,
    tau0 + horizon] must lie in the reference domain: outside it the error
    system has no reference to deviate from.  It must also start no
    earlier than cert.tau0, from where the certified inequalities hold.
    threads is accepted for older callers and has no effect: the blocks
    run on the calling thread.
    """
    if N != 1:
        raise NotImplementedError("only the N=1 comparison chain is testable "
                                  "with closed-form constants")
    grid, star = _precompute_step_grid(cfg, ref)
    if cfg.tau0 < cert.tau0:
        raise ValueError(f"window starts at tau0 {cfg.tau0}, before the "
                         f"certificate's tau0 {cert.tau0}")
    n_steps = grid[0].size
    obs_steps = np.unique(np.linspace(0, n_steps - 1, N_OBS - 1).astype(int))
    obs_idx = np.concatenate([[-1], obs_steps])  # -1 marks the tau0 snapshot
    res = _run_blocks(cfg, [cfg.noise.mu], grid,
                      error_terms(cfg.params, cfg.noise, grid[0], star),
                      lambda m: _StoppedU1(cfg, cert, grid, star, obs_idx,
                                           m))[0]
    obs, u_sup, stopped = res["obs"], res["u_sup"], res["stopped"]

    n = cfg.n_paths
    means = obs.mean(axis=1)
    bands = []
    ok = True
    for i in range(len(means) - 1):
        diff = obs[i + 1] - obs[i]
        se = float(diff.std(ddof=1)) / math.sqrt(n)
        passed = float(diff.mean()) <= 2.0 * se
        bands.append({"mean_before": float(means[i]),
                      "mean_after": float(means[i + 1]),
                      "mean_diff": float(diff.mean()), "se": se,
                      "pass": bool(passed)})
        ok = ok and passed

    u_start = obs[0]
    mean_start = float(u_start.mean())
    ladder = []
    ladder_ok = True
    for c_mult in DOOB_LADDER:
        c = c_mult * mean_start
        frac = float(np.mean(u_sup >= c))
        bound = min(1.0, mean_start / c)
        se = math.sqrt(max(frac * (1 - frac), 1.0 / n) / n)
        passed = frac <= bound + 3.0 * se
        ladder.append({"c_multiple": c_mult, "c": c, "fraction": frac,
                       "bound": bound, "se": se, "pass": bool(passed)})
        ladder_ok = ladder_ok and passed

    return {
        "mean_nonincreasing": bool(ok),
        "bands": bands,
        "doob_ok": bool(ladder_ok),
        "doob_ladder": ladder,
        "stopped_fraction": float(np.mean(stopped)),
        "mean_start": mean_start,
        "n_paths": n,
    }
