"""The Euler-Maruyama engine and its observers written plainly, one step
at a time, as oracles for integrators.em_paths, ensemble._run_blocks and
integrators.integrate_sde, which observe whole chunks of steps.

plain_em draws every increment up front and steps with fresh arrays and
an explicit mask; a path that stopped or left the finite range is frozen.
Its observer is called at every node of the step grid as observe(k, x,
moved): node 0 with the start state, then node k + 1 with the state
after step k, and moved the mask of paths that took the step (all for
node 0); it may return a mask of paths to stop.  plain_ball_starts
draws ball starts from the generators before any increment.  PlainTube,
PlainStoppedU1 and plain_integrate_sde are the per-step observers the
chunked ones replaced; each reads time and reference at the node it is
called for.
plain_bootstrap is exit_time_scaling's bootstrap, one resample at a time.
plain_solve is integrators._solve and _solve_backward as a solve_ivp
call, whose interpolants are evaluated one step at a time.
PlainReference is the reference solution from its solve_ivp leg, as
one spline per component below the switch time and the series above it,
and plain_tube_samples,
plain_inequality_slacks and plain_first_violation are certify's tube as
flat arrays that read the reference at every sample, with one slack
array per inequality.
mp_series is asymptotics.expand in mpmath arithmetic, with cos and sin of
the phase series from their own derivative recurrence instead of Taylor
composition.  plain_rhs_primary is the unperturbed field as one
broadcast expression, the oracle of model.rhs_primary and
rhs_primary_into; rhs_error is the deviation system's field written
plainly, the oracle of model.error_terms' drift.  residual_slope fits
the decay of asymptotics.residual over a range of tau.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from autores import asymptotics, ensemble, integrators
from autores.ensemble import CAPTURE_WINDOW, _captured
from autores.integrators import IntegrationError, NoiseStream, Trajectory
from autores.lyapunov import chain_U, dV_dtau, eval_V, weighted_norm
from autores.model import hamiltonian_partials, scalar_field


def plain_ball_starts(x, rngs, radius):
    """Move column i of the (2, m) starts x to a uniform point of the
    disc of that radius around it, from two uniforms of rngs[i]."""
    for i, rng in enumerate(rngs if radius > 0 else ()):
        u, ang = rng.uniform(size=2)
        rad = radius * math.sqrt(u)
        x[0, i] += rad * math.cos(2 * math.pi * ang)
        x[1, i] += rad * math.sin(2 * math.pi * ang)


def plain_em(terms, x, tau, dt, mu, rngs, observe):
    """em_paths written plainly over the node times tau: every increment
    drawn up front, fresh arrays on every step, a row-by-row update and
    an explicit mask.  One generator per column; terms(k, x, w) returns
    fresh (f, G w) of step k from the state at node k."""
    h = tau[1:] - tau[:-1]
    z = np.stack([rng.standard_normal((h.size, 2)) for rng in rngs], axis=-1)
    active = np.ones(x.shape[1], dtype=bool)
    escaped_at = np.full(x.shape[1], np.nan)
    stop = observe(0, x, active.copy())
    if stop is not None:
        active &= ~stop
    for k in range(h.size):
        w = z[k] * math.sqrt(dt)
        if h[k] != dt:
            w = w * math.sqrt(h[k] / dt)
        f, gw = terms(k, x, w)
        x_new = np.array([xi + fi * h[k] + mu * gi
                          for xi, fi, gi in zip(x, f, gw)])
        moved = active & np.isfinite(x_new).all(axis=0)
        escaped_at[active & ~moved] = tau[k + 1]
        x[:, moved] = x_new[:, moved]
        stop = observe(k + 1, x, moved)
        active = moved if stop is None else moved & ~stop
        if not active.any():
            break
    return escaped_at


def plain_terms(terms, m):
    """Fused em_paths terms as plain_em's terms(k, x, w) -> (f, G w).
    Additive terms get G w = (0, ..., 0, sigma[k] w_last)."""
    sigma = getattr(terms, "additive", None)

    def plain(k, x, w):
        d = x.shape[0]
        f, gw = np.zeros((d, m)), np.zeros((d, m))
        scratch = np.empty((integrators.N_SCRATCH, m))
        terms(k, tuple(x), w, tuple(f), tuple(gw), tuple(scratch))
        if sigma is not None:
            gw[-1] = sigma[k] * w[-1]
        return f, gw
    return plain


def plain_run_blocks(cfg, mus, tau, terms, observer):
    """ensemble._run_blocks as one block of every path at every
    amplitude, stepped by plain_em with one stream per column, each
    column's ball start drawn from its own generator."""
    mus = np.asarray(mus, dtype=float)
    m = mus.size * cfg.n_paths
    x = np.empty((2, m))
    x[0], x[1] = float(cfg.x0[0]), float(cfg.x0[1])
    obs = observer(m)
    rngs = [NoiseStream(cfg.master_seed, j).generator()
            for _ in mus for j in range(cfg.n_paths)]
    plain_ball_starts(x, rngs, cfg.ball_radius)
    escaped_at = plain_em(plain_terms(terms, m), x, tau, cfg.dt,
                          np.repeat(mus, cfg.n_paths), rngs, obs)
    obs.escaped_at = escaped_at  # for tests that check what a run covers
    res = obs.result(x, escaped_at)
    return [{key: value[..., a * cfg.n_paths:(a + 1) * cfg.n_paths]
             for key, value in res.items()} for a in range(mus.size)]


class PlainTube:
    """Deviation, exit and capture statistics of one block of paths; the
    per-path capture flags only for a run that ends at or after
    ensemble.CAPTURE_MIN_TAU, read when the result is made."""

    def __init__(self, cfg, tau, star, m):
        self.cfg = cfg
        self.tau = tau
        self.star = star
        self.sup_psi = np.zeros(m)
        self.sup_rw = np.zeros(m)
        self.sup_rr = np.zeros(m)
        self.exit_time = np.full(m, cfg.horizon)
        self.exited = np.zeros(m, dtype=bool)
        self.window_start = cfg.tau0 + CAPTURE_WINDOW * cfg.horizon
        self.psi_lo = np.full(m, np.inf)
        self.psi_hi = np.full(m, -np.inf)

    def __call__(self, k, x, moved):
        if k == 0:
            return
        r, psi = x
        tau = self.tau[k]
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
        exit_times = np.where(dead & ~self.exited, escaped_at - cfg.tau0,
                              self.exit_time)
        res = {
            "exit_times": exit_times, "censored": ~(self.exited | dead),
            "sup_psi_dev": self.sup_psi, "sup_r_dev_weighted": self.sup_rw,
            "sup_r_dev_raw": self.sup_rr, "end_states": x,
        }
        if cfg.tau0 + cfg.horizon >= ensemble.CAPTURE_MIN_TAU:
            res["captured"] = ~dead & _captured(
                x[0], cfg.tau0 + cfg.horizon, self.psi_hi - self.psi_lo,
                cfg.params)
        return res


class PlainStoppedU1:
    """Stopped comparison function U_1 of one block of error-system paths;
    stop_node records the node at which each path stopped (-1 if never)."""

    def __init__(self, cfg, cert, tau, star, obs_idx, m):
        self.cfg, self.cert, self.obs_idx = cfg, cert, obs_idx
        self.tau = tau
        self.rs, self.ps = star
        self.stopped = np.zeros(m, dtype=bool)
        self.stop_node = np.full(m, -1)
        self.obs = np.empty((obs_idx.size, m))
        self.obs_ptr = 0
        self.u_now = np.empty(m)
        self.u_sup = np.full(m, -np.inf)

    def __call__(self, k, x, moved):
        cfg = self.cfg
        R, Psi = x
        out = moved & (R * R + Psi * Psi > self.cert.d0 * self.cert.d0)
        self.stopped |= out
        self.stop_node[out] = k
        tau, star = self.tau[k], (self.rs[k], self.ps[k])
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
        self.obs[self.obs_ptr:] = self.u_now
        return {"obs": self.obs, "u_sup": self.u_sup,
                "stopped": self.stopped | ~np.isnan(escaped_at)}


def plain_integrate_sde(make_terms, x0, tau0, tau1, dt, mu, streams,
                        record_every=1):
    """integrate_sde with its per-step recorder, stepped by plain_em."""
    m = len(streams)
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (m,))
    tau = integrators.step_grid(tau0, tau1, dt)
    terms = make_terms(tau)
    n_steps = tau.size - 1
    x = np.tile(np.asarray(x0, dtype=float).reshape(-1, 1), m)
    times, states, kept = [], [], []

    def record(k, x, moved):
        if k % record_every == 0 or k == n_steps:
            times.append(tau[k])
            states.append(x.copy())
            kept.append(np.broadcast_to(moved, m))

    escaped_at = plain_em(plain_terms(terms, m), x, tau, dt, mu,
                          [s.generator() for s in streams], record)
    times, states, kept = np.array(times), np.array(states), np.array(kept)
    return [Trajectory(times=times[keep], states=states[keep, :, c],
                       truncated=not math.isnan(escaped_at[c]))
            for c, keep in enumerate(kept.T)]


def plain_bootstrap(exits, censored, log_mu, n_boot, seed):
    """ensemble._bootstrap as a loop over resamples, each row of exits
    resampled by its own choice call and each slope by its own fit."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    boot = np.empty(n_boot)
    boot_med = np.empty((n_boot, len(exits)))
    n_censored = np.zeros(len(exits))
    for b in range(n_boot):
        picks = [rng.choice(e.size, size=e.size, replace=True)
                 for e in exits]
        med = [np.median(e[pick]) for e, pick in zip(exits, picks)]
        n_censored += [c[pick].mean() >= 0.5
                       for c, pick in zip(censored, picks)]
        boot_med[b] = med
        boot[b] = np.polyfit(log_mu, np.log(med), 1)[0]
    return boot, boot_med, n_censored / n_boot


def set_chunk(monkeypatch, chunk, m, n, d=2,
              n_chans=integrators.N_CHANNELS):
    """Set NOISE_BUDGET so that em_paths steps m paths of d components
    drawing from n streams and reading n_chans increment channels in
    chunks of `chunk` steps."""
    per_step = (8 * (integrators.N_CHANNELS * n
                     + (n_chans + d + integrators.N_OBSERVE) * m)
                + integrators.VIEW_BYTES * (d + 2))
    monkeypatch.setattr(integrators, "NOISE_BUDGET", chunk * per_step)
    assert integrators.chunk_steps(m, n, d, n_chans) == chunk


def n_chans_of(noise):
    """The increment channels em_paths reads for the perturbed or
    deviation terms of noise: the last one alone when sigma1 is zero,
    where the terms are additive."""
    return 1 if noise.sigma1.coeff == 0 else integrators.N_CHANNELS


def plain_solve(field_fn, y0, tau0, tau1, tol, t_eval, max_steps=math.inf,
                stats=None):
    """integrators._solve, or _solve_backward when tau1 < tau0, as one
    solve_ivp call: (times, values), the same errors, but a failed run is
    located at the last t_eval sample passed, not where the solver
    stopped.  solve_ivp has no step budget, so max_steps is not enforced:
    the runs compared stay within theirs.  solve_ivp keeps the arrays a
    field returns, so each value is copied: a field may return one buffer
    it rewrites (fig1's), as the driver allows.  stats, a dict when
    given, receives solve_ivp's count of field calls as stats["nfev"]."""
    def fresh(t, y):
        return np.array(field_fn(t, y), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(fresh, (tau0, tau1), y0, method="DOP853",
                        rtol=tol, atol=tol, t_eval=t_eval, dense_output=False)
    if stats is not None:
        stats["nfev"] = sol.nfev
    if not sol.success:
        reached = float(sol.t[-1]) if len(sol.t) else tau0
        raise IntegrationError(f"adaptive solver failed: {sol.message}",
                               reached)
    finite = np.isfinite(sol.y).all(axis=0)
    if not finite.all():
        raise IntegrationError("adaptive solver left the finite range",
                               float(sol.t[np.argmin(finite)]))
    return sol.t, sol.y


def seed_residual_tol(exp, params, tau):
    """The residual norm the reference build accepts at the rung tau:
    REF_SEED_RESIDUAL_TOL, or REF_SEED_RESIDUAL_ULPS rounding units of
    the series' |r| there if that is larger."""
    r = float(asymptotics.evaluate(exp, params, tau)[0])
    return max(integrators.REF_SEED_RESIDUAL_TOL,
               integrators.REF_SEED_RESIDUAL_ULPS * math.ulp(1.0) * abs(r))


class PlainReference:
    """integrators.reference_solution with its leg run by solve_ivp
    (plain_solve) and interpolated one component at a time: times, r and
    psi hold the leg's node values up to the switch time tau_s, the
    first rung of the ladder where the series' residual, evaluated one
    rung at a time, meets seed_residual_tol.  state(tau) returns (r*, psi*)
    from two splines at tau <= tau_s and from the series above."""

    def __init__(self, params):
        self.exp = asymptotics.expand(params, asymptotics.STABLE,
                                      integrators.REF_K)
        self.params = params
        self.tau_s = next(
            tau for tau in integrators.REF_SWITCH_LADDER
            if math.hypot(*asymptotics.residual(self.exp, params, tau))
            <= seed_residual_tol(self.exp, params, tau))
        y_seed = np.array([float(v) for v in
                           asymptotics.evaluate(self.exp, params, self.tau_s)])
        n = int(round((self.tau_s - integrators.REF_TAU_MIN)
                      / integrators.REF_GRID_STEP)) + 1
        t, y = plain_solve(scalar_field(params), y_seed, self.tau_s,
                           integrators.REF_TAU_MIN, integrators.REF_TOL,
                           np.linspace(self.tau_s, integrators.REF_TAU_MIN, n))
        self.times, self.r, self.psi = t[::-1], y[0][::-1], y[1][::-1]
        self._spline_r = CubicSpline(self.times, self.r)
        self._spline_psi = CubicSpline(self.times, self.psi)

    def state(self, tau):
        tau = np.asarray(tau, dtype=float)
        below = tau <= self.tau_s
        series = asymptotics.evaluate(self.exp, self.params, tau)
        return (np.where(below, self._spline_r(tau), series[0]),
                np.where(below, self._spline_psi(tau), series[1]))


def plain_rhs_primary(s, tau, p):
    """The unperturbed field (r sin psi - gamma r, (r - lam tau) + cos
    psi) written as one broadcast numpy expression per component."""
    r, psi = s
    tau = np.asarray(tau, dtype=float)
    return r * np.sin(psi) - p.gamma * r, r - p.lam * tau + np.cos(psi)


def residual_slope(e, p, tau_lo=10.0, tau_hi=1000.0, samples=40):
    """Fitted log-log slope of the series residual norm over [tau_lo,
    tau_hi], at samples geometrically spaced times."""
    taus = np.geomspace(tau_lo, tau_hi, samples)
    norms = np.hypot(*asymptotics.residual(e, p, taus))
    # guard: a residual that is exactly zero has no slope to fit
    norms = np.maximum(norms, 1e-300)
    return float(np.polyfit(np.log(taus), np.log(norms), 1)[0])


def rhs_error(e, p, star):
    """Vector field of the deviation system: (-dH/dPsi - gamma R, dH/dR)."""
    dH_dR, dH_dPsi = hamiltonian_partials(e, star)
    return -dH_dPsi - p.gamma * e[0], dH_dR


def plain_tube_samples(d0, tau0, tau_hi, grid):
    """certify's tube as flat (R, Psi, tau) samples over the full grid^3
    mesh, radius, angle and time in that order of nesting."""
    radii = np.linspace(d0 / grid, d0, grid)
    angles = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    taus = np.geomspace(tau0, tau_hi, grid)
    rr, aa, tt = np.meshgrid(radii, angles, taus, indexing="ij")
    return (rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel(), tt.ravel()


def plain_inequality_slacks(R, Psi, tau, p, ref, q):
    """The (sandwich lower, sandwich upper, decay) slacks as three
    arrays, the reference read at every sample."""
    e = (R, Psi)
    star = ref.state(tau)
    w = weighted_norm(e, tau, p)
    V = eval_V(e, tau, p, star)
    dV = dV_dtau(e, tau, p, star)
    with np.errstate(invalid="ignore", divide="ignore"):
        lo = np.where(w > 0, (V - 0.25 * w) / np.maximum(w, 1e-300), np.inf)
        hi = np.where(w > 0, (0.75 * w - V) / np.maximum(w, 1e-300), np.inf)
        decay = np.where(w > 0, (-q * V - dV) / np.maximum(w, 1e-300), np.inf)
    return lo, hi, decay


def plain_first_violation(R, Psi, tau, lo, hi, decay):
    """(reason, tau, R, Psi) of the worst slack: the first inequality
    holding the smallest minimum, then its first sample at that value."""
    names = ("sandwich lower", "sandwich upper", "decay")
    which = int(np.argmin([lo.min(), hi.min(), decay.min()]))
    idx = int(np.argmin((lo, hi, decay)[which]))
    return (f"{names[which]} inequality violated", float(tau[idx]),
            float(R[idx]), float(Psi[idx]))


def mp_series(lam, gamma, branch, K, dps=70):
    """(r_0..r_K, psi_1..psi_K) of the captured-solution series, solved
    order by order at dps digits and rounded to floats.  With x = 1/tau,
    P = psi - psi0 = sum P_k x^k, C = cos P and S = sin P obey
    k C_k = -sum_m m P_m S_(k-m) and k S_k = sum_m m P_m C_(k-m).  At
    order j the phase equation d psi/dtau = r - lam tau + cos psi gives
    r_j, and the amplitude equation dr/dtau = r (sin psi - gamma) then
    gives psi_(j+1), the only unknown in its x^(j+1) coefficient of sin."""
    with mpmath.workdps(dps):
        lam, gamma = mpmath.mpf(lam), mpmath.mpf(gamma)
        psi0 = mpmath.asin(gamma)
        if branch == asymptotics.STABLE:
            psi0 = mpmath.pi - psi0
        s0, c0 = mpmath.sin(psi0), mpmath.cos(psi0)
        zero = mpmath.mpf(0)
        r, P = [zero] * (K + 1), [zero] * (K + 2)
        C, S = [mpmath.mpf(1)] + [zero] * (K + 1), [zero] * (K + 2)

        def trig(k):
            ms = range(1, k + 1)
            C[k] = -mpmath.fsum(m * P[m] * S[k - m] for m in ms) / k
            S[k] = mpmath.fsum(m * P[m] * C[k - m] for m in ms) / k

        def sin_psi(k):  # coefficient k of sin psi - gamma
            return s0 * C[k] + c0 * S[k] - (gamma if k == 0 else 0)

        for j in range(K + 1):
            # x^j of the phase equation: -(j-1) P_(j-1) = r_j + (cos psi)_j
            r[j] = -(j - 1) * P[j - 1] * (j >= 2) - (c0 * C[j] - s0 * S[j])
            if j == K:
                break
            # x^j of the amplitude equation, with lam tau + R for r:
            # lam [j = 0] - (j-1) r_(j-1) = lam (sin psi)_(j+1)
            #                              + sum_i r_i (sin psi - gamma)_(j-i)
            trig(j + 1)  # with P_(j+1) = 0, so S_(j+1) lacks its P_(j+1)
            lhs = lam * (j == 0) - (j - 1) * r[j - 1] * (j >= 2)
            known = lam * sin_psi(j + 1) + mpmath.fsum(
                r[i] * sin_psi(j - i) for i in range(j + 1))
            P[j + 1] = (lhs - known) / (lam * c0)
            trig(j + 1)
        return ([float(c) for c in r], [float(c) for c in P[1:K + 1]])
