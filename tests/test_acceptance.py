"""Acceptance suite: one test per released guarantee, fixed tolerances.

Each test prints a [criterion NN] PASS/FAIL line carrying the measured
numbers before asserting, so a verbose run reads as a checklist.  The
checks are ordered roughly by runtime; the whole file is the gate a
release build must clear.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from autores.cli import main
from autores.model import (NoiseSchedule, SystemParams, constant_schedule,
                           rhs_primary)
from autores.asymptotics import evaluate, expand, residual_slope
from autores.integrators import integrate_ode
from autores.lyapunov import chain_a, spot_check, thresholds
from autores.ensemble import (EnsembleConfig, classify_capture,
                              exit_time_scaling, run_ensembles,
                              supermartingale_check)
from autores.pendulum import (envelope_compare, integrate_pendulum,
                              inverse_map, seed_from_averaged)


def _report(num: str, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# ------------------------------------------------------------ criterion 1

def test_criterion_01a_low_order_closed_forms(params):
    # closed forms by order matching, with r = lam*tau + r0 + r1/tau + ...,
    # psi = psi0 + psi1/tau + ..., sin psi0 = gamma, cos psi0 = -nu,
    # nu = sqrt(1 - gamma^2):
    #   dpsi/dtau = r - lam*tau + cos psi, order tau^0:  r0 = -cos psi0 = nu
    #   same equation, order tau^-1:  r1 - sin(psi0)*psi1 = 0, r1 = gamma*psi1
    #   dr/dtau = r*(sin psi - gamma), order tau^0:  lam = lam*cos(psi0)*psi1,
    #     so psi1 = 1/cos psi0 = -1/nu and r1 = -gamma/nu
    # criterion 01b (trajectory fit, no series code) and
    # test_asymptotics.STABLE_R check the same numbers independently
    e = expand(params, "stable", 1)
    got = (e.psi0, e.r_coeffs[0], e.r_coeffs[1], e.psi_coeffs[0])
    want = (3.0414252, 0.994987, -0.100504, -1.005038)
    errs = [abs(g - w) for g, w in zip(got, want)]
    ok = max(errs) <= 1e-6
    _report("01a", ok,
            f"got (psi0, r0, r1, psi1) = ({got[0]:.7f}, {got[1]:.6f}, "
            f"{got[2]:.6f}, {got[3]:.6f}), pinned {want}, "
            f"max abs err {max(errs):.3e} (tol 1e-6)")


def test_criterion_01b_trajectory_oracle(params):
    # independent oracle: integrate the raw system on the captured branch
    # and peel the large-time coefficients by windowed least squares;
    # no series code is involved anywhere in the fit
    gamma, lam = params.gamma, params.lam

    def rhs(tau, y):
        r, ps = y
        return [r * np.sin(ps) - gamma * r, r - lam * tau + np.cos(ps)]

    # state on the captured branch at tau = 22, far past any transient
    y0 = (22.99156267177553, 2.997596656271268)
    sol = solve_ivp(rhs, (22.0, 650.0), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    assert sol.success

    def peel_seq(g_of_tau, K, windows, guard):
        coeffs = []
        for k in range(K + 1):
            lo, hi = windows[k]
            taus = np.geomspace(lo, hi, 400)
            g = g_of_tau(taus)
            for j, cj in enumerate(coeffs):
                g = g - cj * taus ** (-j)
            A = np.vstack([taus ** (-(k + i)) for i in range(guard + 1)]).T
            scale = np.linalg.norm(A, axis=0)
            c, *_ = np.linalg.lstsq(A / scale, g, rcond=None)
            coeffs.append((c / scale)[0])
        return np.array(coeffs)

    base = [(280.0, 650.0), (110.0, 420.0), (45.0, 240.0), (22.0, 120.0)]
    fits_r, fits_p = [], []
    for f in (0.85, 1.0, 1.18):
        wins = [(max(lo * f, 22.0), min(hi * f, 650.0)) for lo, hi in base]
        fits_r.append(peel_seq(lambda t: sol.sol(t)[0] - lam * t,
                               3, wins, 3))
        fits_p.append(peel_seq(lambda t: sol.sol(t)[1], 3, wins, 4))
    fit_r = np.median(fits_r, axis=0)
    fit_p = np.median(fits_p, axis=0)

    e = expand(params, "stable", 3)
    err_r = float(np.max(np.abs(fit_r / e.r_coeffs - 1.0)))
    err_p = float(np.max(np.abs(
        np.concatenate([[fit_p[0] / e.psi0], fit_p[1:] / e.psi_coeffs])
        - 1.0)))
    ok = max(err_r, err_p) <= 5e-3
    _report("01b", ok,
            f"K=3 coefficients vs least-squares trajectory fit: "
            f"max rel err r {err_r:.2e}, psi {err_p:.2e} (tol 5e-3)")


# ------------------------------------------------------------ criterion 2

def test_criterion_02_residual_order(params):
    slopes = {}
    ok = True
    for K in range(4):
        e = expand(params, "stable", K)
        s = residual_slope(e, params, tau_lo=10.0, tau_hi=1000.0)
        slopes[K] = s
        ok = ok and s <= -K + 0.3
    detail = ", ".join(f"K={k}: {v:.2f} (need <= {-k + 0.3})"
                       for k, v in slopes.items())
    _report("02", ok, f"log-log residual slopes: {detail}")


# ------------------------------------------------------------ criterion 3

def test_criterion_03_deterministic_stability(params, ref):
    # single 0.01 kick: phase deviation decays exponentially
    tau0, tau1 = 20.0, 400.0
    kick = 0.01 / math.sqrt(2.0)
    r0, psi0 = ref.state(tau0)
    ts = np.linspace(tau0, tau1, 12000)
    traj = integrate_ode(lambda t, y: rhs_primary(y, t, params),
                         [float(r0) + kick, float(psi0) + kick],
                         tau0, tau1, tol=1e-11, t_eval=ts)
    _, psi_star = ref.state(ts)
    dev = np.abs(traj.states[:, 1] - psi_star)
    mid = dev[1:-1]
    is_peak = (mid > dev[:-2]) & (mid >= dev[2:]) & (mid > 1e-13)
    tp = ts[1:-1][is_peak]
    dp = mid[is_peak]
    rate = -float(np.polyfit(tp, np.log(dp), 1)[0])
    ok1 = rate >= params.gamma / 12.0

    # 20 random kicks of the stated radius: weighted deviations stay small
    eps = 0.05
    delta0 = eps * math.sqrt(params.nu / 3.0)
    rng = np.random.Generator(np.random.Philox(key=[2024, 0]))
    ts2 = np.linspace(tau0, tau1, 4000)
    r_star, psi_star2 = ref.state(ts2)
    worst = 0.0
    for _ in range(20):
        u, ang = rng.uniform(size=2)
        rad = delta0 * math.sqrt(u)
        x0 = [float(r0) + rad * math.cos(2 * math.pi * ang),
              float(psi0) + rad * math.sin(2 * math.pi * ang)]
        tr = integrate_ode(lambda t, y: rhs_primary(y, t, params),
                           x0, tau0, tau1, tol=1e-10, t_eval=ts2)
        dev_r = np.abs(tr.states[:, 0] - r_star) / np.sqrt(params.nu * ts2)
        dev_p = np.abs(tr.states[:, 1] - psi_star2)
        worst = max(worst, float(dev_r.max()), float(dev_p.max()))
    ok2 = worst < eps
    _report("03", ok1 and ok2,
            f"decay rate {rate:.4f} (need >= {params.gamma / 12.0:.5f}); "
            f"worst weighted deviation over 20 kicks of {delta0:.4f}: "
            f"{worst:.4f} (need < {eps})")


# ------------------------------------------------------------ criterion 4

def test_criterion_04_branch_dichotomy(params, ref):
    tau0, tau1 = 20.0, 200.0
    ts = np.linspace(tau0, tau1, 3600)

    e_s = expand(params, "stable", 3)
    r0, p0 = evaluate(e_s, params, np.array([tau0]))
    traj = integrate_ode(lambda t, y: rhs_primary(y, t, params),
                         [float(r0[0]), float(p0[0])], tau0, tau1,
                         tol=1e-10, t_eval=ts)
    _, psi_star = ref.state(ts)
    stable_dev = float(np.max(np.abs(traj.states[:, 1] - psi_star)))

    e_u = expand(params, "unstable", 3)
    r0u, p0u = evaluate(e_u, params, np.array([tau0]))
    traj_u = integrate_ode(lambda t, y: rhs_primary(y, t, params),
                           [float(r0u[0]), float(p0u[0])], tau0, tau1,
                           tol=1e-10, t_eval=ts)
    _, psi_pred = evaluate(e_u, params, ts)
    udev = np.abs(traj_u.states[:, 1] - psi_pred)
    departed = float(np.max(udev))

    ok = stable_dev < 0.1 and departed > 0.5
    _report("04", ok,
            f"stable branch sup|psi - psi*| = {stable_dev:.2e} (< 0.1); "
            f"unstable branch deviation reaches {departed:.2f} (> 0.5) "
            f"before tau = {tau1:g}")


# ------------------------------------------------------------ criterion 5

def test_criterion_05_certificate(params, ref, cert):
    violations = spot_check(cert, params, ref, n=10_000, seed=777)
    ok = (cert.d0 >= 0.05 and cert.tau0 <= 50.0
          and cert.q == pytest.approx(params.gamma / 6.0, rel=1e-12)
          and cert.a == pytest.approx(1.0 / params.nu, rel=1e-12)
          and cert.b == 1.0 and violations == 0)
    _report("05", ok,
            f"certificate d0 = {cert.d0:g} (>= 0.05), tau0 = {cert.tau0:g} "
            f"(<= 50), q = gamma/6, a = 1/nu, b = 1; "
            f"{violations} violations in 10000 spot checks")


# ------------------------------------------------------------ criterion 6

def test_criterion_06_thresholds():
    rep = thresholds(N=1, kappa=0.5, h=1.0, n=2, A=3.0, a=1.005038,
                     C=1.0, eps1=0.1, eps2=0.1)
    exps = [thresholds(N=N, kappa=0.5, h=1.0, n=2, A=3.0, a=1.005038,
                       C=1.0, eps1=0.1, eps2=0.1).T_mu_exponent
            for N in (1, 2, 3)]
    a1 = chain_a(1, n=2, h=1.0, B=1.0, C=1.0, q=0.5)
    ok = (abs(rep.delta - 9.117e-3) <= 5e-7
          and abs(rep.Delta - 1.25e-4) <= 5e-8
          and exps == [-1.0, -2.0, -3.0] and a1 == 32.0)
    _report("06", ok,
            f"delta = {rep.delta:.6e} (9.117e-3 to 4 digits), "
            f"Delta = {rep.Delta:.6e} (1.25e-4 to 4 digits), "
            f"horizon exponents {exps}, a_1 = {a1:g}")


# ------------------------------------------------------- criteria 7 to 9

def _noise(mu):
    return NoiseSchedule(mu=mu, sigma1=constant_schedule(0.0),
                         sigma2=constant_schedule(1.0), h=1.0)


def test_criterion_07_capture_fractions(params):
    # the three amplitudes share master seed 1234, so they run as one pass
    cfg = EnsembleConfig(params=params, noise=_noise(0.10), tau0=0.0,
                         horizon=60.0, dt=1e-3, n_paths=500,
                         master_seed=1234, x0=(1.09, 2.15))
    (f10, i10), (f35, i35), (f55, i55) = (
        (s.capture_fraction, s.capture_interval)
        for s in run_ensembles(cfg, [0.10, 0.35, 0.55]))
    separated = i10[0] > i55[1]
    between = (f55 < f35 < f10) or (i35[0] <= i10[1] and i35[1] >= i55[0])
    ok = separated and between
    _report("07", ok,
            f"capture fractions mu=0.10: {f10:.3f} {np.round(i10, 3)}, "
            f"mu=0.35: {f35:.3f}, mu=0.55: {f55:.3f} {np.round(i55, 3)}; "
            f"intervals separated: {separated}, middle in between: {between}")


def test_criterion_08_supermartingale_doob(params, ref, cert):
    cfg = EnsembleConfig(params=params, noise=_noise(0.05), tau0=cert.tau0,
                         horizon=30.0, dt=1e-3, n_paths=1000,
                         master_seed=2718, x0=(0.0, 0.0), eps1=0.1)
    rep = supermartingale_check(cfg, cert, N=1, ref=ref)
    ok = rep["mean_nonincreasing"] and rep["doob_ok"]
    ladder = "; ".join(
        f"c={rung['c_multiple']:g}x: {rung['fraction']:.3f} <= "
        f"{rung['bound']:.3f}" for rung in rep["doob_ladder"])
    _report("08", ok,
            f"mean of U_1 non-increasing within 2 SE: "
            f"{rep['mean_nonincreasing']}; Doob ladder ({ladder}) within "
            f"3 SE: {rep['doob_ok']}; stopped fraction "
            f"{rep['stopped_fraction']:.3f}, start mean "
            f"{rep['mean_start']:.4f}")


def test_criterion_09_exit_time_scaling(params, ref, cert):
    x0 = tuple(float(v) for v in ref.state(20.0))
    cfg = EnsembleConfig(params=params, noise=_noise(0.2), tau0=20.0,
                         horizon=40.0, dt=1e-3, n_paths=300, master_seed=7,
                         x0=x0, eps1=cert.d0)
    res = exit_time_scaling(cfg, [0.2, 0.3, 0.45], ref)
    lo, hi = res["slope_interval"]
    ok = res["slope"] <= -1.0 and hi < 0.0
    _report("09", ok,
            f"medians {np.round(res['medians'], 3)} at mu = {res['mus']}; "
            f"slope {res['slope']:.3f} (need <= -1), bootstrap interval "
            f"[{lo:.3f}, {hi:.3f}] excludes 0: {hi < 0.0}")


# ----------------------------------------------------------- criterion 10

def test_criterion_10_averaging_validation(params):
    r0, psi0 = 1.0, 2.0
    # verdict needs a window past tau = 50; the comparison grid does not
    long = integrate_ode(lambda t, y: rhs_primary(y, t, params),
                         [r0, psi0], 0.0, 55.0, tol=1e-10,
                         t_eval=np.linspace(0.0, 55.0, 1200))
    assert classify_capture(long, params) == "captured"
    tau_grid = np.linspace(0.0, 32.0, 4000)
    avg = integrate_ode(lambda t, y: rhs_primary(y, t, params),
                        [r0, psi0], 0.0, 32.0, tol=1e-10, t_eval=tau_grid)

    def run(eps, tau_max):
        pp = inverse_map(params, eps)
        u0, v0 = seed_from_averaged(r0, psi0, eps)
        return pp, integrate_pendulum(pp, u0, v0, 2.0 * tau_max / eps,
                                      tol=1e-9)

    pp05, pend05 = run(0.05, 32.0)
    part_a = envelope_compare(pend05, avg, pp05, window=(5.0, 30.0))
    ok_a = part_a["mean_rel_err"] <= 0.15

    errs = []
    for eps in (0.1, 0.05, 0.025):
        if eps == 0.05:
            pp, pend = pp05, pend05
        else:
            pp, pend = run(eps, 21.0)
        errs.append(envelope_compare(pend, avg, pp,
                                     window=(5.0, 20.0))["mean_rel_err"])
    ok_b = errs[0] > errs[1] > errs[2]
    _report("10", ok_a and ok_b,
            f"eps=0.05 envelope mean rel err {part_a['mean_rel_err']:.4f} "
            f"over tau in [5, 30] (<= 0.15); ranking across eps "
            f"(0.1, 0.05, 0.025): "
            f"{', '.join(f'{e:.4f}' for e in errs)} strictly decreasing: "
            f"{ok_b}")


# ----------------------------------------------------------- criterion 11

def test_criterion_11_manifest_reproducibility(tmp_path):
    cfg = {"gamma": 0.1, "lam": 1.0, "mu": 0.35, "tau0": 0.0,
           "horizon": 60.0, "dt": 1e-3, "n_paths": 256, "master_seed": 42,
           "x0": [1.09, 2.15]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    first = tmp_path / "run"
    assert main(["ensemble", "--config", str(cfg_path),
                 "--out", str(first), "--threads", "4"]) == 0

    manifest = str(first / "manifest.json")
    outs = [first]
    for threads in (1, 8):
        out = tmp_path / f"rerun{threads}"
        assert main(["ensemble", "--config", manifest,
                     "--out", str(out), "--threads", str(threads)]) == 0
        outs.append(out)

    same = all((outs[0] / name).read_bytes() == (o / name).read_bytes()
               for o in outs[1:] for name in ("ensemble.csv", "summary.json"))
    _report("11", same,
            "ensemble.csv and summary.json byte-identical across the "
            "original run (4 threads) and manifest re-runs at 1 and 8 "
            "threads")
