"""Workload definitions for the autores benchmark: the operations of one
pass, generated from the workload seed, and the checks on their outputs.

This module uses only the standard library.  The harness imports it
without importing autores, and it never reads the program's code: every
check works on the files a pass leaves behind.

Workloads, and why each one is here:

capture-mc
    One `ensemble` run at the docs/cli.md example (mu 0.35, x0 (1.09,
    2.15), horizon 60, dt 1e-3) with 256 paths on one thread and no
    reference.  The per-step Python body of the Euler-Maruyama block
    kernel and the Philox draws do nearly all of the work; there is no
    ODE solve and no reference build.  256 paths are two blocks of the
    seed's block width, so a change of block width shows.  It is also
    the plain single-threaded baseline.
tracked-mc
    `exit-times` (three amplitudes, tau0 20, horizon 5, 150 paths, two
    threads), `certify` at its defaults, and `supermartingale_check` on
    the certificate `certify` wrote (mu 0.05, start (0, 0), horizon 5).
    It covers the reference-deviation bookkeeping, the stopped-error
    kernel, reference builds, the certify grid and the bootstrap, and it
    is the only workload on two threads.  Most paths leave the tube
    early, so a large share of the nominal path-steps is wasted work;
    in capture-mc that share is zero.
single-traj
    Every subcommand that integrates one trajectory at a time:
    `figures fig1` (32 DOP853 solves), `figures fig2` (three single-path
    Euler-Maruyama runs), `simulate`, `pendulum`, `series` and
    `thresholds`.  The ODE and pendulum layers do almost all of the work
    here and none in capture-mc.  fig1 and fig2 keep horizon 60: below
    tau 50 every capture verdict is `indeterminate`, so the verdict
    checks would test nothing.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

WORKLOADS = ("capture-mc", "tracked-mc", "single-traj")
DEFAULT_SEED = 0
# seeds whose outputs were recorded from the seed commit in golden.json
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# relative tolerance on recorded statistics that a fix of the reference
# solution's lower domain end may move in the last digits
STAT_RTOL = 1e-2
# relative tolerance on recorded deterministic solver outputs
SOLVER_RTOL = 1e-3

BASE = {"gamma": 0.1, "lam": 1.0}


def derive_seed(seed: int, label: str) -> int:
    """Seed for one program input, derived from the workload seed."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def step_count(tau0: float, tau1: float, dt: float) -> int:
    """Euler-Maruyama steps over [tau0, tau1], last partial step included."""
    n = int(math.floor((tau1 - tau0) / dt + 1e-12))
    if tau0 + n * dt < tau1 - 1e-12 * max(1.0, abs(tau1)):
        n += 1
    return n


def wilson(k: int, n: int, z: float = 1.959963984540054):
    """Wilson 95% score interval, written independently of the program."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ------------------------------------------------------------ operations

def operations(workload: str, seed: int, smoke: bool = False) -> list:
    """The operations of one pass.

    A CLI operation carries `sub`, `config` and `flags`; the harness
    writes the config and gives the child `<sub> --config <file> --out
    <dir> <flags>`.  The supermartingale operation is a direct call of
    the public function and carries its own fields.  `path_steps` is the
    operation's nominal path-steps (n_paths times the step count), or 0.
    Smoke sizes are small and are never compared with recorded values.
    """
    if workload == "capture-mc":
        n_paths = 100 if smoke else 256
        cfg = dict(BASE, mu=0.35, tau0=0.0, horizon=60.0, dt=1e-3,
                   n_paths=n_paths, x0=[1.09, 2.15],
                   master_seed=derive_seed(seed, "capture.master_seed"))
        return [{"name": "ensemble", "sub": "ensemble", "config": cfg,
                 "flags": ["--threads", "1"],
                 "path_steps": n_paths * step_count(0.0, 60.0, 1e-3)}]
    if workload == "tracked-mc":
        n_paths = 100 if smoke else 150
        horizon = 3.0 if smoke else 5.0
        mus = [0.2, 0.3, 0.45]
        exit_cfg = dict(BASE, mus=mus, tau0=20.0, horizon=horizon, dt=1e-3,
                        n_paths=n_paths, n_boot=20 if smoke else 200,
                        eps1=0.3,
                        master_seed=derive_seed(seed, "exit.master_seed"),
                        boot_seed=derive_seed(seed, "exit.boot_seed"))
        cert_cfg = dict(BASE, spot_seed=derive_seed(seed, "certify.spot_seed"))
        if smoke:
            cert_cfg["spot_checks"] = 1000
        smc = dict(BASE, mu=0.05, horizon=horizon, dt=1e-3, n_paths=n_paths,
                   x0=[0.0, 0.0], eps1=0.1, threads=2,
                   master_seed=derive_seed(seed, "supermartingale.master_seed"))
        return [
            {"name": "exit-times", "sub": "exit-times", "config": exit_cfg,
             "flags": ["--threads", "2"],
             "path_steps": len(mus) * n_paths
             * step_count(20.0, 20.0 + horizon, 1e-3)},
            {"name": "certify", "sub": "certify", "config": cert_cfg,
             "flags": [], "path_steps": 0},
            # starts at the certificate's tau0, read in the child; the
            # step count of a span this short does not depend on it
            {"name": "supermartingale", "call": "supermartingale_check",
             "certificate_from": "certify", "config": smc,
             "path_steps": n_paths * step_count(0.0, horizon, 1e-3)},
        ]
    if workload == "single-traj":
        fig2_dt = 5e-3
        return [
            {"name": "fig1", "sub": "figures", "flags": [],
             "config": {"which": "fig1", "horizon": 60.0}, "path_steps": 0},
            {"name": "fig2", "sub": "figures", "flags": [],
             "config": {"which": "fig2", "horizon": 60.0, "dt": fig2_dt,
                        "master_seed": derive_seed(seed, "fig2.master_seed")},
             "path_steps": 3 * step_count(0.0, 60.0, fig2_dt)},
            {"name": "simulate", "sub": "simulate", "flags": [],
             "config": dict(BASE, r0=1.09, psi0=2.15, tau1=200.0),
             "path_steps": 0},
            {"name": "pendulum", "sub": "pendulum", "flags": [],
             "config": {"eps": 0.05, "r0": 1.0, "psi0": 2.0},
             "path_steps": 0},
            {"name": "series", "sub": "series", "flags": [],
             "config": dict(BASE, order=3, tau_min=10.0, tau_max=1000.0,
                            tau_n=200),
             "path_steps": 0},
            # the criterion-06 values, plus the chain constants
            {"name": "thresholds", "sub": "thresholds", "flags": [],
             "config": {"N": 1, "kappa": 0.5, "h": 1.0, "n": 2, "A": 3.0,
                        "a": 1.005038, "C": 1.0, "eps1": 0.1, "eps2": 0.1,
                        "chain_B": 1.0, "chain_q": 0.5},
             "path_steps": 0},
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks

def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: Path, schema: str, header: list) -> list:
    """Data rows of a program CSV after checking its two header lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != f"# schema {schema}/1":
            raise CheckFailure(f"{path.name}: schema line {first!r}")
        rows = list(csv.reader(fh))
    if rows[0] != header:
        raise CheckFailure(f"{path.name}: header {rows[0]}")
    return rows[1:]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CheckFailure(Exception):
    """An output that is missing or wrong."""


def _require(ok: bool, msg: str):
    if not ok:
        raise CheckFailure(msg)


def _close(got: float, want: float, rtol: float, what: str):
    _require(math.isclose(got, want, rel_tol=rtol, abs_tol=0.0),
             f"{what} = {got!r}, recorded {want!r} (rtol {rtol:g})")


def _check_ensemble(out: Path, op: dict):
    cfg = op["config"]
    n = cfg["n_paths"]
    rows = _csv(out / "ensemble.csv", "autores.ensemble",
                ["path", "exit_time", "censored", "captured", "sup_dev_psi",
                 "sup_dev_r_weighted", "sup_dev_r_raw", "r_end", "psi_end"])
    _require(len(rows) == n, f"ensemble.csv has {len(rows)} rows, want {n}")
    _require([int(r[0]) for r in rows] == list(range(n)), "path column order")
    k_cap = sum(int(r[3]) for r in rows)
    for r in rows:
        if r[2] == "1":
            _require(float(r[1]) == cfg["horizon"],
                     f"censored path {r[0]} has exit time {r[1]}")
    s = _json(out / "summary.json")
    _require(s["n_paths"] == n, f"summary n_paths {s['n_paths']}")
    _require(s["capture_fraction"] == k_cap / n,
             f"capture_fraction {s['capture_fraction']} != {k_cap}/{n}")
    lo, hi = wilson(k_cap, n)
    _close(s["capture_interval"][0], lo, 1e-9, "capture_interval lo")
    _close(s["capture_interval"][1], hi, 1e-9, "capture_interval hi")
    # mu 0.35 sits between the high capture of mu 0.1 and the low capture
    # of mu 0.55 (criterion 07); seeds give 0.70 to 0.76 at 256 paths
    _require(0.5 <= s["capture_fraction"] <= 0.95,
             f"capture_fraction {s['capture_fraction']} outside [0.5, 0.95]")
    # no reference: no deviation statistic can exceed its tube
    _require(s["exceed_prob_psi"] == 0.0 and s["exceed_prob_r"] == 0.0,
             "exceedance reported without a reference")
    m = _json(out / "manifest.json")
    _require(m["config"]["master_seed"] == cfg["master_seed"],
             "manifest master_seed differs from the generated config")


def _record_ensemble(out: Path) -> dict:
    return {"ensemble.csv": _sha256(out / "ensemble.csv"),
            "summary.json": _sha256(out / "summary.json")}


def _compare_ensemble(out: Path, rec: dict):
    for name, digest in rec.items():
        _require(_sha256(out / name) == digest,
                 f"{name} differs from the bytes recorded at this seed")


def _check_exit_times(out: Path, op: dict):
    s = _json(out / "scaling.json")
    mus = op["config"]["mus"]
    _require(s["mus"] == mus, f"mus {s['mus']}")
    med = s["medians"]
    # criterion 09: steep negative power law, interval excluding 0
    _require(s["slope"] <= -1.0, f"slope {s['slope']} > -1")
    _require(s["slope_interval"][1] < 0.0,
             f"slope interval {s['slope_interval']} reaches 0")
    _require(all(a > b for a, b in zip(med, med[1:])),
             f"medians {med} not decreasing in mu")
    _require(all(c <= 0.5 for c in s["censored_fractions"]),
             f"censored fractions {s['censored_fractions']} above 0.5")
    rows = _csv(out / "exit_times.csv", "autores.exit_times",
                ["mu", "median_exit", "lo", "hi"])
    _require([float(r[1]) for r in rows] == med,
             "exit_times.csv medians differ from scaling.json")
    for r in rows:
        _require(float(r[2]) <= float(r[1]) <= float(r[3]),
                 f"median {r[1]} outside its interval [{r[2]}, {r[3]}]")


def _record_exit_times(out: Path) -> dict:
    s = _json(out / "scaling.json")
    return {"medians": s["medians"], "slope": s["slope"]}


def _compare_exit_times(out: Path, rec: dict):
    s = _json(out / "scaling.json")
    for i, (got, want) in enumerate(zip(s["medians"], rec["medians"])):
        _close(got, want, STAT_RTOL, f"median exit time [{i}]")
    _close(s["slope"], rec["slope"], STAT_RTOL, "slope")


def _check_certify(out: Path, op: dict):
    c = _json(out / "certificate.json")
    _require(c.get("found") is True, f"no certificate: {c.get('reason')}")
    # criterion 05
    _require(c["d0"] >= 0.05, f"d0 {c['d0']} < 0.05")
    _require(c["tau0"] <= 50.0, f"tau0 {c['tau0']} > 50")
    _require(c["margin"] >= 0.0, f"margin {c['margin']} < 0")
    spot = c["spot_checks"]
    _require(spot["n"] == op["config"].get("spot_checks", 10000)
             and spot["seed"] == op["config"]["spot_seed"],
             f"spot checks ran as {spot}")
    _require(spot["violations"] == 0, f"{spot['violations']} spot violations")


def _check_supermartingale(out: Path, op: dict):
    s = _json(out / "supermartingale.json")
    # criterion 08
    _require(s["mean_nonincreasing"], "mean of U_1 increases")
    _require(s["doob_ok"], "Doob maximal-inequality ladder fails")
    _require(s["n_paths"] == op["config"]["n_paths"], f"n_paths {s['n_paths']}")
    _require(0.0 <= s["stopped_fraction"] <= 1.0,
             f"stopped_fraction {s['stopped_fraction']}")


def _record_supermartingale(out: Path) -> dict:
    s = _json(out / "supermartingale.json")
    return {"stopped_fraction": s["stopped_fraction"],
            "mean_start": s["mean_start"]}


def _compare_supermartingale(out: Path, rec: dict):
    s = _json(out / "supermartingale.json")
    for key, want in rec.items():
        _close(s[key], want, STAT_RTOL, key)


def _index(out: Path, figure: str, n: int) -> list:
    idx = _json(out / "index.json")
    _require(idx["figure"] == figure and len(idx["runs"]) == n,
             f"index.json lists {len(idx['runs'])} runs of {idx['figure']}")
    return idx["runs"]


def _check_fig1(out: Path, op: dict):
    for run in _index(out, "fig1", 32):
        rows = _csv(out / run["file"], "autores.trajectory",
                    ["tau", "r", "psi"])
        _require(len(rows) == 2400 and float(rows[-1][0]) == 60.0,
                 f"{run['file']}: {len(rows)} rows ending at {rows[-1][0]}")
        _require(run["verdict"] in ("captured", "escaped"),
                 f"{run['file']}: verdict {run['verdict']}")


def _record_fig1(out: Path) -> dict:
    return {"verdicts": [r["verdict"] for r in _index(out, "fig1", 32)]}


def _compare_verdicts(out: Path, rec: dict, figure: str):
    got = [r["verdict"] for r in _index(out, figure, len(rec["verdicts"]))]
    _require(got == rec["verdicts"], f"{figure} verdicts {got}, recorded "
                                     f"{rec['verdicts']}")


def _check_fig2(out: Path, op: dict):
    for run in _index(out, "fig2", 3):
        rows = _csv(out / run["file"], "autores.trajectory",
                    ["tau", "r", "psi"])
        _require(run["verdict"] in ("captured", "escaped"),
                 f"{run['file']}: verdict {run['verdict']}")
        _require(len(rows) >= 2, f"{run['file']}: {len(rows)} rows")


def _record_fig2(out: Path) -> dict:
    return {"verdicts": [r["verdict"] for r in _index(out, "fig2", 3)]}


def _check_simulate(out: Path, op: dict):
    s = _json(out / "summary.json")
    _require(s["truncated"] is False, "trajectory truncated")
    rows = _csv(out / "trajectory.csv", "autores.trajectory",
                ["tau", "r", "psi"])
    _require(len(rows) == 2000 and float(rows[-1][0]) == 200.0,
             f"trajectory.csv: {len(rows)} rows ending at {rows[-1][0]}")


def _record_simulate(out: Path) -> dict:
    s = _json(out / "summary.json")
    return {"verdict": s["verdict"], "end_state": s["end_state"]}


def _compare_simulate(out: Path, rec: dict):
    s = _json(out / "summary.json")
    _require(s["verdict"] == rec["verdict"],
             f"verdict {s['verdict']}, recorded {rec['verdict']}")
    for i, (got, want) in enumerate(zip(s["end_state"], rec["end_state"])):
        _close(got, want, SOLVER_RTOL, f"end_state[{i}]")


def _check_pendulum(out: Path, op: dict):
    m = _json(out / "metrics.json")
    # criterion 10: the envelope follows the averaged amplitude
    _require(m["mean_rel_err"] <= 0.15, f"mean_rel_err {m['mean_rel_err']}")
    rows = _csv(out / "comparison.csv", "autores.envelope",
                ["tau", "envelope", "predicted", "relerr"])
    _require(len(rows) == m["n_extrema"], "comparison.csv row count")


def _record_pendulum(out: Path) -> dict:
    m = _json(out / "metrics.json")
    return {k: m[k] for k in ("max_rel_err", "mean_rel_err", "n_extrema")}


def _compare_pendulum(out: Path, rec: dict):
    m = _json(out / "metrics.json")
    _require(m["n_extrema"] == rec["n_extrema"],
             f"n_extrema {m['n_extrema']}, recorded {rec['n_extrema']}")
    for key in ("max_rel_err", "mean_rel_err"):
        _close(m[key], rec[key], SOLVER_RTOL, key)


def _check_series(out: Path, op: dict):
    rows = _csv(out / "series.csv", "autores.series", ["tau", "r", "psi"])
    _require(len(rows) == op["config"]["tau_n"], "series.csv row count")


def _record_series(out: Path) -> dict:
    c = _json(out / "coefficients.json")
    return {k: c[k] for k in ("psi0", "r", "psi")}


def _compare_series(out: Path, rec: dict):
    c = _json(out / "coefficients.json")
    got = [c["psi0"], *c["r"], *c["psi"]]
    want = [rec["psi0"], *rec["r"], *rec["psi"]]
    _require(len(got) == len(want), "coefficient count")
    for i, (g, w) in enumerate(zip(got, want)):
        _close(g, w, 1e-9, f"series coefficient [{i}]")


def _check_thresholds(out: Path, op: dict):
    t = _json(out / "thresholds.json")
    # criterion 06
    _require(abs(t["delta"] - 9.117e-3) <= 5e-7, f"delta {t['delta']}")
    _require(abs(t["Delta"] - 1.25e-4) <= 5e-8, f"Delta {t['Delta']}")
    _require(t["T_mu_exponent"] == -1.0, f"exponent {t['T_mu_exponent']}")
    _require(t["chain_a"] == [32.0, 48.0, 64.0], f"chain_a {t['chain_a']}")


# name -> (check at any seed, record, compare with the record, seeded)
# A seeded record is kept per recorded seed; an unseeded one holds at
# every seed because the operation does not consume the seed.
CHECKS = {
    "ensemble": (_check_ensemble, _record_ensemble, _compare_ensemble, True),
    "exit-times": (_check_exit_times, _record_exit_times,
                   _compare_exit_times, True),
    "certify": (_check_certify, None, None, True),
    "supermartingale": (_check_supermartingale, _record_supermartingale,
                        _compare_supermartingale, True),
    "fig1": (_check_fig1, _record_fig1,
             lambda out, rec: _compare_verdicts(out, rec, "fig1"), False),
    "fig2": (_check_fig2, _record_fig2,
             lambda out, rec: _compare_verdicts(out, rec, "fig2"), True),
    "simulate": (_check_simulate, _record_simulate, _compare_simulate, False),
    "pendulum": (_check_pendulum, _record_pendulum, _compare_pendulum, False),
    "series": (_check_series, _record_series, _compare_series, False),
    "thresholds": (_check_thresholds, None, None, False),
}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def recorded(golden: dict, name: str, seed: int):
    """The recorded values that apply to operation `name` at `seed`."""
    if CHECKS[name][3]:
        return golden["seeded"].get(str(seed), {}).get(name)
    return golden["deterministic"].get(name)


def check_op(op: dict, out: Path, seed: int, golden: dict, smoke: bool):
    """Return None if the operation's outputs are right, else the reason."""
    check, _, compare, _ = CHECKS[op["name"]]
    try:
        check(out, op)
        rec = None if smoke else recorded(golden, op["name"], seed)
        if rec is not None:
            compare(out, rec)
    except CheckFailure as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def record_op(name: str, out: Path):
    """Values of a finished operation to store in golden.json, or None."""
    rec = CHECKS[name][1]
    return None if rec is None else rec(out)
