"""Command-line entry point.

Every experiment is a subcommand taking a strict JSON config plus the
common flags --config, --out, --seed, --threads.  --threads (and the
threads config and manifest field) is validated and recorded in the
manifest but has no effect: ensembles run on the calling thread.
Unknown config fields are rejected (exit 2, message names the field);
runtime failures exit 1 with the originating module and time location.
Each run writes manifest.json echoing the resolved config and the
package version, and a manifest is itself accepted as a config, so any
run can be reproduced from its output directory alone.  CSV cells of
integer and flag columns are integers, all others carry 17 significant
digits; LF line endings, UTF-8.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .model import (SystemParams, NoiseSchedule, Schedule, constant_schedule,
                    perturbed_terms, rhs_primary_into, scalar_field)
from .asymptotics import expand, evaluate
from .integrators import (REF_TAU_MAX, REF_TAU_MIN, RTOL_MIN,
                          IntegrationError, NoiseStream, Trajectory,
                          default_dt, integrate_ode, integrate_ode_batch,
                          integrate_sde, reference_solution)
from .lyapunov import (NoCertificate, certify, chain_a, spot_check,
                       thresholds, thresholds_beta)
from .ensemble import (EnsembleConfig, classify_capture, exit_time_scaling,
                       run_ensemble)
from .pendulum import (inverse_map, seed_from_averaged, integrate_pendulum,
                       envelope_compare, SAMPLES_PER_UNIT)

_REQUIRED = object()
MAX_SAMPLES = 10_000_000  # rows of one sampled trajectory at most


class ConfigError(Exception):
    """Config validation failure; field names the offending entry."""

    def __init__(self, field: str, msg: str):
        super().__init__(f"field '{field}': {msg}")
        self.field = field


# ---------------------------------------------------------------- schema

def _is_num(v) -> bool:
    # json reads NaN and +-Infinity, which would pass every range check,
    # and integers past float's range, which float(v) cannot convert
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _f(lo=None, hi=None, lo_open=False, hi_open=False):
    def check(field, v):
        if not _is_num(v):
            raise ConfigError(field, f"not a finite number: {v!r}")
        v = float(v)
        if lo is not None and (v <= lo if lo_open else v < lo):
            raise ConfigError(field, f"must be {'>' if lo_open else '>='} {lo}")
        if hi is not None and (v >= hi if hi_open else v > hi):
            raise ConfigError(field, f"must be {'<' if hi_open else '<='} {hi}")
        return v
    return check


def _i(lo=None, hi=None):
    def check(field, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(field, f"expected an integer, got {v!r}")
        if lo is not None and v < lo:
            raise ConfigError(field, f"must be >= {lo}")
        if hi is not None and v > hi:
            raise ConfigError(field, f"must be <= {hi}")
        return v
    return check


def _b(field, v):
    if not isinstance(v, bool):
        raise ConfigError(field, f"expected true/false, got {v!r}")
    return v


def _s(*choices):
    def check(field, v):
        if not isinstance(v, str):
            raise ConfigError(field, f"expected a string, got {v!r}")
        if choices and v not in choices:
            raise ConfigError(field, f"must be one of {sorted(choices)}")
        return v
    return check


def _pair(field, v):
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(_is_num(x) for x in v)):
        raise ConfigError(field, f"expected two finite numbers, got {v!r}")
    return (float(v[0]), float(v[1]))


def _num_list(min_len=1):
    def check(field, v):
        if not isinstance(v, list) or len(v) < min_len:
            raise ConfigError(field, f"expected a list of >= {min_len} numbers")
        if not all(_is_num(x) for x in v):
            raise ConfigError(field, "entries must be finite numbers")
        return [float(x) for x in v]
    return check


def _schedule(field, v):
    """A noise intensity: constant c, or {coeff, power}."""
    if _is_num(v):
        return constant_schedule(float(v))
    if isinstance(v, dict):
        extra = set(v) - {"coeff", "power"}
        if extra:
            raise ConfigError(f"{field}.{sorted(extra)[0]}", "unknown field")
        if "coeff" not in v:
            raise ConfigError(f"{field}.coeff", "required")
        coeff = _f()(f"{field}.coeff", v["coeff"])
        power = _f()(f"{field}.power", v.get("power", 0.0))
        return Schedule(coeff=coeff, power=power)
    raise ConfigError(field, f"not a finite number or {{coeff, power}}: {v!r}")


def _validate(cfg: dict, schema: dict, sub: str) -> dict:
    """Strict validation: unknown keys rejected, defaults applied."""
    for key in cfg:
        if key not in schema:
            raise ConfigError(key, f"unknown field for subcommand '{sub}'")
    out = {}
    for key, (checker, default) in schema.items():
        if key in cfg and cfg[key] is not None:
            out[key] = checker(key, cfg[key])
        elif default is _REQUIRED:
            raise ConfigError(key, "required")
        else:
            out[key] = default
    return out


# ------------------------------------------------------------- output IO

_CSV_CHUNK = 4096  # rows formatted per string operation
_FLOAT_CELL = "%.17g"  # a float cell: 17 significant digits


def _write_csv(path: Path, schema_name: str, header, columns):
    """One CSV table from equal-length columns: integer and flag columns
    as integers (1/0 for flags), string columns as they are, every other
    at 17 significant digits."""
    cols = [np.asarray(c) for c in columns]
    row_fmt = ",".join("%d" if c.dtype.kind in "biu"
                       else "%s" if c.dtype.kind == "U" else _FLOAT_CELL
                       for c in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema {schema_name}/1\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(cols[0]), _CSV_CHUNK):
            part = [c[lo:lo + _CSV_CHUNK].tolist() for c in cols]
            cells = tuple(itertools.chain.from_iterable(zip(*part)))
            fh.write(row_fmt * len(part[0]) % cells)


def _write_json(path: Path, doc: dict):
    # Schedule config values go out as {coeff, power}; others still raise
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True,
                  default=dataclasses.asdict)
        fh.write("\n")


def _write_manifest(out: Path, sub: str, cfg: dict, threads: int):
    doc = {"artifact": "autores", "version": __version__,
           "subcommand": sub, "threads": threads, "out_dir": str(out),
           "config": cfg}
    _write_json(out / "manifest.json", doc)


def _traj_csv(path: Path, schema_name: str, header, traj: Trajectory):
    _write_csv(path, schema_name, header, (traj.times, *traj.states.T))


# ------------------------------------------------------------ subcommands

_SYSTEM_FIELDS = {
    "gamma": (_f(0.0, 1.0, lo_open=True, hi_open=True), _REQUIRED),
    "lam": (_f(0.0, lo_open=True), _REQUIRED),
}


def _run_fields(amplitude: dict, n_paths: int, eps1, own: dict) -> dict:
    """Schema shared by ensemble and exit-times: system, amplitude (mu or
    mus), the shared run fields, then the subcommand's own fields."""
    return {
        **_SYSTEM_FIELDS, **amplitude,
        "sigma1": (_schedule, constant_schedule(0.0)),
        "sigma2": (_schedule, constant_schedule(1.0)),
        "h": (_f(0.0, lo_open=True), 1.0),
        "tau0": (_f(0.0), _REQUIRED),
        "horizon": (_f(0.0, lo_open=True), _REQUIRED),
        "dt": (_f(0.0, lo_open=True), None),
        "n_paths": (_i(100, 10_000_000), n_paths),
        "master_seed": (_i(0), 12345),
        "x0": (_pair, None),
        "ball_radius": (_f(0.0), 0.0),
        "eps1": (_f(0.0, lo_open=True), eps1),
        **own,
    }


_SCHEMAS = {
    "series": {
        **_SYSTEM_FIELDS,
        "order": (_i(0, 64), 3),
        "branch": (_s("stable", "unstable"), "stable"),
        "tau_min": (_f(0.0, lo_open=True), None),
        "tau_max": (_f(0.0, lo_open=True), None),
        "tau_n": (_i(2), None),
    },
    "simulate": {
        **_SYSTEM_FIELDS,
        "r0": (_f(), _REQUIRED),
        "psi0": (_f(), _REQUIRED),
        "tau0": (_f(0.0), 0.0),
        "tau1": (_f(0.0, lo_open=True), _REQUIRED),
        "samples": (_i(2, MAX_SAMPLES), 2000),
        "tol": (_f(RTOL_MIN), 1e-10),
    },
    "ensemble": _run_fields(
        {"mu": (_f(0.0, 1.0, lo_open=True, hi_open=True), _REQUIRED)},
        500, 0.1, {"reference": (_b, False), "out_of_class_ok": (_b, False)}),
    "exit-times": _run_fields(
        {"mus": (_num_list(3), _REQUIRED)}, 300, _REQUIRED,
        {"n_boot": (_i(10, 1_000_000), 1000), "boot_seed": (_i(0), 54321)}),
    "certify": {
        **_SYSTEM_FIELDS,
        "d_lo": (_f(0.0, lo_open=True), 1e-3),
        "d_hi": (_f(0.0, lo_open=True), 0.3),
        # tau0 candidates lie in the reference domain, short of its end
        "tau_lo": (_f(REF_TAU_MIN, REF_TAU_MAX, hi_open=True), 10.0),
        "tau_hi": (_f(REF_TAU_MIN, REF_TAU_MAX, hi_open=True), 50.0),
        # every grid^3 sample and spot point is held at once
        "grid": (_i(32, 128), 32),
        "q": (_f(0.0, lo_open=True), None),
        "spot_checks": (_i(0, 1_000_000), 10000),
        "spot_seed": (_i(0), 777),
    },
    "thresholds": {
        "N": (_i(1, 64), 1),
        "kappa": (_f(0.0, 1.0, lo_open=True, hi_open=True), _REQUIRED),
        "h": (_f(0.0, lo_open=True), _REQUIRED),
        "n": (_i(1), _REQUIRED),
        "A": (_f(0.0, lo_open=True), _REQUIRED),
        "a": (_f(0.0), _REQUIRED),
        "C": (_f(0.0, lo_open=True), _REQUIRED),
        "eps1": (_f(0.0, lo_open=True), _REQUIRED),
        "eps2": (_f(0.0, lo_open=True), _REQUIRED),
        "beta": (_f(0.0, lo_open=True), None),
        "chain_B": (_f(0.0, lo_open=True), None),
        "chain_q": (_f(0.0, lo_open=True), None),
        "chain_depth": (_i(1, 64), 3),
    },
    "pendulum": {
        "eps": (_f(0.0, 1.0, lo_open=True, hi_open=True), _REQUIRED),
        "gamma": (_f(0.0, 1.0, lo_open=True, hi_open=True), 0.1),
        "lam": (_f(0.0, lo_open=True), 1.0),
        "r0": (_f(0.0, lo_open=True), _REQUIRED),
        "psi0": (_f(), _REQUIRED),
        "tau_end": (_f(0.0, lo_open=True), 32.0),
        "samples": (_i(100, MAX_SAMPLES), 4000),
        "tol": (_f(RTOL_MIN), 1e-10),
        "window": (_pair, None),
        "transient_fraction": (_f(0.0, 0.5), 0.1),
    },
    "figures": {
        "which": (_s("fig1", "fig2"), _REQUIRED),
        "master_seed": (_i(0), 12345),
        "horizon": (_f(0.0, lo_open=True), 60.0),
        "dt": (_f(0.0, lo_open=True), 1e-3),
        "record_every": (_i(1), 10),
    },
}

SUBCOMMANDS = tuple(_SCHEMAS)

# the --seed flag maps to this field
_SEED_FIELD = {"ensemble": "master_seed", "exit-times": "master_seed",
               "certify": "spot_seed", "figures": "master_seed"}


def _cmd_series(cfg: dict, out: Path):
    p = SystemParams(lam=cfg["lam"], gamma=cfg["gamma"])
    grid_fields = [cfg["tau_min"], cfg["tau_max"], cfg["tau_n"]]
    on_grid = any(v is not None for v in grid_fields)
    if on_grid:
        if any(v is None for v in grid_fields):
            raise ConfigError("tau_min", "tau_min, tau_max, tau_n go together")
        if cfg["tau_max"] <= cfg["tau_min"]:
            raise ConfigError("tau_max", "must exceed tau_min")
    e = expand(p, cfg["branch"], cfg["order"])
    if on_grid:
        tau = np.geomspace(cfg["tau_min"], cfg["tau_max"], cfg["tau_n"])
        # powers of 1/tau overflow low, lam*tau high: a grid whose first
        # point is finite fails at its upper end
        for name, grid in (("tau_min", tau[:1]), ("tau_max", tau)):
            try:
                r, psi = evaluate(e, p, grid)
            except ValueError as exc:
                raise ConfigError(name, str(exc)) from None
    _write_json(out / "coefficients.json", e.to_dict(p))
    if on_grid:
        _write_csv(out / "series.csv", "autores.series", ("tau", "r", "psi"),
                   (tau, r, psi))


def _cmd_simulate(cfg: dict, out: Path):
    if cfg["tau1"] <= cfg["tau0"]:
        raise ConfigError("tau1", "must exceed tau0")
    p = SystemParams(lam=cfg["lam"], gamma=cfg["gamma"])
    t_eval = np.linspace(cfg["tau0"], cfg["tau1"], cfg["samples"])
    traj = integrate_ode(scalar_field(p),
                         [cfg["r0"], cfg["psi0"]], cfg["tau0"], cfg["tau1"],
                         tol=cfg["tol"], t_eval=t_eval)
    _traj_csv(out / "trajectory.csv", "autores.trajectory",
              ("tau", "r", "psi"), traj)
    _write_json(out / "summary.json", {
        "verdict": classify_capture(traj, p),
        "end_state": [float(traj.states[-1, 0]), float(traj.states[-1, 1])],
        "truncated": traj.truncated,
    })


def _ensemble_config(cfg: dict, need_ref: bool):
    """(ref, EnsembleConfig) at mu, or at the smallest of mus, which also
    sets the default dt."""
    p = SystemParams(lam=cfg["lam"], gamma=cfg["gamma"])
    ref = reference_solution(p) if (need_ref or cfg.get("reference")) else None
    x0 = cfg["x0"]
    if x0 is None:
        if ref is None:
            raise ConfigError("x0", "required unless reference is true")
        x0 = tuple(float(v) for v in ref.state(cfg["tau0"]))
    mu = cfg["mu"] if "mu" in cfg else min(cfg["mus"])
    dt = cfg["dt"] if cfg["dt"] is not None else default_dt(mu)
    noise = NoiseSchedule(mu=mu, sigma1=cfg["sigma1"], sigma2=cfg["sigma2"],
                          h=cfg["h"])
    return ref, EnsembleConfig(params=p, noise=noise, tau0=cfg["tau0"],
                               horizon=cfg["horizon"], dt=dt,
                               n_paths=cfg["n_paths"],
                               master_seed=cfg["master_seed"], x0=x0,
                               ball_radius=cfg["ball_radius"],
                               eps1=cfg["eps1"])


def _cmd_ensemble(cfg: dict, out: Path):
    ref, ens = _ensemble_config(cfg, need_ref=False)
    stats = run_ensemble(ens, ref=ref, out_of_class_ok=cfg["out_of_class_ok"])
    # a run too short for a capture verdict leaves its cells empty
    captured = (np.full(stats.n_paths, "") if stats.captured is None
                else stats.captured)
    _write_csv(out / "ensemble.csv", "autores.ensemble",
               ("path", "exit_time", "censored", "captured", "sup_dev_psi",
                "sup_dev_r_weighted", "sup_dev_r_raw", "r_end", "psi_end"),
               (np.arange(stats.n_paths), stats.exit_times, stats.censored,
                captured, stats.sup_psi_dev, stats.sup_r_dev_weighted,
                stats.sup_r_dev_raw, *stats.end_states.T))
    _write_json(out / "summary.json", stats.to_dict())


def _cmd_exit_times(cfg: dict, out: Path):
    mus = cfg["mus"]
    if len(set(mus)) != len(mus):
        raise ConfigError("mus", "amplitudes must be distinct")
    if not all(0.0 < m < 1.0 for m in mus):
        raise ConfigError("mus", "amplitudes must lie in (0, 1)")
    ref, ens = _ensemble_config(cfg, need_ref=True)
    result = exit_time_scaling(ens, mus, ref, n_boot=cfg["n_boot"],
                               seed=cfg["boot_seed"])
    _write_csv(out / "exit_times.csv", "autores.exit_times",
               ("mu", "median_exit", "lo", "hi"),
               (result["mus"], result["medians"],
                *np.asarray(result["median_intervals"]).T))
    _write_json(out / "scaling.json", result)


def _cmd_certify(cfg: dict, out: Path):
    for lo, hi in (("d_lo", "d_hi"), ("tau_lo", "tau_hi")):
        if cfg[hi] <= cfg[lo]:
            raise ConfigError(hi, f"must exceed {lo}")
    p = SystemParams(lam=cfg["lam"], gamma=cfg["gamma"])
    ref = reference_solution(p)
    res = certify(p, ref, d_range=(cfg["d_lo"], cfg["d_hi"]),
                  tau_range=(cfg["tau_lo"], cfg["tau_hi"]),
                  grid=cfg["grid"], q=cfg["q"])
    doc = {"found": not isinstance(res, NoCertificate),
           **dataclasses.asdict(res)}
    if doc["found"] and cfg["spot_checks"] > 0:
        violations = spot_check(res, p, ref, n=cfg["spot_checks"],
                                seed=cfg["spot_seed"])
        doc["spot_checks"] = {"n": cfg["spot_checks"],
                              "seed": cfg["spot_seed"],
                              "violations": violations}
    _write_json(out / "certificate.json", doc)


def _cmd_thresholds(cfg: dict, out: Path):
    if (cfg["chain_B"] is None) != (cfg["chain_q"] is None):
        missing = "chain_B" if cfg["chain_B"] is None else "chain_q"
        raise ConfigError(missing, "chain_B and chain_q go together")
    rep = thresholds(N=cfg["N"], kappa=cfg["kappa"], h=cfg["h"], n=cfg["n"],
                     A=cfg["A"], a=cfg["a"], C=cfg["C"],
                     eps1=cfg["eps1"], eps2=cfg["eps2"])
    doc = dataclasses.asdict(rep)
    if cfg["beta"] is not None:
        doc["beta"] = cfg["beta"]
        doc["beta_horizon_exponent"] = thresholds_beta(cfg["beta"],
                                                       cfg["kappa"])
    if cfg["chain_B"] is not None:
        doc["chain_a"] = [chain_a(k, cfg["n"], cfg["h"], cfg["chain_B"],
                                  cfg["C"], cfg["chain_q"])
                          for k in range(1, cfg["chain_depth"] + 1)]
    _write_json(out / "thresholds.json", doc)


def _cmd_pendulum(cfg: dict, out: Path):
    p = SystemParams(lam=cfg["lam"], gamma=cfg["gamma"])
    pp = inverse_map(p, cfg["eps"])
    tau_end = cfg["tau_end"]
    window = cfg["window"]
    if window is not None and not window[0] < min(window[1], tau_end):
        raise ConfigError("window", f"must ascend and start below tau_end "
                                    f"{tau_end}, got {list(window)}")
    t_end = 2.0 * tau_end / cfg["eps"]  # the pendulum's fast time
    # sample_count(t_end) <= MAX_SAMPLES, read before its int(), so a grid
    # whose count overflows (or is inf or nan) is refused as well
    if not t_end * SAMPLES_PER_UNIT < MAX_SAMPLES + 1:
        raise ConfigError("tau_end", f"the pendulum's grid over fast time "
                                     f"2 tau_end / eps = {t_end:.6g} holds "
                                     f"more than {MAX_SAMPLES} samples")
    t_eval = np.linspace(0.0, tau_end, cfg["samples"])
    avg = integrate_ode(scalar_field(p),
                        [cfg["r0"], cfg["psi0"]], 0.0, tau_end,
                        tol=cfg["tol"], t_eval=t_eval)
    u0, v0 = seed_from_averaged(cfg["r0"], cfg["psi0"], cfg["eps"])
    traj = integrate_pendulum(pp, u0, v0, t_end, tol=cfg["tol"])
    _traj_csv(out / "pendulum.csv", "autores.pendulum", ("t", "u", "v"), traj)
    m = envelope_compare(traj, avg, pp,
                         transient_fraction=cfg["transient_fraction"],
                         window=window)
    _write_csv(out / "comparison.csv", "autores.envelope",
               ("tau", "envelope", "predicted", "relerr"),
               (m["tau"], m["envelope"], m["predicted"], m["rel_err"]))
    _write_json(out / "metrics.json", {
        "alpha": pp.alpha, "theta": pp.theta, "eps": pp.eps,
        "max_rel_err": m["max_rel_err"], "mean_rel_err": m["mean_rel_err"],
        "n_extrema": m["n_extrema"], "window": list(m["window"]),
    })


def _cmd_figures(cfg: dict, out: Path):
    p = SystemParams(lam=1.0, gamma=0.1)
    if cfg["which"] == "fig1":
        # documented spread of deterministic initial points, solved as
        # one stacked system whose field rewrites one buffer per call
        starts = [(r0, psi0) for r0 in np.arange(0.25, 2.01, 0.25)
                  for psi0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
        drift = np.empty((2, len(starts)))
        # row views made once: unpacking an array makes new ones per call
        rows, scratch = tuple(drift), tuple(np.empty((3, len(starts))))

        def field(t, y):
            rhs_primary_into(y, t, p, rows, scratch)
            return drift
        t_eval = np.linspace(0.0, cfg["horizon"], 2400)
        trajs = integrate_ode_batch(field, starts, 0.0, cfg["horizon"],
                                    t_eval=t_eval)
        # every table shares the time column, formatted once
        tau = np.array([_FLOAT_CELL % v for v in t_eval.tolist()])
        index = []
        for k, ((r0, psi0), traj) in enumerate(zip(starts, trajs)):
            name = f"fig1_r{k // 4}_p{k % 4}.csv"
            _write_csv(out / name, "autores.trajectory", ("tau", "r", "psi"),
                       (tau, *traj.states.T))
            index.append({"file": name, "r0": float(r0), "psi0": float(psi0),
                          "verdict": classify_capture(traj, p)})
        _write_json(out / "index.json", {"figure": "fig1", "runs": index})
        return
    # fig2: one path per noise amplitude, stream k for the k-th, run as the
    # columns of one engine pass; the terms ignore the schedule's mu
    mus = (0.1, 0.35, 0.55)
    make_terms = partial(perturbed_terms, p, NoiseSchedule(
        mu=mus[0], sigma1=constant_schedule(0.0),
        sigma2=constant_schedule(1.0)))
    streams = [NoiseStream(cfg["master_seed"], k) for k in range(len(mus))]
    trajs = integrate_sde(make_terms, [1.09, 2.15], 0.0, cfg["horizon"],
                          cfg["dt"], mus, streams,
                          record_every=cfg["record_every"])
    index = []
    for mu, traj in zip(mus, trajs):
        name = f"fig2_mu{mu:.2f}.csv"
        _traj_csv(out / name, "autores.trajectory", ("tau", "r", "psi"), traj)
        index.append({"file": name, "mu": mu,
                      "verdict": classify_capture(traj, p)})
    _write_json(out / "index.json", {"figure": "fig2", "runs": index})


_HANDLERS = {"series": _cmd_series, "simulate": _cmd_simulate,
             "ensemble": _cmd_ensemble, "exit-times": _cmd_exit_times,
             "certify": _cmd_certify, "thresholds": _cmd_thresholds,
             "pendulum": _cmd_pendulum, "figures": _cmd_figures}


# ---------------------------------------------------------------- driver

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"no such file: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")


def _resolve(sub: str, args) -> tuple:
    """Merge config file and flags into a validated config document."""
    raw = _load_json(args.config) if args.config else {}
    defaults = {}
    if isinstance(raw, dict) and "subcommand" in raw and "config" in raw:
        # a manifest from a previous run reproduces that run
        if raw["subcommand"] != sub:
            raise ConfigError("subcommand",
                              f"manifest is for '{raw['subcommand']}'")
        defaults = {k: raw[k] for k in ("threads", "out_dir") if k in raw}
        raw = raw["config"]
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    # a flag overrides the config's field, which overrides the manifest's
    flags = {"threads": args.threads, "out_dir": args.out,
             "which": getattr(args, "which", None)}
    raw = {**defaults, **raw,
           **{k: v for k, v in flags.items() if v is not None}}

    if args.seed is not None:
        seed_field = _SEED_FIELD.get(sub)
        if seed_field is None:
            raise ConfigError("seed", f"subcommand '{sub}' is deterministic")
        raw[seed_field] = args.seed

    threads = raw.pop("threads", 1)
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError("threads", f"expected a positive integer, got {threads!r}")

    out_dir = raw.pop("out_dir", None)
    if out_dir is None:
        raise ConfigError("out_dir", "required (config field or --out)")

    cfg = _validate(raw, _SCHEMAS[sub], sub)
    return cfg, Path(out_dir), int(threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autores",
        description="Capture-into-resonance laboratory: simulation, "
                    "certification and Monte Carlo experiments.")
    parser.add_argument("--version", action="version",
                        version=f"autores {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = subs.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", help="JSON config (a manifest.json works)")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int, help="seed override")
        sp.add_argument("--threads", type=int,
                        help="accepted and recorded in the manifest; has no "
                             "effect (ensembles run on one thread)")
        if name == "figures":
            sp.add_argument("--which", choices=("fig1", "fig2"))
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    sub = args.subcommand
    try:
        cfg, out, threads = _resolve(sub, args)
        out.mkdir(parents=True, exist_ok=True)
        _HANDLERS[sub](cfg, out)
        _write_manifest(out, sub, cfg, threads)
    except ConfigError as exc:
        print(f"autores {sub}: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, NotImplementedError,
            IntegrationError) as exc:
        print(f"autores {sub}: runtime error [{_origin(exc, sub)}]: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _origin(exc: BaseException, sub: str) -> str:
    """Innermost package module on the traceback, for error attribution."""
    origin = f"autores.cli:{sub}"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("autores"):
            origin = name
        tb = tb.tb_next
    return origin


if __name__ == "__main__":
    sys.exit(main())
