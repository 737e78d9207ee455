import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from autores import cli, pendulum
from autores.cli import main
from autores.integrators import integrate_ode_batch
from autores.model import SystemParams, rhs_primary
from autores.asymptotics import expand, evaluate
from autores.lyapunov import thresholds_beta


def _write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SERIES_CFG = {"gamma": 0.1, "lam": 1.0, "order": 3, "branch": "stable"}


def _run(tmp_path, sub, cfg, extra=(), name="cfg.json", outname="out"):
    out = tmp_path / outname
    argv = [sub, "--config", _write_cfg(tmp_path, cfg, name),
            "--out", str(out), *extra]
    return main(argv), out


def test_unknown_field_exit2(tmp_path, capsys):
    code, _ = _run(tmp_path, "series", {**SERIES_CFG, "bogus": 1})
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_field_exit2(tmp_path, capsys):
    code, _ = _run(tmp_path, "series", {})
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_missing_out_dir_exit2(tmp_path, capsys):
    argv = ["series", "--config", _write_cfg(tmp_path, SERIES_CFG)]
    assert main(argv) == 2
    assert "out_dir" in capsys.readouterr().err


def test_seed_on_deterministic_exit2(tmp_path, capsys):
    code, _ = _run(tmp_path, "series", SERIES_CFG, extra=("--seed", "7"))
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_bad_json_exit2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["series", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert main(["series", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_config_file_exit2(tmp_path, capsys):
    assert main(["series", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_manifest_subcommand_mismatch_exit2(tmp_path, capsys):
    code, out = _run(tmp_path, "series", SERIES_CFG)
    assert code == 0
    assert main(["thresholds", "--config", str(out / "manifest.json"),
                 "--out", str(tmp_path / "o2")]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "autores" in capsys.readouterr().out


def test_series_outputs(tmp_path):
    cfg = {**SERIES_CFG, "tau_min": 10.0, "tau_max": 100.0, "tau_n": 40}
    code, out = _run(tmp_path, "series", cfg)
    assert code == 0

    coeff = json.loads((out / "coefficients.json").read_text())
    assert coeff["psi0"] == pytest.approx(3.0414252324282334, rel=1e-12)
    assert coeff["r"][0] == pytest.approx(0.99498743710662, rel=1e-12)
    assert len(coeff["r"]) == 4 and len(coeff["psi"]) == 3

    raw = (out / "series.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "# schema autores.series/1"
    assert lines[1] == "tau,r,psi"
    assert len(lines) == 2 + 40

    # 17 significant digits round-trip to the exact computed doubles
    p = SystemParams(lam=1.0, gamma=0.1)
    e = expand(p, "stable", 3)
    tau = np.geomspace(10.0, 100.0, 40)
    r, psi = evaluate(e, p, tau)
    for i, line in enumerate(lines[2:]):
        vals = [float(tok) for tok in line.split(",")]
        assert vals[0] == tau[i]
        assert vals[1] == r[i]
        assert vals[2] == psi[i]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "series"
    assert manifest["config"]["order"] == 3

    # the higher orders the schema accepts are solved too
    code, out = _run(tmp_path, "series", {**SERIES_CFG, "order": 32},
                     outname="out32")
    assert code == 0
    coeff = json.loads((out / "coefficients.json").read_text())
    assert len(coeff["r"]) == 33 and len(coeff["psi"]) == 32
    assert all(math.isfinite(c) for c in coeff["r"] + coeff["psi"])


def test_series_partial_grid_writes_nothing(tmp_path, capsys):
    # the tau_* fields go together; a config error leaves no artifact
    code, out = _run(tmp_path, "series", {**SERIES_CFG, "tau_min": 10.0})
    assert code == 2
    assert "tau_min" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_series_overflowing_grid_writes_nothing(tmp_path, capsys):
    # at tau 1e-200 the powers of 1/tau overflow; the grid is a config
    # error before any file is written, and no RuntimeWarning escapes
    cfg = {**SERIES_CFG, "tau_min": 1e-200, "tau_max": 10.0, "tau_n": 3}
    code, out = _run(tmp_path, "series", cfg)
    assert code == 2
    assert "field 'tau_min'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_series_overflowing_order_exit1(tmp_path, capsys):
    # at lam 1e-9 the coefficients pass the float range at order 35
    code, out = _run(tmp_path, "series",
                     {"gamma": 0.5, "lam": 1e-9, "order": 64})
    assert code == 1
    assert "at order 35 is not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_thresholds_outputs(tmp_path):
    cfg = {"kappa": 0.5, "h": 1.0, "n": 2, "A": 3.0, "a": 1.005038,
           "C": 1.0, "eps1": 0.1, "eps2": 0.1,
           "chain_B": 1.0, "chain_q": 0.5, "chain_depth": 3, "beta": 0.3}
    code, out = _run(tmp_path, "thresholds", cfg)
    assert code == 0
    doc = json.loads((out / "thresholds.json").read_text())
    assert doc["delta"] == pytest.approx(9.117233358760751e-3, rel=1e-12)
    assert doc["Delta"] == pytest.approx(1.25e-4, rel=1e-12)
    assert doc["T_mu_exponent"] == -1.0
    assert doc["chain_a"] == [32.0, 48.0, 64.0]
    assert doc["beta"] == 0.3
    assert doc["beta_horizon_exponent"] == thresholds_beta(0.3, 0.5)
    assert not doc["empirical"]


THRESHOLDS_CFG = {"kappa": 0.5, "h": 1.0, "n": 2, "A": 3.0, "a": 1.0,
                  "C": 1.0, "eps1": 0.1, "eps2": 0.1}
EXIT_CFG = {"gamma": 0.1, "lam": 1.0, "tau0": 20.0, "horizon": 5.0,
            "eps1": 0.3}
PEND_CFG = {"eps": 0.05, "r0": 1.0, "psi0": 2.0}


def _replays(tmp_path, sub, out, names):
    """A run from out's manifest alone writes the same bytes."""
    again = tmp_path / "replay"
    assert main([sub, "--config", str(out / "manifest.json"),
                 "--out", str(again)]) == 0
    for name in names:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


def _cell_rule(v) -> str:
    # the per-cell formatting rule of the CSV writer, one value at a time
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


@pytest.mark.parametrize("n_rows", [0, 1, 8, cli._CSV_CHUNK + 1])
def test_write_csv_matches_cell_rule(tmp_path, n_rows):
    # the bulk writer gives each cell the bytes of the per-cell rule:
    # integer and flag columns as integers, string columns as they are
    # (the empty captured cells of a short ensemble), floats at 17
    # digits, with the edge values cycled through the rows and across
    # chunk ends
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16,
               1.2345678901234568e+17, 0.1]
    floats = np.resize(np.array(special), n_rows)
    floats[9::9] = np.random.default_rng(3).normal(size=floats[9::9].size)
    # past 2**53, where a float format would round
    ints = np.arange(n_rows, dtype=np.int64) * -7919 + 2**62 + 1
    flags = np.arange(n_rows) % 3 == 0
    cols = (ints, floats, flags, np.full(n_rows, ""), floats[::-1].copy())
    path = tmp_path / "t.csv"
    cli._write_csv(path, "autores.test", ("i", "x", "flag", "s", "y"), cols)
    want = ["# schema autores.test/1", "i,x,flag,s,y"]
    want += [",".join(_cell_rule(c[j]) for c in cols) for j in range(n_rows)]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


SIM_CFG = {"gamma": 0.1, "lam": 1.0, "r0": 1.09, "psi0": 2.15, "tau1": 60.0}


def test_simulate_outputs(tmp_path):
    cfg = {**SIM_CFG, "samples": 500}
    code, out = _run(tmp_path, "simulate", cfg)
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[:2] == ["# schema autores.trajectory/1", "tau,r,psi"]
    assert len(lines) == 2 + 500
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 60.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["truncated"] is False
    assert summary["verdict"] == "captured"
    assert summary["end_state"] == last[1:]
    _replays(tmp_path, "simulate", out, ("trajectory.csv", "summary.json"))


def test_simulate_runs_at_tol_floor(tmp_path):
    # the floor itself, 100 eps, is a tol the run keeps
    code, out = _run(tmp_path, "simulate",
                     {**SIM_CFG, "tau1": 5.0, "samples": 11,
                      "tol": cli.RTOL_MIN})
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["tol"] == cli.RTOL_MIN


def test_pendulum_outputs(tmp_path):
    # tau_end 8 is fast time 320 at eps 0.05: about a hundred extrema
    cfg = {"eps": 0.05, "r0": 1.0, "psi0": 2.0, "tau_end": 8.0}
    code, out = _run(tmp_path, "pendulum", cfg)
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_extrema"] >= 20
    assert metrics["mean_rel_err"] <= 0.15
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[:2] == ["# schema autores.envelope/1",
                         "tau,envelope,predicted,relerr"]
    assert len(lines) == 2 + metrics["n_extrema"]
    _replays(tmp_path, "pendulum", out,
             ("pendulum.csv", "comparison.csv", "metrics.json"))


FIG2_FILES = ("fig2_mu0.10.csv", "fig2_mu0.35.csv", "fig2_mu0.55.csv",
              "index.json")


def test_seed_flag_overrides_master_seed(tmp_path):
    cfg = {"which": "fig2", "horizon": 10.0, "dt": 0.01, "master_seed": 11}
    code, out = _run(tmp_path, "figures", cfg, extra=("--seed", "5"))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 5
    for seed, same in ((5, True), (11, False)):
        code, direct = _run(tmp_path, "figures", {**cfg, "master_seed": seed},
                            name=f"seed{seed}.json", outname=f"seed{seed}")
        assert code == 0
        csv = FIG2_FILES[1]
        same_bytes = (direct / csv).read_bytes() == (out / csv).read_bytes()
        assert same_bytes is same
    _replays(tmp_path, "figures", out, FIG2_FILES)


def test_fig2_last_row_is_ensemble_path(tmp_path):
    # docs/cli.md: the k-th fig2 path is path k of an ensemble at its mu
    # with the same seed, so the last fig2 row holds that run's r_end and
    # psi_end for path k, as text
    fig = {"which": "fig2", "horizon": 10.0, "dt": 0.01, "master_seed": 11}
    code, out = _run(tmp_path, "figures", fig)
    assert code == 0
    for k, mu in enumerate((0.1, 0.35, 0.55)):
        ens = {"gamma": 0.1, "lam": 1.0, "mu": mu, "tau0": 0.0,
               "horizon": 10.0, "dt": 0.01, "n_paths": 100,
               "master_seed": 11, "x0": [1.09, 2.15]}
        code, ens_out = _run(tmp_path, "ensemble", ens, name=f"ens{k}.json",
                             outname=f"ens{k}")
        assert code == 0
        last = (out / f"fig2_mu{mu:.2f}.csv").read_text().splitlines()[-1]
        tau, r, psi = last.split(",")
        assert tau == "10"
        row = (ens_out / "ensemble.csv").read_text().splitlines()[2 + k]
        assert row.split(",")[0] == str(k)
        assert row.split(",")[-2:] == [r, psi]


def test_figures_which_flag_without_config(tmp_path, monkeypatch):
    # every figures field but which has a default, so --which alone makes
    # a config; the default horizon is cut here to keep the run short
    checker, _ = cli._SCHEMAS["figures"]["horizon"]
    monkeypatch.setitem(cli._SCHEMAS["figures"], "horizon", (checker, 5.0))
    out = tmp_path / "out"
    assert main(["figures", "--which", "fig2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"which": "fig2", "master_seed": 12345,
                                  "horizon": 5.0, "dt": 1e-3,
                                  "record_every": 10}
    assert json.loads((out / "index.json").read_text())["figure"] == "fig2"


def test_out_and_threads_precedence(tmp_path):
    # --out over the out_dir field over the manifest's out_dir, and
    # --threads over the threads field over the manifest's threads over 1
    def manifest(out):
        return json.loads((out / "manifest.json").read_text())
    code, first = _run(tmp_path, "series", SERIES_CFG)
    assert code == 0 and manifest(first)["threads"] == 1
    assert main(["series", "--config", str(first / "manifest.json"),
                 "--threads", "3"]) == 0
    doc = manifest(first)
    assert (doc["out_dir"], doc["threads"]) == (str(first), 3)
    doc["config"].update(out_dir=str(tmp_path / "field"), threads=4)
    path = _write_cfg(tmp_path, doc, "edited.json")
    assert main(["series", "--config", path]) == 0
    assert manifest(tmp_path / "field")["threads"] == 4
    assert main(["series", "--config", path, "--out", str(tmp_path / "flag"),
                 "--threads", "5"]) == 0
    assert manifest(tmp_path / "flag")["threads"] == 5


def test_manifest_config_not_object_exit2(tmp_path, capsys):
    code, out = _run(tmp_path, "series", {"subcommand": "series",
                                          "config": [1]})
    assert code == 2
    assert "field 'config'" in capsys.readouterr().err
    assert not out.exists()


ENS_CFG = {"gamma": 0.1, "lam": 1.0, "mu": 0.3, "tau0": 20.0,
           "horizon": 2.0, "x0": [1.0, 3.0]}
# every function a handler could do work with; a config error must come
# before any of them
_WORK = ("reference_solution", "integrate_ode", "integrate_ode_batch",
         "integrate_sde", "integrate_pendulum", "run_ensemble",
         "exit_time_scaling", "certify", "expand", "thresholds")


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the config was checked")
    for name in _WORK:
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("sub, cfg, field", [
    # _f: type, lower and upper bound
    ("series", {**SERIES_CFG, "lam": "1"}, "lam"),
    ("series", {**SERIES_CFG, "gamma": 0.0}, "gamma"),
    ("series", {**SERIES_CFG, "gamma": 1.0}, "gamma"),
    # _i: type, lower and upper bound
    ("ensemble", {**ENS_CFG, "n_paths": 1.5}, "n_paths"),
    ("ensemble", {**ENS_CFG, "n_paths": 99}, "n_paths"),
    ("series", {**SERIES_CFG, "order": 65}, "order"),
    # _b, and _s: type and choice
    ("ensemble", {**ENS_CFG, "reference": 1}, "reference"),
    ("series", {**SERIES_CFG, "branch": 3}, "branch"),
    ("series", {**SERIES_CFG, "branch": "sideways"}, "branch"),
    # _pair, and _num_list: shape and entries
    ("ensemble", {**ENS_CFG, "x0": [1]}, "x0"),
    ("exit-times", {**EXIT_CFG, "mus": "0.2"}, "mus"),
    ("exit-times", {**EXIT_CFG, "mus": [0.2, "0.3", 0.45]}, "mus"),
    # _schedule: unknown and missing subfield, subfield type, type
    ("ensemble", {**ENS_CFG, "sigma1": {"coeff": 1.0, "pow": 1.0}},
     "sigma1.pow"),
    ("ensemble", {**ENS_CFG, "sigma1": {"power": 1}}, "sigma1.coeff"),
    ("ensemble", {**ENS_CFG, "sigma2": {"coeff": "1"}}, "sigma2.coeff"),
    ("ensemble", {**ENS_CFG, "sigma1": "0.1"}, "sigma1"),
    # json reads NaN and +-Infinity; no range check can order them
    ("ensemble", {**ENS_CFG, "horizon": math.nan}, "horizon"),
    ("ensemble", {**ENS_CFG, "dt": math.inf}, "dt"),
    ("ensemble", {**ENS_CFG, "x0": [math.nan, 2.0]}, "x0"),
    ("exit-times", {**EXIT_CFG, "mus": [0.2, -math.inf, 0.45]}, "mus"),
    ("ensemble", {**ENS_CFG, "sigma2": {"coeff": math.nan}}, "sigma2.coeff"),
    # certify holds every grid^3 sample and every spot point at once
    ("certify", {"gamma": 0.1, "lam": 1.0, "grid": 129}, "grid"),
    ("certify", {"gamma": 0.1, "lam": 1.0, "spot_checks": 1_000_001},
     "spot_checks"),
    # json reads integers of any length; float() cannot convert this one
    ("ensemble", {**ENS_CFG, "eps1": 10 ** 400}, "eps1"),
    # a run is at the tol it was given, never below DOP853's floor
    ("simulate", {**SIM_CFG, "tol": 1e-15}, "tol"),
    ("pendulum", {**PEND_CFG, "tol": 1e-15}, "tol"),
])
def test_wrong_typed_value_exit2(tmp_path, capsys, no_work, sub, cfg, field):
    code, out = _run(tmp_path, sub, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"field '{field}'" in err
    assert not out.exists()


@pytest.mark.parametrize("sub, cfg, field", [
    ("certify", {"gamma": 0.1, "lam": 1.0, "d_lo": 0.5, "d_hi": 0.1},
     "d_hi"),
    ("certify", {"gamma": 0.1, "lam": 1.0, "tau_lo": 60.0, "tau_hi": 20.0},
     "tau_hi"),
    ("simulate", {"gamma": 0.1, "lam": 1.0, "r0": 1.0, "psi0": 2.0,
                  "tau0": 10.0, "tau1": 5.0}, "tau1"),
    ("simulate", {"gamma": 0.1, "lam": 1.0, "r0": 1.0, "psi0": 2.0,
                  "tau0": 10.0, "tau1": 10.0}, "tau1"),
    ("thresholds", {**THRESHOLDS_CFG, "chain_B": 1.0}, "chain_q"),
    ("thresholds", {**THRESHOLDS_CFG, "chain_q": 0.5}, "chain_B"),
    ("exit-times", {**EXIT_CFG, "mus": [0.2, 0.3, 0.2]}, "mus"),
    ("exit-times", {**EXIT_CFG, "mus": [0.2, 0.3, 1.5]}, "mus"),
    # tau_end is 32 by default
    ("pendulum", {**PEND_CFG, "window": [10.0, 5.0]}, "window"),
    ("pendulum", {**PEND_CFG, "window": [32.0, 40.0]}, "window"),
    ("ensemble", {**ENS_CFG, "x0": None}, "x0"),
    # fast time 2 tau_end / eps is 6.4e7 at eps 1e-6: the pendulum's grid
    # would be 1.28e9 samples, about 10 GB
    ("pendulum", {**PEND_CFG, "eps": 1e-6}, "tau_end"),
    # and past float's range at the smallest eps
    ("pendulum", {**PEND_CFG, "eps": 5e-324}, "tau_end"),
    # finite fast time 2e307, but 20 samples a unit overflow the count
    ("pendulum", {**PEND_CFG, "eps": 1e-7, "tau_end": 1e300}, "tau_end"),
])
def test_cross_field_rules_exit2(tmp_path, capsys, no_work, sub, cfg, field):
    # the documented rules between two fields are config errors, found
    # before the reference solution is built or anything is integrated,
    # and a config error leaves no artifact
    code, out = _run(tmp_path, sub, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"field '{field}'" in err
    assert list(out.iterdir()) == []


def test_pendulum_grid_cap_is_samples_cap(tmp_path, capsys, no_work):
    # fast time 500 000 is exactly MAX_SAMPLES samples at 20 per unit, a
    # grid the run takes on to the integrators; 80 samples more is a
    # config error
    assert pendulum.sample_count(500_000.0) == cli.MAX_SAMPLES
    cfg = {**PEND_CFG, "eps": 0.5, "tau_end": 125_000.0}
    with pytest.raises(AssertionError, match="work done"):
        _run(tmp_path, "pendulum", cfg)
    code, out = _run(tmp_path, "pendulum", {**cfg, "tau_end": 125_001.0},
                     outname="over")
    assert code == 2
    assert "field 'tau_end'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_ensemble_window_below_rounding_tolerance_runs(tmp_path, capsys):
    # a horizon under the step count's rounding tolerance is one step
    # ending at tau0 + horizon, not an empty step grid
    code, out = _run(tmp_path, "ensemble",
                     {**ENS_CFG, "horizon": 1e-13, "n_paths": 100})
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len((out / "ensemble.csv").read_text().splitlines()) == 2 + 100
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config"]["horizon"] == 1e-13


@pytest.mark.parametrize("cfg, extra", [
    ({}, ("--threads", "0")), ({"threads": True}, ())])
def test_threads_checked_exit2(tmp_path, capsys, cfg, extra):
    # --threads and the threads field have no effect, but they are still
    # outside input: anything but a positive integer is a config error
    ens = {"gamma": 0.1, "lam": 1.0, "mu": 0.35, "tau0": 0.0,
           "horizon": 60.0, "x0": [1.09, 2.15], **cfg}
    code, out = _run(tmp_path, "ensemble", ens, extra=extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "field 'threads'" in err
    assert not out.exists()


@pytest.mark.parametrize("taus, field", [
    ({"tau_lo": 2.0}, "tau_lo"),
    ({"tau_lo": 300.0, "tau_hi": 500.0}, "tau_hi"),
    ({"tau_lo": 300.0, "tau_hi": 400.0}, "tau_hi")])
def test_certify_tau_range_outside_reference_exit2(tmp_path, capsys, taus,
                                                   field):
    # the reference covers [5, 400]: before it a candidate cannot be
    # evaluated, and at or past its end it has no tube to test
    code, out = _run(tmp_path, "certify", {"gamma": 0.1, "lam": 1.0, **taus})
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"field '{field}'" in err
    assert not out.exists()


def _doc_sections():
    """docs/cli.md as {heading: text} over its '## ' sections."""
    path = Path(__file__).resolve().parents[1] / "docs" / "cli.md"
    text = path.read_text(encoding="utf-8")
    return {sec.split("\n", 1)[0].strip(): sec
            for sec in text.split("\n## ")[1:]}


def _table_fields(section: str) -> set:
    """The backticked names in the first column of a section's table."""
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_docs_tables_match_schemas():
    sections = _doc_sections()
    for sub in cli.SUBCOMMANDS:
        documented = _table_fields(sections[sub])
        if sub == "exit-times":
            # "those of ensemble minus mu, reference and out_of_class_ok"
            documented |= _table_fields(sections["ensemble"]) - {
                "mu", "reference", "out_of_class_ok"}
        assert documented == set(cli._SCHEMAS[sub]), sub


def test_docs_example_configs_validate():
    sections = _doc_sections()
    checked = 0
    for sub in cli.SUBCOMMANDS:
        for block in re.findall(r"```\n(.*?)```", sections[sub], re.S):
            if "{" in block:
                doc = json.loads(block[block.index("{"):])
                cli._validate(doc, cli._SCHEMAS[sub], sub)
                checked += 1
    assert checked >= 3


def test_ensemble_reproducible_across_threads(tmp_path):
    cfg = {"gamma": 0.1, "lam": 1.0, "mu": 0.3, "tau0": 20.0,
           "horizon": 5.0, "dt": 1e-3, "n_paths": 256, "master_seed": 42,
           "reference": True, "x0": None, "eps1": 0.1}
    code, out1 = _run(tmp_path, "ensemble", cfg, outname="run1")
    assert code == 0

    # reproduce from the manifest alone; --threads is accepted, no effect
    man = str(out1 / "manifest.json")
    out2 = tmp_path / "run2"
    assert main(["ensemble", "--config", man, "--out", str(out2),
                 "--threads", "2"]) == 0

    for name in ("ensemble.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    head = (out1 / "ensemble.csv").read_text().splitlines()[:2]
    assert head[0] == "# schema autores.ensemble/1"
    assert head[1].startswith("path,exit_time,censored,captured")


def test_ensemble_short_window_writes_no_capture_verdict(tmp_path):
    # simulate calls the run from (1.09, 2.15) to tau 10 indeterminate,
    # and so does ensemble: null fraction and interval, empty cells
    cfg = {"gamma": 0.1, "lam": 1.0, "mu": 0.35, "tau0": 0.0,
           "horizon": 10.0, "n_paths": 100, "x0": [1.09, 2.15]}
    code, out = _run(tmp_path, "ensemble", cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["capture_fraction"] is None
    assert summary["capture_interval"] is None
    lines = (out / "ensemble.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 100 and all(len(row) == len(header) for row in rows)
    assert {row[header.index("captured")] for row in rows} == {""}
    assert {row[header.index("censored")] for row in rows} == {"1"}
    code, sim = _run(tmp_path, "simulate",
                     {**SIM_CFG, "tau1": 10.0, "samples": 11},
                     name="sim.json", outname="sim")
    assert code == 0
    verdict = json.loads((sim / "summary.json").read_text())["verdict"]
    assert verdict == "indeterminate"


def test_ensemble_window_outside_reference_exit1(tmp_path, capsys):
    # the reference covers [5, 400]; a tracked run past its end is refused
    cfg = {"gamma": 0.1, "lam": 1.0, "mu": 0.3, "tau0": 395.0,
           "horizon": 10.0, "n_paths": 100, "x0": [1.0, 3.0],
           "reference": True}
    code, out = _run(tmp_path, "ensemble", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "[autores.ensemble]" in err and "window [395.0, 405.0]" in err
    assert not (out / "ensemble.csv").exists()


def test_exit_times_outputs(tmp_path):
    # horizon 3 leaves 0.36 of the paths at mu 0.2 censored, so every
    # median is an exit time (at horizon 2 it would be 0.54)
    cfg = {**EXIT_CFG, "horizon": 3.0, "mus": [0.2, 0.3, 0.45],
           "n_paths": 100, "n_boot": 20}
    code, out1 = _run(tmp_path, "exit-times", cfg, outname="run1")
    assert code == 0
    scaling = json.loads((out1 / "scaling.json").read_text())
    lines = (out1 / "exit_times.csv").read_text().splitlines()
    assert lines[:2] == ["# schema autores.exit_times/1",
                         "mu,median_exit,lo,hi"]
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert [row[0] for row in rows] == scaling["mus"] == [0.2, 0.3, 0.45]
    assert [row[1] for row in rows] == scaling["medians"]
    assert [row[2:] for row in rows] == scaling["median_intervals"]
    assert scaling["n_boot"] == 20 and scaling["slope"] < 0

    out2 = tmp_path / "run2"
    assert main(["exit-times", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    for name in ("exit_times.csv", "scaling.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_exit_times_refuses_censored_median(tmp_path, capsys):
    # criterion 09's config at horizon 3: every path at mu 0.05 is
    # censored, so its median is the horizon and no exit time
    cfg = {**EXIT_CFG, "horizon": 3.0, "mus": [0.05, 0.3, 0.45],
           "n_paths": 300, "master_seed": 7, "dt": 1e-3, "n_boot": 20}
    code, out = _run(tmp_path, "exit-times", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "mu=0.05" in err and "horizon" in err
    assert "Traceback" not in err
    assert not (out / "scaling.json").exists()
    assert not (out / "exit_times.csv").exists()


def test_certify_outputs(tmp_path):
    code, out = _run(tmp_path, "certify",
                     {"gamma": 0.1, "lam": 1.0, "spot_checks": 1000})
    assert code == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["found"] is True
    assert (doc["d0"], doc["tau0"], doc["tau_hi"]) == (0.3, 10.0, 400.0)
    assert doc["spot_checks"] == {"n": 1000, "seed": 777, "violations": 0}


def test_certify_not_found(tmp_path):
    # q = 0.3 asks V to decay faster than the flow lets it
    code, out = _run(tmp_path, "certify", {"gamma": 0.1, "lam": 1.0, "q": 0.3})
    assert code == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["found"] is False
    assert doc["reason"] == "decay inequality violated"
    assert set(doc) == {"found", "reason", "tau", "R", "Psi"}
    assert doc["tau"] == 10.0


def test_runtime_error_names_module(tmp_path, capsys):
    cfg = {"gamma": 0.1, "lam": 1.0, "mu": 0.3, "tau0": 20.0,
           "horizon": 2.0, "dt": 1e-3, "n_paths": 100, "master_seed": 1,
           "x0": [21.0, 3.0], "sigma2": 2.0}
    code, _ = _run(tmp_path, "ensemble", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "[autores.ensemble]" in err and "out_of_class" in err


def test_schedule_not_finite_exit1(tmp_path, capsys):
    cfg = {"gamma": 0.1, "lam": 1.0, "mu": 0.1, "tau0": 0.0, "horizon": 1.0,
           "dt": 1e-3, "n_paths": 100, "x0": [1.0, 2.0],
           "sigma2": {"coeff": 1.0, "power": -0.5}, "out_of_class_ok": True}
    code, out = _run(tmp_path, "ensemble", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "[autores.model]" in err and "sigma2 is not finite at tau=0" in err
    assert not (out / "ensemble.csv").exists()


def test_solver_failure_before_first_sample_exit1(tmp_path, capsys):
    # DOP853 gives up at once from r0 = 1e200, before reaching any t_eval
    # sample; that is a runtime error located at tau0, not a traceback
    cfg = {"gamma": 0.1, "lam": 1.0, "r0": 1e200, "psi0": 0.0, "tau1": 10.0}
    code, _ = _run(tmp_path, "simulate", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "runtime error [autores.integrators]: adaptive solver failed" in err
    assert err.rstrip().endswith("(at tau=0)")


def test_figures_fig2_quick(tmp_path):
    cfg = {"which": "fig2", "dt": 0.01, "record_every": 5,
           "master_seed": 11, "horizon": 60.0}
    code, out = _run(tmp_path, "figures", cfg)
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    assert index["figure"] == "fig2"
    assert [run["mu"] for run in index["runs"]] == [0.1, 0.35, 0.55]
    for run in index["runs"]:
        assert (out / run["file"]).exists()
        assert run["verdict"] in ("captured", "escaped", "indeterminate")


# fig1 verdicts in grid order (r0 = 0.25 .. 2.0 outer, psi0 at quarter
# turns inner), as the one-solve-per-start integration gives them
FIG1_VERDICTS = (["escaped", "captured", "escaped", "escaped"]
                 + ["captured", "captured", "captured", "escaped"] * 7)


def test_figures_fig1(tmp_path):
    code, out = _run(tmp_path, "figures", {"which": "fig1"})
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    assert index["figure"] == "fig1"
    runs = index["runs"]
    assert len(runs) == 32
    assert len(list(out.glob("fig1_*.csv"))) == 32
    for run in runs:
        lines = (out / run["file"]).read_text().splitlines()
        assert lines[:2] == ["# schema autores.trajectory/1", "tau,r,psi"]
        rows = lines[2:]
        assert len(rows) == 2400
        assert float(rows[-1].split(",")[0]) == 60.0
    verdicts = [run["verdict"] for run in runs]
    assert verdicts == FIG1_VERDICTS
    assert verdicts.count("captured") == 22


def test_fig1_tables_are_the_stacked_rhs_primary_solve(tmp_path):
    # each table is, byte for byte, _write_csv of the times and states of
    # the stacked solve of rhs_primary: the field's reused buffer and the
    # time column formatted once change no byte
    code, out = _run(tmp_path, "figures", {"which": "fig1", "horizon": 5.0})
    assert code == 0
    p = SystemParams(lam=1.0, gamma=0.1)
    starts = [(run["r0"], run["psi0"]) for run in
              json.loads((out / "index.json").read_text())["runs"]]
    trajs = integrate_ode_batch(lambda t, y: rhs_primary(y, t, p), starts,
                                0.0, 5.0, t_eval=np.linspace(0.0, 5.0, 2400))
    want = tmp_path / "want.csv"
    for k, traj in enumerate(trajs):
        cli._write_csv(want, "autores.trajectory", ("tau", "r", "psi"),
                       (traj.times, *traj.states.T))
        got = out / f"fig1_r{k // 4}_p{k % 4}.csv"
        assert got.read_bytes() == want.read_bytes(), got.name


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "autores.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "autores" in proc.stdout
