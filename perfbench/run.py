"""Benchmark of autores: end-to-end and per-layer numbers on three workloads.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload capture-mc --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run repeats passes of one workload for --seconds seconds.  Each pass is
a fresh `python3 perfbench/child.py` process running the program from
`src/` of the checkout, as a command-line user gets it, with at most two
worker threads and single-threaded BLAS.  The workloads and the reasons
for them are described in perfbench/workloads.py.

The host's other tenants slow a pass by up to about 2x for seconds to
minutes at a time.  To take that out, the child times a fixed
calibration slice, a mix of interpreter, formatting and numpy work,
every 50 ms on the main thread, interleaved with the program (child.py).
Each stretch of a timed window is divided by the speed factor at that
moment: the median CPU time of the nearby slices over CAL_REF_S, the
slice's CPU time on the reference host.  The result, less the slices'
own time, is the time the window would have taken at reference speed.
The slices use nothing of the program, so a change to the program moves
the calibrated times as it moves the raw ones.  The raw times are
reported on the info line.

With --trace 0 every pass is untraced and the run reports the end-to-end
metrics, each the median over the passes: wall_s (the pass's operations,
after import, calibrated), setup_s (import autores.cli, parser build,
argument parsing, calibrated; numpy is imported before, for the
calibration), path_steps_per_s (nominal path-steps over wall_s), cpu_s
(user plus system time of the child, less the slices', calibrated) and
peak_rss_mb (the child's peak resident memory).  With --trace 1
untraced and traced passes alternate; the run reports the medians of the
per-layer metrics derived from the traced passes' spans, which are raw
times, and trace.overhead_s, the median calibrated traced minus the
median calibrated untraced wall time.

Every operation's outputs are checked after its pass (workloads.py).  An
operation fails when it exits non-zero or its check fails; failures are
counted in `failed` against `attempted`.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries the seed, pass count, per-pass
samples, failure reasons, git sha, nproc and the Python, numpy and scipy
versions.  --smoke runs every workload and check once per mode at small
sizes and checks that every metric of BENCHMARK.json is reported with
its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0   # a run must end within 180 s
# CPU time of one calibration slice (child.calibration_slice) on the
# reference host, an unloaded 2-vCPU x86-64 VM with Python 3.11
CAL_REF_S = 1.2e-3
CAL_SMOOTH = 9          # slices, about 0.45 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "path_steps_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ensemble.run_ensemble_s": "s",
    "ensemble.path_steps_per_s": "1/s",
    "ensemble.exit_time_scaling_self_s": "s",
    "ensemble.supermartingale_check_s": "s",
    "ensemble.error_path_steps_per_s": "1/s",
    "ensemble.pre_exit_step_share": "share",
    "ensemble.stopped_fraction": "share",
    "integrators.philox_normals_per_s": "1/s",
    "integrators.reference_solution_s": "s",
    "integrators.reference_solution_calls": "count",
    "lyapunov.certify_s": "s",
    "lyapunov.spot_check_s": "s",
    "lyapunov.spot_points_per_s": "1/s",
    "integrators.integrate_ode_s": "s",
    "integrators.integrate_ode_calls": "count",
    "model.rhs_primary_calls": "count",
    "integrators.integrate_sde_s": "s",
    "integrators.sde_steps_per_s": "1/s",
    "pendulum.integrate_pendulum_s": "s",
    "pendulum.envelope_compare_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The program cannot be run from this checkout."""


# ------------------------------------------------------------- one pass

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # numpy's BLAS must not add threads beyond the program's own two
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def materialize(ops: list, pass_dir: Path) -> list:
    """Write each operation's config and give it its arguments."""
    out = []
    for op in ops:
        op = dict(op, out=str(pass_dir / op["name"]))
        if "sub" in op:
            cfg_path = pass_dir / f"{op['name']}.json"
            cfg_path.write_text(json.dumps(op["config"]), encoding="utf-8")
            op["argv"] = [op["sub"], "--config", str(cfg_path),
                          "--out", op["out"], *op["flags"]]
        else:
            Path(op["out"]).mkdir()
            op["certificate"] = str(pass_dir / op["certificate_from"]
                                    / "certificate.json")
        out.append(op)
    return out


def run_pass(ops: list, seed: int, pass_dir: Path, traced: bool,
             timeout: float, golden: dict, smoke: bool) -> dict:
    """Run one pass in a fresh interpreter and check its outputs."""
    pass_dir.mkdir(parents=True)
    ops = materialize(ops, pass_dir)
    spec_path = pass_dir / "spec.json"
    result_path = pass_dir / "result.json"
    spec_path.write_text(json.dumps({"ops": ops, "trace": traced,
                                     "seed": seed,
                                     "result": str(result_path)}),
                         encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
        err = proc.stderr.strip()[-2000:]
        crashed = proc.returncode != 0 or not result_path.is_file()
    except subprocess.TimeoutExpired:
        err, crashed = f"pass exceeded {timeout:.0f} s", True
    if crashed:
        return {"failures": {op["name"]: f"pass crashed: {err}" for op in ops},
                "crashed": True}
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    if not Path(res["autores_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"autores imported from {res['autores_file']}, "
                         f"not from {ROOT / 'src'}")
    failures = {}
    for op in ops:
        code = res["codes"].get(op["name"])
        if code != 0:
            failures[op["name"]] = f"exit {code}: {err}"
            continue
        reason = workloads.check_op(op, Path(op["out"]), seed, golden, smoke)
        if reason is not None:
            failures[op["name"]] = reason
    res["failures"] = failures
    res["crashed"] = False
    res["raw"] = {k: res[k] for k in ("wall_s", "setup_s", "cpu_s")}
    res.update(calibrate(res))
    del res["calibration"]
    res["path_steps"] = sum(op["path_steps"] for op in ops)
    res["artifact_bytes"] = sum(
        f.stat().st_size for op in ops if "sub" in op
        for f in Path(op["out"]).rglob("*") if f.is_file())
    if traced:
        res["layers"] = layer_metrics(res)
        del res["spans"]
    return res


def at_reference_speed(cal: list, lo: float, hi: float) -> float:
    """Length of the window [lo, hi] at reference speed, less the
    calibration slices (end, CPU time) in it.  The stretch of program
    time before each slice is divided by the speed factor there: the
    median CPU time of the CAL_SMOOTH slices around it over CAL_REF_S.
    A slice's CPU time, not its wall time, is what the program lost to
    it: while a slice waits for the interpreter lock, worker threads run."""
    inside = [c for c in cal if lo < c[0] <= hi]
    if not inside:
        raise SetupError("a pass window holds no calibration slice")
    cpu = [c[1] for c in inside]
    half = CAL_SMOOTH // 2
    total, prev = 0.0, lo
    for i, (end, slice_cpu) in enumerate(inside):
        near = cpu[max(0, i - half):i + half + 1]
        factor = statistics.median(near) / CAL_REF_S
        total += (end - prev - slice_cpu) / factor
        prev = end
    return total + (hi - prev) / factor


def calibrate(res: dict) -> dict:
    """The pass's times at reference speed.  The child's CPU time, less
    the slices', is divided by the pass's overall factor: its raw set-up
    and operation time, less the slices', over their calibrated time."""
    cal = res["calibration"]
    setup_s = at_reference_speed(cal, *res["setup_window"])
    wall_s = at_reference_speed(cal, *res["ops_window"])
    slices_cpu = sum(c[1] for c in cal)
    timed = [c[1] for c in cal
             if res["setup_window"][0] < c[0] <= res["ops_window"][1]]
    factor = ((res["setup_s"] + res["wall_s"] - sum(timed))
              / (setup_s + wall_s))
    return {"setup_s": setup_s, "wall_s": wall_s,
            "cpu_s": (res["cpu_s"] - slices_cpu) / factor,
            "speed_factor": factor}


# ------------------------------------------------------- per-layer table

def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(res: dict) -> dict:
    """Per-layer numbers of one traced pass, from its spans and counts."""
    spans = res["spans"]
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def self_time(name):
        return sum(s["end"] - s["start"] - _covered(children.get(s["id"], []))
                   for s in of(name))

    def work(name, key):
        return sum(s["work"].get(key, 0) for s in of(name))

    def ratio(a, b):
        return a / b if b else 0.0

    ens, smc = "ensemble.run_ensemble", "ensemble.supermartingale_check"
    sde, spot = "integrators.integrate_sde", "lyapunov.spot_check"
    return {
        "ensemble.run_ensemble_s": total(ens),
        "ensemble.path_steps_per_s": ratio(work(ens, "path_steps"), total(ens)),
        "ensemble.exit_time_scaling_self_s":
            self_time("ensemble.exit_time_scaling"),
        "ensemble.supermartingale_check_s": total(smc),
        "ensemble.error_path_steps_per_s":
            ratio(work(smc, "path_steps"), total(smc)),
        "ensemble.pre_exit_step_share":
            ratio(work(ens, "exit_time_sum"), work(ens, "exit_time_budget")),
        "ensemble.stopped_fraction":
            ratio(work(smc, "stopped"), work(smc, "n_paths")),
        "integrators.philox_normals_per_s": res["philox_normals_per_s"],
        "integrators.reference_solution_s":
            total("integrators.reference_solution"),
        "integrators.reference_solution_calls":
            len(of("integrators.reference_solution")),
        "lyapunov.certify_s": total("lyapunov.certify"),
        "lyapunov.spot_check_s": total(spot),
        "lyapunov.spot_points_per_s": ratio(work(spot, "points"), total(spot)),
        "integrators.integrate_ode_s": total("integrators.integrate_ode"),
        "integrators.integrate_ode_calls": len(of("integrators.integrate_ode")),
        "model.rhs_primary_calls": res["counts"].get("model.rhs_primary", 0),
        "integrators.integrate_sde_s": total(sde),
        "integrators.sde_steps_per_s": ratio(work(sde, "steps"), total(sde)),
        "pendulum.integrate_pendulum_s": total("pendulum.integrate_pendulum"),
        "pendulum.envelope_compare_s": total("pendulum.envelope_compare"),
        "cli.self_s": self_time("cli.main"),
        "cli.artifact_bytes": res["artifact_bytes"],
    }


# -------------------------------------------------------------- one run

def remove_work(work: Path):
    """Delete a run's work directory, and the parent if it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass   # another run still uses it, or it was never made


def git_sha() -> str:
    """Commit of the checkout, read without running git; 'unknown' when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool, work: Path) -> tuple:
    """Passes of one workload until `seconds` have passed; returns the
    result object and the info record."""
    golden = workloads.load_golden()
    ops = workloads.operations(workload, seed, smoke)
    t_begin = time.perf_counter()
    # compile and cache the program's modules once; users do not pay for
    # that on every run
    subprocess.run([sys.executable, "-c", "import autores.cli"], cwd=ROOT,
                   env=child_env(), check=True, capture_output=True,
                   timeout=HARD_LIMIT_S)
    t_measure = time.perf_counter()
    # a traced run needs one pass of each kind; an untraced one, three
    min_passes = 2 if trace else 1 if smoke else 3
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = HARD_LIMIT_S - (time.perf_counter() - t_begin)
        res = run_pass(ops, seed, work / f"pass{len(passes)}", traced,
                       remaining, golden, smoke)
        res["traced"] = traced
        passes.append(res)
        shutil.rmtree(work / f"pass{len(passes) - 1}", ignore_errors=True)
        if res["crashed"]:
            break
        if (time.perf_counter() - t_measure >= seconds
                and len(passes) >= min_passes):
            break

    attempted = len(ops) * len(passes)
    failures = [{"pass": i, "op": name, "reason": reason}
                for i, p in enumerate(passes)
                for name, reason in p["failures"].items()]
    plain = [p for p in passes if not p["crashed"] and not p["traced"]]
    traced_ok = [p for p in passes if not p["crashed"] and p["traced"]]
    if not plain or (trace and not traced_ok):
        raise SetupError(f"no complete pass; failures: {failures[:3]}")
    samples = {k: [p[k] for p in plain]
               for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    samples["path_steps_per_s"] = [p["path_steps"] / p["wall_s"] for p in plain]
    samples["speed_factor"] = [p["speed_factor"] for p in plain]
    for k in ("wall_s", "setup_s", "cpu_s"):
        samples[f"raw_{k}"] = [p["raw"][k] for p in plain]
    if trace:
        for k in PER_LAYER:
            if k != "trace.overhead_s":
                samples[k] = [p["layers"][k] for p in traced_ok]
        samples["traced_wall_s"] = [p["wall_s"] for p in traced_ok]
        values = {k: statistics.median(samples[k]) for k in PER_LAYER
                  if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(samples["traced_wall_s"])
                                      - statistics.median(samples["wall_s"]))
        units = PER_LAYER
    else:
        values = {k: statistics.median(samples[k]) for k in END_TO_END}
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    info = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "passes": len(passes), "untraced_passes": len(plain),
        "traced_passes": len(traced_ok),
        "failed_op_share": len(failures) / attempted,
        "failures": failures, "samples": samples,
        "op_s": [p["op_s"] for p in plain],
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "versions": plain[0]["versions"],
        "measure_s": time.perf_counter() - t_measure,
    }
    return result, info


def smoke() -> int:
    """Every workload in both modes at small sizes; every metric of
    BENCHMARK.json must be reported with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            work = WORK_DIR / f"smoke-{w['name']}-{int(trace)}-{os.getpid()}"
            try:
                result, info = run(w["name"], workloads.DEFAULT_SEED, 0.0,
                                   trace, True, work)
            finally:
                remove_work(work)
            got = result["metrics"]
            for m in bench[key]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{w['name']}: {m['name']} missing or "
                                    f"not in {m['unit']}")
            if not result["correct"]:
                problems.append(f"{w['name']}: {info['failures']}")
            print(f"smoke {w['name']} trace={int(trace)}: "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"{len(got)} metrics", flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, every workload, both modes")
    args = ap.parse_args()
    # on SIGTERM, unwind: the running pass is killed and waited for, and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "autores" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'autores'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        result, info = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), False, work)
    except (SetupError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_work(work)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
