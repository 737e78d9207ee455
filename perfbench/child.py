"""One benchmark pass, run in a fresh interpreter by perfbench/run.py.

Usage: python3 perfbench/child.py SPEC.json

The spec names the pass's operations (CLI argument lists, or the direct
supermartingale_check call), whether to trace, and where to write the
result.  The child times the set-up (import autores.cli, build the
parser, parse each operation's arguments), runs the operations, and
writes one JSON result with per-operation exit codes, the operations'
wall time, and its own CPU time and peak resident memory.  With tracing
on, it wraps the public functions of the program in every autores
namespace that binds them, keeps the spans in memory and writes them out
at the end; the parent derives the per-layer metrics from them.

From its start until the operations end, the child also times a fixed
calibration slice every CAL_INTERVAL_S seconds, interleaved with the
program on the main thread.  The slices measure how fast the host runs
this kind of work at that moment; the parent uses them to take the
co-tenants' load out of the pass's times (see run.py).
"""
import importlib
import inspect
import itertools
import json
import signal
import sys
import threading
import time
import traceback

# numpy is imported here, before the set-up is timed, because the
# calibration slices use it from the child's start
import numpy

from workloads import step_count

# ----------------------------------------------------------- calibration

CAL_INTERVAL_S = 0.05


# inputs of calibration_slice, made once per child
_CAL_DOC = {"a": [1.5, 2.5, 3.5] * 20,
            "b": {"c": "x" * 50, "d": list(range(40))}}
_CAL_GRID = numpy.linspace(0.0, 1.0, 64)
_CAL_BIG = numpy.linspace(0.0, 1.0, 1 << 18)   # 2 MiB


def calibration_slice() -> float:
    """A fixed mix of the kinds of work the program does: JSON, number
    formatting, sorting, small numpy operations and a strided read of a
    2 MiB array.  It uses nothing of the program, so no change to the
    program changes its cost; a narrower mix follows the host's load
    less closely."""
    total = 0.0
    for _ in range(4):
        doc = json.loads(json.dumps(_CAL_DOC))
        rows = ["%.6g,%.6g,%d" % (v, v * 0.5, i)
                for i, v in enumerate(doc["a"])]
        total += sum(sorted(float(r.split(",")[1]) for r in rows))
        y = numpy.interp(_CAL_GRID * 0.9, _CAL_GRID, numpy.sin(_CAL_GRID))
        total += float(numpy.searchsorted(_CAL_GRID, y).sum())
        total += float(_CAL_BIG[::64].sum())
        for _ in range(12):
            y = numpy.maximum(y * 0.5, numpy.abs(numpy.cos(y)))
        total += float(y[0])
    return total


class Calibration:
    """Runs calibration_slice on SIGALRM, which Python handles on the main
    thread between bytecodes, and records (end, thread CPU time) of each
    slice.  Thread CPU time leaves out the time a slice waits for the
    interpreter lock while the program's worker threads hold it."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        c0 = time.thread_time()
        calibration_slice()
        self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# ---------------------------------------------------------------- tracer

# functions whose calls become spans, by module
SPANNED = {
    "cli": ("main",),
    "ensemble": ("run_ensemble", "exit_time_scaling", "supermartingale_check"),
    "integrators": ("reference_solution", "integrate_ode", "integrate_sde"),
    "lyapunov": ("certify", "spot_check"),
    "pendulum": ("integrate_pendulum", "envelope_compare"),
}
# functions called too often for a span each; only their calls are counted
COUNTED = {"model": ("rhs_primary",)}


def _work(name, bound, result):
    """Work counts of one call, read from its arguments and its result."""
    if name in ("ensemble.run_ensemble", "ensemble.supermartingale_check"):
        cfg = bound.arguments["cfg"]
        steps = cfg.n_paths * step_count(cfg.tau0, cfg.tau0 + cfg.horizon,
                                         cfg.dt)
        if name == "ensemble.supermartingale_check":
            return {"path_steps": steps, "n_paths": cfg.n_paths,
                    "stopped": result["stopped_fraction"] * cfg.n_paths}
        return {"path_steps": steps,
                "exit_time_sum": float(sum(result.exit_times)),
                "exit_time_budget": cfg.n_paths * cfg.horizon}
    if name == "integrators.integrate_sde":
        a = bound.arguments
        return {"steps": step_count(a["tau0"], a["tau1"], a["dt"])}
    if name == "lyapunov.spot_check":
        return {"points": bound.arguments["n"]}
    return {}


class Tracer:
    """Spans (name, start, end, parent) and call counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self.counts = {}
        self._local = threading.local()
        self._patched = []   # (module, attribute, original)

    def install(self):
        mods = {}
        for short in set(SPANNED) | set(COUNTED):
            try:
                mods[short] = importlib.import_module(f"autores.{short}")
            except ImportError:
                continue
        bindings = [m for n, m in sys.modules.items()
                    if (n == "autores" or n.startswith("autores.")) and m]
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for short, names in table.items():
                for fname in names:
                    orig = getattr(mods.get(short), fname, None)
                    if orig is None:   # gone from the program: metric reads 0
                        continue
                    wrapper = make(f"{short}.{fname}", orig)
                    for mod in bindings:
                        if mod.__dict__.get(fname) is orig:
                            setattr(mod, fname, wrapper)
                            self._patched.append((mod, fname, orig))

    def restore(self):
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    def _span(self, name, fn):
        tracer = self
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            record = {"id": next(tracer._ids), "name": name,
                      "parent": stack[-1]["id"] if stack else None}
            stack.append(record)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["start"], record["end"] = t0, time.perf_counter()
                stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            record["work"] = _work(name, bound, result)
            tracer.spans.append(record)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


# ------------------------------------------------------------ operations

def _supermartingale(op):
    """Direct call of ensemble.supermartingale_check on the certificate
    the certify operation wrote."""
    import dataclasses
    from autores import NoiseSchedule, SystemParams, constant_schedule
    from autores import ensemble, integrators, lyapunov
    cfg = op["config"]
    with open(op["certificate"], encoding="utf-8") as fh:
        doc = json.load(fh)
    fields = [f.name for f in dataclasses.fields(lyapunov.StabilityCertificate)]
    cert = lyapunov.StabilityCertificate(**{k: doc[k] for k in fields})
    p = SystemParams(lam=cfg["lam"], gamma=cfg["gamma"])
    ref = integrators.reference_solution(p)
    noise = NoiseSchedule(mu=cfg["mu"], sigma1=constant_schedule(0.0),
                          sigma2=constant_schedule(1.0), h=1.0)
    ens = ensemble.EnsembleConfig(
        params=p, noise=noise, tau0=cert.tau0, horizon=cfg["horizon"],
        dt=cfg["dt"], n_paths=cfg["n_paths"], master_seed=cfg["master_seed"],
        x0=tuple(cfg["x0"]), eps1=cfg["eps1"])
    rep = ensemble.supermartingale_check(ens, cert, N=1, ref=ref,
                                         threads=cfg["threads"])
    with open(op["out"] + "/supermartingale.json", "w",
              encoding="utf-8") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True)
    return 0


def _philox_normals_per_s(seed: int) -> float:
    """Philox draw rate at the ensemble kernel's per-path chunk shape."""
    from autores.integrators import NoiseStream
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        for j in range(128):
            NoiseStream(seed, j).generator().standard_normal((2048, 2))
        rates.append(128 * 2048 * 2 / (time.perf_counter() - t0))
    return sorted(rates)[1]


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    calibration = Calibration()
    calibration.start()
    t_start = time.perf_counter()
    import autores.cli
    parser = autores.cli.build_parser()
    for op in spec["ops"]:
        if "argv" in op:
            parser.parse_args(op["argv"])
    setup_s = time.perf_counter() - t_start

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    codes, op_s = {}, {}
    t0 = time.perf_counter()
    for op in spec["ops"]:
        t_op = time.perf_counter()
        try:
            if "argv" in op:
                codes[op["name"]] = autores.cli.main(op["argv"])
            else:
                codes[op["name"]] = _supermartingale(op)
        except Exception as exc:  # a failed operation must not end the pass
            traceback.print_exc()
            codes[op["name"]] = f"{type(exc).__name__}: {exc}"
        op_s[op["name"]] = time.perf_counter() - t_op
    t1 = time.perf_counter()
    calibration.stop()
    wall_s = t1 - t0
    if tracer:
        tracer.restore()

    import resource
    import scipy
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "codes": codes, "op_s": op_s, "setup_s": setup_s, "wall_s": wall_s,
        "setup_window": [t_start, t_start + setup_s], "ops_window": [t0, t1],
        "calibration": calibration.samples,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,   # Linux reports KiB
        "autores_file": autores.cli.__file__,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
        result["philox_normals_per_s"] = _philox_normals_per_s(spec["seed"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
