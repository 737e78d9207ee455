"""What perfbench/child.py takes from the program still exists.

The benchmark's tracer wraps the functions named in child.py's SPANNED
and COUNTED; a name that is gone is skipped, and its per-layer metric
then reads 0 without a warning.  child.py is read as source, not run.
"""
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _child():
    return ast.parse(CHILD.read_text(encoding="utf-8"))


def _table(name: str) -> dict:
    """The literal value of child.py's module-level assignment to name."""
    for node in _child().body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/child.py assigns no {name}")


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_traced_functions_exist(table):
    names = [(module, fn) for module, fns in _table(table).items()
             for fn in fns]
    assert names
    for module, fn in names:
        mod = importlib.import_module(f"autores.{module}")
        assert callable(getattr(mod, fn, None)), f"autores.{module}.{fn}"


def test_supermartingale_call_binds():
    # child.py calls ensemble.supermartingale_check directly, with N=1
    # and the workload's threads=2
    from autores import ensemble
    calls = [node for node in ast.walk(_child())
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "supermartingale_check"]
    assert len(calls) == 1
    call, = calls
    keywords = {kw.arg: kw.value for kw in call.keywords}
    assert ast.literal_eval(keywords["N"]) == 1
    sig = inspect.signature(ensemble.supermartingale_check)
    bound = sig.bind(*[None] * len(call.args),
                     **{**dict.fromkeys(keywords), "N": 1, "threads": 2})
    assert bound.arguments["N"] == 1 and bound.arguments["threads"] == 2


def _work_reads():
    """What child.py's _work reads of the calls it counts: {function:
    argument names read from bound.arguments}, and the attributes it
    reads from a result."""
    work, = [node for node in _child().body
             if isinstance(node, ast.FunctionDef) and node.name == "_work"]
    aliases = {target.id for node in ast.walk(work)
               if isinstance(node, ast.Assign)
               and ast.unparse(node.value) == "bound.arguments"
               for target in node.targets}
    args = {}
    for branch in work.body:
        if not isinstance(branch, ast.If):
            continue
        read = {node.slice.value for node in ast.walk(branch)
                if isinstance(node, ast.Subscript)
                and ast.unparse(node.value) in aliases | {"bound.arguments"}}
        for c in ast.walk(branch.test):
            if isinstance(c, ast.Constant):
                args[c.value] = read
    attrs = {node.attr for node in ast.walk(work)
             if isinstance(node, ast.Attribute)
             and ast.unparse(node.value) == "result"}
    return args, attrs


def test_work_reads_bind():
    # _work reads a call's work counts from its arguments by name and
    # from its result; a renamed argument or field would make the
    # per-layer rate read 0 without a failure
    args, attrs = _work_reads()
    assert args == {"ensemble.run_ensemble": {"cfg"},
                    "ensemble.supermartingale_check": {"cfg"},
                    "integrators.integrate_sde": {"tau0", "tau1", "dt"},
                    "lyapunov.spot_check": {"n"}}
    for qualname, names in args.items():
        module, fn = qualname.split(".")
        sig = inspect.signature(
            getattr(importlib.import_module(f"autores.{module}"), fn))
        assert names <= set(sig.parameters), qualname
    # run_ensemble's EnsembleStats is the one result read by attribute
    from autores.ensemble import EnsembleStats
    assert attrs == {"exit_times"}
    assert attrs <= {f.name for f in dataclasses.fields(EnsembleStats)}
