"""What perfbench/child.py takes from the program still exists.

The benchmark's tracer wraps the functions named in child.py's SPANNED
and COUNTED; a name that is gone is skipped, and its per-layer metric
then reads 0 without a warning.  child.py is read as source, not run.
"""
import ast
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
