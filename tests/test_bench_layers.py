"""The benchmark's traced mode names irratio functions by module.function
in LAYER_CALLS and LAYER_SELF of perfbench/run.py.  A name that no longer
resolves makes `run.py --trace 1` fail with a KeyError, so every name is
checked here.  run.py is parsed, not imported: it imports the benchmark's
oracle and workloads."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def layer_names() -> list[str]:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("LAYER_CALLS", "LAYER_SELF")
                for t in node.targets):
            names += ast.literal_eval(node.value)
    return names


def test_both_lists_found():
    assert len(layer_names()) > 20


@pytest.mark.parametrize("name", sorted(set(layer_names())))
def test_names_a_public_function(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"irratio.{module_name}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn), f"{name} is not a function"
    assert not attr.startswith("_")
    assert fn.__module__ == module.__name__, f"{name} is defined elsewhere"
