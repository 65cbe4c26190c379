"""The benchmark tracer wraps freeqg functions and methods by name; every name
it lists must still resolve, or a traced run breaks when one is renamed.

The name tables are read from perfbench/spans.py as literals, without
importing the benchmark package.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _table(name):
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


FUNCTIONS = _table("FUNCTIONS")
METHODS = _table("METHODS")


def test_tables_are_nonempty():
    assert FUNCTIONS and METHODS


@pytest.mark.parametrize("module, attr, metric, hot", FUNCTIONS)
def test_traced_function_resolves(module, attr, metric, hot):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("module, cls, method, metric, hot", METHODS)
def test_traced_method_resolves(module, cls, method, metric, hot):
    owner = getattr(importlib.import_module(module), cls)
    # the tracer replaces the entry in the class namespace itself
    assert callable(owner.__dict__.get(method)), f"{module}.{cls}.{method}"
