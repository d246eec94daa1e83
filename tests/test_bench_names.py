"""The benchmark's span wrappers name attributes that still exist.

``bench/layers.py`` wraps functions on the module or class a caller looks
them up by (``vtlest.pipeline.gammatone_ep``, ...).  An import cleanup in the
package could remove such a name, and the benchmark would only notice when
run with tracing.  This test reads the ``WRAPS`` table without importing the
benchmark.
"""
import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    return f"{_dotted(node.value)}.{node.attr}"


def _wrapped_names() -> list[tuple[str, str]]:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPS" for t in node.targets):
            return [(_dotted(entry.elts[0]), entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{LAYERS} defines no WRAPS table")


def _resolve(dotted: str):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


WRAPPED = _wrapped_names()


def test_table_is_not_empty():
    assert len(WRAPPED) >= 10


@pytest.mark.parametrize("owner,attr", WRAPPED, ids=[f"{o}.{a}" for o, a in WRAPPED])
def test_wrapped_attribute_resolves(owner, attr):
    assert callable(getattr(_resolve(owner), attr))
