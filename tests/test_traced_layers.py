"""The benchmark's tracer (perfbench/tracing.py) wraps backflow functions by
name; a renamed or deleted one breaks `perfbench/run.py --trace 1`. The file
is parsed as text, never imported or run, so nothing under perfbench/ changes."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, function) of every entry in tracing.LAYERS."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1])) for e in node.value.elts]
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


def test_every_traced_function_resolves():
    names = traced_names()
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(f"backflow.{module}"), function, None))
    ]
    assert names and missing == []
