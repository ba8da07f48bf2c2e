"""Every exported name resolves, and so does every function the benchmark tracer wraps."""

import ast
import importlib
import pkgutil
from pathlib import Path

import skyburst

TRACER = Path(__file__).resolve().parents[1] / "skybench" / "tracer.py"


def test_every_all_name_resolves():
    checked, missing = 0, []
    for info in pkgutil.iter_modules(skyburst.__path__):
        if info.name == "__main__":  # running it runs the CLI
            continue
        module = importlib.import_module(f"skyburst.{info.name}")
        names = getattr(module, "__all__", ())
        checked += len(names)
        missing += [(info.name, attr) for attr in names if not hasattr(module, attr)]
    assert checked and missing == []


def _wrapped() -> dict:
    # WRAPPED read from the tracer's source: a traced run imports each module and getattr()s the name
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPPED table in the tracer")


def test_every_traced_function_resolves():
    wrapped = _wrapped()
    assert wrapped
    missing = [(home, attr) for home, attr in wrapped.values()
               if not hasattr(importlib.import_module(f"skyburst.{home}"), attr)]
    assert missing == []
