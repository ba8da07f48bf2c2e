"""Every exported name resolves, and so does every function the benchmark tracer wraps; the
benchmark judges continuation steps by the program's own swap gate."""

import ast
import importlib
import pkgutil
from pathlib import Path

import skyburst
from skyburst import zeros

SKYBENCH = Path(__file__).resolve().parents[1] / "skybench"


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


def _assigned(module: str, name: str):
    # the literal assigned to name in a benchmark module's source, read without importing it
    tree = ast.parse((SKYBENCH / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in skybench/{module}.py")


def test_every_traced_function_resolves():
    # a traced run imports each module and getattr()s the name
    wrapped = _assigned("tracer", "WRAPPED")
    assert wrapped
    missing = [(home, attr) for home, attr in wrapped.values()
               if not hasattr(importlib.import_module(f"skyburst.{home}"), attr)]
    assert missing == []


def test_benchmark_and_program_share_the_match_threshold():
    # paths_ok judges every zero_paths step against the workloads' own copy of the gate
    assert _assigned("workloads", "MATCH_THRESHOLD") == zeros.MATCH_THRESHOLD
