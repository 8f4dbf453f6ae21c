"""The functions the benchmark traces must exist under the names it uses.

`perfbench/run.py --trace 1` wraps every function that a per-layer metric
of `perfbench/layer_map.json` names, and times `harness.STEP_TIMER` on
every run. A rename or a move inside `osseg` would break it; this test
breaks first. It only reads the benchmark's files.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _step_timer():
    tree = ast.parse((PERFBENCH / "harness.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "STEP_TIMER" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/harness.py assigns no STEP_TIMER")


def _hooked_functions():
    """'module.name' of every function the layer map or the step timer names."""
    layer_map = json.loads((PERFBENCH / "layer_map.json").read_text(encoding="utf-8"))
    names = [metric.rpartition(".")[0] for metric in layer_map["per_layer"]
             if metric != "trace_overhead_ms"]
    return sorted(set(names + _step_timer()))


@pytest.mark.parametrize("function", _hooked_functions())
def test_hooked_function_resolves(function):
    module, _, path = function.partition(".")
    owner = importlib.import_module("osseg." + module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
