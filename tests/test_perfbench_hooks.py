"""The benchmark's trace hooks must name attributes the library still has,
and its workloads must call the library as the library's signatures allow.

perfbench's tracer replaces each (module, attribute) of `trace_points()`
with a timing wrapper and raises AttributeError on a missing name, so a
rename in the library would break `perfbench/run.py --trace 1` without
failing any library test; so would a function the workloads call that is
renamed, or whose parameters no longer take its call's arguments (a new
one without a default, one removed, a keyword renamed, or a config
document that binds to a parameter other than `doc`).
"""

import ast
import inspect
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# importing run.py fixes the BLAS thread count, so it runs in its own process
_CHECK = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import run
points = run.trace_points()
print(json.dumps({
    "count": len(points),
    "missing": [f"{m.__name__}.{a}" for m, a, *_ in points if not callable(getattr(m, a, None))],
}))
"""


def test_every_trace_point_names_a_callable():
    out = subprocess.run(
        [sys.executable, "-c", _CHECK], cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=120,
    )
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["count"] > 0
    assert doc["missing"] == []


def test_the_workloads_calls_fit_the_library_signatures():
    from lungfuse import phantom, pipeline

    modules = {"pipeline": pipeline, "phantom": phantom}
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue  # unpacked arguments bind only when the call runs
        name = f"{node.func.value.id}.{node.func.attr}"
        try:
            args = inspect.signature(getattr(modules[node.func.value.id], node.func.attr)).bind(
                *node.args, **{k.arg: k.value for k in node.keywords}).arguments
        except (AttributeError, TypeError) as exc:
            raise AssertionError(f"perfbench/workloads.py:{node.lineno}: {name}: {exc}") from None
        # a config document goes to the parameter doc and to no other, whatever its place
        for param, arg in args.items():
            if (param == "doc") != ast.unparse(arg).endswith("doc"):
                raise AssertionError(f"perfbench/workloads.py:{node.lineno}: {name}: "
                                     f"{param} gets {ast.unparse(arg)}")
        bound.add(name)
    assert bound >= {"pipeline.compute_fused_dir", "pipeline.evaluate_dataset",
                     "pipeline.run_pipeline", "pipeline.resolve_config", "phantom.generate"}
