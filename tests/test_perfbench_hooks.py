"""The benchmark's trace hooks must name attributes the library still has.

perfbench's tracer replaces each (module, attribute) of `trace_points()`
with a timing wrapper and raises AttributeError on a missing name, so a
rename in the library would break `perfbench/run.py --trace 1` without
failing any library test.
"""

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
