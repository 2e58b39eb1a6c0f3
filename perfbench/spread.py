"""Run one workload on several seeds and report each metric's quartile spread.

    python3 perfbench/spread.py --workload fuse --seeds 1-10 [--seconds S] [--trace 1]

The spread is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4); BENCHMARK.json's bound for each
end-to-end metric is checked against it.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values: dict = {}
    for seed in range(lo, hi + 1):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})"
        print(f"{name:32s} median {med:.6g} spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
