"""Record the F1 values and fold hash the benchmark checks, per workload and seed.

    python3 perfbench/record_expected.py --workload evaluate --seeds 0-19

Runs one untimed pass of the workload for each seed and stores what it
produced in perfbench/expected.json.  Run it only when a change is meant
to alter results, and say so in the change: every later benchmark run on
a recorded seed fails its correctness check if the values differ.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile

import run  # sets the BLAS thread count before numpy loads

from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("evaluate", "study"))
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    run.OUT.mkdir(exist_ok=True)
    for seed in range(lo, hi + 1):
        work = pathlib.Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
        try:
            wl = WORKLOADS[args.workload](seed, {})
            wl.setup(work)
            attempted, failed = wl.check(wl.run_pass(work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if failed:
            print(f"seed {seed}: {failed} of {attempted} checks failed; not recorded")
            return 1
        expected.setdefault(args.workload, {})[str(seed)] = wl.first
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: {wl.first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
