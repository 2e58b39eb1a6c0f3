"""lungfuse benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fuse|evaluate|study --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src, in this process, with BLAS fixed to BLAS_THREADS threads.  The
last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1.  The line before it stamps the machine and the inputs.
With --trace 1 the spans are also written to .bench_out/.  See README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # set before numpy loads; no higher than nproc on any machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from spans import Tracer  # noqa: E402
from summary import (  # noqa: E402
    LAYERS,
    MODALITIES,
    STAGES,
    failed_frac,
    layer_metrics,
    median,
    median_index,
    run_self_time,
)
from workloads import WORKLOADS  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3  # set-up is repeated and its median reported
MIN_PASSES = 2  # fuse/evaluate: wall_s is the median of at least two passes
MIN_WARM = 10  # study: warm reruns after the cold run; each takes tens of ms

QUALITY = (
    "reg_err_px_p50", "reg_err_deg_p50", "reg_scale_err_p50", "f1_macro.multimodal", "f1_macro.fused",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, from its name."""
    names = [
        "fusion.register_ms_p50", "fusion.register_ms_max", "fusion.register_s",
        "fusion.register_calls", "fusion.resample_s", "fusion.fuse_wavelet_ms_p50",
        "images.gradient_s", "images.io_s", "wavelet.dwt2_s", "wavelet.idwt2_s",
        "wavelet.dwt2_calls", "tabular.boost_s", "tabular.boost_calls", "tabular.prep_s",
        "tabular.smote_s", "tabular.smote_rows_added", "classify.train_mlp_s",
        "classify.train_mlp_calls", "classify.predict_s", "classify.features_s",
        *[f"classify.kfold_s.{m}" for m in MODALITIES],
        "denoise.train_s", "denoise.apply_ms_p50", "denoise.final_loss", "phantom.generate_s",
        *[f"pipeline.stage_s.{s}" for s in STAGES],
        "pipeline.warm_s", "pipeline.self_s", "pipeline.cache_hits",
        *[f"self_s.{layer}" for layer in LAYERS], "self_s.uncovered",
        "trace.wall_s", "trace.overhead_frac",
        *QUALITY,
    ]
    special = {
        "denoise.final_loss": "mse", "trace.overhead_frac": "ratio", "reg_err_px_p50": "px",
        "reg_err_deg_p50": "deg", "reg_scale_err_p50": "scale",
        "f1_macro.multimodal": "f1", "f1_macro.fused": "f1",
    }

    def unit(name):
        if name in special:
            return special[name]
        if name.endswith(("_calls", "_rows_added", "cache_hits")):
            return "count"
        return "ms" if "_ms_" in name else "s"

    return {n: unit(n) for n in names}


def trace_points():
    """(module, attribute, span name[, on_result]) for every traced call site."""
    from lungfuse import classify, fusion, phantom, pipeline

    def final_loss(span, args, kwargs, result):
        span.attrs["final_loss"] = float(result[1][-1])

    def modality(span, args, kwargs, result):
        span.attrs["modality"] = {
            ("tabular",): "tabular-only", ("ct",): "ct-only",
            ("fused",): "fused", ("fused", "tabular"): "multimodal",
        }[tuple(result.inputs)]

    def rows_added(span, args, kwargs, result):
        span.attrs["rows_added"] = int(len(result[0]) - len(args[0]))

    return [
        (pipeline, "run_pipeline", "pipeline.run_pipeline"),
        (pipeline, "generate", "phantom.generate"),
        (phantom, "generate", "phantom.generate"),  # the benchmark's own set-up calls
        (pipeline, "sample_patient", "phantom.sample_patient"),
        (pipeline, "render_pet", "phantom.render_pet"),
        (pipeline, "load_manifest", "phantom.load_manifest"),
        (phantom, "write_pgm", "images.io"),
        (phantom, "write_table", "tabular.io"),
        (pipeline, "_train_denoiser_stage", "pipeline.stage.denoise-train"),
        (pipeline, "train_denoiser", "denoise.train", final_loss),
        (pipeline, "save_weights", "denoise.weights_io"),
        (pipeline, "load_weights", "denoise.weights_io"),
        (pipeline, "_denoise_stage", "pipeline.stage.denoise-apply"),
        (pipeline, "denoise", "denoise.apply"),
        (pipeline, "compute_fused_dir", "pipeline.stage.fuse"),
        (pipeline, "read_pgm", "images.io"),
        (pipeline, "write_pgm", "images.io"),
        (pipeline, "gradient_magnitude", "images.gradient"),
        (pipeline, "register_rigid", "fusion.register"),
        (pipeline, "resample_bilinear", "fusion.resample"),
        (pipeline, "fuse_wavelet", "fusion.fuse_wavelet"),
        (fusion, "dwt2", "wavelet.dwt2"),
        (fusion, "idwt2", "wavelet.idwt2"),
        (pipeline, "_evaluate_stage", "pipeline.stage.evaluate"),
        (pipeline, "evaluate_dataset", "pipeline.evaluate_dataset"),
        (pipeline, "build_mmdataset", "pipeline.build_mmdataset"),
        (pipeline, "read_table", "tabular.io"),
        (pipeline, "take_rows", "tabular.take_rows"),
        (pipeline, "extract_image_features", "classify.features"),
        (classify, "dwt2", "wavelet.dwt2"),
        (pipeline, "compare_modalities", "classify.compare_modalities"),
        (classify, "kfold_evaluate", "classify.kfold", modality),
        (classify, "take_rows", "tabular.take_rows"),
        (classify, "fit_preprocess", "tabular.fit_preprocess"),
        (classify, "apply_preprocess", "tabular.apply_preprocess"),
        (classify, "smote", "tabular.smote", rows_added),
        (classify, "boosted_importance", "tabular.boost"),
        (classify, "select_features", "tabular.select"),
        (classify, "train_mlp", "classify.train_mlp"),
        (classify, "train_logreg", "classify.train_logreg"),
        (classify, "predict", "classify.predict"),
    ]


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "lungfuse").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a checkout without git history has no commit to name
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def time_import() -> float:
    """Seconds for a fresh interpreter to load the library (what every command pays)."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import lungfuse.pipeline"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


class Bench:
    def __init__(self, args, workload, tracer):
        self.args = args
        self.wl = workload
        self.tracer = tracer
        self.work = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def fresh_dir(self, label: str) -> pathlib.Path:
        self.passes += 1
        d = self.work / f"{self.passes:03d}-{label}"
        d.mkdir()
        return d

    def traced(self, run: str, root: str, fn, *fn_args):
        """Run fn under the wrappers inside a root span; returns (result, root index)."""
        with self.tracer.installed(trace_points()):
            with self.tracer.span(root, run=run) as span:
                result = fn(*fn_args)
        return result, self.tracer.spans.index(span)

    def setup(self) -> tuple[float, int | None]:
        """Median set-up seconds over SETUP_REPS; the last repetition's inputs are kept."""
        times, setup_root = [], None
        for rep in range(SETUP_REPS):
            d = self.fresh_dir("setup")
            t_import = time_import()
            t0 = time.perf_counter()
            if self.args.trace and rep == SETUP_REPS - 1:
                _, setup_root = self.traced("setup", "bench.setup", self.wl.setup, d)
            else:
                self.wl.setup(d)
            times.append(t_import + time.perf_counter() - t0)
        return median(times), setup_root

    def one_pass(self, traced: bool, root: str = "bench.pass"):
        """(seconds, root span index or None, produced) for one timed pass."""
        d = self.fresh_dir(root.split(".")[1])
        t0 = time.perf_counter()
        if traced:
            produced, index = self.traced(f"{root}-{self.passes}", root, self.wl.run_pass, d)
        else:
            produced, index = self.wl.run_pass(d), None
        seconds = time.perf_counter() - t0
        attempted, failed = self.wl.check(produced)
        self.attempted += attempted
        self.failed += failed
        return seconds, index, produced


def run_repeated(bench: Bench, seconds: float) -> list:
    """fuse/evaluate: passes until the next would overrun `seconds` (at least MIN_PASSES).

    With tracing, passes alternate untraced/traced and at least MIN_PASSES
    of each are made.  Returns [(seconds, root span index or None)].
    """
    passes = []
    start = time.perf_counter()
    while True:
        use_trace = bool(bench.args.trace) and len(passes) % 2 == 1
        s, index, _ = bench.one_pass(use_trace)
        passes.append((s, index))
        need = MIN_PASSES * (2 if bench.args.trace else 1)
        elapsed = time.perf_counter() - start
        if len(passes) >= need and elapsed + median([p for p, _ in passes]) > seconds:
            return passes


def run_study(bench: Bench, seconds: float):
    """study: one cold run, then warm reruns into the same directory.

    With tracing, the cold run and every other warm rerun are traced.
    Returns ((seconds, root index or None), [(seconds, root index or None, summary)]).
    """
    cold = bench.one_pass(bool(bench.args.trace))[:2]
    warm = []
    start = time.perf_counter()
    while len(warm) < MIN_WARM or time.perf_counter() - start < seconds - cold[0]:
        use_trace = bool(bench.args.trace) and len(warm) % 2 == 1
        warm.append(bench.one_pass(use_trace, "bench.warm"))
    return cold, warm


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fuse", "evaluate", "study"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lungfuse" / "__init__.py").is_file():
        print(f"error: no lungfuse sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lungfuse

    if pathlib.Path(lungfuse.__file__).resolve().parent != SRC / "lungfuse":
        print(f"error: imported lungfuse from {lungfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    expected_all = json.loads((HERE / "expected.json").read_text())
    wl = WORKLOADS[args.workload](args.seed, expected_all.get(args.workload, {}))
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    bench = Bench(args, wl, tracer)
    info = stamp(args)
    try:
        setup_s, setup_root = bench.setup()
        if args.workload == "study":
            cold, warm = run_study(bench, args.seconds)
            passes, timed = [cold], warm
        else:
            passes = timed = run_repeated(bench, args.seconds)
            warm = []
    except Exception:  # report the library's failure; no result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    print(json.dumps({"stamp": info, "quality": wl.quality, "observed": wl.first}))
    if args.trace:
        spans = tracer.spans
        traced = [(s, i) for s, i in passes if i is not None]
        _, root = traced[median_index([s for s, _ in traced])]
        setup_ix = [] if setup_root is None else tracer.descendants(setup_root)
        metrics = layer_metrics(spans, root, tracer.descendants(root), setup_ix)
        # study has one cold run, so its overhead is measured on the warm reruns
        on = [p[0] for p in timed if p[1] is not None]
        off = [p[0] for p in timed if p[1] is None]
        metrics["trace.overhead_frac"] = median(on) / median(off)
        runs = [
            (i, tracer.descendants(i)) for _, w, _ in warm if w is not None
            for i in tracer.descendants(w) if spans[i].name == "pipeline.run_pipeline"
        ]
        metrics["pipeline.self_s"] = median([run_self_time(spans, i, ix) for i, ix in runs]) if runs else 0.0
        metrics["pipeline.cache_hits"] = min((s["cache_hits"] for _, _, s in warm), default=0)
        metrics["pipeline.warm_s"] = median(off) if warm else 0.0
        # quality a workload does not produce (F1 on fuse) reads 0, like an idle layer
        metrics.update({k: 0.0 for k in QUALITY}, **wl.quality)
        units = per_layer_units()
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        layer_sum = sum(v for k, v in metrics.items() if k.startswith("self_s."))
        if abs(layer_sum - metrics["trace.wall_s"]) > 1e-6:
            raise RuntimeError(f"self times sum to {layer_sum}, pass took {metrics['trace.wall_s']}")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"stamp": info, "spans": [s.to_dict() for s in spans]}))
        print(f"spans written to {trace_path}", file=sys.stderr)
    else:
        units = END_TO_END_UNITS
        metrics = {
            "setup_s": setup_s,
            "wall_s": median([p[0] for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed_frac(bench.attempted, bench.failed),
        }
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
