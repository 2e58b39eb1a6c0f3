"""Arithmetic the benchmark reports: percentiles, failure share, per-layer metrics."""

from __future__ import annotations

import math

from spans import Span, self_time, self_times_by_layer

LAYERS = ("phantom", "denoise", "images", "fusion", "wavelet", "tabular", "classify", "pipeline")
STAGES = ("phantom", "denoise-train", "denoise-apply", "fuse", "evaluate")
MODALITIES = ("tabular-only", "ct-only", "fused", "multimodal")

# span name of the function each pipeline stage calls
STAGE_SPANS = {
    "phantom.generate": "phantom",
    "pipeline.stage.denoise-train": "denoise-train",
    "pipeline.stage.denoise-apply": "denoise-apply",
    "pipeline.stage.fuse": "fuse",
    "pipeline.stage.evaluate": "evaluate",
}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def median_index(durations) -> int:
    """Index of the lower median of `durations`."""
    order = sorted(range(len(durations)), key=lambda i: durations[i])
    return order[(len(order) - 1) // 2]


def layer_metrics(spans: list[Span], pass_root: int, pass_indices, setup_indices=()) -> dict:
    """Per-layer metrics of one traced pass (values in the units the README lists).

    `pass_indices` are the pass root's descendants; `setup_indices` the
    spans of the traced set-up, which only phantom generation reads.
    """
    inside = [spans[i] for i in pass_indices]

    def named(name):
        return [s for s in inside if s.name == name]

    def total(*names):
        return sum(s.duration for s in inside if s.name in names)

    def p50_ms(name):
        d = [s.duration for s in named(name)]
        return 1e3 * median(d) if d else 0.0

    register = [s.duration for s in named("fusion.register")]
    out = {
        "fusion.register_ms_p50": p50_ms("fusion.register"),
        "fusion.register_ms_max": 1e3 * max(register, default=0.0),
        "fusion.register_s": sum(register),
        "fusion.register_calls": len(register),
        "fusion.resample_s": total("fusion.resample"),
        "fusion.fuse_wavelet_ms_p50": p50_ms("fusion.fuse_wavelet"),
        "images.gradient_s": total("images.gradient"),
        "images.io_s": total("images.io"),
        "wavelet.dwt2_s": total("wavelet.dwt2"),
        "wavelet.idwt2_s": total("wavelet.idwt2"),
        "wavelet.dwt2_calls": len(named("wavelet.dwt2")),
        "tabular.boost_s": total("tabular.boost"),
        "tabular.boost_calls": len(named("tabular.boost")),
        "tabular.prep_s": total(
            "tabular.take_rows", "tabular.fit_preprocess", "tabular.apply_preprocess"
        ),
        "tabular.smote_s": total("tabular.smote"),
        "tabular.smote_rows_added": sum(s.attrs["rows_added"] for s in named("tabular.smote")),
        "classify.train_mlp_s": total("classify.train_mlp"),
        "classify.train_mlp_calls": len(named("classify.train_mlp")),
        "classify.predict_s": total("classify.predict"),
        "classify.features_s": total("classify.features"),
        "denoise.train_s": total("denoise.train"),
        "denoise.apply_ms_p50": p50_ms("denoise.apply"),
        "denoise.final_loss": sum(s.attrs["final_loss"] for s in named("denoise.train")),
        "phantom.generate_s": total("phantom.generate")
        + sum(spans[i].duration for i in setup_indices if spans[i].name == "phantom.generate"),
    }
    for modality in MODALITIES:
        out[f"classify.kfold_s.{modality}"] = sum(
            s.duration for s in named("classify.kfold") if s.attrs["modality"] == modality
        )
    runs = {i for i in pass_indices if spans[i].name == "pipeline.run_pipeline"}
    for stage in STAGES:
        out[f"pipeline.stage_s.{stage}"] = sum(
            s.duration for s in inside if s.parent in runs and STAGE_SPANS.get(s.name) == stage
        )
    by_layer = self_times_by_layer(spans, [pass_root, *pass_indices])
    for layer in LAYERS:
        out[f"self_s.{layer}"] = by_layer.get(layer, 0.0)
    out["self_s.uncovered"] = by_layer.get(spans[pass_root].layer, 0.0)
    out["trace.wall_s"] = spans[pass_root].duration
    return out


def run_self_time(spans: list[Span], run_index: int, indices) -> float:
    """A run_pipeline span's time not covered by the stage functions it called."""
    children = [spans[i] for i in indices if spans[i].parent == run_index]
    return self_time(spans[run_index], children)
