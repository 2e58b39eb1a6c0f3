"""The benchmark's own arithmetic on hand-built spans and counts.

    python3 -m pytest perfbench/tests -q
"""

import pathlib
import sys
import types

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, covered, self_time, self_times_by_layer  # noqa: E402
from summary import (  # noqa: E402
    failed_frac,
    layer_metrics,
    median,
    median_index,
    percentile,
    run_self_time,
)


def span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, "run-1", attrs)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(1, 3), (2, 4), (6, 7)]) == pytest.approx(4.0)
    assert covered([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    parent = span("fusion.register", 0.0, 10.0)
    kids = [span("a.x", 1, 3), span("a.y", 2, 4), span("a.z", 8, 12), span("a.w", 11, 13)]
    # covered inside [0, 10]: [1, 4] and [8, 10] -> 5
    assert self_time(parent, kids) == pytest.approx(5.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_layer_self_times_sum_to_root_duration():
    spans = [
        span("bench.pass", 0.0, 10.0),
        span("fusion.register", 1.0, 6.0, parent=0),
        span("wavelet.dwt2", 2.0, 3.0, parent=1),
        span("images.io", 7.0, 8.0, parent=0),
    ]
    by_layer = self_times_by_layer(spans, [0, 1, 2, 3])
    assert by_layer == pytest.approx({"bench": 4.0, "fusion": 4.0, "wavelet": 1.0, "images": 1.0})
    assert sum(by_layer.values()) == pytest.approx(spans[0].duration)


def test_percentile_linear_interpolation():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == pytest.approx(2.5)
    assert percentile(xs, 25) == pytest.approx(1.75)
    assert median([7.0]) == 7.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(xs, 101)


def test_median_index_picks_lower_median():
    assert median_index([3.0, 1.0, 2.0]) == 2
    assert median_index([4.0, 1.0, 3.0, 2.0]) == 3


def test_failed_frac():
    assert failed_frac(10, 0) == 0.0
    assert failed_frac(4, 1) == 0.25
    assert failed_frac(5, 5) == 1.0
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 4)


def test_tracer_nests_spans_and_restores_wrapped_attributes():
    # begin/end stamps: pass 0, outer 1, inner 2, inner end 4, outer end 7, pass end 10
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 7.0, 10.0]))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    points = [(mod, "outer", "fusion.outer"), (mod, "inner", "wavelet.inner")]
    with tracer.installed(points):
        with tracer.span("bench.pass", run="pass-1"):
            assert mod.outer(1) == 4
    assert mod.inner is original
    names = [(s.name, s.parent, s.start, s.end, s.run) for s in tracer.spans]
    assert names == [
        ("bench.pass", None, 0.0, 10.0, "pass-1"),
        ("fusion.outer", 0, 1.0, 7.0, "pass-1"),
        ("wavelet.inner", 1, 2.0, 4.0, "pass-1"),
    ]
    assert tracer.descendants(0) == [1, 2]
    assert self_times_by_layer(tracer.spans, [0, 1, 2]) == pytest.approx(
        {"bench": 4.0, "fusion": 4.0, "wavelet": 2.0}
    )


def test_layer_metrics_from_hand_built_pass():
    spans = [
        span("bench.pass", 0.0, 20.0),
        span("pipeline.run_pipeline", 0.5, 19.5, parent=0),
        span("phantom.generate", 1.0, 2.0, parent=1),
        span("pipeline.stage.fuse", 2.0, 12.0, parent=1),
        span("fusion.register", 2.5, 5.5, parent=3),
        span("fusion.register", 6.0, 11.0, parent=3),
        span("pipeline.stage.evaluate", 12.0, 19.0, parent=1),
        span("classify.kfold", 12.0, 15.0, parent=6, modality="fused"),
        span("tabular.smote", 12.5, 13.0, parent=7, rows_added=6),
        span("classify.kfold", 15.0, 19.0, parent=6, modality="multimodal"),
        span("bench.setup", 30.0, 33.0),
        span("phantom.generate", 30.5, 32.5, parent=10),
    ]
    m = layer_metrics(spans, 0, list(range(1, 10)), [11])
    assert m["fusion.register_calls"] == 2
    assert m["fusion.register_s"] == pytest.approx(8.0)
    assert m["fusion.register_ms_p50"] == pytest.approx(4000.0)
    assert m["fusion.register_ms_max"] == pytest.approx(5000.0)
    assert m["tabular.smote_rows_added"] == 6
    assert m["classify.kfold_s.fused"] == pytest.approx(3.0)
    assert m["classify.kfold_s.multimodal"] == pytest.approx(4.0)
    assert m["classify.kfold_s.ct-only"] == 0.0
    assert m["pipeline.stage_s.phantom"] == pytest.approx(1.0)
    assert m["pipeline.stage_s.fuse"] == pytest.approx(10.0)
    assert m["pipeline.stage_s.evaluate"] == pytest.approx(7.0)
    assert m["phantom.generate_s"] == pytest.approx(3.0)  # pass plus set-up
    assert m["self_s.uncovered"] == pytest.approx(1.0)
    assert m["self_s.pipeline"] == pytest.approx(1.0 + 2.0 + 0.0)
    layer_sum = sum(v for k, v in m.items() if k.startswith("self_s."))
    assert layer_sum == pytest.approx(m["trace.wall_s"]) == pytest.approx(20.0)
    assert run_self_time(spans, 1, list(range(1, 10))) == pytest.approx(1.0)
