"""In-memory span recording around the library's public functions.

A traced pass replaces selected module attributes of the lungfuse
package with wrappers that open a span on entry and close it on exit.
The wrappers sit at the attribute the caller looks up (for example
`pipeline.register_rigid`, which `compute_fused_dir` resolves at call
time), so nothing under `src/` changes.  They are installed only for the
duration of a `Tracer.installed()` block and the originals are restored
afterwards, so untraced passes run the unmodified library.

A span's layer is the first component of its name (`fusion.register` is
in layer `fusion`).  Self time is a span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans; every span opened during `run(label)` carries that label."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = ""

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self._run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> Span:
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        span = self.spans[index]
        span.end = self.clock()
        return span

    @contextlib.contextmanager
    def span(self, name: str, run: str | None = None):
        if run is not None:
            self._run = run
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(index)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, points):
        """Replace each (module, attribute, span name[, on_result]) for the block."""
        saved = []
        try:
            for module, attr, name, *hook in points:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, *hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def descendants(self, root: int) -> list[int]:
        """Indices of every span below `root`, in recording order."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
                out.append(i)
        return out


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: Span, children) -> float:
    """Duration of `span` minus the part of it that its child spans cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - covered(clipped)


def self_times_by_layer(spans: list[Span], indices) -> dict:
    """Sum of self time per layer over the spans at `indices`.

    `indices` must be closed under taking children (a root and all its
    descendants), so every child of a listed span is listed too.
    """
    wanted = set(indices)
    children = {i: [] for i in wanted}
    for i in wanted:
        parent = spans[i].parent
        if parent in children:
            children[parent].append(spans[i])
    out: dict = {}
    for i in sorted(wanted):
        layer = spans[i].layer
        out[layer] = out.get(layer, 0.0) + self_time(spans[i], children[i])
    return out
