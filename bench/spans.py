"""In-memory spans around calls into vtlest, and their per-layer totals.

Spans are recorded by wrappers that the benchmark installs on the module and
class attributes vtlest's callers look the functions up by (for example
``vtlest.pipeline.gammatone_ep``, which is the name ``pipeline`` calls), so
nothing under ``src/`` changes.  Each span has a name, start and end times,
the index of the span that was open when it started, whether it raised, and
one optional work size (bytes or pairs) computed from its arguments or
result.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    failed: bool = False
    size: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while its wrappers are installed; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span called ``name``."""
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        with self.span(name):
            return func(*args, **kwargs)

    def wrap(self, owner, attr: str, name: str, size=None, when=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``size(args, kwargs, result)`` gives the span's work size; ``when``
        (called with the arguments) skips the span for calls that do no work
        worth timing, such as a resample to the rate the input already has.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return original(*args, **kwargs)
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if size is not None:
                span.size = size(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Children of one span never overlap (calls are single-threaded and
    nested), so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


@dataclass
class LayerStats:
    calls: int = 0
    failed: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    size: float = 0.0
    durations: list[float] = field(default_factory=list)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name totals: calls, failures, busy time, self time, work size."""
    out: dict[str, LayerStats] = {}
    for span, own in zip(spans, self_times(spans)):
        stats = out.setdefault(span.name, LayerStats())
        stats.calls += 1
        stats.failed += span.failed
        stats.busy_s += span.duration
        stats.self_s += own
        stats.size += span.size
        stats.durations.append(span.duration)
    return out
