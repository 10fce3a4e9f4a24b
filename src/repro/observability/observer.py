"""The :class:`Observer`: one handle bundling all observability sinks.

Pipelines take a single optional ``observer`` argument instead of
separate tracer/metrics/quality parameters. A disabled observer (the
default, :data:`NO_OP`) keeps no metrics registry, so no run is
recorded into one. Spans are always recorded by matching and training
(:func:`with_trace`), since every stage timing and every registry
count is derived from them;
``benchmarks/test_observability_overhead.py`` pins that cost below 3%
of the fastest matching run.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .trace import NULL_TRACE, NullTraceCollector, TraceCollector


class Observer:
    """Tracing + metrics + quality collection for one run.

    ``Observer.full()`` builds one with everything on; the zero-argument
    constructor builds a fully disabled observer (equal in behaviour to
    :data:`NO_OP`).
    """

    __slots__ = ("trace", "metrics", "collect_quality")

    def __init__(self,
                 trace: TraceCollector | NullTraceCollector | None = None,
                 metrics: MetricsRegistry | None = None,
                 collect_quality: bool = False) -> None:
        self.trace = trace if trace is not None else NULL_TRACE
        self.metrics = metrics
        self.collect_quality = collect_quality

    @classmethod
    def full(cls) -> "Observer":
        """An observer with tracing, metrics and quality all enabled."""
        return cls(TraceCollector(), MetricsRegistry(),
                   collect_quality=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            "trace" if self.trace.enabled else "",
            "metrics" if self.metrics is not None else "",
            "quality" if self.collect_quality else "",
        ]
        on = ",".join(part for part in parts if part) or "disabled"
        return f"<Observer {on}>"


#: The shared disabled observer — the default everywhere an observer is
#: optional, so un-instrumented call sites keep their exact behaviour.
NO_OP = Observer()


def resolve(observer: Observer | None) -> Observer:
    """``observer`` or the disabled default."""
    return observer if observer is not None else NO_OP


def with_trace(observer: Observer | None) -> Observer:
    """``observer`` (or the disabled default) with a live trace: the
    caller's collector when it keeps one, else a private collector for
    this call, sharing every other sink."""
    obs = resolve(observer)
    if obs.trace.enabled:
        return obs
    return Observer(TraceCollector(), obs.metrics, obs.collect_quality)
