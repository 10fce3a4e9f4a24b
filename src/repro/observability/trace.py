"""Hierarchical tracing: spans with deterministic ids, exported as JSONL.

A :class:`TraceCollector` records one tree of :class:`Span` records per
run — the one timing record the pipelines keep (stage profiles, stage
events and report sections are derived from it; see :mod:`.timers`).
Spans carry wall-clock start/end timestamps and free-form attributes;
a span opened inside another span on the same thread becomes its
child, and spans measured in worker processes are replayed through
:meth:`TraceCollector.emit` under the fan-out's explicit parent.

Span ids are *path strings* derived from the span's position in the
tree — ``match/predict/learner.whirl`` — with a ``#n`` suffix for
repeat occurrences of the same name under the same parent. Ids are
therefore a function of tree structure alone: a run at ``--workers 4``
produces exactly the same id set as ``--workers 1`` (only the recorded
timings differ), which is what lets tests and tooling diff traces
across configurations.

:data:`NULL_TRACE` is the shared no-op collector for callers that keep
no trace; matching and training swap in a private collector instead.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    """One timed operation in the trace tree."""

    name: str
    span_id: str
    parent_id: str | None
    start: float = 0.0          # epoch seconds
    elapsed: float = 0.0        # wall-clock duration in seconds
    attributes: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.elapsed

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "elapsed": self.elapsed,
            "attributes": dict(self.attributes),
        }


class _ActiveSpan:
    """Context manager recording one span into its collector."""

    __slots__ = ("_collector", "span", "_t0")

    def __init__(self, collector: "TraceCollector", span: Span) -> None:
        self._collector = collector
        self.span = span
        self._t0 = 0.0

    @property
    def span_id(self) -> str:
        return self.span.span_id

    def set_attribute(self, key: str, value) -> None:
        self.span.attributes[key] = value

    def __enter__(self) -> "_ActiveSpan":
        self.span.start = time.time()
        self._t0 = time.perf_counter()
        self._collector._push(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.elapsed = time.perf_counter() - self._t0
        if exc_type is not None:
            self.span.attributes.setdefault("error", exc_type.__name__)
        self._collector._pop(self.span)


class TraceCollector:
    """Thread-safe collector of one span tree.

    All threads record into the same collector; each thread keeps its
    own stack of open spans for implicit parenthood, and a span opened
    on a worker thread names its parent explicitly (``parent=...``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()
        # (parent_id, name) -> number of spans already created there;
        # drives the deterministic ``#n`` id suffix.
        self._occurrences: dict[tuple[str | None, str], int] = {}

    enabled = True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, parent: str | None = None,
             **attributes) -> _ActiveSpan:
        """Open a span (use as a context manager).

        ``parent`` overrides the implicit thread-local parent — pass the
        ``span_id`` captured before a ``ParallelExecutor`` fan-out so
        worker-side spans attach to the right node of the tree.
        """
        if parent is None:
            stack = getattr(self._local, "stack", None)
            parent = stack[-1] if stack else None
        return _ActiveSpan(
            self, Span(name, self._allocate_id(parent, name), parent,
                       attributes=attributes))

    def emit(self, name: str, parent: str | None = None,
             start: float = 0.0, elapsed: float = 0.0,
             attributes: dict | None = None) -> str:
        """Record one already-finished span and return its id.

        The process execution backend measures spans inside worker
        processes and replays them here (in submission order), so the
        id allocation runs through exactly the same occurrence counters
        as :meth:`span` — a process-backend trace is structurally
        byte-identical to the serial one. ``parent`` is never
        implicit: a replayed span belongs to the fan-out's parent, not
        to whatever the replaying thread happens to have open.
        """
        span = Span(name, self._allocate_id(parent, name), parent, start,
                    elapsed, dict(attributes or {}))
        with self._lock:
            self._spans.append(span)
        return span.span_id

    def _allocate_id(self, parent: str | None, name: str) -> str:
        """The deterministic id of the next ``name`` span under
        ``parent``: its path, ``#n``-suffixed from the second
        occurrence on."""
        if "/" in name or "#" in name:
            raise ValueError(
                f"span name {name!r} may not contain '/' or '#'")
        with self._lock:
            key = (parent, name)
            n = self._occurrences.get(key, 0)
            self._occurrences[key] = n + 1
        span_id = f"{name}#{n}" if n else name
        return f"{parent}/{span_id}" if parent else span_id

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span.span_id)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] == span.span_id:
            stack.pop()
        with self._lock:
            self._spans.append(span)

    # ------------------------------------------------------------------
    # reading / export
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Snapshot of all *finished* spans, sorted by id (so the order
        is deterministic regardless of thread scheduling)."""
        with self._lock:
            return sorted(self._spans, key=lambda s: s.span_id)

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def children_of(self, span_id: str) -> list[Span]:
        return [span for span in self.spans if span.parent_id == span_id]

    def to_jsonl(self) -> str:
        """One JSON object per line, one line per span."""
        return "\n".join(
            json.dumps(span.as_dict(), sort_keys=True)
            for span in self.spans)

    def write_jsonl(self, path: str | Path, plan=None) -> None:
        from .artifacts import atomic_write_text

        text = self.to_jsonl()
        atomic_write_text(path, text + "\n" if text else "",
                          plan=plan)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceCollector {len(self)} spans>"


def read_jsonl(path: str | Path) -> list[Span]:
    """Load spans written by :meth:`TraceCollector.write_jsonl`."""
    spans = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        spans.append(Span(data["name"], data["span_id"],
                          data["parent_id"], data["start"],
                          data["elapsed"], data.get("attributes", {})))
    return spans


class _NullSpan:
    """Reusable no-op context manager; ``span_id`` is always None."""

    __slots__ = ()
    span_id = None

    def set_attribute(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTraceCollector:
    """The disabled collector: spans opened on it are no-ops. Code that
    reads or exports a trace swaps in a live one first
    (:func:`~repro.observability.observer.with_trace`)."""

    enabled = False
    spans: list[Span] = []

    def span(self, name: str, parent: str | None = None,
             **attributes) -> _NullSpan:
        return _NULL_SPAN

    def __len__(self) -> int:
        return 0


#: The shared disabled collector (default wherever tracing is optional).
NULL_TRACE = NullTraceCollector()


def iter_tree(spans: list[Span], root: Span) -> Iterator[Span]:
    """Depth-first traversal of ``root``'s subtree within ``spans``."""
    by_parent: dict[str | None, list[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(by_parent.get(span.span_id, [])))
