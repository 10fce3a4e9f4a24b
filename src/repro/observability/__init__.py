"""Observability: tracing, metrics, quality telemetry, and run reports.

The matching phase is the hot path of the system; its cost structure
— and the *reasons* behind each proposed mapping — must stay visible as
the code grows. The primitives:

* :class:`TraceCollector` (``trace``) — hierarchical spans with
  deterministic ids, including the spans replayed from worker
  processes, exported as JSONL via ``--trace-out``. It is the one
  timing record: matching and training always keep one;
* :class:`StageProfile` (``timers``) — a read-only view derived from
  one ``match`` span subtree: per-stage timings and run counters,
  behind ``--profile``, ``MatchResult.timings`` and the report's
  ``stages`` section;
* :class:`MetricsRegistry` (``metrics``) — named counters, gauges and
  fixed-bucket histograms with p50/p90/p99 summaries and worker-side
  ``merge()``;
* :class:`QualityRecord` (``quality``) + run reports (``report``) —
  per-column triage data and the one-JSON-per-run artifact written by
  ``--report-out``.

:class:`Observer` bundles the sinks into the single optional handle the
pipelines accept; its disabled default (:data:`NO_OP`) records spans
only, into a private per-call collector (:func:`with_trace`).
"""

from .artifacts import atomic_append_jsonl, atomic_write_text
from .events import (EVENT_CATALOGUE, NULL_EVENTS, EventStream,
                     NullEventStream, read_events, validate_events)
from .expo import (TelemetryServer, parse_openmetrics,
                   registry_from_summary, render_openmetrics)
from .metrics import (BYTE_BUCKETS, CATALOGUE, CPU_BUCKETS,
                      LATENCY_BUCKETS, NULL_METRICS, SIZE_BUCKETS,
                      Counter, Gauge, Histogram, MetricsRegistry,
                      NullMetricsRegistry, exponential_buckets,
                      refresh_derived_gauges)
from .observer import NO_OP, Observer
from .observer import resolve as resolve_observer
from .observer import with_trace
from .quality import QualityRecord, build_quality_records
from .report import (build_match_report, dataset_fingerprint,
                     load_report, load_schema, render_text,
                     validate_file, validate_report, write_report)
from .resources import ProcSample, ResourceSampler, read_proc_self
from .timers import StageProfile, format_profile_table
from .trace import (NULL_TRACE, NullTraceCollector, Span,
                    TraceCollector, iter_tree, read_jsonl)

__all__ = [
    "BYTE_BUCKETS", "CATALOGUE", "CPU_BUCKETS", "EVENT_CATALOGUE",
    "LATENCY_BUCKETS", "NULL_EVENTS", "NULL_METRICS", "NULL_TRACE",
    "NO_OP", "SIZE_BUCKETS", "Counter", "EventStream", "Gauge",
    "Histogram", "MetricsRegistry", "NullEventStream",
    "NullMetricsRegistry", "NullTraceCollector", "Observer",
    "ProcSample", "QualityRecord", "ResourceSampler", "Span",
    "StageProfile", "TelemetryServer", "TraceCollector",
    "atomic_append_jsonl", "atomic_write_text", "build_match_report",
    "build_quality_records", "dataset_fingerprint",
    "exponential_buckets", "format_profile_table", "iter_tree",
    "load_report", "load_schema", "parse_openmetrics", "read_events",
    "read_jsonl", "read_proc_self", "refresh_derived_gauges",
    "registry_from_summary", "render_openmetrics", "render_text",
    "resolve_observer", "validate_events", "validate_file",
    "validate_report", "with_trace", "write_report",
]
