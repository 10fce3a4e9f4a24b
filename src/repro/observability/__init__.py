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
  fixed-bucket histograms with p50/p90/p99 summaries, filled from each
  finished run's span tree (:func:`~.metrics.record_run`);
* :class:`QualityRecord` (``quality``) + run reports (``report``) —
  per-column triage data and the one-JSON-per-run artifact written by
  ``--report-out``;
* the run ledger (``ledger``) — one appended line per ``--ledger-out``
  run, the cross-run history behind ``repro ledger history|diff|check``.

A run's record is its trace, its report and its ledger line. The
other views are read off the trace: ``--profile``,
``MatchResult.timings``, the report's ``stages`` section and its
``metrics`` section (all but the worker pool's ``pool.*`` figures).

:class:`Observer` bundles the sinks into the single optional handle the
pipelines accept; its disabled default (:data:`NO_OP`) keeps no
registry and records spans only, into a private per-call collector
(:func:`with_trace`).
"""

from .artifacts import atomic_append_jsonl, atomic_write_text
from .metrics import (BYTE_BUCKETS, CATALOGUE, CPU_BUCKETS,
                      LATENCY_BUCKETS, SIZE_BUCKETS, Counter, Gauge,
                      Histogram, MetricsRegistry, exponential_buckets,
                      record_run)
from .observer import NO_OP, Observer
from .observer import resolve as resolve_observer
from .observer import with_trace
from .quality import QualityRecord, build_quality_records
from .report import (build_match_report, dataset_fingerprint,
                     load_report, load_schema, render_text,
                     validate_file, validate_report, write_report)
from .resources import ProcSample, read_proc_self
from .timers import StageProfile, format_profile_table
from .trace import (NULL_TRACE, NullTraceCollector, Span,
                    TraceCollector, iter_tree, read_jsonl)

__all__ = [
    "BYTE_BUCKETS", "CATALOGUE", "CPU_BUCKETS", "LATENCY_BUCKETS",
    "NULL_TRACE", "NO_OP", "SIZE_BUCKETS", "Counter", "Gauge",
    "Histogram", "MetricsRegistry", "NullTraceCollector", "Observer",
    "ProcSample", "QualityRecord", "Span",
    "StageProfile", "TraceCollector",
    "atomic_append_jsonl", "atomic_write_text", "build_match_report",
    "build_quality_records", "dataset_fingerprint",
    "exponential_buckets", "format_profile_table", "iter_tree",
    "load_report", "load_schema", "read_jsonl", "read_proc_self",
    "record_run", "render_text", "resolve_observer", "validate_file",
    "validate_report", "with_trace", "write_report",
]
