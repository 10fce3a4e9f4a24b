"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

The registry replaces the pipelines' ad-hoc counter dicts with named,
typed instruments:

* :class:`Counter` — monotonically increasing integer (events, items);
* :class:`Gauge` — a point-in-time float (a ratio, a size);
* :class:`Histogram` — fixed upper-bound buckets with a total sum and
  observed min/max, summarised as p50/p90/p99 via linear interpolation
  inside the bucket holding the target rank (clamped to the observed
  min/max, so a histogram fed one repeated value reports that value
  exactly at every percentile).

Instruments are get-or-created by name and every mutation is
lock-guarded. Worker processes ship resource snapshots, not
registries: the parent records every instrument itself.

The metric name catalogue used by the pipelines is declared here
(``M_*`` constants + :data:`CATALOGUE`) so reports, docs and dashboards
share one vocabulary.

The registry is a view of the span tree (:mod:`.trace`), not a second
record: the pipelines write no instrument while they run.
:func:`record_run` folds one finished ``match`` or ``train`` span
subtree into a registry, so its counts agree with the run's
:class:`~repro.observability.timers.StageProfile` by construction. Only
the worker pool's dispatch and resource telemetry (``pool.*``), which
no span carries, is written directly.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from .timers import StageProfile

# ---------------------------------------------------------------------------
# metric name catalogue
# ---------------------------------------------------------------------------

M_INSTANCES = "match.instances"
M_TAGS = "match.tags"
M_COLUMN_SIZE = "match.column_size"
M_PREDICT_LATENCY = "predict.instance_latency_seconds"
M_STRUCTURE_PASSES = "predict.structure_passes"
M_STRUCTURE_REPREDICTED = "predict.structure_repredicted"
M_CACHE_HITS = "featurize.cache_hits"
M_CACHE_MISSES = "featurize.cache_misses"
M_CACHE_HIT_RATIO = "featurize.cache_hit_ratio"
M_CONSTRAINT_NODES = "constraint.nodes_expanded"
M_CONSTRAINT_PRUNE_BOUND = "constraint.prune_bound"
M_CONSTRAINT_PRUNE_HARD = "constraint.prune_hard"
M_CONSTRAINT_PRUNE_SOFT = "constraint.prune_soft_bound"
M_CONSTRAINT_LEAF_REJECTS = "constraint.leaf_hard_rejects"
M_CV_TASKS = "train.cv_tasks"
M_TRAIN_INSTANCES = "train.instances"
M_LEARNERS_QUARANTINED = "resilience.learners_quarantined"
M_LISTINGS_RECOVERED = "resilience.listings_recovered"
M_LISTINGS_DROPPED = "resilience.listings_dropped"
M_TASK_RETRIES = "resilience.task_retries"
M_POOL_FAILURES = "resilience.pool_failures"
M_ANYTIME_EXITS = "resilience.anytime_exits"
M_FAULTS_FIRED = "resilience.faults_fired"
M_POOL_WORKERS = "pool.workers"
M_POOL_WORKER_RSS = "pool.worker_rss_bytes"
M_POOL_WORKER_CPU = "pool.worker_cpu_seconds"
M_POOL_QUEUE_DEPTH = "pool.queue_depth"
M_POOL_QUEUE_WAIT = "pool.queue_wait_seconds"
M_POOL_SHIP_SKIPS = "pool.batch_ship_skips"
M_POOL_TASKS = "pool.tasks_dispatched"
M_CKPT_WRITES = "runtime.checkpoint.writes"
M_CKPT_STAGES_RESUMED = "runtime.checkpoint.stages_resumed"
M_WATCHDOG_KILLS = "runtime.watchdog.kills"
M_PRESSURE_LEVEL = "runtime.pressure.level"
M_PRESSURE_ACTIONS = "runtime.pressure.actions"

#: name -> (kind, description); the documented metric vocabulary.
CATALOGUE: dict[str, tuple[str, str]] = {
    M_INSTANCES: ("counter", "instances extracted for matching"),
    M_TAGS: ("counter", "source tags matched"),
    M_COLUMN_SIZE: ("histogram", "instances per extracted column"),
    M_PREDICT_LATENCY: (
        "histogram",
        "per-instance base-learner prediction latency (seconds)"),
    M_STRUCTURE_PASSES: ("counter", "structure re-prediction passes run"),
    M_STRUCTURE_REPREDICTED: (
        "counter", "instances re-predicted by structure passes"),
    M_CACHE_HITS: ("counter", "featurize cache hits during the run"),
    M_CACHE_MISSES: ("counter", "featurize cache misses during the run"),
    M_CACHE_HIT_RATIO: ("gauge", "featurize cache hit ratio of the run"),
    M_CONSTRAINT_NODES: ("counter", "constraint-search nodes expanded"),
    M_CONSTRAINT_PRUNE_BOUND: (
        "counter", "constraint-search subtrees cut by the score bound"),
    M_CONSTRAINT_PRUNE_HARD: (
        "counter", "constraint-search pushes rejected by hard constraints"),
    M_CONSTRAINT_PRUNE_SOFT: (
        "counter", "constraint-search subtrees cut by the soft bound"),
    M_CONSTRAINT_LEAF_REJECTS: (
        "counter", "complete assignments rejected at leaves"),
    M_CV_TASKS: ("counter", "(learner x fold) cross-validation tasks"),
    M_TRAIN_INSTANCES: ("counter", "training instances extracted"),
    M_LEARNERS_QUARANTINED: (
        "counter", "base learners quarantined during the run"),
    M_LISTINGS_RECOVERED: (
        "counter", "malformed listings repaired by lenient ingestion"),
    M_LISTINGS_DROPPED: (
        "counter", "listings dropped by salvage/lenient ingestion"),
    M_TASK_RETRIES: (
        "counter", "executor tasks that consumed retry attempts"),
    M_POOL_FAILURES: (
        "counter", "worker-pool failures that forced serial fallback"),
    M_ANYTIME_EXITS: (
        "counter", "constraint searches ended early by the deadline"),
    M_FAULTS_FIRED: (
        "counter", "injected faults fired by the active fault plan"),
    M_POOL_WORKERS: ("gauge", "live worker processes in the pool"),
    M_POOL_WORKER_RSS: (
        "histogram", "per-worker resident set size sampled at map end "
                     "(bytes)"),
    M_POOL_WORKER_CPU: (
        "histogram", "per-worker cumulative CPU time sampled at map "
                     "end (seconds)"),
    M_POOL_QUEUE_DEPTH: (
        "gauge", "tasks still queued after the first dispatch round"),
    M_POOL_QUEUE_WAIT: (
        "histogram", "seconds a task waited between enqueue and "
                     "dispatch"),
    M_POOL_SHIP_SKIPS: (
        "counter", "batch broadcasts skipped by the content-addressed "
                   "ship cache"),
    M_POOL_TASKS: (
        "counter", "tasks dispatched to worker processes"),
    M_CKPT_WRITES: (
        "counter", "checkpoint artifacts committed to disk"),
    M_CKPT_STAGES_RESUMED: (
        "counter", "pipeline stages skipped by --resume"),
    M_WATCHDOG_KILLS: (
        "counter", "hung workers killed by the watchdog"),
    M_PRESSURE_LEVEL: (
        "gauge", "highest memory-guardrail tier reached (emitted only "
                 "when non-zero)"),
    M_PRESSURE_ACTIONS: (
        "counter", "memory-pressure guardrail actions taken"),
}


def exponential_buckets(start: float, factor: float,
                        count: int) -> tuple[float, ...]:
    """``count`` geometric upper bounds beginning at ``start``."""
    if start <= 0.0 or factor <= 1.0 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds = []
    bound = start
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


#: 1µs .. ~4s in x4 steps — spans fast numeric learners to slow WHIRL
#: columns without more than 12 buckets.
LATENCY_BUCKETS = exponential_buckets(1e-6, 4.0, 12)

#: Column sizes: most sources cap columns at max_instances_per_tag.
SIZE_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                1000.0)

#: 1MiB .. 8GiB in x2 steps — worker RSS.
BYTE_BUCKETS = exponential_buckets(float(1 << 20), 2.0, 14)

#: 1ms .. ~1h in x4 steps — cumulative per-worker CPU time.
CPU_BUCKETS = exponential_buckets(1e-3, 4.0, 12)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------

class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def as_dict(self) -> int:
        return self.value


class Gauge:
    """A point-in-time float metric (last writer wins)."""

    __slots__ = ("name", "value", "is_set", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.is_set = False
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.is_set = True

    def as_dict(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    ``bounds`` are inclusive upper bounds; one overflow bucket catches
    values above the last bound. ``observe(value, count=n)`` records a
    value ``n`` times in O(buckets) — the pipelines use it to turn one
    timed batch into per-instance observations without timing each
    instance individually.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum",
                 "min", "max", "_lock")

    def __init__(self, name: str,
                 bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                "histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        if count <= 0:
            return
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += count
            self.total += count
            self.sum += value * count
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100), linearly interpolated inside
        the bucket holding the target rank and clamped to the observed
        min/max — so bucket-edge and single-value cases are exact."""
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self.total == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 100.0:
            return self.max
        target = q / 100.0 * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lower = self.bounds[i - 1] if i > 0 else self.min
                upper = self.bounds[i] if i < len(self.bounds) else \
                    self.max
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper < lower:
                    upper = lower
                fraction = (target - cumulative) / count
                return lower + (upper - lower) * fraction
            cumulative += count
        return self.max  # pragma: no cover - unreachable (total > 0)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def summary(self) -> dict:
        """JSON-ready summary with the p50/p90/p99 headline numbers."""
        with self._lock:
            empty = self.total == 0
            return {
                "count": self.total,
                "sum": self.sum,
                "mean": self.sum / self.total if self.total else 0.0,
                "min": 0.0 if empty else self.min,
                "max": 0.0 if empty else self.max,
                "p50": self._percentile_locked(50.0),
                "p90": self._percentile_locked(90.0),
                "p99": self._percentile_locked(99.0),
            }

    def as_dict(self) -> dict:
        data = self.summary()
        data["buckets"] = {
            **{repr(bound): self.counts[i]
               for i, bound in enumerate(self.bounds)},
            "+inf": self.counts[-1],
        }
        return data


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class MetricsRegistry:
    """Named instruments, get-or-created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str,
                  bounds: Sequence[float] | None = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, bounds if bounds is not None
                    else LATENCY_BUCKETS)
            return instrument

    def _snapshot(self, attribute: str) -> dict:
        with self._lock:
            return dict(getattr(self, attribute))

    def summary(self) -> dict:
        """JSON-ready ``{"counters": ..., "gauges": ..., "histograms":
        ...}`` with histogram percentile summaries."""
        return {
            "counters": {name: c.value for name, c in
                         sorted(self._snapshot("_counters").items())},
            "gauges": {name: g.value for name, g in
                       sorted(self._snapshot("_gauges").items())},
            "histograms": {name: h.summary() for name, h in
                           sorted(self._snapshot("_histograms").items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MetricsRegistry {len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms>")


# ---------------------------------------------------------------------------
# the registry as a view of finished runs
# ---------------------------------------------------------------------------

def record_run(registry: MetricsRegistry, spans: Iterable, root_id: str,
               columns=None, degradation=None) -> None:
    """Fold one finished run into ``registry``.

    ``root_id`` names the run's ``match`` or ``train`` span; ``spans``
    may hold spans outside its subtree, which are ignored. A match
    records its :class:`~.timers.StageProfile` counters, the size of
    each extracted column of ``columns`` (tag -> column), the
    per-instance latency of every learner span not marked ``error``,
    the checkpoint outcome its ``constrain`` span carries, and the
    ``degradation`` report when the run degraded. Counters sum across
    runs recorded into one registry; the cache hit-ratio gauge is
    recomputed from the summed counters each time. A training run
    records its instance and cross-validation task counts.
    """
    prefix = root_id + "/"
    subtree = [span for span in spans
               if span.span_id == root_id
               or span.span_id.startswith(prefix)]
    root = next(span for span in subtree if span.span_id == root_id)
    if root.name == "train":
        for span in subtree:
            if span.name == "build":
                registry.counter(M_TRAIN_INSTANCES).inc(
                    span.attributes["instances"])
            elif span.name == "folds":
                registry.counter(M_CV_TASKS).inc(
                    span.attributes["folds"] * span.attributes["learners"])
        return

    counters = StageProfile.from_spans(subtree, root_id).counters
    registry.counter(M_TAGS).inc(counters["tags"])
    registry.counter(M_INSTANCES).inc(counters["instances"])
    hits = registry.counter(M_CACHE_HITS)
    hits.inc(counters["cache_hits"])
    misses = registry.counter(M_CACHE_MISSES)
    misses.inc(counters["cache_misses"])
    if hits.value + misses.value:
        registry.gauge(M_CACHE_HIT_RATIO).set(
            hits.value / (hits.value + misses.value))
    if "structure_passes" in counters:
        registry.counter(M_STRUCTURE_PASSES).inc(
            counters["structure_passes"])
        registry.counter(M_STRUCTURE_REPREDICTED).inc(
            counters["structure_repredicted"])
    if "constraint_nodes_expanded" in counters:
        registry.counter(M_CONSTRAINT_NODES).inc(
            counters["constraint_nodes_expanded"])
        registry.counter(M_CONSTRAINT_PRUNE_BOUND).inc(
            counters["constraint_prune_bound"])
        registry.counter(M_CONSTRAINT_PRUNE_HARD).inc(
            counters["constraint_prune_hard"])
        registry.counter(M_CONSTRAINT_PRUNE_SOFT).inc(
            counters["constraint_prune_soft_bound"])
        registry.counter(M_CONSTRAINT_LEAF_REJECTS).inc(
            counters["constraint_leaf_hard_rejects"])

    sizes = registry.histogram(M_COLUMN_SIZE, SIZE_BUCKETS)
    for column in (columns or {}).values():
        sizes.observe(len(column.instances))
    latency = registry.histogram(M_PREDICT_LATENCY)
    for span in subtree:
        attributes = span.attributes
        if span.name.startswith("learner.") and \
                attributes.get("instances") and "error" not in attributes:
            latency.observe(span.elapsed / attributes["instances"],
                            count=attributes["instances"])
        elif span.name == "constrain":
            checkpoint = attributes.get("checkpoint")
            if checkpoint == "resumed":
                registry.counter(M_CKPT_STAGES_RESUMED).inc()
            elif checkpoint == "saved":
                registry.counter(M_CKPT_WRITES).inc()
    if degradation is not None and degradation.degraded:
        # Recorded only when non-zero, so a clean run's metric set (and
        # therefore its report) is identical to a policy-free run's.
        record_degradation(registry, degradation)


def record_degradation(registry: MetricsRegistry, degradation) -> None:
    """Fold a run's :class:`~repro.resilience.DegradationReport` into
    the ``resilience.*`` and ``runtime.*`` guardrail metrics."""
    if degradation.quarantines:
        registry.counter(M_LEARNERS_QUARANTINED).inc(
            len(degradation.quarantined_learners))
    if degradation.retries:
        registry.counter(M_TASK_RETRIES).inc(len(degradation.retries))
    if degradation.pool_failures:
        registry.counter(M_POOL_FAILURES).inc(
            len(degradation.pool_failures))
    if degradation.anytime:
        registry.counter(M_ANYTIME_EXITS).inc()
    if degradation.fired_faults:
        registry.counter(M_FAULTS_FIRED).inc(
            len(degradation.fired_faults))
    kills = sum(event["kind"] == "worker_killed"
                for event in degradation.watchdog)
    if kills:
        registry.counter(M_WATCHDOG_KILLS).inc(kills)
    if degradation.pressure_events:
        registry.counter(M_PRESSURE_ACTIONS).inc(
            len(degradation.pressure_events))
        registry.gauge(M_PRESSURE_LEVEL).set(float(max(
            event["tier"] for event in degradation.pressure_events)))
    recovery = degradation.recovery
    if recovery is not None:
        if recovery.recovered:
            registry.counter(M_LISTINGS_RECOVERED).inc(
                len(recovery.recovered))
        if recovery.dropped:
            registry.counter(M_LISTINGS_DROPPED).inc(
                len(recovery.dropped))
