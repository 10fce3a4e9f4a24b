"""Benchmark-side tracing: one span around each call into a pipeline layer.

Only ``--trace`` runs install it; untraced runs execute the program
unmodified. :func:`install` replaces public callables at the place the
pipeline looks them up — a class attribute or a module global — so calls
made from inside the package are seen, and so are the learner clones
that cross-validation trains (a per-instance wrapper would miss those).

Each span records its name, start, end, parent and the id of the op (or
set-up) it belongs to. Spans stay in memory; :meth:`Tracer.layer_metrics`
turns them into per-layer self times, where a span's self time is its
duration minus the time its child spans cover, and
:meth:`Tracer.span_dicts` exports them once the run is over.

The span name is the layer metric's stem: a span named ``constraints.search``
feeds ``constraints.search_ms``. Learner spans are the exception — their
``fit``/``predict`` time counts as ``cv_ms`` when it runs under the
meta-learner's cross-validation (``learners.meta.cv_self``).
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

CORE_LEARNERS = ("name_matcher", "content_matcher", "naive_bayes",
                 "xml_learner")
#: Per-learner layers: the paper's four learners, plus every domain
#: recognizer pooled into one row so each domain reports the same set.
LEARNER_GROUPS = (*CORE_LEARNERS, "recognizers")
_LEARNER_STEMS = frozenset(f"learners.{group}" for group in LEARNER_GROUPS)

_CV_SPAN = "learners.meta.cv_self"
_ROOTS = ("op", "setup")

#: Span names whose self time is reported as ``<name>_ms``.
TIMED_LAYERS = (
    "xmlio.ingest",
    "core.persistence.save",
    "core.persistence.load",
    "core.system.train_self",
    "core.training.build",
    _CV_SPAN,
    "learners.meta.fit",
    "learners.meta.combine",
    "core.matching.self",
    "core.matching.extract",
    "core.featurize.warm",
    "core.converter.convert",
    "constraints.search",
    "core.parallel.map_self",
)

#: Pool start-up, which only the process backend has. It is kept out of
#: :data:`PER_LAYER` because it reads exactly zero on every other
#: workload; the human report and the ``--json`` document carry it.
POOL_START = "core.procpool.start_ms"

#: Constraint-search counts, reported per op: the calls, then the
#: ``handler.last_stats`` counters summed over them.
SEARCH_COUNTS = ("search_calls", "nodes_expanded", "prune_bound",
                 "prune_hard")


def learner_group(name: str) -> str:
    """The per-learner layer a learner named ``name`` reports under."""
    return name if name in CORE_LEARNERS else "recognizers"


def _catalogue() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {f"{name}_ms": "ms" for name in TIMED_LAYERS}
    for group in LEARNER_GROUPS:
        for kind in ("fit", "cv", "predict"):
            units[f"learners.{group}.{kind}_ms"] = "ms"
        units[f"learners.{group}.predict_rows"] = "count"
    units["core.featurize.lookups"] = "count"
    units["core.featurize.hit_ratio"] = "fraction"
    for name in SEARCH_COUNTS:
        units[f"constraints.{name}"] = "count"
    units["core.matching.structure_repredicted"] = "count"
    units["core.feedback.corrections_per_source"] = "count"
    units["core.procpool.worker_rss_mb"] = "MiB"
    units["trace.op_coverage"] = "fraction"
    return units


#: The per-layer metrics a ``--trace`` run prints: name -> unit.
PER_LAYER = _catalogue()


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, op id, rows]`` per span, in
        #: start order, so a parent always precedes its children.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Learner prediction measured by the pipeline's own trace (the
        #: process backend predicts inside pool workers, where no wrapper
        #: of this process runs): group -> [seconds, rows].
        self.pool_predict: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.op: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rows: int = 0) -> Iterator[None]:
        """Record the with-block as a span called ``name``."""
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op,
                  rows]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    @contextmanager
    def root(self, kind: str, op_id: str) -> Iterator[None]:
        """The root span of one op or set-up; nested spans carry its id."""
        if kind not in _ROOTS:
            raise ValueError(f"unknown root span kind {kind!r}")
        self.op = op_id
        try:
            with self.span(kind):
                yield
        finally:
            self.op = None

    def absorb(self, observer) -> None:
        """Fold the learner spans of the pipeline's own trace (one match
        run under ``observer``) into :attr:`pool_predict`."""
        for span in observer.trace.spans:
            if not span.name.startswith("learner."):
                continue
            name = span.name[len("learner."):]
            head, _, shard = name.rpartition(".s")
            if head and shard.isdigit():
                name = head
            totals = self.pool_predict[learner_group(name)]
            totals[0] += span.elapsed
            totals[1] += int(span.attributes.get("instances", 0))

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name, rows=None, after=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``name`` is the span name or a function of the call's positional
        arguments; ``rows(args)`` is a row count stored on the span and
        ``after(args, result)`` runs once the call has returned.
        """
        original = owner.__dict__[attr]
        namer = name if callable(name) else (lambda args: name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(namer(args),
                             rows(args) if rows is not None else 0):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def layer_metrics(self, n_ops: int, predict_in_pool: bool
                      ) -> dict[str, float]:
        """Per-layer values per op, over every op and set-up of the run.

        Set-up spans are charged to the ops that follow them, so layer
        times per op sum to (set-up + op) wall time per op. With
        ``predict_in_pool`` learner prediction comes from
        :attr:`pool_predict` and the wrapper spans of prediction are left
        out, so nothing is counted twice.
        """
        spans = self.spans
        seconds: dict[str, float] = defaultdict(float)
        rows: dict[str, int] = defaultdict(int)
        for index, layer, self_time in self._self_times():
            name, _start, _end, parent, _op, n_rows = spans[index]
            stem, _, kind = name.rpartition(".")
            if layer == name and kind == "predict" \
                    and stem in _LEARNER_STEMS:
                if predict_in_pool:
                    continue  # read from the pool's spans below
                if spans[parent][0] != name:  # super() calls nest
                    rows[stem] += n_rows
            seconds[layer] += self_time
        if predict_in_pool:
            for group, (elapsed, n_rows) in self.pool_predict.items():
                seconds[f"learners.{group}.predict"] += elapsed
                rows[f"learners.{group}"] += n_rows
        per_op = 1.0 / max(n_ops, 1)
        values: dict[str, float] = {}
        for metric, unit in PER_LAYER.items():
            if unit == "ms":
                values[metric] = seconds[metric[:-3]] * 1e3 * per_op
            elif metric.endswith(".predict_rows"):
                values[metric] = rows[metric[:-len(".predict_rows")]] \
                    * per_op
        for name in SEARCH_COUNTS:
            values[f"constraints.{name}"] = \
                self.counts[f"constraints.{name}"] * per_op
        values["core.matching.structure_repredicted"] = \
            self.counts["core.matching.structure_repredicted"] * per_op
        shares = self.op_shares()
        values["trace.op_coverage"] = 1.0 - shares.get("op", 1.0)
        values[POOL_START] = seconds[POOL_START[:-3]] * 1e3 * per_op
        return values

    def op_shares(self) -> dict[str, float]:
        """Each layer's self time inside ops as a share of op wall time,
        largest first; ``op`` is the share no layer span covers. Learner
        prediction counts where this process ran it."""
        spent: dict[str, float] = defaultdict(float)
        wall = 0.0
        for index, layer, self_time in self._self_times():
            name, start, end, _parent, op, _rows = self.spans[index]
            if op.startswith("op-"):
                spent[layer] += self_time
                if name == "op":
                    wall += end - start
        if not wall:
            return {}
        return {layer: spent[layer] / wall
                for layer in sorted(spent, key=spent.get, reverse=True)}

    def _self_times(self) -> Iterator[tuple[int, str, float]]:
        """``(span index, layer, self time)`` for every span of an op or
        set-up; a learner's fit or predict under cross-validation is
        layer ``learners.<group>.cv``."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_cv = [False] * len(spans)
        for index, (name, start, end, parent, _op, _rows) in \
                enumerate(spans):
            if parent is not None:
                child[parent] += end - start
                in_cv[index] = in_cv[parent]
            if name == _CV_SPAN:
                in_cv[index] = True
        for index, (name, start, end, _parent, op, _rows) in \
                enumerate(spans):
            if op is None:
                continue  # outside any op or set-up: harness work
            stem = name.rpartition(".")[0]
            layer = f"{stem}.cv" if stem in _LEARNER_STEMS \
                and in_cv[index] else name
            yield index, layer, end - start - child[index]

    def span_dicts(self) -> list[dict]:
        """The recorded spans, for the ``--json`` document."""
        return [{"name": name, "start": start, "end": end,
                 "parent": parent, "op": op}
                for name, start, end, parent, op, _rows in self.spans]


def install(tracer: Tracer, learner_classes) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro import resilience
    from repro.constraints.handler import ConstraintHandler
    from repro.core import featurize, matching, persistence, system
    from repro.core.converter import PredictionConverter
    from repro.core.parallel import ParallelExecutor
    from repro.core.procpool import WorkerPool
    from repro.learners.base import BaseLearner
    from repro.learners.meta import StackingMetaLearner

    counts = tracer.counts

    # Counts are per op: calls outside every op and set-up are harness
    # work (the process workload's serial cross-check) and stay out.
    def after_search(args, _mapping) -> None:
        if tracer.op is None:
            return
        stats = args[0].last_stats
        counts["constraints.search_calls"] += 1
        for name in SEARCH_COUNTS[1:]:
            counts[f"constraints.{name}"] += stats.get(name, 0)

    def after_match(_args, result) -> None:
        if tracer.op is not None:
            counts["core.matching.structure_repredicted"] += \
                result.profile.counters.get("structure_repredicted", 0)

    tracer.wrap(resilience, "ingest_fragments", "xmlio.ingest")
    tracer.wrap(persistence, "save_system", "core.persistence.save")
    tracer.wrap(persistence, "load_system", "core.persistence.load")
    tracer.wrap(system.LSDSystem, "train", "core.system.train_self")
    tracer.wrap(system, "build_training_set", "core.training.build")
    tracer.wrap(system, "train_base_learners", "core.system.train_self")
    tracer.wrap(system, "train_meta_learner", _CV_SPAN)
    tracer.wrap(StackingMetaLearner, "fit", "learners.meta.fit")
    tracer.wrap(StackingMetaLearner, "combine", "learners.meta.combine")
    tracer.wrap(system.LSDSystem, "match", "core.matching.self",
                after=after_match)
    tracer.wrap(matching, "extract_columns", "core.matching.extract")
    tracer.wrap(featurize, "warm_texts", "core.featurize.warm")
    tracer.wrap(PredictionConverter, "convert_slices",
                "core.converter.convert")
    tracer.wrap(ConstraintHandler, "find_mapping", "constraints.search",
                after=after_search)
    tracer.wrap(ParallelExecutor, "map_profiled", "core.parallel.map_self")
    tracer.wrap(WorkerPool, "__init__", "core.procpool.start")

    wrapped: set[type] = set()
    for cls in learner_classes:
        for klass in cls.__mro__:
            if klass in wrapped or klass is BaseLearner \
                    or not issubclass(klass, BaseLearner):
                continue
            wrapped.add(klass)
            for method in ("fit", "predict_scores"):
                if method not in klass.__dict__:
                    continue
                kind = "fit" if method == "fit" else "predict"
                tracer.wrap(
                    klass, method,
                    lambda args, kind=kind:
                        f"learners.{learner_group(args[0].name)}.{kind}",
                    rows=lambda args: len(args[1]))
