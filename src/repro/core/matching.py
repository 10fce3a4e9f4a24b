"""The matching phase (§3.2): classify a new source's tags.

Pipeline for a target source:

1. extract one instance column per source tag;
2. apply every base learner to every instance, combine per-instance
   predictions with the meta-learner, and collapse each column with the
   prediction converter;
3. (structure pass) derive preliminary per-tag labels, expose them to the
   XML learner as child labels, and re-run the learners that use them;
4. hand the per-tag predictions to the constraint handler, which returns
   the least-cost 1-1 mapping (or argmax when no handler is configured).

Throughput engineering (the high-traffic ROADMAP goal):

* base-learner prediction fans out across a :class:`ParallelExecutor`
  (order-preserving, so any worker count is byte-identical to serial);
* instances are featurized once via :mod:`repro.core.featurize` and the
  learners share the cache;
* structure passes are *incremental*: only learners with
  ``uses_child_labels`` re-predict, and only for the instances whose
  ``child_labels`` actually changed since the previous pass — a pass
  that changes nothing is skipped entirely (fixed point). This relies on
  the :class:`~repro.learners.base.BaseLearner` contract that
  ``predict_scores`` rows depend only on their own instance;
* every stage is a span of the run's (always recorded) trace;
  ``MatchResult.profile``, ``MatchResult.timings`` and the stage
  events' durations are all derived from that one span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..constraints.base import Constraint, MatchContext
from ..constraints.handler import ConstraintHandler
from ..learners.base import BaseLearner
from ..learners.meta import StackingMetaLearner
from ..observability import (Observer, QualityRecord, StageProfile,
                             build_quality_records, with_trace)
from ..observability.events import (EV_CHECKPOINT, EV_DEGRADATION,
                                    EV_RESUME, EV_SHARD_COMPLETE,
                                    EV_STAGE_END, EV_STAGE_START)
from ..observability.metrics import (M_ANYTIME_EXITS, M_CACHE_HIT_RATIO,
                                     M_CACHE_HITS, M_CACHE_MISSES,
                                     M_CKPT_STAGES_RESUMED,
                                     M_CKPT_WRITES, M_COLUMN_SIZE,
                                     M_FAULTS_FIRED, M_INSTANCES,
                                     M_LEARNERS_QUARANTINED,
                                     M_LISTINGS_DROPPED,
                                     M_LISTINGS_RECOVERED,
                                     M_POOL_FAILURES, M_PREDICT_LATENCY,
                                     M_STRUCTURE_PASSES,
                                     M_STRUCTURE_REPREDICTED, M_TAGS,
                                     M_TASK_RETRIES, SIZE_BUCKETS)
from ..resilience.faults import FaultInjected
from ..resilience.policy import (Deadline, DegradationReport,
                                 ResiliencePolicy, call_with_timeout)
from ..resilience.sites import SITE_LEARNER_PREDICT, SITE_SEARCH_ROOT
from ..xmlio import Element
from . import featurize
from .converter import PredictionConverter
from .instance import (ElementInstance, InstanceColumn, extract_columns,
                       fill_child_labels)
from .labels import LabelSpace
from .mapping import Mapping
from .parallel import ParallelExecutor, resolve, shard_bounds
from .prediction import Prediction
from .procpool import ProcessTask, TaskFailure
from .schema import SourceSchema


@dataclass
class MatchResult:
    """Everything the matching phase produced for one source."""

    mapping: Mapping
    tag_scores: dict[str, np.ndarray]
    space: LabelSpace
    columns: dict[str, InstanceColumn]
    context: MatchContext
    #: Per-stage timings (dotted paths) plus instance and cache-hit
    #: counters, derived from the run's ``match`` span subtree.
    profile: StageProfile = field(default_factory=StageProfile)
    #: Per-column quality telemetry (one record per source tag), filled
    #: only when the run's observer collects quality — see
    #: :mod:`repro.observability.quality`.
    quality: list[QualityRecord] = field(default_factory=list)
    #: The run's degradation account (quarantines, retries, salvage…)
    #: when a :class:`~repro.resilience.ResiliencePolicy` was active;
    #: ``None`` on the legacy policy-free path.
    degradation: DegradationReport | None = None
    #: True when the constraint search hit its deadline and returned
    #: the best mapping found so far rather than a proven optimum.
    anytime: bool = False

    @property
    def timings(self) -> dict[str, float]:
        """The flat extract/predict/constraints view of :attr:`profile`."""
        return {"extract": self.profile.seconds("extract"),
                "predict": self.profile.seconds("predict"),
                "constraints": self.profile.seconds("constrain")}

    def prediction_for(self, tag: str) -> Prediction:
        """The converter's prediction for one source tag."""
        return Prediction(self.space, self.tag_scores[tag])

    def top_candidates(self, tag: str, k: int = 3
                       ) -> list[tuple[str, float]]:
        """The k best labels for a tag, with scores."""
        return self.prediction_for(tag).top_k(k)

    def ambiguous_tags(self, threshold: float = 0.1) -> list[str]:
        """Tags whose best-vs-second margin is below ``threshold`` —
        the natural targets for user feedback."""
        return [tag for tag in self.tag_scores
                if self.prediction_for(tag).margin() < threshold]


def match_source(schema: SourceSchema, listings: Sequence[Element],
                 learners: list[BaseLearner], meta: StackingMetaLearner,
                 converter: PredictionConverter,
                 handler: ConstraintHandler | None, space: LabelSpace,
                 extra_constraints: Sequence[Constraint] = (),
                 max_instances_per_tag: int | None = None,
                 structure_passes: int = 1,
                 score_filter=None,
                 executor: ParallelExecutor | None = None,
                 incremental_structure: bool = True,
                 observer: Observer | None = None,
                 policy: ResiliencePolicy | None = None,
                 checkpoint=None) -> MatchResult:
    """Run the full matching pipeline; see module docstring.

    ``score_filter(tag_scores, columns) -> tag_scores`` runs between the
    prediction converter and the constraint handler — the hook the §7
    type-compatibility pruner uses.

    ``executor`` fans learner prediction out across workers (serial by
    default). ``incremental_structure=False`` forces every structure
    pass to re-predict all instances — the pre-cache behaviour, kept so
    the benchmark harness can measure the baseline.

    ``observer`` receives trace spans (recorded privately when it keeps
    no trace: ``MatchResult.profile`` is derived from them), metrics,
    and (when enabled) per-column quality records. The span tree,
    metric counts, and quality records are a function of the inputs
    only — identical at any worker count.

    ``policy`` arms fault tolerance: a base learner whose prediction
    raises (or times out) is quarantined instead of crashing the run,
    the meta weights renormalize over the survivors, and the constraint
    search honours the policy's deadline (returning a best-so-far
    mapping flagged ``anytime``). Without a policy, errors propagate
    exactly as before.

    ``checkpoint`` (an opened :class:`repro.runtime.Checkpointer`)
    arms crash-safe resume: the search's best-so-far incumbent persists
    as it improves, and the final mapping is committed before the
    function returns. A resumed attempt re-runs extraction and
    prediction, then loads the committed mapping or warm-starts the
    search from the saved incumbent. The resume contract is byte
    identity: a run killed at any point and resumed produces exactly
    the mapping, scores and quality records of one uninterrupted run.
    ``None`` — the default — costs nothing.
    """
    executor = resolve(executor)
    obs = with_trace(observer)
    trace = obs.trace
    cache_before = featurize.stats.snapshot()
    deadline = policy.start_deadline() if policy is not None else None

    events = obs.events
    with trace.span("match") as match_span:
        events.emit(EV_STAGE_START, stage="extract")
        with trace.span("extract") as extract_span:
            columns = extract_columns(schema, list(listings),
                                      max_instances_per_tag)
        events.emit(EV_STAGE_END, stage="extract",
                    elapsed_seconds=extract_span.span.elapsed)

        # Flatten instances so each learner predicts one batch.
        tags = list(columns)
        flat: list[ElementInstance] = []
        slices: dict[str, slice] = {}
        column_sizes = obs.metrics.histogram(M_COLUMN_SIZE, SIZE_BUCKETS)
        for tag in tags:
            begin = len(flat)
            flat.extend(columns[tag].instances)
            slices[tag] = slice(begin, len(flat))
            column_sizes.observe(len(columns[tag].instances))
        obs.metrics.counter(M_INSTANCES).inc(len(flat))
        obs.metrics.counter(M_TAGS).inc(len(tags))
        match_span.set_attribute("tags", len(tags))
        match_span.set_attribute("instances", len(flat))

        events.emit(EV_STAGE_START, stage="predict")
        with trace.span("predict") as predict_span:
            scores_by_learner, tag_scores = _predict_tags(
                flat, slices, columns, learners, meta, converter, space,
                structure_passes, executor, incremental_structure, obs,
                predict_span.span_id, policy)
            converted_scores = tag_scores
            if score_filter is not None:
                with trace.span("score_filter"):
                    tag_scores = score_filter(tag_scores, columns)
        predict_elapsed = predict_span.span.elapsed
        events.emit(EV_STAGE_END, stage="predict",
                    elapsed_seconds=predict_elapsed, items=len(flat),
                    items_per_second=(len(flat) / predict_elapsed
                                      if predict_elapsed else 0.0))

        ctx = MatchContext(schema, columns)
        if policy is not None:
            try:
                policy.fire(SITE_SEARCH_ROOT, "search")
            except FaultInjected:
                # The documented semantics of this site: force the
                # search onto its anytime best-so-far path.
                deadline = Deadline(0.0)
        events.emit(EV_STAGE_START, stage="constrain")
        with trace.span("constrain") as constrain_span:
            saved_mapping = checkpoint.load_mapping() \
                if checkpoint is not None else None
            if saved_mapping is not None:
                mapping = Mapping(saved_mapping)
                events.emit(EV_RESUME, stage="constrain")
                obs.metrics.counter(M_CKPT_STAGES_RESUMED).inc()
            elif handler is None:
                mapping = Mapping({
                    tag: space.label_at(int(np.argmax(row)))
                    for tag, row in tag_scores.items()})
            else:
                mapping = handler.find_mapping(
                    tag_scores, space, ctx, extra_constraints,
                    observer=obs,
                    deadline=deadline,
                    report=policy.report if policy is not None
                    else None,
                    warm_start=checkpoint.load_incumbent()
                    if checkpoint is not None else None,
                    snapshot=checkpoint.save_incumbent
                    if checkpoint is not None else None)
            if saved_mapping is None and checkpoint is not None \
                    and checkpoint.save_mapping(
                        {tag: mapping.label_of(tag) for tag in mapping}):
                obs.metrics.counter(M_CKPT_WRITES).inc()
                events.emit(EV_CHECKPOINT, stage="constrain")
        events.emit(EV_STAGE_END, stage="constrain",
                    elapsed_seconds=constrain_span.span.elapsed,
                    items=len(tags))

        quality: list[QualityRecord] = []
        if obs.collect_quality:
            with trace.span("quality"):
                quality = build_quality_records(
                    tags, slices, scores_by_learner, converter, meta,
                    space, converted_scores, mapping)

        hits, misses = featurize.stats.snapshot()
        hits -= cache_before[0]
        misses -= cache_before[1]
        match_span.set_attribute("cache_hits", hits)
        match_span.set_attribute("cache_misses", misses)
    obs.metrics.counter(M_CACHE_HITS).inc(hits)
    obs.metrics.counter(M_CACHE_MISSES).inc(misses)
    if hits + misses:
        obs.metrics.gauge(M_CACHE_HIT_RATIO).set(hits / (hits + misses))
    profile = StageProfile.from_spans(trace.spans, match_span.span_id)
    degradation = policy.finalize() if policy is not None else None
    if degradation is not None and degradation.degraded:
        # Emitted only when non-zero, so a clean run's metric set (and
        # therefore its report) is byte-identical to a policy-free run.
        _emit_degradation_metrics(degradation, obs)
        events.emit(EV_DEGRADATION,
                    reason=_degradation_reason(degradation))
    return MatchResult(mapping, tag_scores, space, columns, ctx,
                       profile, quality,
                       degradation=degradation,
                       anytime=degradation.anytime
                       if degradation is not None else False)


def _degradation_reason(degradation: DegradationReport) -> str:
    """A one-line human summary for the degradation progress event."""
    parts = []
    if degradation.quarantines:
        parts.append(f"{len(degradation.quarantined_learners)} "
                     "learner(s) quarantined")
    if degradation.retries:
        parts.append(f"{len(degradation.retries)} task retries")
    if degradation.pool_failures:
        parts.append("worker pool fell back to serial")
    if degradation.anytime:
        parts.append("constraint search ended early by deadline")
    recovery = degradation.recovery
    if recovery is not None and (recovery.recovered or
                                 recovery.dropped):
        parts.append(f"listings recovered={len(recovery.recovered)} "
                     f"dropped={len(recovery.dropped)}")
    if degradation.fired_faults:
        parts.append(f"{len(degradation.fired_faults)} injected "
                     "fault(s) fired")
    return "; ".join(parts) or "degraded"


def _emit_degradation_metrics(degradation: DegradationReport,
                              obs: Observer) -> None:
    """Fold a run's degradation account into the metrics registry."""
    metrics = obs.metrics
    if degradation.quarantines:
        metrics.counter(M_LEARNERS_QUARANTINED).inc(
            len(degradation.quarantined_learners))
    if degradation.retries:
        metrics.counter(M_TASK_RETRIES).inc(len(degradation.retries))
    if degradation.pool_failures:
        metrics.counter(M_POOL_FAILURES).inc(
            len(degradation.pool_failures))
    if degradation.anytime:
        metrics.counter(M_ANYTIME_EXITS).inc()
    if degradation.fired_faults:
        metrics.counter(M_FAULTS_FIRED).inc(
            len(degradation.fired_faults))
    recovery = degradation.recovery
    if recovery is not None:
        if recovery.recovered:
            metrics.counter(M_LISTINGS_RECOVERED).inc(
                len(recovery.recovered))
        if recovery.dropped:
            metrics.counter(M_LISTINGS_DROPPED).inc(
                len(recovery.dropped))


# A learner whose prediction raises under an active resilience policy
# comes back through the executor as a TaskFailure value rather than an
# exception — every healthy learner still returns its scores, and
# quarantines are recorded by the main thread in learner-submission
# order. TaskFailure (repro.core.procpool) carries only the two strings
# the quarantine record needs, so serial and process-side failures
# produce byte-identical degradation reports.


def _predict_tags(flat: list[ElementInstance], slices: dict[str, slice],
                  columns: dict[str, InstanceColumn],
                  learners: list[BaseLearner], meta: StackingMetaLearner,
                  converter: PredictionConverter, space: LabelSpace,
                  structure_passes: int, executor: ParallelExecutor,
                  incremental: bool, obs: Observer, predict_span_id: str,
                  policy: ResiliencePolicy | None = None
                  ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-learner flat score matrices and per-tag converted scores,
    with optional structure re-passes.

    Fan-out cuts the flat batch into contiguous shards
    (:func:`~repro.core.parallel.shard_bounds`, a pure function of the
    batch size — never the worker count) at each learner's declared
    grain (:attr:`~repro.learners.base.BaseLearner.shard_rows`), and
    the task grid is the union of the per-learner ``learner × shards``
    rows, so one expensive learner no longer serialises the whole
    predict stage behind a single task. Learner scoring is row-wise by
    the :class:`~repro.learners.base.BaseLearner` contract, so
    concatenating per-shard score blocks is byte-identical to one
    whole-batch call at any worker count.

    Learner spans open under the predict span as their explicit parent
    (spans measured in worker processes replay there too), and shard
    spans carry their shard index in the name (single-shard batches
    keep the legacy ``learner.<name>`` span), so the trace tree is the
    same at any worker count. Each (learner, shard) task contributes ``len(batch)``
    observations of its span's mean per-instance time to the
    prediction-latency histogram — O(learners × shards) observations,
    not O(instances).

    With an active ``policy``, a learner whose prediction raises or
    times out in *any* shard comes back as a :class:`TaskFailure`
    and is quarantined for the rest of the run; the meta-learner
    renormalizes over the survivors (uniform scores if none survive).
    The ``learner.predict`` fault site fires once per learner per pass
    (on its first shard), exactly as it did before sharding.
    """
    latency = obs.metrics.histogram(M_PREDICT_LATENCY)

    def predict_with(learner: BaseLearner,
                     batch: list[ElementInstance], shard: int,
                     span_name: str):
        with obs.trace.span(span_name, parent=predict_span_id,
                            instances=len(batch)) as span:
            if policy is None:
                scores = learner.predict_scores(batch)
            else:
                try:
                    if shard == 0:
                        policy.fire(SITE_LEARNER_PREDICT, learner.name)
                    scores = call_with_timeout(
                        learner.predict_scores, (batch,),
                        policy.learner_timeout)
                except Exception as exc:  # lsd: ignore[blind-except]
                    # Quarantine boundary: any learner failure becomes
                    # a sentinel the main thread records in submission
                    # order — degradation, not a crash.
                    return TaskFailure.from_exception(exc)
        if batch:
            latency.observe(span.span.elapsed / len(batch),
                            count=len(batch))
        return scores

    def duplicate_order(batch: list[ElementInstance]) -> np.ndarray \
            | None:
        """Stable permutation clustering duplicate instances together.

        Shards are contiguous ranges, so without this each shard
        re-scores the distinct values it shares with the others — the
        learners' distinct-key dedup only sees one shard at a time.
        Grouping equal ``(tag, path, text)`` instances (a refinement of
        every learner's dedup key that depends on the text) keeps each
        distinct value inside one shard. A pure function of the batch
        content — never the worker count — so the shard plan, trace
        shape and outputs stay identical at any parallelism. Scores are
        un-permuted before anything consumes them, and learner scoring
        is row-wise, so the reordering is output-invisible.
        """
        if len(batch) <= 1:
            return None
        seen: dict = {}
        groups = np.empty(len(batch), dtype=np.intp)
        for position, instance in enumerate(batch):
            key = (instance.tag, instance.path,
                   featurize.instance_text(instance))
            group = seen.get(key)
            if group is None:
                group = seen[key] = len(seen)
            groups[position] = group
        if len(seen) == len(batch):
            return None
        return np.argsort(groups, kind="stable")

    def build_process_tasks(shard_batch: list[ElementInstance],
                            grid: list[tuple]) -> list[ProcessTask]:
        """The (learner × shard) grid as :class:`ProcessTask`
        descriptors for the process backend — same shape, same span
        names, same fault gates as the serial closure; each task's
        ``fallback`` is exactly the serial-path call, which is what
        keeps serial reruns and pool-death recovery byte-identical."""
        return [ProcessTask(
            payload={
                "kind": "predict",
                "learner": learner.name,
                "start": start, "stop": stop,
                "catch": policy is not None,
                "timeout": policy.learner_timeout
                if policy is not None else None,
            },
            batch=shard_batch,
            fallback=(lambda learner=learner, start=start, stop=stop,
                      shard=shard, span_name=span_name:
                      predict_with(learner, shard_batch[start:stop],
                                   shard, span_name)),
            span_name=span_name,
            span_parent=predict_span_id,
            rows=stop - start,
            fire=((SITE_LEARNER_PREDICT, learner.name)
                  if policy is not None and shard == 0 else None),
        ) for learner, shard, start, stop, span_name in grid]

    def fan_out(batch: list[ElementInstance],
                group: list[BaseLearner], label: str) -> list:
        """Sharded (learner × shard) fan-out over ``batch``.

        Returns one entry per learner of ``group``: the concatenated
        score matrix (in ``batch`` order), or a
        :class:`TaskFailure` if any of the learner's shards failed.

        Each learner gets its own shard plan at the grain it declares
        (:attr:`~repro.learners.base.BaseLearner.shard_rows`): learners
        with per-call amortized costs stay coarse while per-row
        learners split finely, so a parallel map balances its makespan
        without taxing the serial path. Every plan is a pure function
        of the batch size, never of the worker count or backend.
        """
        plans = [shard_bounds(len(batch), target=learner.shard_rows)
                 if getattr(learner, "shard_rows", None)
                 else shard_bounds(len(batch))
                 for learner in group]
        # A single shard already dedups globally; only a real split
        # needs duplicates clustered into one shard.
        order = duplicate_order(batch) \
            if any(len(plan) > 1 for plan in plans) \
            and featurize.is_enabled() else None
        if order is None:
            shard_batch = batch
            inverse = None
        else:
            shard_batch = [batch[i] for i in order]
            inverse = np.empty(len(batch), dtype=np.intp)
            inverse[order] = np.arange(len(batch))
        grid = [(learner, shard, start, stop,
                 f"learner.{learner.name}" if len(bounds) == 1
                 else f"learner.{learner.name}.s{shard}")
                for learner, bounds in zip(group, plans)
                for shard, (start, stop) in enumerate(bounds)]
        if executor.wants_process_tasks:
            pieces = executor.map_profiled(
                lambda task: task.fallback(),
                build_process_tasks(shard_batch, grid), label=label,
                observer=obs)
        else:
            pieces = executor.map_profiled(
                lambda task: predict_with(
                    task[0], shard_batch[task[2]:task[3]], task[1],
                    task[4]),
                grid, label=label, observer=obs)
        if obs.events.enabled:
            # Heartbeats in submission order — a deterministic function
            # of the task grid, identical at any worker count.
            for index, (_, _, start, stop, span_name) in enumerate(grid):
                obs.events.emit(EV_SHARD_COMPLETE, stage=label,
                                label=span_name, index=index,
                                shards=len(grid), rows=stop - start)
        gathered: list = []
        offset = 0
        for bounds in plans:
            blocks = pieces[offset:offset + len(bounds)]
            offset += len(bounds)
            failure = next((b for b in blocks
                            if isinstance(b, TaskFailure)), None)
            if failure is not None:
                gathered.append(failure)
                continue
            scores = (blocks[0] if len(blocks) == 1
                      else np.concatenate(blocks, axis=0))
            gathered.append(scores if inverse is None
                            else scores[inverse])
        return gathered

    def quarantine(learner: BaseLearner, failure: TaskFailure) -> None:
        assert policy is not None
        policy.report.quarantine(
            learner.name, "predict", failure.cause,
            failure.error_type)
        scores_by_learner.pop(learner.name, None)

    # Pre-fill the shared text cache on the orchestrating thread: every
    # learner's distinct-key grouping reads the subtree text, so the
    # pure-Python tree walks happen exactly once per instance, up
    # front. Pure warming — outputs are unchanged.
    if featurize.is_enabled():
        with obs.trace.span("featurize_warm"):
            featurize.warm_texts(flat)
    rows = fan_out(flat, learners, "predict") if learners else []
    scores_by_learner: dict[str, np.ndarray] = {}
    for learner, scores in zip(learners, rows):
        if isinstance(scores, TaskFailure):
            quarantine(learner, scores)
        else:
            scores_by_learner[learner.name] = scores
    tag_scores = _convert(scores_by_learner, slices, meta, converter,
                          space, obs, len(flat))

    applied: dict[str, str] | None = None  # labels last written into
    # the instances' child_labels; None = nothing applied yet.
    has_structural = any(lrn.uses_child_labels for lrn in learners)
    for _ in range(structure_passes if has_structural else 0):
        # Quarantined learners drop out of the structural set too.
        structural = [lrn for lrn in learners
                      if lrn.uses_child_labels
                      and lrn.name in scores_by_learner]
        if not structural:
            break
        preliminary = {
            tag: space.label_at(int(np.argmax(row)))
            for tag, row in tag_scores.items()}
        if preliminary == applied:
            break  # fixed point: re-filling would change no feature
        with obs.trace.span("structure_pass",
                            parent=predict_span_id) as pass_span:
            previous_labels = [dict(inst.child_labels) for inst in flat]
            fill_child_labels(columns, preliminary)
            applied = preliminary
            if incremental:
                changed = [i for i, inst in enumerate(flat)
                           if inst.child_labels != previous_labels[i]]
            else:
                changed = list(range(len(flat)))
            if not changed:
                break  # no instance saw a new child label
            obs.metrics.counter(M_STRUCTURE_PASSES).inc()
            obs.metrics.counter(M_STRUCTURE_REPREDICTED).inc(
                len(changed))
            pass_span.set_attribute("repredicted", len(changed))
            batch = [flat[i] for i in changed]
            updates = fan_out(batch, structural, "structure")
            for learner, new_rows in zip(structural, updates):
                if isinstance(new_rows, TaskFailure):
                    quarantine(learner, new_rows)
                    continue
                # Rows are per-instance by the BaseLearner contract, so
                # scattering a subset equals re-predicting the batch.
                scores_by_learner[learner.name][changed] = new_rows
        tag_scores = _convert(scores_by_learner, slices, meta, converter,
                              space, obs, len(flat))
    return scores_by_learner, tag_scores


def _convert(scores_by_learner: dict[str, np.ndarray],
             slices: dict[str, slice], meta: StackingMetaLearner,
             converter: PredictionConverter, space: LabelSpace,
             obs: Observer, n_rows: int = 0
             ) -> dict[str, np.ndarray]:
    with obs.trace.span("combine"):
        if scores_by_learner:
            combined = meta.combine(scores_by_learner, missing_ok=True)
        elif n_rows:
            # Every learner quarantined: no evidence left, so every
            # instance gets the uniform distribution and the mapping
            # falls to the constraint handler's structural preferences.
            combined = np.full((n_rows, len(space)), 1.0 / len(space))
        else:
            combined = np.zeros((0, len(space)))
    with obs.trace.span("convert"):
        # One grouped reduction over every column slice; bitwise equal
        # to per-tag ``converter.convert(combined[piece])`` calls.
        return converter.convert_slices(combined, slices)
