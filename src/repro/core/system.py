"""The LSD system façade: train on mapped sources, match new ones.

Mirrors the architecture of Figure 4 in the paper: base learners, the
stacking meta-learner, the prediction converter, and the constraint
handler, wired into a training phase and a matching phase.
"""

from __future__ import annotations

import os
from typing import Sequence

from ..constraints.base import Constraint
from ..constraints.handler import ConstraintHandler
from ..learners import default_learners
from ..learners.base import BaseLearner
from ..learners.batching import StreamTables
from ..learners.meta import StackingMetaLearner
from ..observability import Observer, with_trace
from ..observability.metrics import record_run
from ..resilience.policy import ResiliencePolicy
from ..xmlio import Element
from .converter import PredictionConverter
from .labels import LabelSpace
from .mapping import Mapping
from .matching import MatchResult, match_source
from .parallel import ParallelExecutor
from .pruning import TypePruner
from .schema import MediatedSchema, SourceSchema
from .training import (TrainingSource, build_training_set,
                       train_base_learners, train_meta_learner)


#: Per-run execution settings: never pickled with the model.
_RUN_SETTINGS = ("workers", "backend")


class LSDSystem:
    """End-to-end LSD: add training sources, train, match new sources."""

    def __init__(self, mediated_schema: MediatedSchema | str,
                 learners: Sequence[BaseLearner],
                 constraints: Sequence[Constraint] = (),
                 use_constraint_handler: bool = True,
                 use_meta_learner: bool = True,
                 converter: PredictionConverter | None = None,
                 handler: ConstraintHandler | None = None,
                 folds: int = 5, seed: int = 0,
                 max_instances_per_tag: int | None = None,
                 prune_types: bool = False,
                 workers: int = 1,
                 backend: str = "process",
                 policy: ResiliencePolicy | None = None) -> None:
        """
        Parameters
        ----------
        mediated_schema:
            The mediated DTD (or its text); its tags are the labels.
        learners:
            The base learners to employ (see
            :func:`repro.learners.default_learners`).
        constraints:
            Domain constraints, written once per domain (§4.1).
        use_constraint_handler:
            When False, matching assigns each tag its argmax label — the
            configuration ladder's "no constraint handler" rung.
        use_meta_learner:
            When False the meta-learner averages the base learners
            uniformly instead of learning stacking weights.
        handler:
            A pre-configured :class:`ConstraintHandler`; by default one is
            built from ``constraints``.
        max_instances_per_tag:
            Cap on extracted instances per tag (both phases).
        prune_types:
            Enable §7's pre-processed textual/numeric compatibility
            constraints: candidate labels whose training data type is
            grossly incompatible with a column are zeroed before the
            constraint handler runs.
        workers:
            Worker count for the learner-prediction fan-out (1 =
            serial, no pool). Any value produces byte-identical
            results; more workers only change wall-clock time. Mutable
            after construction (``system.workers = 4``); runtime
            state, never pickled with the model.
        backend:
            Execution backend for the fan-out: ``"process"`` (default;
            a persistent pool of forked worker processes that inherit
            the trained model, see :mod:`repro.core.procpool`) or
            ``"serial"``.
            Byte-identical outputs across both. Mutable after
            construction; runtime state, never pickled with the
            model.
        policy:
            A :class:`repro.resilience.ResiliencePolicy` arming fault
            tolerance for this system's runs: learners whose fit or
            prediction fails are quarantined instead of crashing,
            executor tasks gain retry/serial-fallback behaviour, and
            the constraint search honours the policy deadline. ``None``
            (the default) keeps the legacy fail-fast behaviour. The
            policy is runtime state — never pickled with the model.
        """
        if isinstance(mediated_schema, str):
            mediated_schema = MediatedSchema(mediated_schema)
        self.mediated_schema = mediated_schema
        self.space: LabelSpace = mediated_schema.label_space()
        self.learners = list(learners)
        if not self.learners:
            raise ValueError("need at least one base learner")
        self.constraints = list(constraints)
        self.use_meta_learner = use_meta_learner
        self.converter = converter or PredictionConverter()
        if handler is not None:
            self.handler: ConstraintHandler | None = handler
        elif use_constraint_handler:
            self.handler = ConstraintHandler(self.constraints)
        else:
            self.handler = None
        self.folds = folds
        self.seed = seed
        self.max_instances_per_tag = max_instances_per_tag
        self.workers = workers
        self.backend = backend
        self.policy = policy
        #: The live worker-process pool (process backend only); built
        #: lazily on executor access, rebuilt after retraining, released
        #: by :meth:`close_pool`. Runtime state — never pickled.
        self._procpool = None
        self.training_sources: list[TrainingSource] = []
        self.meta: StackingMetaLearner | None = None
        #: The learners that survived the most recent :meth:`train`
        #: (== ``self.learners`` unless a policy quarantined some).
        self.active_learners: list[BaseLearner] | None = None
        self.pruner = TypePruner() if prune_types else None

    @property
    def executor(self) -> ParallelExecutor:
        """The executor for the configured worker count and backend.

        Built on access: it wraps an int, the backend name, the policy,
        and — for the process backend — the lazily built worker pool.
        """
        pool = self._ensure_pool() if self.backend == "process" else None
        return ParallelExecutor(self.workers, self.policy,
                                backend=self.backend, pool=pool)

    def _ensure_pool(self):
        """The live worker-process pool, building (or rebuilding) it if
        needed. ``None`` when a pool makes no sense: untrained system,
        ``workers <= 1``. A pool broken by a worker crash is replaced on
        the next access — self-healing across runs, while the run that
        saw the crash finishes serially.

        The pool is sized ``min(workers, cpu_count)``: worker processes
        beyond the host's cores only add scheduling contention and
        redundant batch unpickling. The cap is output-invisible — the
        (learner × shard) task grid, span replay, and result assembly
        are functions of the batch and ``workers``, never of how many
        processes drained the queue — so ``--workers 4`` stays
        byte-identical on any host."""
        workers = self.workers
        if workers <= 1 or self.meta is None:
            self.close_pool()
            return None
        pool_size = max(1, min(workers, os.cpu_count() or 1))
        pool = self._procpool
        if pool is not None and (not pool.alive
                                 or pool.size != pool_size):
            self.close_pool()
            pool = None
        if pool is None:
            from .procpool import WorkerPool
            pool = WorkerPool(self.active_learners or self.learners,
                              pool_size)
            self._procpool = pool
        return pool

    def close_pool(self) -> None:
        """Shut down the worker-process pool, if one is live. Safe to
        call at any time; the next process-backend run rebuilds it."""
        pool = self._procpool
        if pool is not None:
            pool.shutdown()
        self._procpool = None

    def __getstate__(self) -> dict:
        # The policy holds run state (locks, fault counters) and is a
        # per-process concern: models persist without one. Same for the
        # worker pool — live processes do not pickle —
        # and for the execution settings, which belong to each run.
        state = {key: value for key, value in self.__dict__.items()
                 if key not in _RUN_SETTINGS}
        state["policy"] = None
        state["_procpool"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # A loaded model always starts serial on the default backend.
        self.__dict__.update(state)
        self.workers = 1
        self.backend = "process"

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_default_learners(cls, mediated_schema: MediatedSchema | str,
                              constraints: Sequence[Constraint] = (),
                              extra_learners: Sequence[BaseLearner] = (),
                              **kwargs) -> "LSDSystem":
        """LSD with the paper's learner set plus any domain recognizers."""
        return cls(mediated_schema,
                   [*default_learners(), *extra_learners],
                   constraints, **kwargs)

    # ------------------------------------------------------------------
    # training phase
    # ------------------------------------------------------------------
    def add_training_source(self, schema: SourceSchema | str,
                            listings: Sequence[Element],
                            mapping: Mapping | dict[str, str]) -> None:
        """Register one user-mapped source (§3.1 step 1)."""
        if isinstance(schema, str):
            schema = SourceSchema(schema)
        if isinstance(mapping, dict):
            mapping = Mapping(mapping)
        self.training_sources.append(
            TrainingSource(schema, list(listings), mapping))
        self.meta = None  # new data invalidates previous training
        self.close_pool()  # workers hold the now-stale model

    def train(self, observer: Observer | None = None) -> None:
        """Run the full training phase (§3.1 steps 2-5).

        ``observer`` records the ``train`` span tree (stages ``build``,
        ``fit``, ``cv``; recorded privately when it keeps no trace); a
        metrics registry it keeps receives the finished run's counts,
        read off that tree.
        """
        if not self.training_sources:
            raise RuntimeError("no training sources added")
        obs = with_trace(observer)
        trace = obs.trace
        with trace.span("train", sources=len(self.training_sources)
                        ) as train_span:
            with trace.span("build") as stage_span:
                instances, labels = build_training_set(
                    self.training_sources, self.space,
                    self.max_instances_per_tag)
                stage_span.set_attribute("instances", len(instances))
            if not instances:
                raise RuntimeError(
                    "training sources produced no instances")
            # One example table per builder, read by the full fit and
            # every cross-validation fold, and dropped when train ends.
            tables = StreamTables(instances, labels, self.space)
            with trace.span("fit"):
                survivors = train_base_learners(
                    self.learners, instances, labels, self.space,
                    observer=obs, policy=self.policy, tables=tables)
                if not survivors:
                    raise RuntimeError(
                        "every base learner failed to train")
                if self.pruner is not None:
                    self.pruner.fit(instances, labels, self.space)
            with trace.span("cv"):
                self.meta = train_meta_learner(
                    survivors, instances, labels, self.space,
                    folds=self.folds, seed=self.seed,
                    uniform=not self.use_meta_learner,
                    executor=self.executor, observer=obs, tables=tables)
        if obs.metrics is not None:
            record_run(obs.metrics, trace.spans, train_span.span_id)
        self.active_learners = survivors
        # Any live worker pool holds the pre-retrain model; drop it so
        # the next process-backend match rebuilds on the fresh one.
        self.close_pool()

    @property
    def is_trained(self) -> bool:
        return self.meta is not None

    # ------------------------------------------------------------------
    # matching phase
    # ------------------------------------------------------------------
    def match(self, schema: SourceSchema | str,
              listings: Sequence[Element],
              extra_constraints: Sequence[Constraint] = (),
              observer: Observer | None = None,
              checkpoint=None) -> MatchResult:
        """Propose 1-1 mappings for a new source (§3.2).

        ``observer`` receives the run's trace spans, metrics, and
        quality records (disabled by default; see
        :mod:`repro.observability`). ``checkpoint`` (an opened
        :class:`repro.runtime.Checkpointer`) arms crash-safe stage
        snapshots and byte-identical resume — see
        :func:`~repro.core.matching.match_source`.
        """
        if self.meta is None:
            raise RuntimeError("call train() before match()")
        if isinstance(schema, str):
            schema = SourceSchema(schema)
        score_filter = self.pruner.prune_scores if self.pruner else None
        # Quarantined-at-fit learners stay out of the matching ensemble.
        learners = self.active_learners or self.learners
        return match_source(
            schema, listings, learners, self.meta, self.converter,
            self.handler, self.space, extra_constraints,
            self.max_instances_per_tag, score_filter=score_filter,
            executor=self.executor, observer=observer,
            policy=self.policy,
            checkpoint=checkpoint)

    def confirm_and_learn(self, schema: SourceSchema | str,
                          listings: Sequence[Element],
                          mapping: Mapping | dict[str, str]) -> None:
        """Fold a confirmed matching back into the training set (§3.1).

        "Once a new source has been matched by LSD and the matchings have
        been confirmed/refined by the user, it can serve as an additional
        training source, making LSD unique in that it can directly and
        seamlessly reuse past matchings to continuously improve its
        performance." Adds the source and retrains immediately.
        """
        self.add_training_source(schema, listings, mapping)
        self.train()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def learner_names(self) -> list[str]:
        """Names of the configured base learners."""
        return [learner.name for learner in self.learners]

    def weight_table(self) -> dict[str, dict[str, float]]:
        """The meta-learner's per-(label, learner) weights."""
        if self.meta is None:
            raise RuntimeError("call train() first")
        return self.meta.weight_table()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "trained" if self.is_trained else "untrained"
        return (f"<LSDSystem {state}: {len(self.learners)} learners, "
                f"{len(self.space)} labels, "
                f"{len(self.training_sources)} training sources>")
