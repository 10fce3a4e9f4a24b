"""The training phase (§3.1): from user-mapped sources to trained learners.

Steps, as in the paper:

1. the user supplies 1-1 mappings for a few sources (here:
   :class:`TrainingSource` records);
2. data is extracted from each source (``extract_columns``);
3. per-learner training examples are created — in this implementation
   every learner consumes the same :class:`ElementInstance` stream and
   extracts its own features, which is equivalent to the paper's
   per-learner example sets;
4. each base learner is trained;
5. the meta-learner is trained by cross-validating the base learners and
   regressing per-label weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..learners.base import BaseLearner
from ..learners.meta import StackingMetaLearner, cross_validate_many
from ..observability import Observer, resolve_observer
from ..observability.metrics import M_TRAIN_INSTANCES
from ..resilience.policy import call_with_timeout
from ..resilience.sites import SITE_LEARNER_FIT
from ..xmlio import Element
from .instance import (ElementInstance, extract_columns, fill_child_labels)
from .labels import OTHER, LabelSpace
from .mapping import Mapping
from .parallel import ParallelExecutor, resolve
from .schema import SourceSchema


@dataclass
class TrainingSource:
    """One user-mapped source: schema + extracted listings + 1-1 mapping."""

    schema: SourceSchema
    listings: list[Element]
    mapping: Mapping

    def __post_init__(self) -> None:
        unknown = [tag for tag in self.mapping.tags()
                   if tag not in self.schema.tags]
        if unknown:
            raise ValueError(
                f"mapping mentions tags not in schema "
                f"{self.schema.name!r}: {unknown}")


def build_training_set(sources: list[TrainingSource],
                       space: LabelSpace,
                       max_instances_per_tag: int | None = None
                       ) -> tuple[list[ElementInstance], list[str]]:
    """Create the (instance, true-label) training stream (§3.1 steps 2-3).

    Source tags absent from the user mapping are labelled OTHER, training
    the learners to recognise unmatchable elements. Labels outside the
    mediated schema's label space raise: that is a user error in the
    supplied mapping.
    """
    instances: list[ElementInstance] = []
    labels: list[str] = []
    for source in sources:
        columns = extract_columns(source.schema, source.listings,
                                  max_instances_per_tag)
        label_of = {tag: source.mapping.get(tag, OTHER)
                    for tag in source.schema.tags}
        for tag, label in label_of.items():
            if label not in space:
                raise ValueError(
                    f"mapping of source {source.schema.name!r} assigns "
                    f"{tag!r} the unknown label {label!r}")
        fill_child_labels(columns, label_of)
        for tag in source.schema.tags:
            label = label_of[tag]
            for instance in columns[tag].instances:
                instances.append(instance)
                labels.append(label)
    return instances, labels


def train_base_learners(learners: list[BaseLearner],
                        instances: list[ElementInstance],
                        labels: list[str], space: LabelSpace,
                        observer: Observer | None = None,
                        policy=None) -> list[BaseLearner]:
    """§3.1 step 4: fit every base learner on the training stream.

    Returns the learners that trained successfully. Without a
    ``policy`` that is all of them — any fit error propagates, as it
    always has. With a :class:`repro.resilience.ResiliencePolicy`, a
    learner whose ``fit`` raises (or exceeds the policy's per-call
    timeout) is *quarantined*: dropped from the ensemble and recorded
    in the policy's degradation report, so one broken learner cannot
    take down the training run.

    ``observer`` records one ``fit.<learner>`` span per base learner.
    """
    obs = resolve_observer(observer)
    names = [learner.name for learner in learners]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate learner names: {names}")
    obs.metrics.counter(M_TRAIN_INSTANCES).inc(len(instances))
    survivors: list[BaseLearner] = []
    for learner in learners:
        with obs.trace.span(f"fit.{learner.name}",
                            instances=len(instances)):
            if policy is None:
                learner.fit(instances, labels, space)
                survivors.append(learner)
                continue
            try:
                policy.fire(SITE_LEARNER_FIT, learner.name)
                call_with_timeout(learner.fit,
                                  (instances, labels, space),
                                  policy.learner_timeout)
            except Exception as exc:  # lsd: ignore[blind-except]
                # Quarantine boundary: *any* learner failure — bugs in
                # plugin learners included — must degrade, not crash.
                policy.report.quarantine(
                    learner.name, "fit",
                    str(exc) or type(exc).__name__,
                    type(exc).__name__)
            else:
                survivors.append(learner)
    return survivors


def train_meta_learner(learners: list[BaseLearner],
                       instances: list[ElementInstance],
                       labels: list[str], space: LabelSpace,
                       folds: int = 5, seed: int = 0,
                       uniform: bool = False,
                       executor: ParallelExecutor | None = None,
                       observer: Observer | None = None
                       ) -> StackingMetaLearner:
    """§3.1 step 5: cross-validate the base learners and fit the stacking
    weights. ``uniform=True`` skips stacking (the meta-learner ablation)
    and averages learners instead.

    Cross-validation runs the (learner × fold) tasks through
    ``executor`` for its resilience policy, serially, and gathers the
    results into learner order. ``observer`` flows into
    :func:`~repro.learners.meta.cross_validate_many`.
    """
    obs = resolve_observer(observer)
    meta = StackingMetaLearner(folds=folds, seed=seed)
    if uniform:
        meta.fit_uniform([learner.name for learner in learners], space)
        return meta
    per_learner = cross_validate_many(learners, instances, labels, space,
                                      folds=folds, seed=seed,
                                      executor=resolve(executor),
                                      observer=obs)
    cv_scores = {
        learner.name: scores
        for learner, scores in zip(learners, per_learner)
    }
    with obs.trace.span("fit_meta"):
        meta.fit(cv_scores, labels, space)
    return meta
