"""Stacking meta-learner: per-label least-squares learner weights (§3.1).

Training (step 5 of the training phase):

1. Cross-validate every base learner on the training examples (``d = 5``
   folds, per the paper) to obtain unbiased prediction sets ``CV(L)``.
2. For each label ``c``, gather the tuples
   ``<s(c|x,L1), ..., s(c|x,Lk), l(c,x)>`` over all training instances.
3. Least-squares regression of the indicator ``l(c,x)`` on the learner
   scores yields the weights ``W[c, Lj]``.

Matching: the combined score of label ``c`` for an instance is
``sum_j W[c, Lj] * s(c|x, Lj)``, then the scores are normalised.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.instance import ElementInstance
from ..core.labels import LabelSpace
from ..core.parallel import ParallelExecutor, resolve
from ..core.prediction import normalize_matrix
from ..observability import Observer, resolve_observer
from ..observability.metrics import M_CV_TASKS
from .base import BaseLearner


def _fold_splits(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """The held-out index blocks: a seeded shuffle split into ``folds``
    near-equal parts. Pure function of ``(n, folds, seed)``, so every
    caller that shares the seed shares the exact fold membership."""
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), folds)


def _run_fold(learner: BaseLearner,
              instances: Sequence[ElementInstance],
              labels: Sequence[str], space: LabelSpace,
              train_idx: np.ndarray, held_out: np.ndarray) -> np.ndarray:
    """One (learner, fold) task: train a clone, predict the held-out
    block; uniform scores when the clone cannot be trained."""
    clone = learner.clone()
    try:
        clone.fit([instances[i] for i in train_idx],
                  [labels[i] for i in train_idx], space)
        return clone.predict_scores([instances[i] for i in held_out])
    except (ValueError, RuntimeError):
        return np.full((len(held_out), len(space)), 1.0 / len(space))


def cross_validate_many(learners: Sequence[BaseLearner],
                        instances: Sequence[ElementInstance],
                        labels: Sequence[str], space: LabelSpace,
                        folds: int = 5, seed: int = 0,
                        executor: ParallelExecutor | None = None,
                        observer: Observer | None = None
                        ) -> list[np.ndarray]:
    """Out-of-fold predictions for every learner, one task per
    (learner, fold).

    The examples are shuffled into ``folds`` equal parts; each part is
    predicted by a clone trained on the remaining parts, preventing the
    bias the paper warns about ("when applied to any example t, it has
    already been trained on t"). All learners share the same seeded fold
    split, exactly as if each were cross-validated alone.

    ``folds`` is capped at ``n`` so every training split keeps at least
    one example (with ``n == 1`` no split can train at all and every
    example gets uniform scores). A split whose clone cannot be trained
    — e.g. a WHIRL learner handed zero usable documents — also falls
    back to uniform out-of-fold scores instead of crashing the whole
    training phase.

    The k*d (learner, fold) tasks run through ``executor``, which
    applies its resilience policy (fault sites, retries) to each task.
    Fold tasks are closures over live learners, so they run serially
    at any worker count; results are gathered positionally into
    per-learner matrices whose fold blocks are disjoint rows.

    ``observer`` records a ``folds`` span with one
    ``fold.<learner>.<k>`` child per (learner, fold) task.
    """
    obs = resolve_observer(observer)
    n = len(instances)
    n_labels = len(space)
    if n == 0:
        return [np.zeros((0, n_labels)) for _ in learners]
    folds = min(folds, n)
    if folds < 2:
        # A single example cannot be held out of its own training set.
        return [np.full((n, n_labels), 1.0 / n_labels) for _ in learners]
    boundaries = _fold_splits(n, folds, seed)
    all_indices = np.arange(n)
    train_sets = [np.setdiff1d(all_indices, held_out)
                  for held_out in boundaries]
    tasks = [(learner, fold, train_idx, held_out)
             for learner in learners
             for fold, (train_idx, held_out)
             in enumerate(zip(train_sets, boundaries))]
    obs.metrics.counter(M_CV_TASKS).inc(len(tasks))
    with obs.trace.span("folds", folds=folds,
                        learners=len(learners)) as folds_span:

        def run_task(task) -> np.ndarray:
            learner, fold, train_idx, held_out = task
            with obs.trace.span(f"fold.{learner.name}.{fold}",
                                parent=folds_span.span_id,
                                held_out=len(held_out)):
                return _run_fold(learner, instances, labels, space,
                                 train_idx, held_out)

        blocks = resolve(executor).map(run_task, tasks)
    matrices: list[np.ndarray] = []
    for learner_index in range(len(learners)):
        scores = np.zeros((n, n_labels))
        for fold_index, held_out in enumerate(boundaries):
            scores[held_out] = blocks[learner_index * folds + fold_index]
        matrices.append(scores)
    return matrices


def cross_validate(learner: BaseLearner,
                   instances: Sequence[ElementInstance],
                   labels: Sequence[str], space: LabelSpace,
                   folds: int = 5, seed: int = 0,
                   executor: ParallelExecutor | None = None,
                   observer: Observer | None = None) -> np.ndarray:
    """Out-of-fold predictions of one learner — see
    :func:`cross_validate_many`, whose single-learner case this is."""
    return cross_validate_many(
        [learner], instances, labels, space,
        folds=folds, seed=seed, executor=executor, observer=observer)[0]


class StackingMetaLearner:
    """Combines base-learner score matrices with per-label weights."""

    def __init__(self, folds: int = 5, regularization: float = 0.05,
                 seed: int = 0) -> None:
        self.folds = folds
        #: Ridge strength, as a fraction of the training-set size, pulling
        #: the weights toward uniform averaging. Plain least squares is
        #: brittle here: base learners are correlated, and a learner that
        #: happens to be near-perfect on the training *sources* (e.g. the
        #: name matcher when training tag names all share synonyms) would
        #: zero out every other learner and then fail on a source with
        #: novel names. Shrinking toward the average keeps every learner's
        #: evidence alive while still letting the regression shift trust.
        self.regularization = regularization
        self.seed = seed
        self.learner_names: tuple[str, ...] = ()
        self.weights: np.ndarray | None = None  # (n_labels, n_learners)
        self.space: LabelSpace | None = None

    @property
    def is_fitted(self) -> bool:
        return self.weights is not None

    # ------------------------------------------------------------------
    def fit(self, cv_scores: dict[str, np.ndarray],
            labels: Sequence[str], space: LabelSpace) -> None:
        """Learn weights from cross-validated base-learner scores.

        ``cv_scores[name]`` is the ``(n, n_labels)`` out-of-fold score
        matrix of one base learner (from :func:`cross_validate`).
        """
        if not cv_scores:
            raise ValueError("need at least one base learner")
        self.space = space
        self.learner_names = tuple(cv_scores)
        n = len(labels)
        n_labels = len(space)
        n_learners = len(self.learner_names)

        # indicator[i, c] = l(c, x_i)
        indicator = np.zeros((n, n_labels))
        for i, label in enumerate(labels):
            indicator[i, space.index_of(label)] = 1.0

        self.weights = np.zeros((n_labels, n_learners))
        lam = self.regularization * max(n, 1)
        ridge = lam * np.eye(n_learners)
        prior = np.full(n_learners, 1.0 / n_learners)
        for c in range(n_labels):
            # design[i, j] = s(c | x_i, L_j)
            design = np.column_stack(
                [cv_scores[name][:, c] for name in self.learner_names])
            gram = design.T @ design + ridge
            target = design.T @ indicator[:, c] + lam * prior
            # Negative weights would let one learner's *low* score argue
            # for a label; clip to keep combination interpretable.
            row = np.maximum(np.linalg.solve(gram, target), 0.0)
            if not row.any():
                # Clipping an all-negative solution would leave this
                # label with zero weight everywhere — no learner could
                # vote for it and its combined column would be
                # identically zero (and zero out of the quarantine
                # renormalization too). Fall back to uniform averaging.
                row = prior.copy()
            self.weights[c] = row
        # Fitted weights are read-only from here on: combination and
        # quarantine renormalization work on copies, so the table can be
        # shared zero-copy across worker processes / memmapped models
        # (repro.core.shared_arrays documents the contract).
        self.weights.setflags(write=False)

    def fit_uniform(self, learner_names: Sequence[str],
                    space: LabelSpace) -> None:
        """Ablation baseline: equal weight for every learner and label."""
        self.space = space
        self.learner_names = tuple(learner_names)
        self.weights = np.full((len(space), len(self.learner_names)),
                               1.0 / len(self.learner_names))
        self.weights.setflags(write=False)  # same contract as fit()

    # ------------------------------------------------------------------
    def combine(self, scores_by_learner: dict[str, np.ndarray],
                missing_ok: bool = False) -> np.ndarray:
        """Weighted combination of base-learner score matrices.

        Returns a normalised ``(n, n_labels)`` matrix.

        ``missing_ok=True`` tolerates learners absent from
        ``scores_by_learner`` (e.g. quarantined mid-run): each label's
        weight row is renormalized over the survivors so the row keeps
        its original mass. A label whose surviving weights are all zero
        falls back to uniform weighting over the survivors. With every
        fitted learner present the weights are used untouched, so the
        healthy path is byte-identical either way.
        """
        if self.weights is None or self.space is None:
            raise RuntimeError("meta-learner is not fitted")
        missing = set(self.learner_names) - set(scores_by_learner)
        if missing and not missing_ok:
            raise ValueError(f"missing scores for learners: {missing}")
        names = [name for name in self.learner_names
                 if name in scores_by_learner]
        if not names:
            raise ValueError("no surviving learners to combine")
        weights = self.weights if not missing \
            else self._renormalized_weights(names)
        stacked = np.stack([np.asarray(scores_by_learner[name],
                                       dtype=np.float64)
                            for name in names])
        # One einsum over the (learner, instance, label) stack. No
        # ``optimize=True``: the default einsum path accumulates the
        # learner axis element-wise in index order — deterministic and
        # row-independent, which keeps batch scoring bitwise equal to
        # per-instance scoring.
        combined = np.einsum("lnc,cl->nc", stacked, weights)
        return normalize_matrix(combined)

    def _renormalized_weights(self, names: Sequence[str]) -> np.ndarray:
        """Per-label weight rows restricted to ``names``, rescaled so
        each row keeps the mass it had over the full ensemble."""
        assert self.weights is not None
        columns = [self.learner_names.index(name) for name in names]
        sub = self.weights[:, columns].copy()
        full_sums = self.weights.sum(axis=1)
        sub_sums = sub.sum(axis=1)
        live = sub_sums > 0
        scale = np.where(live, full_sums / np.where(live, sub_sums, 1.0),
                         0.0)
        sub *= scale[:, None]
        dead = (~live) & (full_sums > 0)
        if dead.any():
            sub[dead] = full_sums[dead, None] / len(names)
        return sub

    def weight_of(self, label: str, learner_name: str) -> float:
        """The learned weight ``W[label, learner]``."""
        if self.weights is None or self.space is None:
            raise RuntimeError("meta-learner is not fitted")
        return float(self.weights[self.space.index_of(label),
                                  self.learner_names.index(learner_name)])

    def weight_table(self) -> dict[str, dict[str, float]]:
        """``{label: {learner: weight}}`` view for reports and debugging."""
        if self.weights is None or self.space is None:
            raise RuntimeError("meta-learner is not fitted")
        return {
            label: {name: float(self.weights[c, j])
                    for j, name in enumerate(self.learner_names)}
            for c, label in enumerate(self.space.labels)
        }
