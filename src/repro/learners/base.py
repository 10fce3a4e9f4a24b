"""The base-learner interface and learner registry.

A base learner (§3.3) inspects training examples derived from XML element
instances and, once fitted, emits a confidence-score distribution over the
label space for each new instance. Implementations must be *cloneable* so
the stacking meta-learner can retrain them inside cross-validation folds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from ..core.instance import ElementInstance
from ..core.labels import LabelSpace
from ..core.prediction import Prediction, normalize_matrix
from .batching import ExampleTable


class BaseLearner(ABC):
    """Interface every LSD base learner implements.

    Score matrices returned by :meth:`predict_scores` are aligned to the
    label space given to :meth:`fit`: shape ``(n_instances, n_labels)``,
    rows non-negative and summing to one.
    """

    #: Stable identifier used by the meta-learner, lesion studies and
    #: reports. Subclasses override it.
    name: str = "base"

    #: True for learners (the XML learner) whose features depend on the
    #: labels of an instance's descendants. The matching pipeline re-runs
    #: such learners in a second pass once preliminary labels exist.
    uses_child_labels: bool = False

    #: Target rows per shard when the matching pipeline fans this
    #: learner's prediction out over a batch (``None`` = the default in
    #: :data:`repro.core.parallel.SHARD_TARGET_ROWS`). The plan is a
    #: pure function of the batch size, so any value is output-invisible
    #: — this is purely a cost declaration. A finer grain lets a
    #: parallel map split a learner, and costs the serial path one call
    #: per shard plus clustering the batch's duplicates: every default
    #: learner keeps the coarse default, where test-sized batches stay
    #: whole.
    shard_rows: int | None = None

    def __init__(self) -> None:
        self.space: LabelSpace | None = None

    @abstractmethod
    def fit(self, instances: Sequence[ElementInstance],
            labels: Sequence[str], space: LabelSpace) -> None:
        """Train on instances paired with their true labels."""

    @abstractmethod
    def predict_scores(self,
                       instances: Sequence[ElementInstance]) -> np.ndarray:
        """Confidence scores for each instance, aligned to the fit space."""

    @abstractmethod
    def clone(self) -> "BaseLearner":
        """A fresh, unfitted learner with the same configuration."""

    # ------------------------------------------------------------------
    # conveniences shared by all learners
    # ------------------------------------------------------------------
    def predict(self,
                instances: Sequence[ElementInstance]) -> list[Prediction]:
        """User-facing predictions (one :class:`Prediction` per instance)."""
        if self.space is None:
            raise RuntimeError(f"learner {self.name!r} is not fitted")
        scores = self.predict_scores(instances)
        return [Prediction(self.space, row) for row in scores]

    def _require_fitted(self) -> LabelSpace:
        if self.space is None:
            raise RuntimeError(f"learner {self.name!r} is not fitted")
        return self.space

    def _uniform(self, count: int) -> np.ndarray:
        space = self._require_fitted()
        return np.full((count, len(space)), 1.0 / len(space))

    @staticmethod
    def _normalize(matrix: np.ndarray) -> np.ndarray:
        return normalize_matrix(matrix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fitted" if self.space is not None else "unfitted"
        return f"<{type(self).__name__} {self.name!r} ({state})>"


class GroupingLearner(BaseLearner):
    """A learner that fits from grouped training examples.

    Its ``fit`` counts from an
    :class:`~repro.learners.batching.ExampleTable` built by the function
    :meth:`table_builder` returns. A training run builds that table once
    per builder (:class:`~repro.learners.batching.StreamTables`) and
    hands the full fit and each cross-validation fold clone a
    :class:`~repro.learners.batching.Fold` over it; ``fit`` and
    ``predict_scores`` accept the fold like any instance sequence.
    """

    @abstractmethod
    def example_table(self, instances: Sequence[ElementInstance],
                      labels: Sequence[str],
                      space: LabelSpace) -> ExampleTable:
        """Group ``instances`` under this learner's keys."""

    def table_builder(self) -> Callable[..., ExampleTable]:
        """The function that builds this learner's table from
        ``(instances, labels, space)``. Learners whose tables are equal
        return the same function, so a training run builds that table
        once for all of them."""
        return self.example_table


class LearnerRegistry:
    """Name -> factory registry; lets applications plug in new learners.

    The paper stresses that LSD "is extensible to additional learners";
    registering a factory here makes a learner available to
    ``LSDSystem.with_default_learners(extra=[...])`` and to the evaluation
    configuration ladder by name.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], BaseLearner]] = {}

    def register(self, name: str,
                 factory: Callable[[], BaseLearner]) -> None:
        """Register a zero-argument factory under ``name``."""
        if name in self._factories:
            raise ValueError(f"learner {name!r} is already registered")
        self._factories[name] = factory

    def create(self, name: str) -> BaseLearner:
        """Instantiate the learner registered under ``name``."""
        try:
            factory = self._factories[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "<none>"
            raise KeyError(
                f"no learner named {name!r}; known: {known}") from None
        return factory()

    def names(self) -> list[str]:
        """All registered learner names."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


#: The process-wide default registry (populated by repro.learners).
registry = LearnerRegistry()
