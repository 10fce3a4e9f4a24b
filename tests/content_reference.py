"""The content matcher's per-instance fit, kept as the reference for its
table path.

Before it fitted from the shared example table, the content matcher
walked its training instances in order, kept the first
``max_examples_per_label`` of each label, and handed their content
tokens to :meth:`repro.learners.whirl.WhirlIndex.fit`, which stores each
distinct ``(document, label)`` pair once. It scored any batch, held-out
folds included, from token lists. :class:`ReferenceContentMatcher` is
that learner, so any difference from
:class:`repro.learners.ContentMatcher` is a difference of the table path.
"""

from __future__ import annotations

import numpy as np

from repro.core import featurize
from repro.learners import ContentMatcher
from repro.learners.batching import score_distinct


class ReferenceContentMatcher(ContentMatcher):
    """The content matcher as it was: per-instance fit, list scoring."""

    def clone(self) -> "ReferenceContentMatcher":
        return ReferenceContentMatcher(self.max_neighbors,
                                       self.max_examples_per_label)

    def fit(self, instances, labels, space) -> None:
        self.space = space
        per_label: dict[str, int] = {}
        documents: list[list[str]] = []
        kept_labels: list[str] = []
        for instance, label in zip(instances, labels):
            count = per_label.get(label, 0)
            if count >= self.max_examples_per_label:
                continue
            per_label[label] = count + 1
            documents.append(self._document(instance))
            kept_labels.append(label)
        self._index.fit(documents, kept_labels, space)

    def predict_scores(self, instances):
        space = self._require_fitted()
        instances = list(instances)
        if not instances:
            return np.zeros((0, len(space)))
        texts = [featurize.instance_text(i) for i in instances]
        return score_distinct(
            texts, lambda firsts: self._index.scores(
                [self._document(instances[i]) for i in firsts]))
