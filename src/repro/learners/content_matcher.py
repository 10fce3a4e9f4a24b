"""The content matcher: WHIRL nearest-neighbour over data content.

"The Content Matcher also uses Whirl. However, this learner matches an XML
element using its data content, instead of its tag name" (§3.3). It is
strong on long textual elements (house descriptions) and elements with
distinctive value vocabularies (colours), weak on short numeric fields.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import featurize
from ..core.instance import ElementInstance
from ..core.labels import LabelSpace
from .base import BaseLearner
from .batching import score_distinct
from .whirl import WhirlIndex


class ContentMatcher(BaseLearner):
    """WHIRL classifier over stemmed content tokens."""

    name = "content_matcher"

    #: Nearest-neighbour scoring is per-distinct-row work (each shard
    #: scores its distinct texts once, and the fan-out clusters
    #: duplicates into one shard), so splitting a batch costs nothing —
    #: declare a fine grain and let parallel maps spread the ensemble's
    #: most expensive learner across workers.
    shard_rows = 256

    def __init__(self, max_neighbors: int = 30,
                 max_examples_per_label: int = 400) -> None:
        super().__init__()
        self.max_neighbors = max_neighbors
        #: Cap on stored examples per label: nearest-neighbour cost scales
        #: with the index size and a few hundred examples per label carry
        #: all the signal the vote combination can use.
        self.max_examples_per_label = max_examples_per_label
        self._index = WhirlIndex(max_neighbors=max_neighbors)

    def clone(self) -> "ContentMatcher":
        return ContentMatcher(self.max_neighbors,
                              self.max_examples_per_label)

    # ------------------------------------------------------------------
    @staticmethod
    def _document(instance: ElementInstance) -> list[str]:
        # Shared with the Naive Bayes tokenizer via the featurize cache:
        # both learners read the same token bag, computed once.
        return featurize.content_tokens(instance)

    def fit(self, instances: Sequence[ElementInstance],
            labels: Sequence[str], space: LabelSpace) -> None:
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

    def predict_scores(self,
                       instances: Sequence[ElementInstance]) -> np.ndarray:
        space = self._require_fitted()
        if not instances:
            return np.zeros((0, len(space)))
        # The content document is a pure function of the instance text:
        # tokenize and score once per distinct text, broadcast the rows.
        texts = [featurize.instance_text(i) for i in instances]
        return score_distinct(
            texts, lambda firsts: self._index.scores(
                [self._document(instances[i]) for i in firsts]))
