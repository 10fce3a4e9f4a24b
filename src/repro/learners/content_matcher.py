"""The content matcher: WHIRL nearest-neighbour over data content.

"The Content Matcher also uses Whirl. However, this learner matches an XML
element using its data content, instead of its tag name" (§3.3). It is
strong on long textual elements (house descriptions) and elements with
distinctive value vocabularies (colours), weak on short numeric fields.

It fits from the example table Naive Bayes reads
(:func:`~repro.learners.batching.content_table`: keyed by instance text,
documents the content tokens), so a training run builds that table once
for both learners. The fit caps each label's positions, keeps each
distinct ``(document, label)`` pair once in first-seen order, and builds
the TF-IDF space from the table's token ids; a held-out fold is scored
once per distinct key from the same ids. Both give the bits of fitting
and scoring the documents' token lists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import featurize
from ..core.instance import ElementInstance
from ..core.labels import LabelSpace
from .base import GroupingLearner
from .batching import Fold, content_table, fit_table, score_distinct
from .whirl import WhirlIndex


class ContentMatcher(GroupingLearner):
    """WHIRL classifier over stemmed content tokens."""

    name = "content_matcher"

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

    #: Naive Bayes' table: ``table_builder`` returns this function
    #: itself, so a training run builds the table once for both.
    example_table = staticmethod(content_table)

    def fit(self, instances: Sequence[ElementInstance],
            labels: Sequence[str], space: LabelSpace) -> None:
        if len(instances) != len(labels):
            raise ValueError("instances and labels differ in length")
        self.space = space
        table, positions = fit_table(self, instances, labels, space)
        rows = table.rows(positions)
        # Keep the first max_examples_per_label positions of each label:
        # a position's rank among its label's, in position order.
        order = np.argsort(rows, kind="stable")
        grouped = rows[order]
        rank = np.empty(len(rows), dtype=np.intp)
        rank[order] = np.arange(len(rows)) - np.searchsorted(grouped,
                                                             grouped)
        kept = rank < self.max_examples_per_label
        positions, rows = positions[kept], rows[kept]
        # Each distinct (document, label) pair once, in first-seen order.
        documents = table.document_ids()[table.key_of[positions]]
        _, firsts = np.unique(documents * len(space) + rows,
                              return_index=True)
        firsts.sort()
        ids, lengths = table.concatenated(
            table.key_of[positions[firsts]])
        self._index.fit_ids(table.tokens, ids, lengths, rows[firsts],
                            space)

    def predict_scores(self,
                       instances: Sequence[ElementInstance]) -> np.ndarray:
        space = self._require_fitted()
        if not instances:
            return np.zeros((0, len(space)))
        if isinstance(instances, Fold):
            # A held-out fold: score each distinct key of the table once,
            # from its global token ids mapped to this fit's columns.
            table = instances.table()
            keys, inverse = instances.distinct_keys()
            ids, lengths = table.concatenated(keys)
            return self._index.scores_columns(
                table.columns(ids, self._index.vocabulary),
                lengths)[inverse]
        # The content document is a pure function of the instance text:
        # tokenize and score once per distinct text, broadcast the rows.
        texts = [featurize.instance_text(i) for i in instances]
        return score_distinct(
            texts, lambda firsts: self._index.scores(
                [self._document(instances[i]) for i in firsts]))
