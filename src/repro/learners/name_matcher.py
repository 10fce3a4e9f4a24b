"""The name matcher: WHIRL nearest-neighbour over expanded tag names.

"The Name Matcher matches an XML element using its tag name (expanded with
synonyms and all tag names leading to this element from the root element)"
(§3.3). It is strong on specific, descriptive names (``price``,
``house-location``) and weak on vacuous ones (``item``, ``listing``) —
the meta-learner's per-label weights account for that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.instance import ElementInstance
from ..core.labels import LabelSpace
from ..text import SynonymDictionary, default_synonyms, expand_name
from .base import GroupingLearner
from .batching import ExampleTable, Fold, fit_table, group_distinct
from .whirl import WhirlIndex


class NameMatcher(GroupingLearner):
    """WHIRL classifier over tag-name tokens."""

    name = "name_matcher"

    def __init__(self, synonyms: SynonymDictionary | None = None,
                 use_paths: bool = True, max_neighbors: int = 30) -> None:
        super().__init__()
        self.synonyms = synonyms if synonyms is not None \
            else default_synonyms()
        self.use_paths = use_paths
        self.max_neighbors = max_neighbors
        self._index = WhirlIndex(max_neighbors=max_neighbors)

    def clone(self) -> "NameMatcher":
        return NameMatcher(self.synonyms, self.use_paths,
                           self.max_neighbors)

    # ------------------------------------------------------------------
    def _document(self, instance: ElementInstance) -> list[str]:
        path = instance.path[1:] if self.use_paths else ()
        return expand_name(instance.tag, path, self.synonyms)

    def example_table(self, instances: Sequence[ElementInstance],
                      labels: Sequence[str],
                      space: LabelSpace) -> ExampleTable:
        # Every instance of a tag shares the same name document: expand
        # each distinct (tag, path) once.
        return ExampleTable(
            [(i.tag, i.path) for i in instances], labels, space,
            lambda firsts: [self._document(instances[i]) for i in firsts])

    def fit(self, instances: Sequence[ElementInstance],
            labels: Sequence[str], space: LabelSpace) -> None:
        if len(instances) != len(labels):
            raise ValueError("instances and labels differ in length")
        self.space = space
        # The index keeps each distinct (document, label) pair in
        # first-seen order, which the distinct examples preserve.
        table, positions = fit_table(self, instances, labels, space)
        examples, _ = table.examples(positions)
        self._index.fit(
            [table.documents[k] for k in table.example_key[examples]],
            [space.label_at(r) for r in table.example_row[examples]],
            space)

    def predict_scores(self,
                       instances: Sequence[ElementInstance]) -> np.ndarray:
        space = self._require_fitted()
        if not instances:
            return np.zeros((0, len(space)))
        # Every instance of a tag shares the same name document: score each
        # distinct (tag, path) once and broadcast.
        if isinstance(instances, Fold):
            keys, inverse = instances.distinct_keys()
            documents = instances.table().documents
            return self._index.scores([documents[k] for k in keys])[inverse]
        keys = [(i.tag, i.path) for i in instances]
        firsts, inverse = group_distinct(keys)
        per_key = self._index.scores(
            [self._document(instances[i]) for i in firsts])
        return per_key[inverse]
