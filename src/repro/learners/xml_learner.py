"""The XML learner: Naive Bayes over text, node, and edge tokens (§5).

Flat text learners confuse structured classes (HOUSE vs CONTACT-INFO vs
AGENT-INFO) because they share vocabulary. The XML learner keeps the Naive
Bayes machinery but adds *structure tokens* derived from the instance tree
after replacing each non-root, non-leaf node with its (true or predicted)
label:

* **node tokens** — one per labelled descendant node
  (``CONTACT-INFO`` instances contain ``AGENT-NAME`` node tokens,
  ``DESCRIPTION`` instances do not);
* **edge tokens** — one per parent→child pair, where the instance root is
  the generic node ``d`` and leaf words count as children
  (``d→AGENT-NAME`` separates AGENT-INFO from HOUSE even when the node
  token ``AGENT-NAME`` appears in both; ``WATERFRONT→yes`` carries signal
  the bare word ``yes`` does not).

During training the descendant labels come from the user-provided mapping;
during matching, from LSD's current predictions for the child tags
(``ElementInstance.child_labels`` is filled by the pipelines either way —
Table 2 of the paper).

The instance trees are read once per stream into a
:class:`~repro.learners.node_table.NodeTable`. Prediction lays each
batch's tokens out as integer arrays and maps them to vocabulary columns
in numpy, with no token string built and no per-key deduplication. A
fit groups its examples by ``(subtree shape, label map)`` ids from the
same table and makes token strings only for the distinct tokens of its
documents. Cross-validation folds keep the shared
:class:`~repro.learners.batching.ExampleTable` path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import featurize
from ..core.instance import ElementInstance
from .batching import Fold
from .naive_bayes import NaiveBayesLearner
from .node_table import ROOT_NODE, UNKNOWN_NODE, Columns, locate

__all__ = ["ROOT_NODE", "UNKNOWN_NODE", "XMLLearner", "structure_tokens"]


def structure_tokens(instance: ElementInstance,
                     include_structure: bool = True) -> list[str]:
    """The XML learner's bag of text + node + edge tokens, as strings:
    per preorder node ``node:X`` and ``P->X`` (not for the root), then
    its words, each followed by ``X->word``."""
    [(table, _, nodes)] = locate([instance])
    kind, left, right, _ = table.layout(
        nodes, table.label_maps([instance]), include_structure)
    return table.strings(kind, left, right)


class XMLLearner(NaiveBayesLearner):
    """Naive Bayes with structure tokens; see module docstring."""

    name = "xml_learner"
    uses_child_labels = True

    #: The fitted vocabulary's :class:`Columns`, built on first
    #: prediction. Derived state: never pickled.
    _columns: Columns | None = None

    def __init__(self, alpha: float = 1.0,
                 include_structure: bool = True) -> None:
        self.include_structure = include_structure
        super().__init__(alpha=alpha, tokenizer=self._structure_tokenizer)

    def _structure_tokenizer(self,
                             instance: ElementInstance) -> list[str]:
        return structure_tokens(instance, self.include_structure)

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_columns", None)
        return state

    def _group_keys(self, instances):
        """Group by ``(subtree shape, child-label map)`` ids.

        Equal shapes under equal label maps lay out equal tokens, so
        the key is exact. Ids are numbered per table, and every table
        of the call gets its own range of keys. With memoisation off
        nothing is grouped, so positions stand in for the keys.
        """
        if not featurize.is_enabled():
            return list(range(len(instances)))
        keys = np.empty(len(instances), dtype=np.int64)
        base = 0
        for table, positions, nodes in locate(instances):
            maps = table.label_maps([instances[i] for i in positions])
            keys[positions] = (base + table.shapes()[nodes]
                               * table.map_count + maps)
            base += table.shape_count * table.map_count
        return keys.tolist()

    def _documents(self, instances, keys, positions):
        """The token strings of the instances at ``positions``, laid
        out from their tables; each distinct token's string is built
        once per table."""
        chosen = [instances[i] for i in positions]
        documents: list = [None] * len(chosen)
        for table, where, nodes in locate(chosen):
            kind, left, right, lengths = table.layout(
                nodes, table.label_maps([chosen[i] for i in where]),
                self.include_structure)
            tokens = table.strings(kind, left, right)
            ends = np.cumsum(lengths).tolist()
            for i, start, end in zip(where.tolist(), [0] + ends, ends):
                documents[i] = tokens[start:end]
        return documents

    def predict_scores(self,
                       instances: Sequence[ElementInstance]) -> np.ndarray:
        if isinstance(instances, Fold) or not instances:
            return super().predict_scores(instances)
        self._require_fitted()
        columns = self._columns
        if columns is None or columns.words is not self.vocabulary:
            columns = self._columns = Columns(self.vocabulary)
        groups = locate(instances)
        scores = None
        for table, positions, nodes in groups:
            maps = table.label_maps(
                instances if len(groups) == 1
                else [instances[i] for i in positions])
            kind, left, right, lengths = table.layout(
                nodes, maps, self.include_structure)
            part = self._score_columns(
                table.columns(columns, kind, left, right), lengths)
            if len(groups) == 1:
                return part
            if scores is None:
                scores = np.empty((len(instances), part.shape[1]))
            scores[positions] = part
        return scores

    def clone(self) -> "XMLLearner":
        return XMLLearner(self.alpha, self.include_structure)
