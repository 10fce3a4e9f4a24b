"""The XML learner's string walk, kept as the reference for its node table.

Before the node table, the XML learner built each instance's structure
*skeleton* (a nested ``(words, ((child_tag, child_skeleton), ...))``
tuple), walked it under the instance's child labels into string tokens
(``word``, ``P->word``, ``node:X``, ``P->X``), and looked every token up
in its vocabulary dict. :class:`ReferenceXMLLearner` is that learner:
it fits from the same example table and scores through
``NaiveBayesLearner._score_documents``, so any difference from
:class:`repro.learners.XMLLearner` is a difference of the node table.
"""

from __future__ import annotations

from repro.core import featurize
from repro.core.instance import ElementInstance
from repro.learners import NaiveBayesLearner
from repro.learners.batching import Fold, score_distinct
from repro.xmlio import Element

UNKNOWN_NODE = "?"
ROOT_NODE = "d"


def node_words(instance: ElementInstance, node: Element,
               is_leaf: bool) -> list[str]:
    """Word tokens of one node's immediate text; the instance's content
    tokens stand in for a leaf instance root without attributes."""
    if node is instance.element and not node.attributes and is_leaf:
        return featurize.content_tokens(instance)
    return featurize.pipeline_tokens(node.immediate_text())


def build_skeleton(instance: ElementInstance, node: Element) -> tuple:
    """``(words, ((child_tag, child_skeleton), ...))`` for one subtree."""
    children = [child for child in node.children
                if isinstance(child, Element)]
    words = tuple(node_words(instance, node, is_leaf=not children))
    return words, tuple((child.tag, build_skeleton(instance, child))
                        for child in children)


def structure_tokens(instance: ElementInstance,
                     include_structure: bool = True) -> list[str]:
    """The walk's text, node and edge tokens, in walk order."""
    tokens: list[str] = []
    labels = instance.child_labels

    def walk(skeleton: tuple, node_name: str) -> None:
        words, children = skeleton
        for word in words:
            tokens.append(word)
            if include_structure:
                tokens.append(f"{node_name}->{word}")
        for child_tag, child_skeleton in children:
            child_label = labels.get(child_tag, UNKNOWN_NODE)
            if include_structure:
                tokens.append(f"node:{child_label}")
                tokens.append(f"{node_name}->{child_label}")
            walk(child_skeleton, child_label)

    walk(build_skeleton(instance, instance.element), ROOT_NODE)
    return tokens


class ReferenceXMLLearner(NaiveBayesLearner):
    """The string-walk XML learner: keys are ``(skeleton, labels)``."""

    name = "xml_learner"

    def __init__(self, alpha: float = 1.0,
                 include_structure: bool = True) -> None:
        self.include_structure = include_structure
        super().__init__(alpha=alpha, tokenizer=self._tokens)

    def _tokens(self, instance: ElementInstance) -> list[str]:
        return structure_tokens(instance, self.include_structure)

    def _group_keys(self, instances):
        if not featurize.is_enabled():
            return list(range(len(instances)))
        return [(build_skeleton(instance, instance.element),
                 tuple(sorted(instance.child_labels.items())))
                for instance in instances]

    def _documents(self, instances, keys, positions):
        return [self._tokens(instances[i]) for i in positions]

    def predict_scores(self, instances):
        if isinstance(instances, Fold) or not instances:
            return super().predict_scores(instances)
        keys = self._group_keys(instances)
        return score_distinct(keys, lambda firsts: self._score_documents(
            [self._tokens(instances[i]) for i in firsts]))

    def clone(self) -> "ReferenceXMLLearner":
        return ReferenceXMLLearner(self.alpha, self.include_structure)
