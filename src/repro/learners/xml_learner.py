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
"""

from __future__ import annotations

from ..core import featurize
from ..core.instance import ElementInstance
from ..xmlio import Element
from .naive_bayes import NaiveBayesLearner

#: Label given to descendant tags for which no label is known (yet).
UNKNOWN_NODE = "?"
#: The generic root node of every instance tree (paper's ``d``).
ROOT_NODE = "d"

#: feature_cache key of the cached (words, children) skeleton.
_SKELETON = "structure_skeleton"

#: feature_cache key of a training instance's structure tokens, stored
#: with the ``(include_structure, grouping key)`` they were walked under.
_TOKENS = "structure_tokens"


def _build_skeleton(instance: ElementInstance, node) -> tuple:
    """``(words, ((child_tag, child_skeleton), ...))`` for one subtree.

    The skeleton is everything about the instance tree that does *not*
    depend on the current child labels: per-node word tokens (through the
    shared featurize layer) and the child-tag shape. Structure re-passes
    only relabel; they never change the tree, so this is computed once
    per instance and pinned on its feature cache. It is built from
    tuples only, so it is its own hashable grouping key.
    """
    children = [child for child in node.children
                if isinstance(child, Element)]
    words = tuple(featurize.node_words(instance, node,
                                       is_leaf=not children))
    if not children:
        return words, ()
    return words, tuple([(child.tag, _build_skeleton(instance, child))
                         for child in children])


def skeleton_key(instance: ElementInstance) -> tuple:
    """The instance's structure skeleton, a hashable canonical form.

    Two instances with equal keys produce identical
    :func:`structure_tokens` under equal ``child_labels`` — the token
    walk is a pure function of (skeleton, labels). Cached per instance
    so duplicate-heavy columns can be deduplicated *before* walking.
    """
    if not featurize.is_enabled():
        return _build_skeleton(instance, instance.element)
    cache = instance.feature_cache
    skeleton = cache.get(_SKELETON)
    if skeleton is None:
        skeleton = cache[_SKELETON] = _build_skeleton(
            instance, instance.element)
    return skeleton


def structure_tokens(instance: ElementInstance,
                     include_structure: bool = True) -> list[str]:
    """The XML learner's bag of text + node + edge tokens."""
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

    walk(skeleton_key(instance), ROOT_NODE)
    return tokens


class XMLLearner(NaiveBayesLearner):
    """Naive Bayes with structure tokens; see module docstring."""

    name = "xml_learner"
    uses_child_labels = True

    def __init__(self, alpha: float = 1.0,
                 include_structure: bool = True) -> None:
        self.include_structure = include_structure
        super().__init__(alpha=alpha, tokenizer=self._structure_tokenizer)

    def _structure_tokenizer(self,
                             instance: ElementInstance) -> list[str]:
        return structure_tokens(instance, self.include_structure)

    def _group_keys(self, instances):
        """Group by (skeleton, child labels) *before* tokenizing.

        The structure walk is the expensive part of tokenizing here, so
        duplicates skip it entirely, in fit and in prediction alike.
        Exact because :func:`structure_tokens` is a pure function of
        the skeleton and the child-label map. With memoisation off
        nothing is grouped and skeletons are not cached, so positions
        stand in for the keys rather than building every skeleton twice.
        """
        if not featurize.is_enabled():
            return list(range(len(instances)))
        keys = []
        for instance in instances:
            labels = instance.child_labels
            keys.append((skeleton_key(instance),
                         tuple(sorted(labels.items())) if labels else ()))
        return keys

    def _documents(self, instances, keys, positions, fitting=False):
        """Structure tokens, reusing a fit's walks while their key holds.

        A fit's example table keeps each walk's tokens on the instance,
        with the key they were walked under. The child labels of a
        training run are fixed, so the cross-validation table reads
        back the full fit's walks, and a training run walks each
        distinct key once.
        Prediction only reads them: a match's instances carry no
        tokens, and a training run's tokens go when its instances do,
        as ``train()`` returns.
        """
        if not featurize.is_enabled():
            return [self.tokenizer(instances[i]) for i in positions]
        documents = []
        for position in positions:
            instance = instances[position]
            key = (self.include_structure, keys[position])
            memo = instance.feature_cache.get(_TOKENS)
            if memo is not None and memo[0] == key:
                documents.append(memo[1])
                continue
            tokens = self.tokenizer(instance)
            if fitting:
                instance.feature_cache[_TOKENS] = (key, tokens)
            documents.append(tokens)
        return documents

    def clone(self) -> "XMLLearner":
        return XMLLearner(self.alpha, self.include_structure)
