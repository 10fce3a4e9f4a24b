"""The XML learner's instance trees as integer arrays: one node table
per stream.

A stream is the instances of one match or one training run. Its table
holds one record per distinct element of the instances' subtrees, in
document preorder:

* ``node_tag[n]`` and ``node_parent[n]``: the element's tag id and its
  parent's node id (-1 above the outermost instances);
* ``node_end[n]``: one past the last node of its subtree, so an
  instance's subtree is the preorder run ``node .. node_end[node]``;
* ``node_span[n]``: the id of the word tokens of the element's
  immediate text. Each distinct token sequence is kept once, as a CSR
  (``span_indptr``, ``span_words``).

Words, label names and the generic root ``d`` are *symbols*: distinct
strings numbered once per table. Equal strings share one id whatever
their role, just as the string tokens they stand for compare equal.

The table is built in one pass that visits each element once, so
nested instances share their subtree's records. A child-label map
becomes an interned id plus one row of a (label map × tag) array of
node names, so a structure pass that relabels instances adds nothing
but that row. :meth:`NodeTable.layout` lays out the XML learner's
tokens of any set of instances as ``(kind, left, right)`` symbol
arrays, and :meth:`NodeTable.columns` turns them into a fitted model's
vocabulary columns with array lookups and ``searchsorted`` over the
model's :class:`Columns`. No token string is built on that path; a fit
makes strings only for each distinct token of its documents
(:meth:`NodeTable.strings`).

Each instance keeps its table and node id in its feature cache while
memoisation is on. The pin pickles detached, so an instance shipped to
a worker process never carries its stream's table; the worker builds
its own from the batch it received. With memoisation off every call
builds a table of its own.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Sequence

import numpy as np

from ..core import featurize
from ..core.instance import ElementInstance
from ..xmlio import Element, Text

#: Label given to descendant tags for which no label is known (yet).
UNKNOWN_NODE = "?"
#: The generic root node of every instance tree (paper's ``d``).
ROOT_NODE = "d"

#: Token kinds of :meth:`NodeTable.layout`: a word, a ``node:X`` token,
#: and an edge ``P->X`` (``X`` a word or a node name).
WORD, NODE, EDGE = 0, 1, 2

#: feature_cache key of an instance's pin: its table's :class:`_Stream`
#: and its node id.
_PIN = "node_table"

#: Symbol ids of :data:`ROOT_NODE` and :data:`UNKNOWN_NODE`.
_ROOT, _UNKNOWN = 0, 1


class _Stream:
    """The handle by which a stream's instances reach its table. Pickles
    detached: the table is derived state of one process and never
    leaves it."""

    __slots__ = ("table",)

    def __init__(self, table: "NodeTable | None" = None) -> None:
        self.table = table

    def __reduce__(self):
        return _Stream, ()


class Columns:
    """A fitted vocabulary's column tables, parsed from its strings once.

    ``words`` is the vocabulary itself: a word token is its own string.
    ``node`` maps ``X`` to the column of ``node:X``. Every split of a
    vocabulary token at an ``->`` is an edge ``(left, right)``; both
    sides are numbered in ``sides`` and the edges are kept as sorted
    ``left * len(sides) + right`` keys. A token whose string splits in
    two places is found from either split, as string equality finds it.
    """

    def __init__(self, vocabulary: dict[str, int]) -> None:
        self.words = vocabulary
        self.node = {token[5:]: column
                     for token, column in vocabulary.items()
                     if token.startswith("node:")}
        sides: dict[str, int] = {}
        lefts: list[int] = []
        rights: list[int] = []
        columns: list[int] = []
        for token, column in vocabulary.items():
            at = token.find("->")
            while at >= 0:
                lefts.append(sides.setdefault(token[:at], len(sides)))
                rights.append(sides.setdefault(token[at + 2:], len(sides)))
                columns.append(column)
                at = token.find("->", at + 1)
        self.sides = sides
        keys = (np.asarray(lefts, dtype=np.int64) * len(sides)
                + np.asarray(rights, dtype=np.int64))
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.columns = np.asarray(columns, dtype=np.intp)[order]

    def edges(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Columns of the edges between side ids (-1 for none)."""
        if not len(self.keys):
            return np.full(len(left), -1, dtype=np.intp)
        known = (left >= 0) & (right >= 0)
        keys = left.astype(np.int64) * len(self.sides) + right
        at = np.minimum(np.searchsorted(self.keys, keys),
                        len(self.keys) - 1)
        return np.where(known & (self.keys[at] == keys),
                        self.columns[at], -1)


def _ids(items, numbering) -> np.ndarray:
    """Each item's number: its value in the dict ``numbering``, or its
    position in the list ``numbering``."""
    if isinstance(numbering, list):
        numbering = dict(zip(numbering, range(len(numbering))))
    return np.fromiter(map(numbering.__getitem__, items), dtype=np.intp)


class NodeTable:
    """One stream's elements as arrays; see the module docstring."""

    def __init__(self, elements: Sequence[Element]) -> None:
        order: list[Element] = []
        parents: list[int] = []
        ends: list[int] = []
        texts: list[str] = []

        def visit(element: Element, parent: int) -> None:
            node = len(order)
            order.append(element)
            parents.append(parent)
            ends.append(0)
            texts.append("")
            parts = []
            for child in element.children:
                if isinstance(child, Text):
                    parts.append(child.value)
                else:
                    visit(child, node)
            texts[node] = " ".join(parts).strip()  # immediate_text()
            ends[node] = len(order)

        # Walk each outermost element once; the instances nested in it
        # find their records by element identity.
        targets = set(map(id, elements))
        for element in dict.fromkeys(elements):
            above = element.parent
            while above is not None and id(above) not in targets:
                above = above.parent
            if above is None:
                visit(element, -1)

        # Everything per node from here on is a lookup in C.
        node_of = dict(zip(map(id, order), range(len(order))))
        self.roots = _ids(map(id, elements), node_of)
        names = [element.tag for element in order]
        tags = list(dict.fromkeys(names))
        self.node_tag = _ids(names, tags)
        # Tokenize each distinct text once; keep each distinct token
        # sequence once.
        distinct = list(dict.fromkeys(texts))
        pipeline = featurize.pipeline_tokens
        words_of = [tuple(pipeline(text)) for text in distinct]
        spans = list(dict.fromkeys(words_of))
        span_of = dict(zip(distinct, _ids(words_of, spans).tolist()))
        self.node_span = _ids(texts, span_of)
        words = list(chain.from_iterable(spans))
        symbols = list(dict.fromkeys(chain((ROOT_NODE, UNKNOWN_NODE),
                                           words)))
        symbol_ids = dict(zip(symbols, range(len(symbols))))
        self.span_words = _ids(words, symbol_ids)
        self.span_indptr = np.zeros(len(spans) + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, spans), dtype=np.intp,
                              count=len(spans)),
                  out=self.span_indptr[1:])
        self.node_parent = np.asarray(parents, dtype=np.intp)
        self.node_end = np.asarray(ends, dtype=np.intp)
        self.tags = tags
        self.symbols = symbols
        self._symbol_ids = symbol_ids
        #: Interned child-label maps and their node-name rows.
        self._maps: dict[tuple, int] = {(): 0}
        #: Map ids by map object: ``id(labels) -> (labels, map id)``.
        self._map_of: dict[int, tuple[dict, int]] = {}
        self._map_rows = [np.full(len(tags), _UNKNOWN, dtype=np.intp)]
        self._map_names = self._map_rows[0][None, :]
        self._shapes: np.ndarray | None = None
        self.shape_count = 0
        #: Per-model symbol translations (see :meth:`columns`).
        self._translations: dict[Columns, tuple] = {}

    # ------------------------------------------------------------------
    def _symbol(self, name: str) -> int:
        symbol = self._symbol_ids.get(name)
        if symbol is None:
            symbol = self._symbol_ids[name] = len(self.symbols)
            self.symbols.append(name)
        return symbol

    @property
    def map_count(self) -> int:
        """How many child-label maps are interned so far."""
        return len(self._map_rows)

    def label_maps(self, instances: Sequence[ElementInstance]
                   ) -> np.ndarray:
        """Each instance's interned child-label-map id, read now: a
        structure pass may have relabelled it since the last call.

        A map object seen before costs one lookup by identity: maps are
        replaced, never mutated (``fill_child_labels`` shares one dict
        among the instances it gives equal maps). The entry holds the
        map, so its id cannot be reused while the entry lives.
        """
        maps, map_of = self._maps, self._map_of
        ids = []
        for instance in instances:
            labels = instance.child_labels
            if not labels:
                ids.append(0)
                continue
            seen = map_of.get(id(labels))
            if seen is not None:
                ids.append(seen[1])
                continue
            key = tuple(sorted(labels.items()))
            found = maps.get(key)
            if found is None:
                found = maps[key] = len(self._map_rows)
                self._map_rows.append(np.fromiter(
                    (self._symbol(labels.get(tag, UNKNOWN_NODE))
                     for tag in self.tags),
                    dtype=np.intp, count=len(self.tags)))
            map_of[id(labels)] = (labels, found)
            ids.append(found)
        if len(self._map_names) < len(self._map_rows):
            self._map_names = np.stack(self._map_rows)
        return np.array(ids, dtype=np.intp)

    def shapes(self) -> np.ndarray:
        """Each node's subtree-shape id, hash-consed bottom-up.

        Two subtrees share a shape when their root words and their
        children's ``(tag, shape)`` sequences are equal, so equal
        shapes under equal label maps lay out equal tokens.
        """
        if self._shapes is None:
            count = len(self.node_tag)
            tags = self.node_tag.tolist()
            parents = self.node_parent.tolist()
            spans = self.node_span.tolist()
            children: list[list] = [[] for _ in range(count)]
            interned: dict[tuple, int] = {}
            shapes = [0] * count
            # Preorder puts every child after its parent, so a reverse
            # sweep sees each subtree complete (children in reverse).
            for node in range(count - 1, -1, -1):
                kids = children[node]
                kids.reverse()
                shape = shapes[node] = interned.setdefault(
                    (spans[node], tuple(kids)), len(interned))
                parent = parents[node]
                if parent >= 0:
                    children[parent].append((tags[node], shape))
            self._shapes = np.asarray(shapes, dtype=np.intp)
            self.shape_count = len(interned)
        return self._shapes

    def layout(self, nodes: np.ndarray, maps: np.ndarray,
               structure: bool) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray]:
        """The XML learner's tokens of the subtrees at ``nodes``, each
        under the label map at the same position of ``maps``.

        Returns ``(kind, left, right, lengths)``: per token its kind
        (:data:`WORD`, :data:`NODE` or :data:`EDGE`), its left symbol
        (an edge's parent name; 0 otherwise) and its right symbol, the
        documents end to end, and each document's length. A document
        lists, per preorder node: ``node:X`` and the parent's edge
        ``P->X`` (not for the root), then the node's words, each
        followed by the edge ``X->word``. The root's name is ``d``; any
        other node's is its tag's label under the map, or ``?``.
        Without ``structure`` only the words remain.
        """
        if not len(nodes):
            none = np.zeros(0, dtype=np.intp)
            return none.astype(np.int8), none, none, none
        sizes = self.node_end[nodes] - nodes
        starts = np.cumsum(sizes) - sizes
        # flat[i]: the node at position i of the documents' node runs.
        flat = np.arange(int(sizes.sum())) + np.repeat(nodes - starts,
                                                       sizes)
        spans = self.node_span[flat]
        first = self.span_indptr[spans]
        counts = self.span_indptr[spans + 1] - first
        total = int(counts.sum())
        word_node = np.repeat(np.arange(len(flat)), counts)
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
        words = self.span_words[first[word_node] + within]
        if not structure:
            return (np.zeros(total, dtype=np.int8),
                    np.zeros(total, dtype=np.intp), words,
                    np.add.reduceat(counts, starts))
        owner = np.repeat(np.arange(len(nodes)), sizes)
        names = self._map_names[maps[owner], self.node_tag[flat]]
        names[starts] = _ROOT
        inner = np.ones(len(flat), dtype=bool)
        inner[starts] = False
        heads = 2 * inner
        blocks = heads + 2 * counts
        offsets = np.cumsum(blocks) - blocks
        kind = np.empty(int(blocks.sum()), dtype=np.int8)
        left = np.zeros(len(kind), dtype=np.intp)
        right = np.empty(len(kind), dtype=np.intp)
        at = offsets[word_node] + heads[word_node] + 2 * within
        kind[at] = WORD
        right[at] = words
        kind[at + 1] = EDGE
        left[at + 1] = names[word_node]
        right[at + 1] = words
        children = np.flatnonzero(inner)
        at = offsets[children]
        # A child's parent sits as many positions before it as their
        # node ids differ: both are in the same preorder run.
        parents = children - (flat[children]
                              - self.node_parent[flat[children]])
        kind[at] = NODE
        right[at] = names[children]
        kind[at + 1] = EDGE
        left[at + 1] = names[parents]
        right[at + 1] = names[children]
        return kind, left, right, np.add.reduceat(blocks, starts)

    def columns(self, model: Columns, kind: np.ndarray, left: np.ndarray,
                right: np.ndarray) -> np.ndarray:
        """Vocabulary columns of laid-out tokens (-1 out of vocabulary).

        The symbols' columns under ``model`` are looked up once per
        table and model, and again only for symbols added since (node
        names of new label maps).
        """
        known = self._translations.get(model)
        if known is None or len(known[0]) < len(self.symbols):
            done = 0 if known is None else len(known[0])
            new = self.symbols[done:]
            fresh = tuple(np.fromiter(map(table.get, new, repeat(-1)),
                                      dtype=np.intp, count=len(new))
                          for table in (model.words, model.node,
                                        model.sides))
            known = fresh if known is None else tuple(
                np.concatenate(pair) for pair in zip(known, fresh))
            self._translations[model] = known
        word_column, node_column, side = known
        columns = np.where(kind == WORD, word_column[right],
                           node_column[right])
        edges = np.flatnonzero(kind == EDGE)
        columns[edges] = model.edges(side[left[edges]],
                                     side[right[edges]])
        return columns

    def strings(self, kind: np.ndarray, left: np.ndarray,
                right: np.ndarray) -> list[str]:
        """Laid-out tokens as the strings they stand for, each distinct
        token's string built once."""
        width = len(self.symbols)
        codes = (kind.astype(np.int64) * width + left) * width + right
        distinct, inverse = np.unique(codes, return_inverse=True)
        symbols = self.symbols
        text = np.empty(len(distinct), dtype=object)
        for i, code in enumerate(distinct.tolist()):
            rest, r = divmod(code, width)
            k, l = divmod(rest, width)
            text[i] = (symbols[r] if k == WORD
                       else "node:" + symbols[r] if k == NODE
                       else symbols[l] + "->" + symbols[r])
        return text[inverse.reshape(-1)].tolist()


def locate(instances: Sequence[ElementInstance]
           ) -> list[tuple[NodeTable, np.ndarray, np.ndarray]]:
    """The instances grouped by stream table: ``(table, positions,
    nodes)`` per table, ``nodes`` being each position's subtree root.

    Instances without a live pin form a new stream, built here and
    pinned. With memoisation off nothing is pinned: every call builds
    one table for all its instances.
    """
    if not instances:
        return []
    everything = np.arange(len(instances))
    if not featurize.is_enabled():
        table = NodeTable([instance.element for instance in instances])
        return [(table, everything, table.roots)]
    pins = [instance.feature_cache.get(_PIN) for instance in instances]
    pending = [position for position, pin in enumerate(pins)
               if pin is None or pin[0].table is None]
    if pending:
        table = NodeTable([instances[i].element for i in pending])
        stream = _Stream(table)
        for position, node in zip(pending, table.roots.tolist()):
            pins[position] = instances[position].feature_cache[_PIN] = \
                (stream, node)
        if len(pending) == len(instances):
            return [(table, everything, table.roots)]
    nodes = np.fromiter((pin[1] for pin in pins), dtype=np.intp,
                        count=len(pins))
    first = pins[0][0]
    if all(pin[0] is first for pin in pins):
        return [(first.table, everything, nodes)]
    groups: dict[_Stream, list[int]] = {}
    for position, pin in enumerate(pins):
        groups.setdefault(pin[0], []).append(position)
    located = []
    for stream, positions in groups.items():
        positions = np.asarray(positions, dtype=np.intp)
        located.append((stream.table, positions, nodes[positions]))
    return located
