"""Distinct-key helpers shared by the vectorized learners.

Real instance columns are duplicate-heavy: the same city, agent, price
or yes/no value repeats across hundreds of listings. Every base learner
in this package scores an instance as a pure row-wise function of some
*key* derived from it (its text, its tag name, its token bag), so a
batch can be collapsed to its distinct keys, scored once per key, and
broadcast back with one fancy-index gather — numerically identical to
scoring every row, because no step mixes information across rows.

Training collapses the same way, through an :class:`ExampleTable`:
one pass over a training stream keys every position and groups it into
distinct ``(key, label)`` examples, and each distinct key's document is
featurized once and numbered as global token ids. ``fit`` then counts
each distinct example once, times its multiplicity. The fitted state
stays the per-instance fit's, bit for bit. Counting learners add each
distinct example's token counts times its multiplicity, and integer
counts sum exactly in float64 in any order. First-seen order reproduces
every token's first appearance, so vocabularies and matrix columns keep
their order.

The content matcher's WHIRL index stores each distinct ``(document,
label)`` pair once, in first-seen order. Two texts can tokenize to the
same document, so its fit reads a document id per key
(:meth:`ExampleTable.document_ids`: each distinct token sequence
interned once per table, on first request) and keeps the first position
of each distinct ``(document id, label)`` pair.

A training run builds one table per *builder*, the function a grouping
learner's ``table_builder`` returns (:class:`StreamTables`). Naive Bayes
with its default tokenizer and the content matcher key by instance text
and read content tokens, so both return :func:`content_table` and share
one table. The full fit and every cross-validation fold clone get a
:class:`Fold`: some positions plus that shared table. A fold's distinct
examples, their multiplicities and its vocabulary come from numpy over
the table's id arrays, so no fold keys or hashes an instance again. To
any other learner a fold is just a sequence of instances.

This module centralises the pattern, so every learner in this package
shares one implementation of it.

Both collapses ride the :mod:`repro.core.featurize` switch: under
``featurize.cache_disabled()`` every row is scored, and every training
example fitted, on its own, which is what lets the benchmark harness
measure the un-deduplicated baseline.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import Callable, Hashable, Sequence

import numpy as np

from ..core import featurize
from ..core.instance import ElementInstance
from ..core.labels import LabelSpace


def group_distinct(keys: Sequence[Hashable]
                   ) -> tuple[list[int], np.ndarray]:
    """First-occurrence index of each distinct key, plus the inverse map.

    Returns ``(firsts, inverse)`` where ``firsts[d]`` is the position of
    the first item carrying distinct key ``d`` (in first-seen order) and
    ``inverse[i]`` is the distinct index of item ``i`` — so a matrix
    scored per distinct key broadcasts back as ``per_key[inverse]``.
    """
    slots: dict[Hashable, int] = {}
    firsts: list[int] = []
    inverse = np.empty(len(keys), dtype=np.intp)
    for position, key in enumerate(keys):
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(firsts)
            firsts.append(position)
        inverse[position] = slot
    return firsts, inverse


def score_distinct(keys: Sequence[Hashable],
                   score: Callable[[list[int]], np.ndarray]
                   ) -> np.ndarray:
    """Score once per distinct key and broadcast rows back.

    ``score(firsts)`` receives the first-occurrence positions of the
    distinct keys and must return one score row per position. When every
    key is unique (or memoisation is globally disabled) the batch is
    scored directly with no gather copy.
    """
    if not featurize.is_enabled():
        return score(list(range(len(keys))))
    firsts, inverse = group_distinct(keys)
    if len(firsts) == len(keys):
        return score(firsts)
    return score(firsts)[inverse]


class ExampleTable:
    """A training stream's distinct examples and their documents.

    Built once per stream by a grouping learner's ``example_table``:

    * ``key_of[i]`` and ``example_of[i]`` are the distinct key id and
      the distinct ``(key, label)`` example id of position ``i``;
    * ``example_key[e]`` and ``example_row[e]`` are example ``e``'s key
      id and label row;
    * ``documents[k]`` is key ``k``'s document, made by
      ``document(firsts)`` from the first position carrying each key;
    * ``tokens`` are the distinct tokens of all documents in
      first-appearance order, and ``indptr``/``token_ids`` hold every
      document as global token ids (a CSR without values).

    With memoisation disabled every position is its own key, so every
    training example is fitted and scored on its own.
    """

    _document_ids: np.ndarray | None = None

    def __init__(self, keys: Sequence[Hashable], labels: Sequence[str],
                 space: LabelSpace,
                 document: Callable[[Sequence[int]], list[Sequence[str]]]
                 ) -> None:
        n = len(labels)
        if featurize.is_enabled():
            firsts, self.key_of = group_distinct(keys)
        else:
            firsts, self.key_of = range(n), np.arange(n)
        row_of = {label: space.index_of(label)
                  for label in dict.fromkeys(labels)}
        rows = np.fromiter(map(row_of.__getitem__, labels), dtype=np.intp,
                           count=n)
        codes, self.example_of = np.unique(
            self.key_of * len(space) + rows, return_inverse=True)
        self.example_key, self.example_row = np.divmod(codes, len(space))
        self.documents = document(firsts)
        lengths = np.fromiter(map(len, self.documents), dtype=np.intp,
                              count=len(self.documents))
        self.indptr = np.concatenate(([0], np.cumsum(lengths)))
        self.tokens = list(dict.fromkeys(chain.from_iterable(
            self.documents)))
        ids = {token: i for i, token in enumerate(self.tokens)}
        self.token_ids = np.fromiter(
            map(ids.__getitem__, chain.from_iterable(self.documents)),
            dtype=np.intp, count=self.indptr[-1])

    def examples(self, positions: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct examples at ``positions`` in first-seen order,
        and how many positions carry each."""
        ids = self.example_of[positions]
        distinct, firsts = np.unique(ids, return_index=True)
        distinct = distinct[np.argsort(firsts)]
        return distinct, np.bincount(ids)[distinct]

    def concatenated(self, keys: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """The documents of ``keys`` laid end to end as global token
        ids, and each document's length."""
        starts = self.indptr[keys]
        lengths = self.indptr[keys + 1] - starts
        ends = np.cumsum(lengths)
        offsets = np.repeat(starts - ends + lengths, lengths)
        return self.token_ids[offsets + np.arange(offsets.size)], lengths

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The label rows of ``positions``."""
        return self.example_row[self.example_of[positions]]

    def document_ids(self) -> np.ndarray:
        """Each key's document id: keys whose documents are equal token
        sequences share one id. Interned on the first call."""
        if self._document_ids is None:
            interned: dict[tuple, int] = {}
            self._document_ids = np.fromiter(
                (interned.setdefault(tuple(document), len(interned))
                 for document in self.documents),
                dtype=np.intp, count=len(self.documents))
        return self._document_ids

    def columns(self, ids: np.ndarray,
                vocabulary: dict[str, int]) -> np.ndarray:
        """The columns of global token ids under a fitted
        ``vocabulary`` (-1 out of vocabulary), one lookup per distinct
        id."""
        distinct, where = np.unique(ids, return_inverse=True)
        get, tokens = vocabulary.get, self.tokens
        cols = np.fromiter((get(tokens[g], -1) for g in distinct.tolist()),
                           dtype=np.intp, count=len(distinct))
        return cols[where]


class Fold(Sequence[ElementInstance]):
    """The instances at ``positions`` of a training stream.

    It reads as a plain sequence of instances. A grouping learner's
    ``fit`` and ``predict_scores`` instead read :meth:`table`, the
    stream's :class:`ExampleTable`, which ``build`` makes on the first
    call and every fold of the stream shares.
    """

    def __init__(self, instances: Sequence[ElementInstance],
                 positions: np.ndarray,
                 build: Callable[[], ExampleTable]) -> None:
        self._instances = instances
        self.positions = positions
        self.table = build

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index: int) -> ElementInstance:
        return self._instances[self.positions[index]]

    def distinct_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct key ids of the fold's positions, and the map
        that broadcasts rows scored per key back to positions."""
        return np.unique(self.table().key_of[self.positions],
                         return_inverse=True)


def content_table(instances: Sequence[ElementInstance],
                  labels: Sequence[str], space: LabelSpace) -> ExampleTable:
    """The table keyed by instance text, whose documents are the
    content tokens (:func:`repro.core.featurize.content_tokens`, a pure
    function of the text). Naive Bayes with its default tokenizer and
    the content matcher both fit from it."""
    return ExampleTable(
        [featurize.instance_text(i) for i in instances], labels, space,
        lambda firsts: [featurize.content_tokens(instances[i])
                        for i in firsts])


class StreamTables:
    """The example tables of one training stream, one per builder.

    :meth:`fold` views hand every learner whose ``table_builder``
    returns the same function one table, built on first use. A training
    run makes one for its full fit and its cross-validation; the tables
    are reachable only from here, so they go when it does.
    """

    def __init__(self, instances: Sequence[ElementInstance],
                 labels: Sequence[str], space: LabelSpace) -> None:
        self.instances = instances
        self._labels = labels
        self._space = space
        self._tables: dict[Callable, Callable[[], ExampleTable]] = {}

    def fold(self, builder: Callable[..., ExampleTable],
             positions: np.ndarray) -> Fold:
        """The instances at ``positions``, over ``builder``'s table. A
        build that fails raises again at the next read."""
        table = self._tables.get(builder)
        if table is None:
            table = self._tables[builder] = functools.cache(
                functools.partial(builder, self.instances, self._labels,
                                  self._space))
        return Fold(self.instances, positions, table)


def fit_table(learner, instances: Sequence[ElementInstance],
              labels: Sequence[str], space: LabelSpace
              ) -> tuple[ExampleTable, np.ndarray]:
    """The table ``fit`` counts from, and the positions it fits: a
    fold's shared table, or one built over every given position."""
    if isinstance(instances, Fold):
        return instances.table(), instances.positions
    return (learner.table_builder()(instances, labels, space),
            np.arange(len(instances)))
