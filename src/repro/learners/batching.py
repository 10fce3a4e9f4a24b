"""Distinct-key helpers shared by the vectorized learners.

Real instance columns are duplicate-heavy: the same city, agent, price
or yes/no value repeats across hundreds of listings. Every base learner
in this package scores an instance as a pure row-wise function of some
*key* derived from it (its text, its tag name, its token bag), so a
batch can be collapsed to its distinct keys, scored once per key, and
broadcast back with one fancy-index gather — numerically identical to
scoring every row, because no step mixes information across rows.

Training collapses the same way: :func:`group_examples` hands ``fit``
each distinct ``(key, label)`` example once, in first-seen order, with
its multiplicity. The fitted state stays the per-instance fit's, bit
for bit. Counting learners add each distinct example's token counts
times its multiplicity, and integer counts sum exactly in float64 in
any order. First-seen order reproduces every token's first appearance,
so vocabularies and matrix columns keep their order; the WHIRL index,
which stores each distinct ``(document, label)`` pair once in
first-seen order, sees the same distinct pairs in the same order.

The content matcher's fit does not group: its documents are already a
per-instance memo lookup and its WHIRL index keeps each distinct
``(document, label)`` pair once, so grouping by ``(text, label)``
first would only hash every example a second time.

This module centralises the pattern, so every learner in this package
shares one implementation of it.

Both collapses ride the :mod:`repro.core.featurize` switch: under
``featurize.cache_disabled()`` every row is scored, and every training
example fitted, on its own, which is what lets the benchmark harness
measure the un-deduplicated baseline.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from ..core import featurize


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


def group_examples(keys: Iterable[Hashable], labels: Sequence[str]
                   ) -> tuple[list[int], np.ndarray]:
    """The distinct ``(key, label)`` training examples and their counts.

    Returns ``(firsts, counts)``: ``firsts[d]`` is the position of the
    first example of distinct pair ``d`` (in first-seen order) and
    ``counts[d]`` how many examples carry it. ``keys`` is read lazily,
    and not at all when memoisation is disabled: then every example is
    its own group of one.
    """
    if not featurize.is_enabled():
        return list(range(len(labels))), np.ones(len(labels), dtype=np.intp)
    firsts, inverse = group_distinct(list(zip(keys, labels)))
    return firsts, np.bincount(inverse, minlength=len(firsts))
