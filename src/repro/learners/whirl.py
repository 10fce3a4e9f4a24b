"""WHIRL-style nearest-neighbour classification over TF-IDF space.

Cohen & Hirsh's WHIRL, which the paper's name matcher and content matcher
use, stores training documents and scores a query label by combining the
cosine similarities of the stored neighbours carrying that label:

    score(c | q) = 1 - prod_{d in top-K neighbours with label c} (1 - sim(q, d))

so several moderately similar neighbours of one label reinforce each
other, and a single exact-name neighbour dominates. Scores are then
normalised across labels.

The index is fitted on token lists (:meth:`WhirlIndex.fit`, which drops
repeated ``(document, label)`` pairs itself) or on documents already
deduplicated and numbered by a training table (:meth:`WhirlIndex.fit_ids`).
Queries come as token lists (:meth:`WhirlIndex.scores`) or as vocabulary
columns (:meth:`WhirlIndex.scores_columns`); both share the top-k and
vote steps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from ..core.labels import LabelSpace
from ..text import TfidfVectorSpace


class WhirlIndex:
    """A fitted nearest-neighbour index over token-list documents."""

    def __init__(self, max_neighbors: int = 30,
                 min_similarity: float = 0.0,
                 deduplicate: bool = True) -> None:
        """
        Parameters
        ----------
        max_neighbors:
            Only the K most similar stored documents vote for a query;
            keeps hundreds of duplicate training examples from saturating
            every label's score at 1.
        min_similarity:
            Neighbours below this cosine similarity are ignored (the
            paper's ``delta`` distance threshold).
        deduplicate:
            Store each distinct ``(document, label)`` pair once. Training
            columns contain the same tag name hundreds of times; WHIRL's
            vote combination only needs the distinct evidence.
        """
        self.max_neighbors = max_neighbors
        self.min_similarity = min_similarity
        self.deduplicate = deduplicate
        self._space: TfidfVectorSpace | None = None
        self._label_matrix: np.ndarray | None = None
        self._labels: LabelSpace | None = None

    @property
    def is_fitted(self) -> bool:
        return self._space is not None

    def fit(self, documents: Sequence[list[str]], labels: Sequence[str],
            space: LabelSpace) -> None:
        """Index ``documents`` with their labels."""
        if len(documents) != len(labels):
            raise ValueError("documents and labels differ in length")
        if not documents:
            raise ValueError("cannot fit WHIRL on zero documents")
        if self.deduplicate:
            seen: set[tuple[tuple[str, ...], str]] = set()
            kept_docs: list[list[str]] = []
            kept_labels: list[str] = []
            for doc, label in zip(documents, labels):
                key = (tuple(doc), label)
                if key not in seen:
                    seen.add(key)
                    kept_docs.append(list(doc))
                    kept_labels.append(label)
            documents, labels = kept_docs, kept_labels

        self._install(TfidfVectorSpace(list(documents)),
                      np.fromiter(map(space.index_of, labels),
                                  dtype=np.intp, count=len(labels)),
                      space)

    def fit_ids(self, tokens: list[str], ids: np.ndarray,
                lengths: np.ndarray, rows: np.ndarray,
                space: LabelSpace) -> None:
        """Index documents given as ids of ``tokens`` laid end to end,
        their lengths and their label rows. The caller deduplicates:
        every document given is stored."""
        if not len(lengths):
            raise ValueError("cannot fit WHIRL on zero documents")
        self._install(TfidfVectorSpace.from_ids(tokens, ids, lengths),
                      rows, space)

    def _install(self, vectors: TfidfVectorSpace, rows: np.ndarray,
                 space: LabelSpace) -> None:
        self._labels = space
        self._space = vectors
        # One-hot (n_docs, n_labels) matrix for vectorised vote grouping.
        label_matrix = np.zeros((len(rows), len(space)))
        label_matrix[np.arange(len(rows)), rows] = 1.0
        self._label_matrix = label_matrix

    @property
    def vocabulary(self) -> dict[str, int]:
        """The fitted vocabulary: token -> column."""
        return self._fitted()[0].vocabulary

    def _fitted(self) -> tuple[TfidfVectorSpace, LabelSpace]:
        if self._space is None or self._label_matrix is None \
                or self._labels is None:
            raise RuntimeError("WhirlIndex is not fitted")
        return self._space, self._labels

    def scores(self, queries: Sequence[list[str]]) -> np.ndarray:
        """Normalised ``(n_queries, n_labels)`` WHIRL scores.

        Every step of the computation is row-wise: a row's scores do not
        depend on the other rows of the batch, so callers score each
        distinct document once and broadcast the rows back.
        """
        vectors, labels = self._fitted()
        if not queries:
            return np.zeros((0, len(labels)))
        return self._vote(vectors.sparse_similarities(list(queries)))

    def scores_columns(self, cols: np.ndarray,
                       lengths: np.ndarray) -> np.ndarray:
        """:meth:`scores` of queries given as their vocabulary columns
        (-1 out of vocabulary) laid end to end, and their lengths."""
        vectors, labels = self._fitted()
        if not len(lengths):
            return np.zeros((0, len(labels)))
        return self._vote(vectors.transform_columns(cols, lengths)
                          @ vectors.postings)

    def _vote(self, sims: sparse.csr_matrix) -> np.ndarray:
        """The normalised vote of query-by-document similarities."""
        # The similarity matrix is overwhelmingly zero (a short query
        # only touches a few stored documents), so every step operates
        # on the CSR nonzeros; zero entries contribute log(1-0) = 0 to
        # the grouped sums and need never be materialised.
        np.clip(sims.data, 0.0, 1.0 - 1e-9, out=sims.data)
        if self.min_similarity > 0.0:
            sims.data[sims.data < self.min_similarity] = 0.0
        if self.max_neighbors is not None:
            _keep_top_k(sims, self.max_neighbors)
        # Sorting only what survived: at most k entries per row. The
        # grouped sums below add each row's entries in storage order, so
        # ascending document order fixes every float the vote produces.
        sims.eliminate_zeros()
        sims.sort_indices()
        # 1 - prod(1 - sim) per label, via log-space grouped sums.
        np.negative(sims.data, out=sims.data)
        np.log1p(sims.data, out=sims.data)
        grouped = np.asarray(sims @ self._label_matrix)
        raw = 1.0 - np.exp(grouped)
        totals = raw.sum(axis=1, keepdims=True)
        uniform = np.full_like(raw, 1.0 / raw.shape[1])
        with np.errstate(invalid="ignore", divide="ignore"):
            normalized = np.where(totals > 0.0, raw / totals, uniform)
        return normalized


def _keep_top_k(sims: sparse.csr_matrix, k: int) -> sparse.csr_matrix:
    """Zero all but the k best similarities of each row, in place.

    ``sims`` holds non-negative similarities with its column indices in
    any order; it is returned for convenience. A pure threshold test
    would keep *every* neighbour tied at the k-th similarity — on
    duplicate-heavy columns that inflates the vote of whichever label
    the duplicates carry. Ties at the k-th similarity are broken by
    stored-document index, lowest first: the selection a stable sort by
    (-similarity, index) would make.
    """
    data, indices, indptr = sims.data, sims.indices, sims.indptr
    counts = np.diff(indptr)
    over = np.flatnonzero(counts > k)
    if over.size == 0:
        return sims
    # The k-th largest value of each row over k, by batched partitions:
    # rows are bucketed by the bit length of their entry count, and each
    # bucket is right-padded with -inf to a rectangle (the padding sorts
    # below every real value, so position ``width - k`` is exactly the
    # k-th largest). Bucketing bounds the padding at 2x; padding every
    # row to the global maximum costs more than the partitions
    # themselves on skewed rows.
    thresholds = np.zeros(counts.size)
    _, buckets = np.frexp(counts[over])
    for bucket in np.unique(buckets):
        members = over[buckets == bucket]
        widths = counts[members][:, None]
        width = int(widths.max())
        columns = np.arange(width)
        gather = np.minimum(indptr[members][:, None] + columns,
                            data.size - 1)
        padded = np.where(columns < widths, data[gather], -np.inf)
        thresholds[members] = np.partition(
            padded, width - k, axis=1)[:, width - k]
    # Rows within k keep everything: their threshold 0 is no higher
    # than any entry (a zero kept there goes with the other zeros). A
    # row over k keeps its entries above the threshold and, of those
    # tied at it, the quota with the lowest columns: up to the column of
    # its quota-th tie in ascending (row, column) key order. Each row
    # over k has at least its quota of ties, the threshold among them.
    per_entry = np.repeat(thresholds, counts)
    keep = data > per_entry
    nonempty = np.flatnonzero(counts)
    greater = np.zeros(counts.size, dtype=np.intp)
    greater[nonempty] = np.add.reduceat(keep, indptr[nonempty],
                                        dtype=np.intp)
    tied = np.flatnonzero(data == per_entry)
    tie_rows = np.searchsorted(indptr, tied, side="right") - 1
    n_columns = sims.shape[1]
    keys = np.sort(tie_rows * n_columns + indices[tied])
    last = np.searchsorted(keys, over * n_columns) + k - 1 - greater[over]
    cutoff = np.full(counts.size, -1)
    cutoff[over] = keys[last] - over * n_columns
    keep[tied[indices[tied] <= cutoff[tie_rows]]] = True
    data[~keep] = 0.0
    return sims
