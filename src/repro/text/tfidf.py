"""Sparse TF-IDF vector space with cosine similarity.

This is the vector model underlying WHIRL (Cohen & Hirsh), which the
paper's name matcher and content matcher use: documents are token bags,
weighted by ``(1 + log tf) * idf`` and L2-normalised, so the dot product of
two document vectors is their cosine similarity.

Built on ``scipy.sparse`` so a matching phase that compares hundreds of
query columns against tens of thousands of stored training examples stays
a single sparse matrix product. The CSR matrices themselves are built
here in numpy, from token ids, so their storage order is this module's
choice rather than a side effect of scipy's sparse arithmetic.

Documents arrive as token lists or as ids already numbered elsewhere
(:meth:`TfidfVectorSpace.from_ids` fits on a training table's global
ids, :meth:`TfidfVectorSpace.transform_columns` maps ids already turned
into vocabulary columns). Both go through one ``_term_counts`` and one
``_weigh``, so either entry point gives the same bits.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np
from scipy import sparse


class TfidfVectorSpace:
    """A vector space fitted on a corpus of token-list documents.

    Parameters
    ----------
    documents:
        The training corpus; each document is a list of (already
        normalised) tokens. Empty documents are allowed and become zero
        vectors.
    """

    def __init__(self, documents: list[list[str]]) -> None:
        if not documents:
            raise ValueError("cannot fit a vector space on an empty corpus")
        # dict.fromkeys keeps each token's first appearance, so column
        # ids follow first-seen order.
        self.vocabulary: dict[str, int] = {
            token: column for column, token in
            enumerate(dict.fromkeys(chain.from_iterable(documents)))}
        self._fit(*self._columns_of(documents))

    @classmethod
    def from_ids(cls, tokens: list[str], ids: np.ndarray,
                 lengths: np.ndarray) -> "TfidfVectorSpace":
        """The space fitted on documents given as token ids laid end to
        end (``ids``, numbering ``tokens``) and their ``lengths``.

        The same space as fitting the documents' token lists: the
        vocabulary is the tokens in first-appearance order, and the
        weights go through the same arithmetic.
        """
        if not len(lengths):
            raise ValueError("cannot fit a vector space on an empty corpus")
        space = cls.__new__(cls)
        distinct, firsts = np.unique(ids, return_index=True)
        order = distinct[np.argsort(firsts)]
        column = np.empty(len(tokens), dtype=np.intp)
        column[order] = np.arange(len(order))
        space.vocabulary = dict(zip(map(tokens.__getitem__, order.tolist()),
                                    range(len(order))))
        space._fit(column[ids], lengths)
        return space

    def _fit(self, cols: np.ndarray, lengths: np.ndarray) -> None:
        """Fit idf and the stored matrix on documents given as their
        vocabulary columns laid end to end, and their lengths."""
        rows, cols, tf = self._term_counts(cols, lengths)
        # One (row, col) key per distinct document/term pair, so the
        # column counts are document frequencies.
        doc_frequency = np.bincount(cols, minlength=self._n_columns)
        # Smoothed idf keeps every fitted term positive, so a term present
        # in all documents still contributes a little signal.
        self.idf = np.log((1.0 + len(lengths))
                          / (1.0 + doc_frequency)) + 1.0
        self.matrix = self._weigh(rows, cols, tf, len(lengths))
        self._freeze()

    def __getstate__(self) -> dict:
        # The postings are the stored matrix transposed: rebuilt on load
        # rather than written into every model file.
        state = self.__dict__.copy()
        del state["postings"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._freeze()

    def _freeze(self) -> None:
        """Build the postings and mark every fitted array read-only.

        ``postings`` is ``matrix.T`` as CSR (one row per term, listing
        the documents that contain it): the right operand of every
        similarity product, built once instead of once per product. The
        fitted model is immutable from here on: queries build *fresh*
        matrices (transform) and only ever read these. Marking the
        arrays read-only proves it at runtime, so forked workers never
        write (and copy) the pages they share with the parent.
        """
        self.postings = self.matrix.T.tocsr()
        for array in (self.idf, self.matrix.data, self.matrix.indices,
                      self.matrix.indptr, self.postings.data,
                      self.postings.indices, self.postings.indptr):
            array.setflags(write=False)

    @property
    def n_documents(self) -> int:
        """Number of documents the space was fitted on."""
        return self.matrix.shape[0]

    @property
    def _n_columns(self) -> int:
        return max(len(self.vocabulary), 1)

    def transform(self, documents: list[list[str]]) -> sparse.csr_matrix:
        """Map documents to L2-normalised TF-IDF rows.

        Tokens outside the fitted vocabulary are ignored, mirroring how a
        nearest-neighbour matcher treats unseen words: they can't match
        anything stored, so they contribute nothing.
        """
        return self.transform_columns(*self._columns_of(documents))

    def transform_columns(self, cols: np.ndarray,
                          lengths: np.ndarray) -> sparse.csr_matrix:
        """:meth:`transform` of documents given as their vocabulary
        columns (-1 out of vocabulary) laid end to end, and their
        lengths."""
        return self._weigh(*self._term_counts(cols, lengths), len(lengths))

    def _columns_of(self, documents: list[list[str]]
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The documents' vocabulary columns (-1 out of vocabulary) laid
        end to end, and each document's length."""
        lengths = np.fromiter(map(len, documents), dtype=np.intp,
                              count=len(documents))
        cols = np.fromiter(
            map(self.vocabulary.get, chain.from_iterable(documents),
                repeat(-1)),
            dtype=np.intp, count=int(lengths.sum()))
        return cols, lengths

    def _term_counts(self, cols: np.ndarray, lengths: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, tf)`` of every distinct in-vocabulary
        ``(document, term)`` pair, sorted by row and then column."""
        rows = np.repeat(np.arange(len(lengths)), lengths)
        known = cols >= 0
        n_columns = self._n_columns
        keys, tf = np.unique(rows[known] * n_columns + cols[known],
                             return_counts=True)
        rows, cols = np.divmod(keys, n_columns)
        return rows, cols, tf

    def _weigh(self, rows: np.ndarray, cols: np.ndarray, tf: np.ndarray,
               n_rows: int) -> sparse.csr_matrix:
        """The L2-normalised ``(1 + log tf) * idf`` CSR of sorted term
        counts.

        The float operations are the ones scipy's sparse arithmetic
        performs, in the same order, so the values are bit for bit those
        of ``diags(1 / norms) @ weights``: each row's squared weights
        are summed by ``np.add.reduceat`` in ascending column order (as
        ``sum(axis=1)`` does), and each weight is multiplied by its
        row's inverse norm. Rows are stored in descending column order,
        the order that product leaves behind. Dot products sum their
        terms in the left operand's storage order, so this order is part
        of every similarity's value.
        """
        data = (1.0 + np.log(tf)) * self.idf[cols]
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        norms = np.ones(n_rows)
        nonempty = np.flatnonzero(np.diff(indptr))
        if nonempty.size:
            norms[nonempty] = np.sqrt(
                np.add.reduceat(data * data, indptr[nonempty]))
        data *= (1.0 / norms)[rows]
        # Reverse each row in place: the entry at position p of row r
        # moves to indptr[r] + indptr[r + 1] - 1 - p.
        reverse = (indptr[:-1] + indptr[1:] - 1)[rows] \
            - np.arange(rows.size)
        return sparse.csr_matrix(
            (data[reverse], cols[reverse], indptr),
            shape=(n_rows, self._n_columns))

    def similarities(self, queries: list[list[str]]) -> np.ndarray:
        """Cosine similarity of each query against every fitted document.

        Returns an ``(n_queries, n_documents)`` dense array with entries in
        ``[0, 1]``.
        """
        return self.sparse_similarities(queries).toarray()

    def sparse_similarities(self,
                            queries: list[list[str]]) -> sparse.csr_matrix:
        """Cosine similarities as a CSR matrix, column indices unsorted.

        Query/document similarity matrices are overwhelmingly zero (a
        short query only shares terms with a few stored documents), so
        bulk consumers like WHIRL score the nonzero entries directly
        instead of materialising the dense array. Each row's entries
        come in the sparse product's order; a consumer that needs them
        by document index sorts what it keeps.
        """
        return self.transform(queries) @ self.postings


def cosine_similarity(a: list[str], b: list[str]) -> float:
    """Cosine similarity of two token lists under a two-document space.

    Convenience for tests and small-scale use; bulk work should go through
    :class:`TfidfVectorSpace`.
    """
    if not a or not b:
        return 0.0
    space = TfidfVectorSpace([a, b])
    return float(space.similarities([a])[0, 1])
