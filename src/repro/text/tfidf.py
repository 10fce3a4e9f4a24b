"""Sparse TF-IDF vector space with cosine similarity.

This is the vector model underlying WHIRL (Cohen & Hirsh), which the
paper's name matcher and content matcher use: documents are token bags,
weighted by ``(1 + log tf) * idf`` and L2-normalised, so the dot product of
two document vectors is their cosine similarity.

Built on ``scipy.sparse`` so a matching phase that compares hundreds of
query columns against tens of thousands of stored training examples stays
a single sparse matrix product.
"""

from __future__ import annotations

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
        self.vocabulary: dict[str, int] = {}
        for doc in documents:
            for token in doc:
                if token not in self.vocabulary:
                    self.vocabulary[token] = len(self.vocabulary)

        n_docs = len(documents)
        doc_frequency = np.zeros(max(len(self.vocabulary), 1))
        for doc in documents:
            # Each distinct token bumps its own counter slot, so the
            # set's arbitrary order cannot reach any output.
            for token in set(doc):  # lsd: ignore[set-iteration]
                doc_frequency[self.vocabulary[token]] += 1
        # Smoothed idf keeps every fitted term positive, so a term present
        # in all documents still contributes a little signal.
        self.idf = np.log((1.0 + n_docs) / (1.0 + doc_frequency)) + 1.0
        self.matrix = self.transform(documents)
        # The fitted model is immutable from here on: queries build
        # *fresh* matrices (transform) and only ever read these. Marking
        # the arrays read-only proves it at runtime, so forked workers
        # never write (and copy) the pages they share with the parent.
        self.idf.setflags(write=False)
        self.matrix.data.setflags(write=False)
        self.matrix.indices.setflags(write=False)
        self.matrix.indptr.setflags(write=False)

    @property
    def n_documents(self) -> int:
        """Number of documents the space was fitted on."""
        return self.matrix.shape[0]

    def transform(self, documents: list[list[str]]) -> sparse.csr_matrix:
        """Map documents to L2-normalised TF-IDF rows.

        Tokens outside the fitted vocabulary are ignored, mirroring how a
        nearest-neighbour matcher treats unseen words: they can't match
        anything stored, so they contribute nothing.
        """
        vocabulary = self.vocabulary
        rows: list[int] = []
        cols: list[int] = []
        for row_index, doc in enumerate(documents):
            known = [vocabulary[token] for token in doc
                     if token in vocabulary]
            rows.extend([row_index] * len(known))
            cols.extend(known)
        shape = (len(documents), max(len(vocabulary), 1))
        # COO->CSR sums duplicate (row, col) entries, so ones in, term
        # frequencies out — the whole weighting is then two vectorised
        # ops over the nonzeros instead of a Python loop per token.
        matrix = sparse.csr_matrix(
            (np.ones(len(cols)), (rows, cols)),
            shape=shape, dtype=np.float64)
        matrix.data = (1.0 + np.log(matrix.data)) * self.idf[matrix.indices]
        return _l2_normalize(matrix)

    def similarities(self, queries: list[list[str]]) -> np.ndarray:
        """Cosine similarity of each query against every fitted document.

        Returns an ``(n_queries, n_documents)`` dense array with entries in
        ``[0, 1]``.
        """
        return self.sparse_similarities(queries).toarray()

    def sparse_similarities(self,
                            queries: list[list[str]]) -> sparse.csr_matrix:
        """Cosine similarities as a CSR matrix with sorted column indices.

        Query/document similarity matrices are overwhelmingly zero (a
        short query only shares terms with a few stored documents), so
        bulk consumers like WHIRL score the nonzero entries directly
        instead of materialising the dense array.
        """
        query_matrix = self.transform(queries)
        sims = (query_matrix @ self.matrix.T).tocsr()
        sims.sort_indices()
        return sims


def _l2_normalize(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Row-normalise a sparse matrix; zero rows stay zero."""
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
    norms[norms == 0.0] = 1.0
    inverse = sparse.diags(1.0 / norms)
    return (inverse @ matrix).tocsr()


def cosine_similarity(a: list[str], b: list[str]) -> float:
    """Cosine similarity of two token lists under a two-document space.

    Convenience for tests and small-scale use; bulk work should go through
    :class:`TfidfVectorSpace`.
    """
    if not a or not b:
        return 0.0
    space = TfidfVectorSpace([a, b])
    return float(space.similarities([a])[0, 1])
