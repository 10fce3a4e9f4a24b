"""Tests for the TF-IDF vector space and cosine similarity."""

import string

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.text import TfidfVectorSpace, cosine_similarity

DOCS = [
    ["fantastic", "house", "great", "location"],
    ["great", "yard", "close", "river"],
    ["miami", "fl"],
    ["boston", "ma"],
]


class TestVectorSpace:
    def test_fit_builds_vocabulary(self):
        space = TfidfVectorSpace(DOCS)
        assert "fantastic" in space.vocabulary
        assert space.n_documents == 4

    def test_self_similarity_is_one(self):
        space = TfidfVectorSpace(DOCS)
        sims = space.similarities(DOCS)
        assert np.allclose(np.diag(sims), 1.0)

    def test_disjoint_docs_have_zero_similarity(self):
        space = TfidfVectorSpace(DOCS)
        sims = space.similarities([["miami", "fl"]])
        assert sims[0, 3] == pytest.approx(0.0)

    def test_similarity_in_unit_interval(self):
        space = TfidfVectorSpace(DOCS)
        sims = space.similarities([["great", "house"], ["river"]])
        assert np.all(sims >= 0.0) and np.all(sims <= 1.0 + 1e-12)

    def test_shared_tokens_increase_similarity(self):
        space = TfidfVectorSpace(DOCS)
        sims = space.similarities([["great", "location", "house"]])
        assert sims[0, 0] > sims[0, 1] > 0.0

    def test_oov_tokens_ignored(self):
        space = TfidfVectorSpace(DOCS)
        sims_with = space.similarities([["miami", "zzz", "qqq"]])
        sims_without = space.similarities([["miami"]])
        assert sims_with[0, 2] == pytest.approx(sims_without[0, 2])

    def test_all_oov_query_is_zero(self):
        space = TfidfVectorSpace(DOCS)
        sims = space.similarities([["nothing", "matches"]])
        assert np.allclose(sims, 0.0)

    def test_empty_document_allowed(self):
        space = TfidfVectorSpace([["a"], []])
        sims = space.similarities([[]])
        assert np.allclose(sims, 0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfidfVectorSpace([])

    def test_rare_term_outweighs_common(self):
        # 'common' appears everywhere, 'rare' once; a query containing both
        # must be closer to the doc sharing 'rare'.
        docs = [["common", "rare"], ["common", "x"], ["common", "y"],
                ["common", "z"]]
        space = TfidfVectorSpace(docs)
        sims = space.similarities([["rare"]])
        assert sims[0, 0] > sims[0, 1]

    def test_term_frequency_saturates(self):
        # (1 + log tf) weighting: 10 repeats is not 10x the weight.
        docs = [["word"], ["word"] * 10, ["other"]]
        space = TfidfVectorSpace(docs)
        sims = space.similarities([["word"]])
        assert sims[0, 0] == pytest.approx(sims[0, 1])


class TestCosineSimilarity:
    def test_identical(self):
        assert cosine_similarity(["a", "b"], ["a", "b"]) == pytest.approx(1.0)

    def test_disjoint(self):
        assert cosine_similarity(["a"], ["b"]) == pytest.approx(0.0)

    def test_empty(self):
        assert cosine_similarity([], ["a"]) == 0.0

    def test_symmetry(self):
        a = ["house", "great", "yard"]
        b = ["great", "location"]
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(b, a))


tokens = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5)
documents = st.lists(tokens, min_size=0, max_size=8)


class TestProperties:
    @given(st.lists(documents, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_similarities_bounded(self, docs):
        space = TfidfVectorSpace(docs)
        sims = space.similarities(docs)
        assert np.all(sims >= -1e-12)
        assert np.all(sims <= 1.0 + 1e-9)

    @given(st.lists(documents, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_similarity_matrix_symmetric(self, docs):
        space = TfidfVectorSpace(docs)
        sims = space.similarities(docs)
        assert np.allclose(sims, sims.T, atol=1e-9)


# ---------------------------------------------------------------------------
# differential oracle: the space as it was built through scipy's sparse
# arithmetic (COO->CSR sums, ``multiply().sum(axis=1)`` norms, a
# ``diags`` product), kept verbatim so the numpy-built kernel can be
# held to it byte for byte
# ---------------------------------------------------------------------------

def oracle_fit(documents):
    """``(vocabulary, idf)`` of a corpus, counted document by document."""
    vocabulary = {}
    for doc in documents:
        for token in doc:
            if token not in vocabulary:
                vocabulary[token] = len(vocabulary)
    doc_frequency = np.zeros(max(len(vocabulary), 1))
    for doc in documents:
        for token in dict.fromkeys(doc):
            doc_frequency[vocabulary[token]] += 1
    idf = np.log((1.0 + len(documents)) / (1.0 + doc_frequency)) + 1.0
    return vocabulary, idf


def oracle_transform(vocabulary, idf, documents):
    rows, cols = [], []
    for row_index, doc in enumerate(documents):
        known = [vocabulary[token] for token in doc if token in vocabulary]
        rows.extend([row_index] * len(known))
        cols.extend(known)
    shape = (len(documents), max(len(vocabulary), 1))
    matrix = sparse.csr_matrix((np.ones(len(cols)), (rows, cols)),
                               shape=shape, dtype=np.float64)
    matrix.data = (1.0 + np.log(matrix.data)) * idf[matrix.indices]
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
    norms[norms == 0.0] = 1.0
    return (sparse.diags(1.0 / norms) @ matrix).tocsr()


def assert_same_csr(actual, expected):
    """Same shape and the same stored arrays, dtype and bytes."""
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


#: A small vocabulary, so documents overlap and repeat terms.
VOCAB = ["a", "b", "c", "d", "e", "f"]


@st.composite
def corpora(draw):
    """A corpus with duplicate and empty documents, and queries drawn
    from it, out-of-vocabulary tokens and empty documents."""
    base = draw(st.lists(st.lists(st.sampled_from(VOCAB), max_size=6),
                         min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(base) - 1), max_size=8))
    corpus = base + [list(base[i]) for i in picks]
    queries = draw(st.lists(
        st.one_of(st.sampled_from(corpus),
                  st.lists(st.sampled_from(VOCAB + ["zz", "qq"]),
                           max_size=6)),
        min_size=1, max_size=8))
    return corpus, queries


class TestAgainstOracle:
    @given(corpora())
    @settings(max_examples=150, deadline=None)
    def test_fit_and_transform_match_the_oracle(self, drawn):
        corpus, queries = drawn
        space = TfidfVectorSpace(corpus)
        vocabulary, idf = oracle_fit(corpus)
        assert list(space.vocabulary.items()) == list(vocabulary.items())
        assert space.idf.tobytes() == idf.tobytes()
        assert_same_csr(space.matrix,
                        oracle_transform(vocabulary, idf, corpus))
        assert_same_csr(space.transform(queries),
                        oracle_transform(vocabulary, idf, queries))

    @given(corpora())
    @settings(max_examples=80, deadline=None)
    def test_similarities_match_the_oracle_product(self, drawn):
        corpus, queries = drawn
        space = TfidfVectorSpace(corpus)
        vocabulary, idf = oracle_fit(corpus)
        expected = oracle_transform(vocabulary, idf, queries) \
            @ oracle_transform(vocabulary, idf, corpus).T
        assert space.similarities(queries).tobytes() == \
            expected.toarray().tobytes()

    def test_rows_are_stored_in_descending_column_order(self):
        space = TfidfVectorSpace(DOCS)
        for row in range(space.n_documents):
            columns = space.matrix.indices[
                space.matrix.indptr[row]:space.matrix.indptr[row + 1]]
            assert list(columns) == sorted(columns, reverse=True)


class TestPostings:
    """The transposed stored matrix, kept for the similarity product."""

    def test_postings_are_the_transposed_matrix(self):
        space = TfidfVectorSpace(DOCS)
        assert_same_csr(space.postings, space.matrix.T.tocsr())

    def test_fitted_arrays_are_read_only(self):
        space = TfidfVectorSpace(DOCS)
        for matrix in (space.matrix, space.postings):
            for array in (matrix.data, matrix.indices, matrix.indptr):
                assert not array.flags.writeable
        assert not space.idf.flags.writeable

    def test_postings_are_not_pickled_and_come_back_on_load(self):
        space = TfidfVectorSpace(DOCS)
        assert set(space.__getstate__()) == {"vocabulary", "idf", "matrix"}
        loaded = pickle.loads(pickle.dumps(space))
        assert_same_csr(loaded.postings, loaded.matrix.T.tocsr())
        assert_same_csr(loaded.matrix, space.matrix)
        assert not loaded.postings.data.flags.writeable
        queries = [["great", "house"], ["miami", "zzz"], []]
        assert loaded.similarities(queries).tobytes() == \
            space.similarities(queries).tobytes()
