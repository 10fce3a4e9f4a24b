"""Tests for the WHIRL nearest-neighbour engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.learners import WhirlIndex
from repro.learners.whirl import _keep_top_k

from .helpers import space_of
from .test_text_tfidf import corpora, oracle_fit, oracle_transform


@pytest.fixture
def space():
    return space_of("ADDRESS", "DESCRIPTION", "AGENT-PHONE")


@pytest.fixture
def fitted(space):
    index = WhirlIndex()
    docs = [
        ["location"], ["location", "address"], ["house", "addr"],
        ["comments"], ["description"], ["remarks"],
        ["phone"], ["contact", "phone"], ["telephone"],
    ]
    labels = (["ADDRESS"] * 3 + ["DESCRIPTION"] * 3 + ["AGENT-PHONE"] * 3)
    index.fit(docs, labels, space)
    return index


class TestScoring:
    def test_exact_match_wins(self, fitted, space):
        scores = fitted.scores([["phone"]])
        assert scores.shape == (1, len(space))
        best = space.label_at(int(np.argmax(scores[0])))
        assert best == "AGENT-PHONE"

    def test_partial_overlap(self, fitted, space):
        scores = fitted.scores([["office", "phone"]])
        best = space.label_at(int(np.argmax(scores[0])))
        assert best == "AGENT-PHONE"

    def test_no_overlap_gives_uniform(self, fitted, space):
        scores = fitted.scores([["zzz"]])
        assert np.allclose(scores[0], 1.0 / len(space))

    def test_rows_normalised(self, fitted):
        scores = fitted.scores([["location"], ["phone"], ["comments"]])
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert np.all(scores >= 0)

    def test_multiple_neighbors_reinforce(self, space):
        # Two moderately similar neighbours of one label should beat one
        # equally similar neighbour of another.
        index = WhirlIndex()
        docs = [["a", "x"], ["a", "y"], ["a", "z"]]
        labels = ["ADDRESS", "ADDRESS", "DESCRIPTION"]
        index.fit(docs, labels, space)
        scores = index.scores([["a"]])
        assert scores[0, space.index_of("ADDRESS")] > \
            scores[0, space.index_of("DESCRIPTION")]

    def test_empty_query_list(self, fitted, space):
        assert fitted.scores([]).shape == (0, len(space))


class TestConfiguration:
    def test_min_similarity_filters(self, space):
        index = WhirlIndex(min_similarity=0.99)
        index.fit([["location", "extra", "words", "here"]], ["ADDRESS"],
                  space)
        scores = index.scores([["location"]])
        # Similarity below the threshold: nothing votes, uniform output.
        assert np.allclose(scores[0], 1.0 / len(space))

    def test_deduplication(self, space):
        index = WhirlIndex(deduplicate=True)
        index.fit([["phone"]] * 500 + [["location"]],
                  ["AGENT-PHONE"] * 500 + ["ADDRESS"], space)
        assert index._label_matrix.shape[0] == 2

    def test_top_k_limits_votes(self, space):
        index = WhirlIndex(max_neighbors=2)
        sims = np.array([[0.9, 0.8, 0.7, 0.6, 0.5]])
        kept = _keep_top_k(sparse.csr_matrix(sims),
                           index.max_neighbors).toarray()
        assert np.count_nonzero(kept) == 2
        assert kept[0, 0] == 0.9 and kept[0, 1] == 0.8

    def test_many_duplicate_votes_do_not_drown_exact_match(self, space):
        # 50 weak neighbours of one label vs one strong neighbour of
        # another: top-k keeps the strong neighbour competitive.
        index = WhirlIndex(max_neighbors=5, deduplicate=False)
        docs = [["w", "common", str(i)] for i in range(50)] + [["w"]]
        labels = ["ADDRESS"] * 50 + ["AGENT-PHONE"]
        index.fit(docs, labels, space)
        scores = index.scores([["w"]])
        assert scores[0, space.index_of("AGENT-PHONE")] > 0.2

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            WhirlIndex().scores([["x"]])

    def test_top_k_ties_keep_exactly_k(self, space):
        """Regression: a pure >=-threshold test kept *every* neighbour
        tied at the k-th similarity, so k=2 here used to keep four
        entries. Ties break by stored index: the first 0.5 survives."""
        index = WhirlIndex(max_neighbors=2)
        sims = np.array([[0.5, 0.9, 0.5, 0.5, 0.2]])
        kept = _keep_top_k(sparse.csr_matrix(sims),
                           index.max_neighbors).toarray()
        assert np.count_nonzero(kept) == 2
        assert kept[0, 1] == 0.9
        assert kept[0, 0] == 0.5
        assert kept[0, 2] == 0.0 and kept[0, 3] == 0.0

    def test_tied_duplicates_cannot_inflate_their_label(self, space):
        """End to end: two identical stored docs tie for the single
        neighbour slot. Only one may vote, so its label cannot collect
        a doubled score."""
        index = WhirlIndex(max_neighbors=1, deduplicate=False)
        index.fit([["x"], ["x"]], ["ADDRESS", "DESCRIPTION"], space)
        scores = index.scores([["x"]])
        # The index-0 document wins the tie; only ADDRESS gets the vote.
        assert scores[0, space.index_of("ADDRESS")] > \
            scores[0, space.index_of("DESCRIPTION")]

    def test_query_dedup_matches_naive_scoring(self, fitted):
        """Scoring is row-wise: duplicate query rows score identically,
        and the scores equal the uncached row-by-row pipeline."""
        from repro.core import featurize
        queries = [["phone"], ["location"], ["phone"], ["phone"],
                   ["comments"], ["location"]]
        cached = fitted.scores(queries)
        with featurize.cache_disabled():
            naive = fitted.scores(queries)
        assert np.array_equal(cached, naive)
        assert np.array_equal(cached[0], cached[2])

    def test_length_mismatch_raises(self, space):
        with pytest.raises(ValueError):
            WhirlIndex().fit([["a"]], ["X", "Y"], space)

    def test_empty_fit_raises(self, space):
        with pytest.raises(ValueError):
            WhirlIndex().fit([], [], space)


# ---------------------------------------------------------------------------
# differential oracle: the scoring path as it was, over a column-sorted
# similarity matrix with bucketed partitions and storage-order ties
# ---------------------------------------------------------------------------

def oracle_keep_top_k(sims, k):
    if k is None or sims.shape[1] <= k:
        return sims
    data, indptr = sims.data, sims.indptr
    counts = np.diff(indptr)
    rows_over = np.flatnonzero(counts > k)
    if rows_over.size == 0:
        return sims
    seg_counts = counts[rows_over]
    ends = np.cumsum(seg_counts)
    local = np.arange(int(ends[-1])) - np.repeat(ends - seg_counts,
                                                 seg_counts)
    flat = np.repeat(indptr[rows_over], seg_counts) + local
    thresholds = np.empty(rows_over.size)
    buckets = np.ceil(np.log2(seg_counts)).astype(np.intp)
    row_starts = ends - seg_counts
    values = data[flat]
    for bucket in np.unique(buckets):
        members = np.flatnonzero(buckets == bucket)
        member_counts = seg_counts[members]
        width = int(member_counts.max())
        member_ends = np.cumsum(member_counts)
        member_local = np.arange(int(member_ends[-1])) - \
            np.repeat(member_ends - member_counts, member_counts)
        gather = np.repeat(row_starts[members],
                           member_counts) + member_local
        padded = np.full((members.size, width), -np.inf)
        padded[np.arange(width) < member_counts[:, None]] = \
            values[gather]
        thresholds[members] = np.partition(
            padded, width - k, axis=1)[:, width - k]
    active = thresholds > 0.0
    if not active.any():
        return sims
    if not active.all():
        flat = flat[np.repeat(active, seg_counts)]
        seg_counts = seg_counts[active]
    seg = data[flat]
    row_ids = np.repeat(np.arange(seg_counts.size), seg_counts)
    per_entry = thresholds[active][row_ids]
    keep = seg > per_entry
    tie = seg == per_entry
    greater = np.bincount(row_ids, weights=keep,
                          minlength=seg_counts.size)
    tie_before = np.concatenate(
        ([0.0], np.cumsum(np.bincount(row_ids, weights=tie,
                                      minlength=seg_counts.size))[:-1]))
    tie_rank = np.cumsum(tie) - tie - tie_before[row_ids]
    keep |= tie & (tie_rank < (k - greater)[row_ids])
    data[flat[~keep]] = 0.0
    return sims


def oracle_scores(index, documents, queries):
    """The index's scores of ``queries``; ``documents`` are the stored
    documents in stored order."""
    vocabulary, idf = oracle_fit(documents)
    stored = oracle_transform(vocabulary, idf, documents)
    sims = (oracle_transform(vocabulary, idf, queries) @ stored.T).tocsr()
    sims.sort_indices()
    np.clip(sims.data, 0.0, 1.0 - 1e-9, out=sims.data)
    if index.min_similarity > 0.0:
        sims.data[sims.data < index.min_similarity] = 0.0
    oracle_keep_top_k(sims, index.max_neighbors)
    np.negative(sims.data, out=sims.data)
    np.log1p(sims.data, out=sims.data)
    grouped = np.asarray(sims @ index._label_matrix)
    raw = 1.0 - np.exp(grouped)
    totals = raw.sum(axis=1, keepdims=True)
    uniform = np.full_like(raw, 1.0 / raw.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0.0, raw / totals, uniform)


LABELS = ("ADDRESS", "DESCRIPTION", "AGENT-PHONE")


class TestAgainstOracle:
    """The kernel's scores equal the oracle's byte for byte: duplicate
    stored documents force ties at the k-th place, and queries carry
    out-of-vocabulary tokens and empty documents."""

    @given(corpora(), st.sampled_from([1, 2, 5, 30]),
           st.sampled_from([0.0, 0.3]), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_scores_match_the_oracle(self, drawn, k, min_similarity,
                                     deduplicate, data):
        corpus, queries = drawn
        labels = data.draw(st.lists(st.sampled_from(LABELS),
                                    min_size=len(corpus),
                                    max_size=len(corpus)))
        space = space_of(*LABELS)
        index = WhirlIndex(max_neighbors=k, min_similarity=min_similarity,
                           deduplicate=deduplicate)
        index.fit(corpus, labels, space)
        # The stored documents after fit's dedup, in stored order.
        kept = list(dict.fromkeys(
            (tuple(doc), label) for doc, label in zip(corpus, labels))) \
            if deduplicate else list(zip(corpus, labels))
        documents = [list(doc) for doc, _ in kept]
        assert index.scores(queries).tobytes() == \
            oracle_scores(index, documents, queries).tobytes()

    @given(st.lists(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.5, 0.9]),
                             min_size=6, max_size=6),
                    min_size=1, max_size=6),
           st.sampled_from([1, 2, 5]), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_selection_matches_the_oracle_in_any_storage_order(
            self, rows, k, random):
        """The selection reads no storage order: shuffling each row's
        entries keeps the same survivors."""
        dense = np.array(rows)
        expected = oracle_keep_top_k(sparse.csr_matrix(dense), k)
        shuffled = sparse.csr_matrix(dense)
        for row in range(shuffled.shape[0]):
            start, end = shuffled.indptr[row], shuffled.indptr[row + 1]
            order = list(range(start, end))
            random.shuffle(order)
            shuffled.indices[start:end] = shuffled.indices[order]
            shuffled.data[start:end] = shuffled.data[order]
        kept = _keep_top_k(shuffled, k)
        assert kept.toarray().tobytes() == expected.toarray().tobytes()
