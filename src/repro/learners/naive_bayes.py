"""Multinomial Naive Bayes over stemmed content tokens (§3.3).

The learner treats an instance as a bag of tokens and assigns the class
maximising ``P(c) * prod_j P(w_j | c)`` with Laplace-smoothed token
probabilities. It shines when some tokens are strongly indicative of a
label ("beautiful", "great" for DESCRIPTION) or when many weakly
suggestive tokens accumulate; it is weak on short numeric fields.

The implementation is vectorised: training builds an
``(n_labels, vocabulary)`` log-probability matrix; prediction is one
sparse matrix product followed by a row-softmax.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from ..core import featurize
from ..core.instance import ElementInstance
from ..core.labels import LabelSpace
from .base import GroupingLearner
from .batching import ExampleTable, Fold, fit_table, score_distinct


def default_tokenizer(instance: ElementInstance) -> list[str]:
    """Parse + stem the words and symbols of the instance content.

    Reads through the shared per-instance cache
    (:func:`repro.core.featurize.content_tokens`), so the work happens
    once no matter how many learners consume the same instance. Plugin
    learners that pass their own ``tokenizer`` bypass the cache
    entirely. The returned list is shared — do not mutate it.
    """
    return featurize.content_tokens(instance)


class NaiveBayesLearner(GroupingLearner):
    """Multinomial NB with Laplace smoothing over instance token bags."""

    name = "naive_bayes"

    def __init__(self, alpha: float = 1.0,
                 tokenizer: Callable[[ElementInstance], list[str]]
                 = default_tokenizer) -> None:
        super().__init__()
        self.alpha = alpha
        self.tokenizer = tokenizer
        self.vocabulary: dict[str, int] = {}
        self._log_prior: np.ndarray | None = None
        self._log_likelihood: np.ndarray | None = None

    def clone(self) -> "NaiveBayesLearner":
        return type(self)(self.alpha, self.tokenizer)

    # ------------------------------------------------------------------
    def _group_keys(self, instances: Sequence[ElementInstance]) -> list:
        """Each instance's grouping key; fit and prediction share them.

        The default tokenizer is a pure function of the instance text,
        so the (cheaper-to-hash) text string is an exact stand-in for
        the token tuple and only the distinct texts are tokenized.
        Custom tokenizers may consume more than the text: every instance
        is tokenized once and keyed by its token tuple.
        """
        if self.tokenizer is default_tokenizer:
            return [featurize.instance_text(i) for i in instances]
        return [tuple(self.tokenizer(i)) for i in instances]

    def _documents(self, instances: Sequence[ElementInstance], keys: list,
                   positions: Sequence[int]) -> list[Sequence[str]]:
        """The token bags of the instances at ``positions``."""
        if self.tokenizer is default_tokenizer:
            return [self.tokenizer(instances[i]) for i in positions]
        return [keys[i] for i in positions]

    def example_table(self, instances: Sequence[ElementInstance],
                      labels: Sequence[str],
                      space: LabelSpace) -> ExampleTable:
        keys = self._group_keys(instances)
        return ExampleTable(
            keys, labels, space,
            lambda firsts: self._documents(instances, keys, firsts))

    def fit(self, instances: Sequence[ElementInstance],
            labels: Sequence[str], space: LabelSpace) -> None:
        if len(instances) != len(labels):
            raise ValueError("instances and labels differ in length")
        self.space = space
        # Count each distinct (key, label) example once, times its
        # multiplicity (see repro.learners.batching for why it is exact).
        table, positions = fit_table(self, instances, labels, space)
        examples, counts = table.examples(positions)
        ids, lengths = table.concatenated(table.example_key[examples])
        # The vocabulary is the fitted examples' tokens in first-
        # appearance order, numbered from the table's global ids.
        distinct, firsts = np.unique(ids, return_index=True)
        order = distinct[np.argsort(firsts)]
        column = np.empty(len(table.tokens), dtype=np.intp)
        column[order] = np.arange(len(order))
        cols = column[ids]
        rows = table.example_row[examples]
        vocabulary = dict(zip(map(table.tokens.__getitem__, order.tolist()),
                              range(len(order))))
        self.vocabulary = vocabulary

        n_labels = len(space)
        vocab_size = max(len(vocabulary), 1)
        class_counts = np.bincount(rows, weights=counts,
                                   minlength=n_labels)
        token_counts = np.bincount(
            np.repeat(rows, lengths) * vocab_size + cols,
            weights=np.repeat(counts, lengths),
            minlength=n_labels * vocab_size).reshape(n_labels, vocab_size)

        # P(c): Laplace-smoothed so labels absent from training keep a
        # tiny prior instead of a hard zero.
        smoothed = class_counts + self.alpha
        self._log_prior = np.log(smoothed / smoothed.sum())
        # P(w|c) = (n(w,c) + alpha) / (n(c) + alpha * |V|)
        totals = token_counts.sum(axis=1, keepdims=True)
        self._log_likelihood = np.log(
            (token_counts + self.alpha) / (totals + self.alpha * vocab_size))

    def predict_scores(self,
                       instances: Sequence[ElementInstance]) -> np.ndarray:
        space = self._require_fitted()
        if self._log_prior is None or self._log_likelihood is None:
            raise RuntimeError("learner is not fitted")
        if not instances:
            return np.zeros((0, len(space)))
        if isinstance(instances, Fold):
            # A held-out fold: score each distinct key of the table once,
            # mapping its global token ids to this fit's columns.
            table = instances.table()
            keys, inverse = instances.distinct_keys()
            ids, lengths = table.concatenated(keys)
            distinct, where = np.unique(ids, return_inverse=True)
            get, tokens = self.vocabulary.get, table.tokens
            cols = np.fromiter((get(tokens[g], -1)
                                for g in distinct.tolist()),
                               dtype=np.intp, count=len(distinct))
            return self._score_columns(cols[where], lengths)[inverse]
        # Score each distinct key once and broadcast: NB scores are
        # row-wise, so this is numerically identical to scoring all rows,
        # and duplicate-heavy columns collapse to a few distinct bags.
        # ``score_distinct`` rides the featurize switch so the benchmark
        # baseline can measure the naive path.
        keys = self._group_keys(instances)
        return score_distinct(
            keys, lambda firsts: self._score_documents(
                self._documents(instances, keys, firsts)))

    def _score_documents(self,
                         documents: list[Sequence[str]]) -> np.ndarray:
        # One flat Python pass maps tokens to vocabulary columns (-1 for
        # out-of-vocabulary).
        get = self.vocabulary.get
        cols = np.fromiter(
            (get(token, -1) for doc in documents for token in doc),
            dtype=np.intp)
        lengths = np.fromiter((len(doc) for doc in documents),
                              dtype=np.intp, count=len(documents))
        return self._score_columns(cols, lengths)

    def _score_columns(self, cols: np.ndarray,
                       lengths: np.ndarray) -> np.ndarray:
        """Scores of documents given as their vocabulary columns (-1
        out of vocabulary) laid end to end, and their lengths.

        The row expansion, the OOV filter, and the duplicate-count/
        column-sort canonicalisation in ``tocsr`` run in C. Counts are
        small integers, so the duplicate summation is exact regardless
        of order.
        """
        rows = np.repeat(np.arange(len(lengths), dtype=np.intp), lengths)
        known = cols >= 0
        matrix = sparse.coo_matrix(
            (np.ones(int(known.sum())), (rows[known], cols[known])),
            shape=(len(lengths), max(len(self.vocabulary), 1))).tocsr()
        log_scores = matrix @ self._log_likelihood.T + self._log_prior
        return _row_softmax(log_scores)


def _row_softmax(log_scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax per row."""
    log_scores = np.asarray(log_scores)
    shifted = log_scores - log_scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
