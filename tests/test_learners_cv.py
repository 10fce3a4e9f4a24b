"""Cross-validation through the shared example table, held to fold-by-fold
fits.

``cross_validate_many`` hands each grouping learner's fold clones a
:class:`~repro.learners.batching.Fold` over one example table per
training stream. Every out-of-fold score must be byte-equal to training
a clone on a plain list of each fold and predicting a plain list of its
held-out block, with the memo on and under ``featurize.cache_disabled()``.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import featurize
from repro.core.training import build_training_set
from repro.datasets import DOMAIN_NAMES, load_domain
from repro.evaluation import SystemConfig, build_system
from repro.learners import (ContentMatcher, NaiveBayesLearner, NameMatcher,
                            XMLLearner, cross_validate, cross_validate_many)
from repro.learners.meta import _fold_splits

from .helpers import make_instance, space_of

LISTINGS = 40
SOURCES = 3
FOLDS = 5
SEED = 0


def lowercase_words(instance):
    return instance.text.lower().split()


def learners():
    return [NaiveBayesLearner(), NaiveBayesLearner(tokenizer=lowercase_words),
            XMLLearner(), NameMatcher(), ContentMatcher()]


def reference(learner, instances, labels, space, folds=FOLDS):
    """Out-of-fold scores of clones fitted and scored on plain lists."""
    n = len(instances)
    scores = np.zeros((n, len(space)))
    for held_out in _fold_splits(n, folds, SEED):
        train_idx = np.setdiff1d(np.arange(n), held_out)
        clone = learner.clone()
        try:
            clone.fit([instances[i] for i in train_idx],
                      [labels[i] for i in train_idx], space)
            scores[held_out] = clone.predict_scores(
                [instances[i] for i in held_out])
        except (ValueError, RuntimeError):
            scores[held_out] = 1.0 / len(space)
    return scores


@pytest.fixture(scope="module", params=DOMAIN_NAMES)
def stream(request):
    domain = load_domain(request.param)
    system = build_system(domain, SystemConfig("complete"))
    for source in domain.sources[:SOURCES]:
        system.add_training_source(
            source.schema, source.listings(LISTINGS, sample_seed=0),
            source.mapping)
    instances, labels = build_training_set(
        system.training_sources, system.space,
        system.max_instances_per_tag)
    return instances, labels, system.space


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
def test_matches_fold_by_fold_fits(stream, memo):
    instances, labels, space = stream
    with nullcontext() if memo else featurize.cache_disabled():
        tabled = cross_validate_many(learners(), instances, labels, space,
                                     folds=FOLDS, seed=SEED)
        for learner, matrix in zip(learners(), tabled):
            expected = reference(learner, instances, labels, space)
            assert matrix.tobytes() == expected.tobytes(), learner.name


class HeldOutFails(NaiveBayesLearner):
    """Naive Bayes whose fit fails on the fold that holds ``marker``
    out, so that fold falls back to uniform scores."""

    def __init__(self, marker=None):
        super().__init__()
        self.marker = marker

    def clone(self):
        return HeldOutFails(self.marker)

    def fit(self, instances, labels, space):
        if all(instance is not self.marker for instance in instances):
            raise ValueError("marker held out")
        super().fit(instances, labels, space)


def test_untrainable_fold_falls_back_to_uniform(stream):
    instances, labels, space = stream
    learner = HeldOutFails(marker=instances[0])
    tabled = cross_validate(learner, instances, labels, space,
                            folds=FOLDS, seed=SEED)
    assert tabled.tobytes() == \
        reference(learner, instances, labels, space).tobytes()
    [held_out] = [block for block in _fold_splits(len(instances), FOLDS,
                                                  SEED) if 0 in block]
    assert np.all(tabled[held_out] == 1.0 / len(space))
    trained = np.setdiff1d(np.arange(len(instances)), held_out)
    assert not np.all(tabled[trained] == 1.0 / len(space))


def test_failing_table_build_falls_back_to_uniform():
    """A tokenizer that fails builds no table: every fold, each of
    which would have tokenized the bad instance, scores uniformly."""
    space = space_of("ADDRESS", "DESCRIPTION")

    def tokenizer(instance):
        if instance.text == "bad":
            raise ValueError("cannot tokenize")
        return instance.text.split()

    instances = [make_instance("t", text) for text in
                 ["Miami FL", "great yard", "bad", "Kent WA", "nice view",
                  "Boston MA"]]
    labels = ["ADDRESS", "DESCRIPTION", "ADDRESS", "ADDRESS",
              "DESCRIPTION", "ADDRESS"]
    learner = NaiveBayesLearner(tokenizer=tokenizer)
    scores = cross_validate(learner, instances, labels, space, folds=3)
    assert scores.tobytes() == \
        reference(learner, instances, labels, space, folds=3).tobytes()
    assert np.all(scores == 1.0 / len(space))


def test_custom_tokenizer_runs_once_per_instance_per_cross_validation():
    calls = []

    def tokenizer(instance):
        calls.append(instance)
        return instance.text.lower().split()

    texts = ["Miami FL", "Miami FL", "Kent WA", "great yard", "Boston MA",
             "Kent WA", "nice view", "great yard", "Miami FL", "Salem OR"]
    instances = [make_instance("t", text) for text in texts]
    labels = ["ADDRESS", "ADDRESS", "ADDRESS", "DESCRIPTION", "ADDRESS",
              "ADDRESS", "DESCRIPTION", "DESCRIPTION", "ADDRESS", "ADDRESS"]
    cross_validate(NaiveBayesLearner(tokenizer=tokenizer), instances,
                   labels, space_of("ADDRESS", "DESCRIPTION"), folds=5)
    assert len(calls) <= len(instances)
    assert len({id(i) for i in calls}) == len(calls)
