"""Replay the golden training fixture: the same fitted bits.

See :mod:`tests.train_golden` for what the fixture holds and how to
regenerate it.
"""

import json

import pytest

from repro.core import featurize
from repro.learners import NaiveBayesLearner

from .helpers import make_instance, space_of
from .train_golden import FIXTURE, train_domain

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


def _golden(name: str) -> dict:
    return next(entry for entry in GOLDEN["domains"]
                if entry["domain"] == name)


@pytest.mark.parametrize("entry", GOLDEN["domains"],
                         ids=lambda entry: entry["domain"])
def test_training_matches_golden(entry):
    assert train_domain(entry["domain"]) == entry


def test_per_instance_fit_matches_golden():
    """With memoisation off every learner fits row by row; the fitted
    bits are the same as the grouped fit's."""
    with featurize.cache_disabled():
        assert train_domain("time_schedule") == _golden("time_schedule")


def test_custom_tokenizer_runs_once_per_instance_per_fit():
    calls = []

    def tokenizer(instance):
        calls.append(instance)
        return instance.text.lower().split()

    instances = [make_instance("city", text)
                 for text in ["Miami FL", "Miami FL", "Kent WA",
                              "Miami FL", "Boston MA", "Kent WA"]]
    labels = ["ADDRESS"] * len(instances)
    learner = NaiveBayesLearner(tokenizer=tokenizer)
    learner.fit(instances, labels, space_of("ADDRESS"))
    assert len(calls) <= len(instances)
    assert {id(i) for i in calls} <= {id(i) for i in instances}
    assert len({id(i) for i in calls}) == len(calls)
