"""The XML learner's node table against the string walk it replaced.

:class:`tests.xml_reference.ReferenceXMLLearner` builds every instance's
nested skeleton, walks it into string tokens and looks each one up in
the vocabulary. The node-table learner must fit the same bits and score
the same bytes on real domain data, under every label map a match
produces, with the memo on and off, and on label names built to collide
with the token syntax. Its derived state must never reach a pickle.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.core import featurize
from repro.core.instance import (ElementInstance, extract_columns,
                                 fill_child_labels)
from repro.core.labels import OTHER
from repro.core.persistence import FORMAT_VERSION, load_system, save_system
from repro.core.training import build_training_set
from repro.datasets import DOMAIN_NAMES, load_domain
from repro.evaluation import SystemConfig, build_system
from repro.learners import XMLLearner
from repro.xmlio import parse_element

from .helpers import space_of, training_set
from .xml_reference import ReferenceXMLLearner

#: Listings per query sample, and per training source.
QUERY_LISTINGS = 40
TRAIN_LISTINGS = 10


def fitted_state(learner) -> tuple:
    return (list(learner.vocabulary.items()), learner._log_prior.tobytes(),
            learner._log_likelihood.tobytes())


def assert_same_scores(learner, reference, instances):
    scores = learner.predict_scores(instances)
    expected = reference.predict_scores(instances)
    assert scores.shape == expected.shape
    assert scores.tobytes() == expected.tobytes()


def label_maps(source, seed: int = 3) -> dict[str, dict[str, str] | None]:
    """No child labels, the true mapping, and the true labels permuted
    over the source's tags."""
    tags = list(source.schema.tags)
    truth = [source.mapping.get(tag, OTHER) for tag in tags]
    permuted = truth[:]
    random.Random(seed).shuffle(permuted)
    return {"empty": None, "true": dict(zip(tags, truth)),
            "permuted": dict(zip(tags, permuted))}


def query_instances(source, labels: dict[str, str] | None,
                    sample_seed: int = 1) -> list:
    columns = extract_columns(
        source.schema, source.listings(QUERY_LISTINGS,
                                       sample_seed=sample_seed))
    if labels is not None:
        fill_child_labels(columns, labels)
    return [instance for column in columns.values()
            for instance in column.instances]


@pytest.fixture(scope="module", params=DOMAIN_NAMES)
def domain_fit(request):
    """A domain, its training stream, and both learners fitted on it
    with and without structure tokens."""
    domain = load_domain(request.param)
    system = build_system(domain, SystemConfig("complete"))
    for source in domain.sources[:3]:
        system.add_training_source(
            source.schema,
            source.listings(TRAIN_LISTINGS, sample_seed=0),
            source.mapping)
    instances, labels = build_training_set(system.training_sources,
                                           system.space)
    pairs = {}
    for structure in (True, False):
        learner = XMLLearner(include_structure=structure)
        learner.fit(instances, labels, system.space)
        reference = ReferenceXMLLearner(include_structure=structure)
        reference.fit(instances, labels, system.space)
        pairs[structure] = (learner, reference)
    return domain, system.space, instances, labels, pairs


class TestFit:
    def test_fitted_state_is_the_reference_fit(self, domain_fit):
        _, _, _, _, pairs = domain_fit
        for learner, reference in pairs.values():
            assert fitted_state(learner) == fitted_state(reference)

    def test_fit_without_memo_is_the_reference_fit(self, domain_fit):
        _, space, instances, labels, pairs = domain_fit
        with featurize.cache_disabled():
            learner = XMLLearner()
            learner.fit(instances, labels, space)
        assert fitted_state(learner) == fitted_state(pairs[True][1])


class TestPrediction:
    @pytest.mark.parametrize("structure", [True, False])
    @pytest.mark.parametrize("memo", [True, False])
    def test_scores_equal_the_reference(self, domain_fit, structure, memo):
        domain, _, _, _, pairs = domain_fit
        learner, reference = pairs[structure]
        for source in domain.sources[:3]:
            for labels in label_maps(source).values():
                instances = query_instances(source, labels)
                if memo:
                    assert_same_scores(learner, reference, instances)
                else:
                    with featurize.cache_disabled():
                        assert_same_scores(learner, reference, instances)

    def test_relabelled_subset_repredicts_like_the_reference(
            self, domain_fit):
        """A structure pass: the match's instances keep their table,
        and only those whose child labels changed are scored again."""
        domain, _, _, _, pairs = domain_fit
        learner, reference = pairs[True]
        repredicted = 0
        for source in domain.sources[:3]:
            maps = label_maps(source)
            columns = extract_columns(
                source.schema, source.listings(QUERY_LISTINGS,
                                               sample_seed=1))
            flat = [instance for column in columns.values()
                    for instance in column.instances]
            assert_same_scores(learner, reference, flat)
            for name in ("true", "permuted"):
                before = [dict(instance.child_labels) for instance in flat]
                fill_child_labels(columns, maps[name])
                changed = [instance for instance, old in zip(flat, before)
                           if instance.child_labels != old]
                if changed:
                    assert_same_scores(learner, reference, changed)
                    repredicted += 1
        assert repredicted

    def test_batch_mixing_two_matches(self, domain_fit):
        """Instances of two matches, each pinned to its own table, plus
        unpinned ones that form a third stream inside the call."""
        domain, _, _, _, pairs = domain_fit
        learner, reference = pairs[True]
        first, second = domain.sources[:2]
        ours = query_instances(first, label_maps(first)["true"])
        theirs = query_instances(second, label_maps(second)["true"])
        learner.predict_scores(ours)
        learner.predict_scores(theirs)
        fresh = query_instances(first, label_maps(first)["permuted"],
                                sample_seed=2)
        mixed = [instance for trio in zip(ours, theirs, fresh)
                 for instance in trio]
        assert_same_scores(learner, reference, mixed)
        assert_same_scores(learner, reference, mixed[::-1])


#: Label names that collide with the token syntax: the root ``d``, the
#: unknown ``?``, a ``node:`` prefix, ``->`` inside a name and as a whole
#: name, a name that reads as an edge from the root, and a name equal to
#: a content word of the data.
ADVERSARIAL = ["d", "?", "node:x", "A->B", "gail", "d->gail", "->",
               "x->d->y"]


def adversarial_pairs():
    pairs = []
    texts = ["Gail Murphy", "MAX Realtors", "gail d node", "a b"]
    for i in range(12):
        first = ADVERSARIAL[i % len(ADVERSARIAL)]
        second = ADVERSARIAL[(3 * i + 1) % len(ADVERSARIAL)]
        element = parse_element(
            f"<contact><name>{texts[i % 4]}</name>"
            f"<firm>{texts[(i + 1) % 4]}<unit>gail</unit></firm>"
            f"d ? gail</contact>")
        instance = ElementInstance(
            element, "contact", ("root",),
            {"name": first, "firm": second, "unit": ADVERSARIAL[i % 3]})
        pairs.append((instance, ADVERSARIAL[i % len(ADVERSARIAL)]))
        leaf = parse_element(f"<name>{texts[i % 4]}</name>")
        pairs.append((ElementInstance(leaf, "name", ("root",)), "gail"))
    return pairs


class TestAdversarialLabels:
    SPACE = space_of(*ADVERSARIAL)

    def fitted(self):
        instances, labels = training_set(adversarial_pairs())
        learner = XMLLearner()
        learner.fit(instances, labels, self.SPACE)
        reference = ReferenceXMLLearner()
        reference.fit(instances, labels, self.SPACE)
        return learner, reference

    def test_fit_and_scores_equal_the_reference(self):
        learner, reference = self.fitted()
        assert fitted_state(learner) == fitted_state(reference)
        # The string model conflates equal strings: the edge to the
        # label "gail" is the edge to the word "gail", and the label
        # "d->gail" under the root is the edge d->gail.
        assert "d->gail" in learner.vocabulary
        assert "node:A->B" in learner.vocabulary
        queries, _ = training_set(adversarial_pairs())
        assert_same_scores(learner, reference, queries)

    def test_unseen_child_labels_are_out_of_vocabulary(self):
        learner, reference = self.fitted()
        queries, _ = training_set(adversarial_pairs())
        for position, instance in enumerate(queries):
            if instance.child_labels:
                instance.child_labels = {
                    "name": f"NEVER-SEEN-{position}", "firm": "q->r",
                    "unit": "node:"}
        assert_same_scores(learner, reference, queries)


class TestNothingDerivedIsPickled:
    @pytest.fixture(scope="class")
    def trained(self):
        domain = load_domain("real_estate_1", seed=0)
        system = build_system(domain, SystemConfig("complete"),
                              max_instances_per_tag=20)
        for source in domain.sources[:3]:
            system.add_training_source(
                source.schema, source.listings(10, sample_seed=0),
                source.mapping)
        system.train()
        return domain, system

    def test_matching_leaves_the_model_bytes_alone(self, trained,
                                                   tmp_path):
        domain, system = trained
        before, after = tmp_path / "before.lsd", tmp_path / "after.lsd"
        save_system(system, before)
        test = domain.sources[4]
        system.match(test.schema, test.listings(10, sample_seed=0))
        xml = next(learner for learner in system.learners
                   if isinstance(learner, XMLLearner))
        assert xml._columns is not None
        save_system(system, after)
        assert before.read_bytes() == after.read_bytes()
        assert FORMAT_VERSION == 2
        loaded = load_system(after)
        result = loaded.match(test.schema,
                              test.listings(10, sample_seed=0))
        expected = system.match(test.schema,
                                test.listings(10, sample_seed=0))
        assert result.mapping == expected.mapping

    def test_pickled_state_is_the_fitted_state(self, trained):
        """The attributes, in the order, a fitted XML learner pickled
        before it had derived state; equal values then give equal
        model bytes."""
        _, system = trained
        xml = next(learner for learner in system.learners
                   if isinstance(learner, XMLLearner))
        assert list(xml.__getstate__()) == [
            "include_structure", "space", "alpha", "tokenizer",
            "vocabulary", "_log_prior", "_log_likelihood"]

    def test_instance_pickle_does_not_grow_with_its_batch(self, trained):
        """The node table stays behind when an instance is pickled (as
        the process pool ships batches): an instance pickles to the
        same bytes whatever the size of the match it was scored in."""
        domain, system = trained
        xml = next(learner for learner in system.learners
                   if isinstance(learner, XMLLearner))
        source = domain.sources[3]
        listings = source.listings(40, sample_seed=0)
        sizes = []
        for count in (2, 40):
            columns = extract_columns(source.schema, listings[:count])
            flat = [instance for column in columns.values()
                    for instance in column.instances]
            xml.predict_scores(flat)
            first = next(column.instances[0]
                         for column in columns.values()
                         if column.instances)
            assert "node_table" in first.feature_cache
            blob = pickle.dumps(first, protocol=pickle.HIGHEST_PROTOCOL)
            sizes.append(len(blob))
            stream, _ = pickle.loads(blob).feature_cache["node_table"]
            assert stream.table is None
        assert sizes[0] == sizes[1]
