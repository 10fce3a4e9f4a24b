"""Integration tests: the paper's running example end-to-end.

Trains LSD on realestate.com and homeseekers.com (Figure 5) and matches
greathomes.com (Figure 6), as in §3 of the paper, with enough synthetic
listings for the learners to find the signal.
"""

import numpy as np
import pytest

from repro.core import (FeedbackSession, LSDSystem, Mapping,
                        MediatedSchema, OTHER, SourceSchema)
from repro.constraints import FrequencyConstraint
from repro.learners import (ContentMatcher, NaiveBayesLearner, NameMatcher,
                            XMLLearner)
from repro.xmlio import parse_fragments

MEDIATED = MediatedSchema("""
<!ELEMENT LISTING (ADDRESS, LISTED-PRICE, DESCRIPTION, CONTACT-INFO)>
<!ELEMENT ADDRESS (#PCDATA)>
<!ELEMENT LISTED-PRICE (#PCDATA)>
<!ELEMENT DESCRIPTION (#PCDATA)>
<!ELEMENT CONTACT-INFO (AGENT-NAME, AGENT-PHONE)>
<!ELEMENT AGENT-NAME (#PCDATA)>
<!ELEMENT AGENT-PHONE (#PCDATA)>
""")

REALESTATE_SCHEMA = SourceSchema("""
<!ELEMENT house (location, listed-price, comments, contact)>
<!ELEMENT location (#PCDATA)>
<!ELEMENT listed-price (#PCDATA)>
<!ELEMENT comments (#PCDATA)>
<!ELEMENT contact (name, phone)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
""", name="realestate.com")

REALESTATE_MAPPING = Mapping({
    "location": "ADDRESS", "listed-price": "LISTED-PRICE",
    "comments": "DESCRIPTION", "contact": "CONTACT-INFO",
    "name": "AGENT-NAME", "phone": "AGENT-PHONE",
})

HOMESEEKERS_SCHEMA = SourceSchema("""
<!ELEMENT entry (house-addr, price, detailed-desc, agent)>
<!ELEMENT house-addr (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT detailed-desc (#PCDATA)>
<!ELEMENT agent (realtor-name, telephone)>
<!ELEMENT realtor-name (#PCDATA)>
<!ELEMENT telephone (#PCDATA)>
""", name="homeseekers.com")

HOMESEEKERS_MAPPING = Mapping({
    "house-addr": "ADDRESS", "price": "LISTED-PRICE",
    "detailed-desc": "DESCRIPTION", "agent": "CONTACT-INFO",
    "realtor-name": "AGENT-NAME", "telephone": "AGENT-PHONE",
})

GREATHOMES_SCHEMA = SourceSchema("""
<!ELEMENT home (area, amount, extra-info, person)>
<!ELEMENT area (#PCDATA)>
<!ELEMENT amount (#PCDATA)>
<!ELEMENT extra-info (#PCDATA)>
<!ELEMENT person (agent-name, work-phone)>
<!ELEMENT agent-name (#PCDATA)>
<!ELEMENT work-phone (#PCDATA)>
""", name="greathomes.com")

GREATHOMES_TRUTH = Mapping({
    "area": "ADDRESS", "amount": "LISTED-PRICE",
    "extra-info": "DESCRIPTION", "person": "CONTACT-INFO",
    "agent-name": "AGENT-NAME", "work-phone": "AGENT-PHONE",
})

CITIES = ["Miami, FL", "Boston, MA", "Seattle, WA", "Portland, OR",
          "Austin, TX", "Denver, CO", "Kent, WA", "Orlando, FL"]
DESCRIPTIONS = ["Fantastic house with great location",
                "Great yard, close to the river",
                "Beautiful view, spacious rooms",
                "Nice area, fantastic beach nearby",
                "Charming home with great schools",
                "Spacious house, beautiful garden",
                "Close to highway, great value",
                "Victorian charm, fantastic deal"]
NAMES = ["Kate Richardson", "Mike Smith", "Jane Kendall",
         "Matt Richardson", "Gail Murphy", "Joe Brown", "Ann Lee",
         "Sam Fox"]


def make_listings(tags, count, seed):
    """Generate listings for a 4-leaf + contact-pair schema shape."""
    rng = np.random.default_rng(seed)
    root, addr, price, desc, group, person_name, phone = tags
    parts = []
    for __ in range(count):
        city = CITIES[rng.integers(len(CITIES))]
        text = DESCRIPTIONS[rng.integers(len(DESCRIPTIONS))]
        agent = NAMES[rng.integers(len(NAMES))]
        amount = int(rng.integers(60, 900)) * 1000
        tel = (f"({rng.integers(200, 999)}) {rng.integers(200, 999)} "
               f"{rng.integers(1000, 9999)}")
        parts.append(
            f"<{root}><{addr}>{city}</{addr}>"
            f"<{price}>$ {amount:,}</{price}>"
            f"<{desc}>{text}</{desc}>"
            f"<{group}><{person_name}>{agent}</{person_name}>"
            f"<{phone}>{tel}</{phone}></{group}></{root}>")
    return parse_fragments("".join(parts))


REALESTATE_LISTINGS = make_listings(
    ("house", "location", "listed-price", "comments", "contact", "name",
     "phone"), 30, seed=1)
HOMESEEKERS_LISTINGS = make_listings(
    ("entry", "house-addr", "price", "detailed-desc", "agent",
     "realtor-name", "telephone"), 30, seed=2)
GREATHOMES_LISTINGS = make_listings(
    ("home", "area", "amount", "extra-info", "person", "agent-name",
     "work-phone"), 30, seed=3)


def trained_system(**kwargs) -> LSDSystem:
    system = LSDSystem(
        MEDIATED,
        [NameMatcher(), ContentMatcher(), NaiveBayesLearner(),
         XMLLearner()],
        constraints=[FrequencyConstraint.at_most_one(label)
                     for label in MEDIATED.label_space().real_labels()],
        **kwargs)
    system.add_training_source(REALESTATE_SCHEMA, REALESTATE_LISTINGS,
                               REALESTATE_MAPPING)
    system.add_training_source(HOMESEEKERS_SCHEMA, HOMESEEKERS_LISTINGS,
                               HOMESEEKERS_MAPPING)
    system.train()
    return system


@pytest.fixture(scope="module")
def system():
    return trained_system()


@pytest.fixture(scope="module")
def result(system):
    return system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)


class TestEndToEnd:
    def test_perfect_matching_on_papers_example(self, result):
        assert result.mapping.accuracy_against(GREATHOMES_TRUTH) == 1.0

    def test_extra_info_matches_description(self, result):
        """The paper's motivating prediction: extra-info => DESCRIPTION."""
        assert result.mapping["extra-info"] == "DESCRIPTION"

    def test_tag_scores_are_distributions(self, result):
        for row in result.tag_scores.values():
            assert np.isclose(row.sum(), 1.0)
            assert np.all(row >= 0)

    def test_prediction_accessors(self, result):
        prediction = result.prediction_for("area")
        assert prediction.top() == "ADDRESS"
        assert result.top_candidates("area", 2)[0][0] == "ADDRESS"

    def test_timings_recorded(self, result):
        assert set(result.timings) == {"extract", "predict", "constraints"}
        assert all(v >= 0 for v in result.timings.values())

    def test_weight_table_available(self, system):
        table = system.weight_table()
        assert "ADDRESS" in table
        assert set(table["ADDRESS"]) == set(system.learner_names())

    def test_match_before_train_raises(self):
        fresh = LSDSystem(MEDIATED, [NaiveBayesLearner()])
        with pytest.raises(RuntimeError):
            fresh.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)

    def test_train_without_sources_raises(self):
        fresh = LSDSystem(MEDIATED, [NaiveBayesLearner()])
        with pytest.raises(RuntimeError):
            fresh.train()

    def test_mapping_validation_on_add(self):
        fresh = LSDSystem(MEDIATED, [NaiveBayesLearner()])
        with pytest.raises(ValueError):
            fresh.add_training_source(
                REALESTATE_SCHEMA, REALESTATE_LISTINGS,
                Mapping({"not-a-tag": "ADDRESS"}))

    def test_unknown_label_in_mapping_raises_at_train(self):
        fresh = LSDSystem(MEDIATED, [NaiveBayesLearner()])
        fresh.add_training_source(
            REALESTATE_SCHEMA, REALESTATE_LISTINGS,
            Mapping({"location": "NOT-A-LABEL"}))
        with pytest.raises(ValueError):
            fresh.train()

    def test_retraining_after_new_source(self, system):
        assert system.is_trained


class TestConfigurations:
    def test_no_constraint_handler_config(self):
        system = trained_system(use_constraint_handler=False)
        assert system.handler is None
        result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)
        # Argmax matching still does well on this easy example.
        assert result.mapping.accuracy_against(GREATHOMES_TRUTH) >= 0.8

    def test_uniform_meta_config(self):
        system = trained_system(use_meta_learner=False)
        assert np.allclose(system.meta.weights, 0.25)
        result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)
        assert result.mapping.accuracy_against(GREATHOMES_TRUTH) >= 0.5

    def test_single_learner_system(self):
        system = LSDSystem(MEDIATED, [NaiveBayesLearner()])
        system.add_training_source(REALESTATE_SCHEMA,
                                   REALESTATE_LISTINGS,
                                   REALESTATE_MAPPING)
        system.train()
        result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)
        assert len(result.mapping) == len(GREATHOMES_SCHEMA.tags)

    def test_needs_learners(self):
        with pytest.raises(ValueError):
            LSDSystem(MEDIATED, [])

    def test_schema_text_accepted(self):
        system = LSDSystem(
            "<!ELEMENT L (A)><!ELEMENT A (#PCDATA)>",
            [NaiveBayesLearner()])
        assert "A" in system.space


class TestThroughputEngine:
    def test_parallel_match_is_byte_identical_to_serial(self, result):
        """--workers 4 must change wall-clock only: every tag's score
        row and the final mapping are byte-identical to the serial run."""
        parallel = trained_system(workers=4).match(GREATHOMES_SCHEMA,
                                                   GREATHOMES_LISTINGS)
        assert set(parallel.tag_scores) == set(result.tag_scores)
        for tag, scores in result.tag_scores.items():
            assert np.array_equal(parallel.tag_scores[tag], scores)
        assert dict(parallel.mapping.items()) == \
            dict(result.mapping.items())

    def test_incremental_structure_matches_full_reprediction(
            self, system, result):
        from repro.core.matching import match_source
        full = match_source(
            GREATHOMES_SCHEMA, GREATHOMES_LISTINGS, system.learners,
            system.meta, system.converter, system.handler, system.space,
            max_instances_per_tag=system.max_instances_per_tag,
            score_filter=system.pruner.prune_scores if system.pruner
            else None,
            incremental_structure=False)
        for tag, scores in result.tag_scores.items():
            assert np.array_equal(full.tag_scores[tag], scores)
        assert dict(full.mapping.items()) == dict(result.mapping.items())

    def test_profile_records_stages_and_counters(self, result):
        profile = result.profile
        for stage in ("extract", "predict", "constrain"):
            assert profile.seconds(stage) > 0.0
        for learner in ("name_matcher", "naive_bayes"):
            assert profile.seconds(f"predict.learner.{learner}") > 0.0
        counters = profile.counters
        assert counters["instances"] > 0
        assert counters["tags"] == len(GREATHOMES_SCHEMA.tags)
        assert counters["structure_passes"] >= 1

    def test_profile_table_renders(self, result):
        table = result.profile.table()
        assert "predict" in table
        assert "instances" in table


class TestFeedbackSession:
    def test_session_reaches_perfect_matching(self, system):
        session = FeedbackSession(system, GREATHOMES_SCHEMA,
                                  GREATHOMES_LISTINGS)
        for tag in session.review_order():
            truth = GREATHOMES_TRUTH.get(tag, OTHER)
            if session.mapping[tag] != truth:
                session.assert_match(tag, truth)
        assert session.mapping.accuracy_against(GREATHOMES_TRUTH) == 1.0

    def test_correction_sticks(self, system):
        session = FeedbackSession(system, GREATHOMES_SCHEMA,
                                  GREATHOMES_LISTINGS)
        session.assert_match("area", OTHER)
        assert session.mapping["area"] == OTHER
        assert session.corrections == 1

    def test_rejection_moves_label(self, system):
        session = FeedbackSession(system, GREATHOMES_SCHEMA,
                                  GREATHOMES_LISTINGS)
        session.reject_match("area", "ADDRESS")
        assert session.mapping["area"] != "ADDRESS"

    def test_review_order_structured_first(self, system):
        session = FeedbackSession(system, GREATHOMES_SCHEMA,
                                  GREATHOMES_LISTINGS)
        assert session.review_order()[0] == "person"

    def test_unknown_tag_raises(self, system):
        session = FeedbackSession(system, GREATHOMES_SCHEMA,
                                  GREATHOMES_LISTINGS)
        with pytest.raises(KeyError):
            session.assert_match("nope", "ADDRESS")
        with pytest.raises(KeyError):
            session.assert_match("area", "NOT-A-LABEL")

    def test_rejecting_an_unknown_label_raises(self, system):
        """An unknown label is refused, as by ``assert_match``: it is
        neither recorded nor counted as a correction."""
        session = FeedbackSession(system, GREATHOMES_SCHEMA,
                                  GREATHOMES_LISTINGS)
        with pytest.raises(KeyError):
            session.reject_match("area", "NOT-A-LABEL")
        assert session.corrections == 0
        assert session.feedback == []
