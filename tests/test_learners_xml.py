"""Tests for the structural XML learner (§5 / Table 2 of the paper)."""

import numpy as np

from repro.learners import NaiveBayesLearner, XMLLearner, structure_tokens
from repro.xmlio import parse_element

from repro.core.instance import ElementInstance

from .helpers import space_of, training_set


def nested_instance(xml: str, child_labels: dict[str, str],
                    tag: str | None = None) -> ElementInstance:
    element = parse_element(xml)
    return ElementInstance(element, tag or element.tag, ("root",),
                           dict(child_labels))


SPACE = space_of("CONTACT-INFO", "DESCRIPTION", "AGENT-NAME",
                 "OFFICE-NAME")

# The paper's Figure 7 example: a contact element and a description that
# share all their words. Flat bags cannot tell them apart.
CONTACT_XML = ("<contact><name>Gail Murphy</name>"
               "<firm>MAX Realtors</firm></contact>")
DESC_XML = ("<description>Victorian house with a view. Name your price! "
            "To see it, contact Gail Murphy at MAX Realtors."
            "</description>")
CHILD_LABELS = {"name": "AGENT-NAME", "firm": "OFFICE-NAME"}


def figure7_training():
    pairs = []
    for agent, firm in [("Gail Murphy", "MAX Realtors"),
                        ("Mike Smith", "ACME Homes"),
                        ("Jane Kendall", "MAX Realtors")]:
        pairs.append((nested_instance(
            f"<contact><name>{agent}</name><firm>{firm}</firm></contact>",
            CHILD_LABELS), "CONTACT-INFO"))
        pairs.append((nested_instance(
            f"<description>Lovely house, contact {agent} at {firm}."
            "</description>", {}), "DESCRIPTION"))
    return pairs


class TestStructureTokens:
    def test_text_tokens_present(self):
        instance = nested_instance(CONTACT_XML, CHILD_LABELS)
        tokens = structure_tokens(instance)
        assert "gail" in tokens and "realtor" in tokens

    def test_node_tokens_present(self):
        instance = nested_instance(CONTACT_XML, CHILD_LABELS)
        tokens = structure_tokens(instance)
        assert "node:AGENT-NAME" in tokens
        assert "node:OFFICE-NAME" in tokens

    def test_root_edge_tokens(self):
        instance = nested_instance(CONTACT_XML, CHILD_LABELS)
        tokens = structure_tokens(instance)
        assert "d->AGENT-NAME" in tokens
        assert "d->OFFICE-NAME" in tokens

    def test_word_edge_tokens(self):
        # Figure 7(f): AGENT-NAME->gail, OFFICE-NAME->realtor.
        instance = nested_instance(CONTACT_XML, CHILD_LABELS)
        tokens = structure_tokens(instance)
        assert "AGENT-NAME->gail" in tokens
        assert "OFFICE-NAME->realtor" in tokens

    def test_flat_instance_has_word_edges_only(self):
        instance = nested_instance(DESC_XML, {})
        tokens = structure_tokens(instance)
        assert not any(t.startswith("node:") for t in tokens)
        assert "d->gail" in tokens

    def test_unlabelled_child_gets_placeholder(self):
        instance = nested_instance(CONTACT_XML, {})
        tokens = structure_tokens(instance)
        assert "node:?" in tokens

    def test_structure_disabled(self):
        instance = nested_instance(CONTACT_XML, CHILD_LABELS)
        tokens = structure_tokens(instance, include_structure=False)
        assert all("->" not in t and not t.startswith("node:")
                   for t in tokens)

    def test_deep_nesting_edges(self):
        instance = nested_instance(
            "<a><b><c>word</c></b></a>",
            {"b": "CONTACT-INFO", "c": "AGENT-NAME"})
        tokens = structure_tokens(instance)
        assert "d->CONTACT-INFO" in tokens
        assert "CONTACT-INFO->AGENT-NAME" in tokens
        assert "AGENT-NAME->word" in tokens


class TestXMLLearnerVsNaiveBayes:
    def test_figure7_disambiguation(self):
        """The paper's motivating case: same words, different structure."""
        instances, labels = training_set(figure7_training())

        xml_learner = XMLLearner()
        xml_learner.fit(instances, labels, SPACE)

        contact_query = nested_instance(
            "<contact><name>Pat Doe</name><firm>MAX Realtors</firm>"
            "</contact>", CHILD_LABELS)
        desc_query = nested_instance(
            "<description>A house. Contact Pat Doe at MAX Realtors."
            "</description>", {})

        [p_contact, p_desc] = xml_learner.predict(
            [contact_query, desc_query])
        assert p_contact.top() == "CONTACT-INFO"
        assert p_desc.top() == "DESCRIPTION"

    def test_structure_tokens_raise_confidence_on_nested(self):
        instances, labels = training_set(figure7_training())
        xml_learner = XMLLearner()
        xml_learner.fit(instances, labels, SPACE)
        flat = NaiveBayesLearner()
        flat.fit(instances, labels, SPACE)

        contact_query = nested_instance(CONTACT_XML, CHILD_LABELS)
        col = SPACE.index_of("CONTACT-INFO")
        xml_score = xml_learner.predict_scores([contact_query])[0, col]
        flat_score = flat.predict_scores([contact_query])[0, col]
        assert xml_score > flat_score

    def test_rows_are_distributions(self):
        instances, labels = training_set(figure7_training())
        learner = XMLLearner()
        learner.fit(instances, labels, SPACE)
        scores = learner.predict_scores(instances)
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_clone_preserves_structure_flag(self):
        learner = XMLLearner(include_structure=False)
        clone = learner.clone()
        assert clone.include_structure is False
        assert clone.space is None

    def test_ablation_structure_off_equals_nb_tokens(self):
        instance = nested_instance(CONTACT_XML, CHILD_LABELS)
        off = structure_tokens(instance, include_structure=False)
        assert off == ["gail", "murphi", "max", "realtor"]


def _state(learner):
    return (list(learner.vocabulary.items()),
            learner._log_prior.tobytes(), learner._log_likelihood.tobytes())


class TestFitTokenReuse:
    """A fit keeps each walk's tokens on the instance; a later fit
    reuses them only while the walk's key (skeleton, child labels,
    ``include_structure``) still holds."""

    def test_relabelled_instances_refit_like_fresh_ones(self):
        instances, labels = training_set(figure7_training())
        XMLLearner().fit(instances, labels, SPACE)
        relabel = {"name": "OFFICE-NAME", "firm": "AGENT-NAME"}
        for instance in instances:
            if instance.child_labels:
                instance.child_labels = dict(relabel)
        refit = XMLLearner()
        refit.fit(instances, labels, SPACE)

        fresh, _ = training_set(figure7_training())
        for instance in fresh:
            if instance.child_labels:
                instance.child_labels = dict(relabel)
        expected = XMLLearner()
        expected.fit(fresh, labels, SPACE)
        assert _state(refit) == _state(expected)

    def test_structure_flag_is_part_of_the_key(self):
        instances, labels = training_set(figure7_training())
        XMLLearner().fit(instances, labels, SPACE)
        reused = XMLLearner(include_structure=False)
        reused.fit(instances, labels, SPACE)
        fresh, _ = training_set(figure7_training())
        expected = XMLLearner(include_structure=False)
        expected.fit(fresh, labels, SPACE)
        assert _state(reused) == _state(expected)

    def test_prediction_keeps_no_tokens(self):
        instances, labels = training_set(figure7_training())
        learner = XMLLearner()
        learner.fit(instances, labels, SPACE)
        queries, _ = training_set(figure7_training())
        learner.predict_scores(queries)
        assert not any("structure_tokens" in q.feature_cache
                       for q in queries)
