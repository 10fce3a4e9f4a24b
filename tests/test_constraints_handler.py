"""Tests for the constraint handler."""

import numpy as np
import pytest

from repro.constraints import (AssignmentConstraint, ConstraintHandler,
                               ExclusionConstraint, FrequencyConstraint,
                               KeyConstraint, MatchContext,
                               MaxCountSoftConstraint, NestingConstraint)
from repro.core.instance import extract_columns
from repro.core.labels import LabelSpace
from repro.core.schema import SourceSchema
from repro.xmlio import parse_fragments

SPACE = LabelSpace(["PRICE", "ADDRESS", "AGENT-NAME", "AGENT-INFO"])

SCHEMA_TEXT = """
<!ELEMENT listing (price, area, contact)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT area (#PCDATA)>
<!ELEMENT contact (name)>
<!ELEMENT name (#PCDATA)>
"""

LISTINGS = """
<listing><price>1</price><area>Kent, WA</area>
  <contact><name>Ann</name></contact></listing>
<listing><price>1</price><area>Kent, WA</area>
  <contact><name>Ann</name></contact></listing>
"""


@pytest.fixture
def ctx():
    schema = SourceSchema(SCHEMA_TEXT)
    listings = parse_fragments(LISTINGS)
    return MatchContext(schema, extract_columns(schema, listings))


def row(**scores) -> np.ndarray:
    out = np.full(len(SPACE), 0.01)
    for label, value in scores.items():
        out[SPACE.index_of(label.replace("_", "-"))] = value
    return out / out.sum()


class TestHandlerBasics:
    def test_no_constraints_is_argmax(self, ctx):
        handler = ConstraintHandler()
        scores = {
            "price": row(PRICE=0.9),
            "area": row(ADDRESS=0.8),
            "contact": row(AGENT_INFO=0.7),
            "name": row(AGENT_NAME=0.9),
        }
        mapping = handler.find_mapping(scores, SPACE, ctx)
        assert mapping["price"] == "PRICE"
        assert mapping["area"] == "ADDRESS"
        assert mapping["name"] == "AGENT-NAME"

    def test_empty_scores(self, ctx):
        assert len(ConstraintHandler().find_mapping({}, SPACE, ctx)) == 0

    def test_greedy_mapping(self, ctx):
        handler = ConstraintHandler()
        mapping = handler.greedy_mapping({"price": row(PRICE=0.9)}, SPACE)
        assert mapping["price"] == "PRICE"


class TestHandlerConstraints:
    def test_frequency_forces_second_best(self, ctx):
        """Two tags both prefer PRICE; at-most-one forces the weaker one
        to its runner-up label."""
        handler = ConstraintHandler(
            [FrequencyConstraint.at_most_one("PRICE")])
        scores = {
            "price": row(PRICE=0.9, ADDRESS=0.05),
            "area": row(PRICE=0.6, ADDRESS=0.39),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.9),
        }
        mapping = handler.find_mapping(scores, SPACE, ctx)
        assert mapping["price"] == "PRICE"
        assert mapping["area"] == "ADDRESS"

    def test_exactly_one_pulls_label_in(self, ctx):
        """No tag's argmax is PRICE but the domain requires one."""
        handler = ConstraintHandler(
            [FrequencyConstraint.exactly_one("PRICE")])
        scores = {
            "price": row(ADDRESS=0.5, PRICE=0.45),
            "area": row(ADDRESS=0.9),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.9),
        }
        mapping = handler.find_mapping(scores, SPACE, ctx)
        assert mapping["price"] == "PRICE"

    def test_nesting_constraint_steers(self, ctx):
        """AGENT-NAME must be nested in AGENT-INFO: the non-nested
        candidate (area) loses it to the nested one (name)."""
        handler = ConstraintHandler(
            [NestingConstraint("AGENT-INFO", "AGENT-NAME")])
        scores = {
            "price": row(PRICE=0.9),
            "area": row(AGENT_NAME=0.55, ADDRESS=0.44),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.6, OTHER=0.3),
        }
        mapping = handler.find_mapping(scores, SPACE, ctx)
        assert mapping["area"] == "ADDRESS"
        assert mapping["name"] == "AGENT-NAME"

    def test_key_constraint_uses_data(self, ctx):
        """'price' column has duplicate values, so a key-constrained label
        must go elsewhere (the paper's num-bedrooms/HOUSE-ID case)."""
        space = LabelSpace(["HOUSE-ID", "PRICE"])
        handler = ConstraintHandler([KeyConstraint("HOUSE-ID")])
        scores = {
            "price": np.array([0.6, 0.3, 0.1]),  # prefers HOUSE-ID
            "area": np.array([0.1, 0.2, 0.7]),
        }
        mapping = handler.find_mapping(scores, space, ctx)
        assert mapping["price"] != "HOUSE-ID"

    def test_soft_constraint_breaks_near_tie(self, ctx):
        handler = ConstraintHandler(
            [MaxCountSoftConstraint("PRICE", 1)],
            soft_weights={"binary": 10.0})
        scores = {
            "price": row(PRICE=0.9),
            "area": row(PRICE=0.51, ADDRESS=0.48),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.9),
        }
        mapping = handler.find_mapping(scores, SPACE, ctx)
        assert mapping["area"] == "ADDRESS"

    def test_feedback_assignment_pins(self, ctx):
        handler = ConstraintHandler()
        scores = {
            "price": row(PRICE=0.9),
            "area": row(ADDRESS=0.9),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.9),
        }
        mapping = handler.find_mapping(
            scores, SPACE, ctx,
            extra_constraints=[AssignmentConstraint("area", "OTHER")])
        assert mapping["area"] == "OTHER"
        assert mapping["price"] == "PRICE"

    def test_feedback_exclusion(self, ctx):
        handler = ConstraintHandler()
        scores = {
            "price": row(PRICE=0.9, ADDRESS=0.05),
            "area": row(ADDRESS=0.9),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.9),
        }
        mapping = handler.find_mapping(
            scores, SPACE, ctx,
            extra_constraints=[ExclusionConstraint("price", "PRICE")])
        assert mapping["price"] != "PRICE"

    def test_unsatisfiable_falls_back_to_greedy(self, ctx):
        handler = ConstraintHandler([
            FrequencyConstraint.exactly_one("PRICE"),
            FrequencyConstraint("PRICE", 0, 0) if False else
            ExclusionConstraint("price", "PRICE"),
            ExclusionConstraint("area", "PRICE"),
            ExclusionConstraint("contact", "PRICE"),
            ExclusionConstraint("name", "PRICE"),
        ])
        scores = {
            "price": row(PRICE=0.9),
            "area": row(ADDRESS=0.9),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.9),
        }
        mapping = handler.find_mapping(scores, SPACE, ctx)
        # Greedy fallback: argmax assignment.
        assert mapping["price"] == "PRICE"

    def test_unsatisfiable_fallback_keeps_feedback(self, ctx):
        """Regression: the fallback for unsatisfiable domain constraints
        used to be the plain argmax, silently dropping the user's
        feedback for the source. Asserted labels must stay pinned and
        excluded labels must be skipped."""
        handler = ConstraintHandler(
            [FrequencyConstraint("PRICE", min_count=6, max_count=9)])
        scores = {
            "price": row(PRICE=0.9, ADDRESS=0.05),
            "area": row(ADDRESS=0.9),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.9),
        }
        mapping = handler.find_mapping(
            scores, SPACE, ctx,
            extra_constraints=[AssignmentConstraint("area", "AGENT-INFO"),
                               ExclusionConstraint("price", "PRICE")])
        assert mapping["area"] == "AGENT-INFO"
        assert mapping["price"] == "ADDRESS"
        assert mapping["name"] == "AGENT-NAME"


class TestHandlerDiagnostics:
    def test_violations_lists_broken_constraints(self, ctx):
        handler = ConstraintHandler(
            [FrequencyConstraint.at_most_one("PRICE"),
             MaxCountSoftConstraint("PRICE", 1)])
        from repro.core.mapping import Mapping
        mapping = Mapping({"price": "PRICE", "area": "PRICE",
                           "contact": "OTHER", "name": "OTHER"})
        violated = handler.violations(mapping, ctx)
        assert len(violated) == 2

    def test_mapping_cost_orders_candidates(self, ctx):
        from repro.core.mapping import Mapping
        handler = ConstraintHandler()
        scores = {"price": row(PRICE=0.9), "area": row(ADDRESS=0.9)}
        good = Mapping({"price": "PRICE", "area": "ADDRESS"})
        bad = Mapping({"price": "ADDRESS", "area": "PRICE"})
        assert handler.mapping_cost(good, scores, SPACE, ctx) < \
            handler.mapping_cost(bad, scores, SPACE, ctx)

    def test_mapping_cost_infinite_on_hard_violation(self, ctx):
        from repro.core.mapping import Mapping
        handler = ConstraintHandler(
            [FrequencyConstraint.at_most_one("PRICE")])
        scores = {"price": row(PRICE=0.9), "area": row(PRICE=0.9)}
        bad = Mapping({"price": "PRICE", "area": "PRICE"})
        assert handler.mapping_cost(bad, scores, SPACE, ctx) == \
            float("inf")

    def test_search_order_most_structured_first(self, ctx):
        handler = ConstraintHandler()
        order = handler._tag_order(["price", "contact", "name"], ctx)
        assert order[0] == "contact"

    def test_mapping_cost_honours_extra_constraints(self, ctx):
        """Regression: mapping_cost used to evaluate only the handler's
        own constraints, so a mapping that violated user feedback (an
        extra constraint) was costed as if it were fine."""
        from repro.core.mapping import Mapping
        handler = ConstraintHandler()
        scores = {"price": row(PRICE=0.9), "area": row(ADDRESS=0.9)}
        mapping = Mapping({"price": "PRICE", "area": "ADDRESS"})
        pinned = [AssignmentConstraint("area", "OTHER")]
        assert handler.mapping_cost(mapping, scores, SPACE, ctx) < \
            float("inf")
        assert handler.mapping_cost(mapping, scores, SPACE, ctx,
                                    extra_constraints=pinned) == \
            float("inf")

    def test_mapping_cost_extra_soft_constraints_add_cost(self, ctx):
        from repro.core.mapping import Mapping
        handler = ConstraintHandler(soft_weights={"binary": 10.0})
        scores = {"price": row(PRICE=0.9), "area": row(PRICE=0.8)}
        mapping = Mapping({"price": "PRICE", "area": "PRICE"})
        plain = handler.mapping_cost(mapping, scores, SPACE, ctx)
        softened = handler.mapping_cost(
            mapping, scores, SPACE, ctx,
            extra_constraints=[MaxCountSoftConstraint("PRICE", 1)])
        assert softened > plain
        assert softened < float("inf")


class TestHandlerAnytime:
    def _scores(self):
        return {
            "price": row(PRICE=0.9),
            "area": row(ADDRESS=0.9),
            "contact": row(AGENT_INFO=0.9),
            "name": row(AGENT_NAME=0.9),
        }

    def test_exhausted_budget_still_returns_complete_mapping(self, ctx):
        """The search is anytime: even with no expansion budget it must
        return the greedy-seeded best-so-far mapping covering every
        tag, not an empty or partial result."""
        handler = ConstraintHandler(max_expansions=0)
        mapping = handler.find_mapping(self._scores(), SPACE, ctx)
        assert set(dict(mapping.items())) == \
            {"price", "area", "contact", "name"}

    def test_tiny_budget_respects_feasible_greedy_seed(self, ctx):
        handler = ConstraintHandler(
            [FrequencyConstraint.at_most_one("PRICE")], max_expansions=1)
        mapping = handler.find_mapping(self._scores(), SPACE, ctx)
        assert mapping["price"] == "PRICE"
        assert mapping["name"] == "AGENT-NAME"

    def test_budget_never_worse_than_greedy(self, ctx):
        """More search can only improve (or match) the greedy cost."""
        scores = self._scores()
        greedy_cost = ConstraintHandler().mapping_cost(
            ConstraintHandler().greedy_mapping(scores, SPACE), scores,
            SPACE, ctx)
        for budget in (0, 1, 10, 100_000):
            handler = ConstraintHandler(max_expansions=budget)
            mapping = handler.find_mapping(scores, SPACE, ctx)
            assert handler.mapping_cost(mapping, scores, SPACE, ctx) <= \
                greedy_cost
