"""Property tests: the branch-and-bound handler finds the true optimum.

On small random instances, the handler's mapping is compared against a
brute-force enumeration of every complete assignment under the same cost
model — hard constraints, soft costs, and -log probability included.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (AssignmentConstraint, ConstraintHandler,
                               ExclusionConstraint, ExclusivityConstraint,
                               FrequencyConstraint, MatchContext,
                               MaxCountSoftConstraint, NestingConstraint,
                               ProximityConstraint)
from repro.core import LabelSpace, Mapping, SourceSchema

SCHEMA = SourceSchema("""
<!ELEMENT l (g, p, q)>
<!ELEMENT g (x, y)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
<!ELEMENT p (#PCDATA)>
<!ELEMENT q (#PCDATA)>
""")

SPACE = LabelSpace(["GROUP", "ALPHA", "BETA"])
TAGS = ("g", "x", "y", "p", "q")


def brute_force_best(scores, handler, ctx, extra_constraints=()):
    """Exhaustive minimum-cost complete assignment (None if infeasible)."""
    from repro.constraints.base import split_constraints

    hard, soft = split_constraints(
        [*handler.constraints, *extra_constraints])
    best_cost = math.inf
    best = None
    labels = SPACE.labels
    for combo in itertools.product(labels, repeat=len(TAGS)):
        assignment = dict(zip(TAGS, combo))
        if any(c.check_complete(assignment, ctx) for c in hard):
            continue
        cost = sum(
            handler.soft_weights.get(c.kind, 1.0) * c.cost(assignment, ctx)
            for c in soft)
        for tag, label in assignment.items():
            score = max(float(scores[tag][SPACE.index_of(label)]),
                        handler.epsilon)
            cost += -handler.prob_weight * math.log(score)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = assignment
    return best, best_cost


CONSTRAINT_SETS = [
    [],
    [FrequencyConstraint.at_most_one("ALPHA")],
    [FrequencyConstraint.exactly_one("BETA")],
    [NestingConstraint("GROUP", "ALPHA")],
    [ExclusivityConstraint("ALPHA", "BETA")],
    [FrequencyConstraint.at_most_one("GROUP"),
     NestingConstraint("GROUP", "ALPHA"),
     MaxCountSoftConstraint("BETA", 1)],
]


class TestOptimality:
    @given(seed=st.integers(0, 10_000),
           constraint_index=st.integers(0, len(CONSTRAINT_SETS) - 1))
    @settings(max_examples=40, deadline=None)
    def test_handler_matches_brute_force_cost(self, seed,
                                              constraint_index):
        rng = np.random.default_rng(seed)
        scores = {tag: rng.dirichlet(np.ones(len(SPACE)))
                  for tag in TAGS}
        handler = ConstraintHandler(
            CONSTRAINT_SETS[constraint_index],
            candidates_per_tag=len(SPACE))  # no candidate truncation
        ctx = MatchContext(SCHEMA)

        mapping = handler.find_mapping(scores, SPACE, ctx)
        expected, expected_cost = brute_force_best(scores, handler, ctx)

        assert expected is not None  # all sets are satisfiable here
        actual_cost = handler.mapping_cost(mapping, scores, SPACE, ctx)
        # Costs must agree (assignments may tie, so compare costs).
        assert actual_cost == pytest.approx(expected_cost, abs=1e-9)

    @given(seed=st.integers(0, 10_000),
           max_count=st.integers(0, 2),
           violation_cost=st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_soft_costs_reach_the_optimum(self, seed, max_count,
                                          violation_cost):
        """Soft constraints with non-trivial weights and costs steer the
        search, and the incremental soft bounds never cut the optimum."""
        rng = np.random.default_rng(seed)
        scores = {tag: rng.dirichlet(np.ones(len(SPACE)))
                  for tag in TAGS}
        constraints = [
            MaxCountSoftConstraint("ALPHA", max_count, violation_cost),
            MaxCountSoftConstraint("BETA", 1),
            ProximityConstraint("ALPHA", "BETA"),
        ]
        handler = ConstraintHandler(
            constraints, candidates_per_tag=len(SPACE),
            soft_weights={"binary": 1.5, "numeric": 0.25})
        ctx = MatchContext(SCHEMA)

        mapping = handler.find_mapping(scores, SPACE, ctx)
        expected, expected_cost = brute_force_best(scores, handler, ctx)
        actual_cost = handler.mapping_cost(mapping, scores, SPACE, ctx)
        assert actual_cost == pytest.approx(expected_cost, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_feedback_extra_constraints_reach_the_optimum(self, seed):
        """Pinned (AssignmentConstraint) and excluded (Exclusion
        Constraint) feedback flows through ``extra_constraints`` — the
        pinned tag takes the single-candidate path in ``_candidates``."""
        rng = np.random.default_rng(seed)
        scores = {tag: rng.dirichlet(np.ones(len(SPACE)))
                  for tag in TAGS}
        handler = ConstraintHandler(
            [FrequencyConstraint.at_most_one("ALPHA"),
             MaxCountSoftConstraint("BETA", 1)],
            candidates_per_tag=len(SPACE))
        ctx = MatchContext(SCHEMA)
        feedback = [AssignmentConstraint("p", "BETA"),
                    ExclusionConstraint("q", "ALPHA")]

        mapping = handler.find_mapping(scores, SPACE, ctx,
                                       extra_constraints=feedback)
        expected, expected_cost = brute_force_best(
            scores, handler, ctx, extra_constraints=feedback)
        assert expected is not None
        assert mapping["p"] == "BETA"
        assert mapping["q"] != "ALPHA"
        actual_cost = handler.mapping_cost(
            mapping, scores, SPACE, ctx, extra_constraints=feedback)
        assert actual_cost == pytest.approx(expected_cost, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_required_label_injected_into_candidates(self, seed):
        """An exactly-one label must be reachable even when truncation
        (candidates_per_tag=1) would drop it from every tag's top-k."""
        rng = np.random.default_rng(seed)
        scores = {tag: rng.dirichlet(np.ones(len(SPACE)))
                  for tag in TAGS}
        handler = ConstraintHandler(
            [FrequencyConstraint.exactly_one("BETA")],
            candidates_per_tag=1)
        ctx = MatchContext(SCHEMA)
        mapping = handler.find_mapping(scores, SPACE, ctx)
        assigned = [tag for tag in TAGS if mapping[tag] == "BETA"]
        assert len(assigned) == 1
        assert handler.violations(mapping, ctx) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_handler_never_violates_hard_constraints(self, seed):
        rng = np.random.default_rng(seed)
        scores = {tag: rng.dirichlet(np.ones(len(SPACE)))
                  for tag in TAGS}
        constraints = [FrequencyConstraint.at_most_one("ALPHA"),
                       FrequencyConstraint.at_most_one("BETA"),
                       NestingConstraint("GROUP", "ALPHA")]
        handler = ConstraintHandler(constraints)
        ctx = MatchContext(SCHEMA)
        mapping = handler.find_mapping(scores, SPACE, ctx)
        assert handler.violations(mapping, ctx) == [] or all(
            c.kind == "binary" for c in handler.violations(mapping, ctx))
