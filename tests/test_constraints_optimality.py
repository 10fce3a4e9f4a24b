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


def brute_force_ranked(scores, handler, ctx, extra_constraints=()):
    """Exhaustive ``(best assignment, its cost, runner-up cost)`` over
    every complete assignment (``(None, inf, inf)`` if infeasible)."""
    from repro.constraints.base import split_constraints

    hard, soft = split_constraints(
        [*handler.constraints, *extra_constraints])
    best_cost = runner_up = math.inf
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
            runner_up = best_cost
            best_cost = cost
            best = assignment
        elif cost < runner_up:
            runner_up = cost
    return best, best_cost, runner_up


def brute_force_best(scores, handler, ctx, extra_constraints=()):
    """Exhaustive minimum-cost complete assignment (None if infeasible)."""
    best, best_cost, _ = brute_force_ranked(scores, handler, ctx,
                                            extra_constraints)
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


def random_scores(seed):
    rng = np.random.default_rng(seed)
    return {tag: rng.dirichlet(np.ones(len(SPACE))) for tag in TAGS}


#: name -> (domain constraints, feedback constraints).
EDGE_CASES = {
    "capacity-2 label": (
        [FrequencyConstraint("ALPHA", 0, 2),
         FrequencyConstraint.at_most_one("BETA")], []),
    "exactly one": (
        [FrequencyConstraint.exactly_one("ALPHA"),
         FrequencyConstraint.at_most_one("BETA")], []),
    "pin to a capacity-1 label": (
        [FrequencyConstraint.at_most_one("ALPHA"),
         FrequencyConstraint.at_most_one("BETA")],
        [AssignmentConstraint("p", "ALPHA")]),
    "exclusion of OTHER": (
        [FrequencyConstraint.at_most_one("ALPHA")],
        [ExclusionConstraint("q", "OTHER"),
         ExclusionConstraint("x", "OTHER")]),
}


class TestEdgeCases:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_edge_case_reaches_the_optimum(self, case, seed):
        """The optimum's cost, and the optimum itself where the
        brute-force runner-up is more than 1e-9 dearer."""
        constraints, feedback = EDGE_CASES[case]
        scores = random_scores(seed)
        handler = ConstraintHandler(constraints,
                                    candidates_per_tag=len(SPACE))
        ctx = MatchContext(SCHEMA)

        mapping = handler.find_mapping(scores, SPACE, ctx,
                                       extra_constraints=feedback)
        expected, expected_cost, runner_up = brute_force_ranked(
            scores, handler, ctx, extra_constraints=feedback)

        assert expected is not None
        actual_cost = handler.mapping_cost(
            mapping, scores, SPACE, ctx, extra_constraints=feedback)
        assert actual_cost == pytest.approx(expected_cost, abs=1e-9)
        if runner_up - expected_cost > 1e-9:
            assert dict(mapping.items()) == expected

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_two_pins_on_a_capacity_1_label_keep_both(self, seed):
        """Two tags asserted to one at-most-one label: no mapping is
        feasible, and the fallback keeps both asserted labels."""
        scores = random_scores(seed)
        handler = ConstraintHandler([FrequencyConstraint.at_most_one(
            "ALPHA")], candidates_per_tag=len(SPACE))
        ctx = MatchContext(SCHEMA)
        feedback = [AssignmentConstraint("p", "ALPHA"),
                    AssignmentConstraint("q", "ALPHA")]

        mapping = handler.find_mapping(scores, SPACE, ctx,
                                       extra_constraints=feedback)

        assert brute_force_best(scores, handler, ctx, feedback)[0] is None
        assert mapping["p"] == "ALPHA"
        assert mapping["q"] == "ALPHA"


class TestSuffixBound:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bound_never_exceeds_the_cheapest_feasible_completion(
            self, data):
        """On a random problem and a random prefix that respects every
        label's capacity, each bound of the run the engine computes is
        at most the cheapest completion of its suffix that respects the
        capacities left (capacity being all the bound may assume)."""
        from repro.constraints.base import split_constraints
        from repro.constraints.handler import (_Budget, _DfsEngine,
                                               _Incumbent, _Problem)

        scores = random_scores(data.draw(st.integers(0, 10_000)))
        constraints = [
            FrequencyConstraint(label, 0, data.draw(st.integers(0, 2)))
            for label in data.draw(st.lists(
                st.sampled_from(["GROUP", "ALPHA", "BETA"]), max_size=4))]
        handler = ConstraintHandler(
            constraints, candidates_per_tag=data.draw(st.integers(1, 4)))
        ctx = MatchContext(SCHEMA)
        hard, soft = split_constraints(constraints)
        tags = handler._tag_order(list(scores), ctx)
        problem = _Problem(
            tags, *handler._encode(
                tags, handler._candidates(tags, scores, SPACE, hard),
                scores, SPACE, hard),
            hard, soft, [], ctx)
        engine = _DfsEngine(problem, _Incumbent(), _Budget(0))
        ids = problem.cand_ids
        left = [int(c) for c in problem.capacity]

        depth = data.draw(st.integers(0, len(tags)))
        for level in range(depth):
            open_ = [int(ids[level, j])
                     for j in range(len(problem.cands[level]))
                     if not problem.capped[ids[level, j]]
                     or left[ids[level, j]] > 0]
            if not open_:
                depth = level
                break
            label = data.draw(st.sampled_from(open_))
            if problem.capped[label]:
                left[label] -= 1
        # The capacities the engine would hold after that prefix.
        for label, count in enumerate(left):
            engine.left[label] = count

        run = engine._suffix_bound(depth)
        assert run.start <= depth <= run.stop
        for level in range(depth, run.stop + 1):
            bound = run.sums[level - run.start]
            assert bound <= self._cheapest(problem, left, level) + 1e-9

    @staticmethod
    def _cheapest(problem, left, level):
        """Brute-force cheapest completion of ``tags[level:]`` within
        the candidates and the capacities ``left``."""
        best = math.inf
        ranges = [range(len(cands)) for cands in problem.cands[level:]]
        for combo in itertools.product(*ranges):
            used = {}
            cost = 0.0
            for row, j in enumerate(combo, start=level):
                label = int(problem.cand_ids[row, j])
                used[label] = used.get(label, 0) + 1
                cost += problem.cand_cost[row, j]
            if all(not problem.capped[label] or count <= left[label]
                   for label, count in used.items()):
                best = min(best, cost)
        return best
