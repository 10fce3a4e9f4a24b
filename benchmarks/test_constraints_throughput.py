"""Constraint-handler throughput: the incremental engine vs the pre-PR
handler.

Builds synthetic grouped schemas of 10-200 tags with a mixed constraint
load (frequency, nesting, contiguity, exclusivity, soft max-count,
proximity, plus assignment/exclusion feedback) and peaked random score
rows, then times two configurations per size:

``seed``
    A faithful re-implementation of the pre-PR ``find_mapping``: the
    same branch-and-bound over the same candidate order, but with
    ``extension_ok`` re-running full-assignment ``check_partial`` scans
    at every node and soft costs settled only at leaves.
``bnb``
    The incremental engine (push/pop evaluators, soft-cost-aware
    pruning).

Each configuration reports its best round. The benchmark asserts the
incremental engine reaches the same minimum cost as the seed handler at
every size (assignments may differ only on exact cost ties) and beats
the seed by at least 3x at 100 tags. Writes ``BENCH_constraints.json``
at the repo root, with the ``cpu_count`` of the host that produced it.

Environment knobs::

    LSD_BENCH_CONSTRAINTS_SIZES    comma-separated tag counts
                                   (default "10,25,50,100,200")
    LSD_BENCH_CONSTRAINTS_ROUNDS   timing rounds (default 3)
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.constraints import (AssignmentConstraint, ConstraintHandler,
                               ContiguityConstraint, ExclusionConstraint,
                               ExclusivityConstraint, FrequencyConstraint,
                               MatchContext, MaxCountSoftConstraint,
                               NestingConstraint, ProximityConstraint)
from repro.constraints.base import split_constraints
from repro.core import LabelSpace, Mapping, SourceSchema

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_constraints.json"
SIZES = [int(s) for s in os.environ.get(
    "LSD_BENCH_CONSTRAINTS_SIZES", "10,25,50,100,200").split(",")]
ROUNDS = int(os.environ.get("LSD_BENCH_CONSTRAINTS_ROUNDS", "3"))
MIN_SPEEDUP = 3.0
MAX_EXPANSIONS = 500_000


# ---------------------------------------------------------------------------
# the pre-PR handler, reproduced for timing
# ---------------------------------------------------------------------------

def _seed_find_mapping(handler, scores, space, ctx, extra_constraints=()):
    """The pre-PR ``ConstraintHandler.find_mapping``: same candidate
    order, same heuristic, but full-scan ``check_partial`` at every node
    and soft costs only at leaves."""
    hard, soft = split_constraints(
        [*handler.constraints, *extra_constraints])
    tags = handler._tag_order(list(scores), ctx)
    if not tags:
        return Mapping({})
    candidate_labels = handler._candidates(tags, scores, space, hard)
    log_cost = {
        tag: {
            label: -handler.prob_weight * math.log(
                max(float(scores[tag][space.index_of(label)]),
                    handler.epsilon))
            for label in candidate_labels[tag]
        }
        for tag in tags
    }
    ordered_candidates = {
        tag: sorted(candidate_labels[tag],
                    key=lambda label: log_cost[tag][label])
        for tag in tags
    }
    suffix_best = [0.0] * (len(tags) + 1)
    for i in range(len(tags) - 1, -1, -1):
        suffix_best[i] = suffix_best[i + 1] + min(
            log_cost[tags[i]].values())

    by_label = {}
    always = []
    for constraint in hard:
        labels = constraint.relevant_labels()
        if labels is None:
            always.append(constraint)
        else:
            for label in labels:
                by_label.setdefault(label, []).append(constraint)

    assignment = {}
    best_cost = math.inf
    best = None
    expansions = 0

    def extension_ok(tag, label):
        for constraint in by_label.get(label, ()):
            if constraint.check_partial(assignment, ctx):
                return False
        for constraint in always:
            if constraint.check_partial(assignment, ctx):
                return False
        return True

    def constrained_greedy():
        try:
            for tag in tags:
                for label in ordered_candidates[tag]:
                    assignment[tag] = label
                    if extension_ok(tag, label):
                        break
                    del assignment[tag]
                else:
                    return None
            return dict(assignment)
        finally:
            assignment.clear()

    seed = constrained_greedy()
    if seed is not None:
        seed_cost = sum(log_cost[t][l] for t, l in seed.items())
        if not any(c.check_complete(seed, ctx) for c in hard):
            best = dict(seed)
            best_cost = seed_cost + handler._soft_cost(seed, ctx, soft)

    def dfs(level, cost_so_far):
        nonlocal best, best_cost, expansions
        if expansions >= handler.max_expansions:
            return
        if level == len(tags):
            total = cost_so_far + handler._soft_cost(assignment, ctx,
                                                     soft)
            if total < best_cost and not any(
                    c.check_complete(assignment, ctx) for c in hard):
                best_cost = total
                best = dict(assignment)
            return
        expansions += 1
        tag = tags[level]
        remaining = suffix_best[level + 1]
        for label in ordered_candidates[tag]:
            new_cost = cost_so_far + log_cost[tag][label]
            if new_cost + remaining >= best_cost:
                break
            assignment[tag] = label
            if extension_ok(tag, label):
                dfs(level + 1, new_cost)
            del assignment[tag]

    dfs(0, 0.0)
    if best is not None:
        return Mapping(best)
    return handler.greedy_mapping(scores, space)


# ---------------------------------------------------------------------------
# synthetic workload
# ---------------------------------------------------------------------------

def _make_instance(n_tags, seed=0):
    """A grouped schema of ``n_tags`` tags, one mediated label per tag
    plus distractor labels, peaked random score rows, and a mixed
    constraint load (dense 1-1 frequency constraints, structural
    constraints, soft costs, and user feedback)."""
    n_groups = max(1, n_tags // 5)
    n_leaves = n_tags - n_groups
    group_tags = [f"g{i}" for i in range(n_groups)]
    leaf_tags = [f"t{j}" for j in range(n_leaves)]
    members = {g: [] for g in range(n_groups)}
    for j in range(n_leaves):
        members[j % n_groups].append(leaf_tags[j])
    lines = ["<!ELEMENT listing (%s)>" % ", ".join(group_tags)]
    for g, tag in enumerate(group_tags):
        if members[g]:
            lines.append("<!ELEMENT %s (%s)>" % (tag,
                                                 ", ".join(members[g])))
        else:
            lines.append(f"<!ELEMENT {tag} (#PCDATA)>")
    lines.extend(f"<!ELEMENT {tag} (#PCDATA)>" for tag in leaf_tags)
    schema = SourceSchema("\n".join(lines), name=f"bench-{n_tags}")

    group_labels = [f"GL{i}" for i in range(n_groups)]
    leaf_labels = [f"LL{j}" for j in range(n_leaves)]
    # Distractor labels make the mediated vocabulary larger than the
    # source (realistic), so a tag forced off its best label by a 1-1
    # conflict has somewhere cheap to land instead of cascading the
    # conflict through every other tag's true label.
    distractors = [f"DL{d}" for d in range(max(2, n_tags // 4))]
    space = LabelSpace(group_labels + leaf_labels + distractors)
    truth = dict(zip(group_tags + leaf_tags,
                     group_labels + leaf_labels))

    rng = np.random.default_rng(seed)
    scores = {}
    for tag in group_tags + leaf_tags:
        row = rng.gamma(0.3, size=len(space)) + 1e-3
        row[space.index_of(truth[tag])] += 3.0 * row.max()
        scores[tag] = row / row.sum()

    # The paper's standard 1-1 mapping assumption: every label may be
    # used at most once (exactly once for the first leaf label).
    constraints = [FrequencyConstraint.at_most_one(label)
                   for label in group_labels + leaf_labels[1:]]
    constraints.append(FrequencyConstraint.exactly_one(leaf_labels[0]))
    for k in range(min(3, n_groups, n_leaves)):
        # Leaf t_k lives in group g_k (round-robin placement).
        constraints.append(NestingConstraint(group_labels[k],
                                             leaf_labels[k]))
    if n_leaves > n_groups:
        # t0 and t_{n_groups} are adjacent siblings inside g0.
        constraints.append(ContiguityConstraint(
            leaf_labels[0], leaf_labels[n_groups]))
        constraints.append(ProximityConstraint(
            leaf_labels[0], leaf_labels[n_groups]))
    if n_leaves > n_groups + 1:
        # Pairs with the exclusion feedback below: t2 is barred from
        # LL2, so LL2 goes unused and this exclusivity is satisfiable
        # without cascading reassignments through the 1-1 constraints.
        constraints.append(ExclusivityConstraint(
            leaf_labels[2], leaf_labels[n_groups + 1]))
    constraints.append(MaxCountSoftConstraint(leaf_labels[-1], 1))

    feedback = []
    if n_leaves > 3:
        feedback = [AssignmentConstraint(leaf_tags[1], leaf_labels[1]),
                    ExclusionConstraint(leaf_tags[2], leaf_labels[2])]
    ctx = MatchContext(schema)
    return scores, space, ctx, constraints, feedback


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _timed(fn, rounds):
    best = math.inf
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_constraints_throughput():
    report_sizes = {}
    speedup_at_100 = None

    for size in SIZES:
        scores, space, ctx, constraints, feedback = _make_instance(size)
        handler = ConstraintHandler(constraints,
                                    max_expansions=MAX_EXPANSIONS)

        configs = {
            "seed": lambda: _seed_find_mapping(
                handler, scores, space, ctx, feedback),
            "bnb": lambda: handler.find_mapping(
                scores, space, ctx, feedback),
        }

        for run in configs.values():  # warm-up round
            run()

        best = {}
        results = {}
        for name, run in configs.items():
            best[name], results[name] = _timed(run, ROUNDS)
        stats = dict(handler.last_stats)
        assert stats["nodes_expanded"] < MAX_EXPANSIONS, \
            "budget exhausted: the optimality check does not apply"

        # Optimality: the incremental engine reaches the seed handler's
        # minimum cost (mappings may differ only on exact ties).
        costs = {
            name: handler.mapping_cost(results[name], scores, space,
                                       ctx, extra_constraints=feedback)
            for name in results
        }
        for name in results:
            assert costs[name] == pytest.approx(costs["seed"],
                                                rel=1e-9), \
                f"{name} missed the optimum at {size} tags"

        entry = {
            "best_ms": {name: round(seconds * 1000.0, 3)
                        for name, seconds in best.items()},
            "speedup_vs_seed": {
                name: round(best["seed"] / best[name], 2)
                for name in best if name != "seed"
            },
            "nodes_expanded": stats["nodes_expanded"],
            "prunes": {
                "bound": stats["prune_bound"],
                "hard": stats["prune_hard"],
                "soft_bound": stats["prune_soft_bound"],
            },
            "cost": round(costs["bnb"], 6),
        }
        report_sizes[str(size)] = entry
        if size == 100:
            speedup_at_100 = best["seed"] / best["bnb"]

    report = {
        "workload": {
            "sizes": SIZES,
            "rounds": ROUNDS,
            "constraints": "frequency + nesting + contiguity + "
                           "exclusivity + soft max-count + proximity + "
                           "assignment/exclusion feedback",
            "max_expansions": MAX_EXPANSIONS,
        },
        "environment": {"cpu_count": os.cpu_count() or 1},
        "sizes": report_sizes,
        "min_speedup_required_at_100": MIN_SPEEDUP,
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print("\n" + json.dumps(report, indent=2))

    if speedup_at_100 is not None:
        assert speedup_at_100 >= MIN_SPEEDUP, (
            f"incremental engine only {speedup_at_100:.2f}x faster than "
            f"the seed handler at 100 tags (need {MIN_SPEEDUP}x)")
