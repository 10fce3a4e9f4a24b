"""The constraint handler: search for the least-cost mapping (§4.2).

Given per-tag label score distributions (from the prediction converter)
and the domain constraints, the handler searches the space of complete
label assignments for the candidate mapping ``m`` minimising

    cost(m) = sum_i alpha_i * cost(m, T_i)  -  a * log prob(m)

where ``prob(m)`` is the product of the per-tag confidence scores
(independence approximation, as in the paper) and ``cost(m, T_i)`` the
violation costs per constraint type. Hard constraint violations make the
cost infinite and prune the search; soft costs are tracked incrementally
during the descent and settled exactly at complete assignments.

Search details (mirroring §6.3): tags are assigned in decreasing order of
their structure score (number of distinct tags nestable within them), the
admissible heuristic is a capacity-aware bound on the unassigned tags'
score cost plus the soft constraints' incremental lower bounds, and
branching is limited to each tag's top-k candidate labels plus OTHER plus
any label a constraint could *require*.

Engine (the incremental rebuild):

* **O(delta) node cost** — each constraint supplies a push/pop evaluator
  (:mod:`repro.constraints.base`) holding per-label counters or watched
  tags, so assigning one tag never re-scans the partial assignment;
* **capacity-aware suffix bound** — each label may take as many tags as
  its frequency constraints' ``max_count`` allows, less those the
  partial assignment already gave it. The unassigned tags are charged
  their cheapest candidate with capacity left, and a label claimed by
  more tags than it has room for charges the surplus claimants their
  smallest steps up to a second option. The bound is memoised per
  capacity state and reused down the levels it still holds for, so
  most nodes compute none;
* **soft-cost-aware pruning** — soft evaluators maintain admissible
  lower bounds that fold into the branch-and-bound heuristic, so
  subtrees whose soft violations alone exceed the incumbent are cut
  mid-descent instead of surviving to the leaves;
* **deterministic tie-break** — the incumbent orders complete
  assignments by ``(cost, path)`` where ``path`` is the per-level
  candidate-index tuple, and pruning spares equal-cost subtrees that
  could still win that tie-break, so the returned mapping is the
  *lexicographically first minimum-cost* assignment; a checkpointed
  incumbent pre-offered on resume therefore changes nothing;
* **instrumentation** — nodes expanded and prunes by reason (score
  bound / hard violation / soft bound) accumulate into
  ``handler.last_stats``; every entry is also an attribute of the
  ``search`` span, which the ``constraint_*`` counters shown by
  ``--profile`` are derived from.

The search is a serial depth-first branch-and-bound, seeded with a
constrained-greedy upper bound so it is anytime. The paper formulates
the handler as A* search (§4.2, §6.3); best-first search over the same
space and heuristic measured slower at every benchmarked size, so this
reproduction keeps branch-and-bound only.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..core.labels import OTHER, LabelSpace
from ..core.mapping import Mapping
from ..observability import Observer, resolve_observer
from .base import (Constraint, HardConstraint, HardEvaluator, MatchContext,
                   SoftConstraint, SoftEvaluator, split_constraints)
from .feedback import AssignmentConstraint, ExclusionConstraint
from .schema_constraints import FrequencyConstraint

#: Default trade-off coefficients per soft-constraint kind (the paper's
#: alpha_i scaling coefficients).
DEFAULT_SOFT_WEIGHTS = {"binary": 1.0, "numeric": 0.5}

_STAT_NAMES = ("nodes_expanded", "prune_bound", "prune_hard",
               "prune_soft_bound", "leaf_hard_rejects")


def _zero_stats() -> dict:
    return {name: 0 for name in _STAT_NAMES}


@dataclass
class _Problem:
    """Read-only search description.

    Candidate ``j`` of ``tags[i]`` is the label ``cands[i][j]``, of label
    index ``cand_ids[i, j]``, at score cost ``cand_cost[i, j]``. Rows are
    cheapest-first and padded to a common width, with at least one
    padding column, by the index one past the label space: a sentinel no
    tag is ever given, always open, at cost inf. ``capacity[l]`` is how
    many tags label ``l`` may take: the least ``max_count`` of its
    frequency constraints where ``capped[l]``, the number of tags (no
    limit) elsewhere.
    """

    tags: list[str]
    cands: list[list[str]]               # cheapest-first per tag
    cand_ids: np.ndarray                 # (tags, width) label indices
    cand_cost: np.ndarray                # (tags, width) score costs
    capacity: np.ndarray                 # per label index
    capped: np.ndarray                   # per label index
    hard: list[HardConstraint]
    soft: list[SoftConstraint]
    soft_weights: list[float]            # aligned with ``soft``
    ctx: MatchContext


class _Incumbent:
    """The best complete assignment so far.

    Assignments are ordered by ``(cost, path)``: equal-cost solutions
    are tie-broken by the candidate-index path, which makes the final
    winner independent of exploration order — the determinism contract.
    ``best`` is swapped as one tuple, so the checkpoint snapshot always
    reads a consistent triple.
    """

    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: tuple[float, tuple[int, ...], dict[str, str] | None] = \
            (math.inf, (), None)

    def offer(self, cost: float, path: tuple[int, ...],
              assignment: dict[str, str]) -> None:
        held_cost, held_path, _ = self.best
        if (cost, path) < (held_cost, held_path):
            self.best = (cost, path, dict(assignment))


class _Budget:
    """Expansion budget, optionally deadline-capped.

    The deadline is polled amortized — every 256 expansions — so the
    hot path normally pays two attribute reads.
    ``stopped`` latches once any expansion is refused, which is
    exactly the "search was cut short, result is best-so-far" signal
    the anytime flag reports.

    An *inert* deadline is kept rather than dropped: a signal handler
    may ``trip()`` it mid-search, and the RSS-limit guardrail is
    checked inside ``expired()`` — both must be visible at the poll.
    ``snapshot``, when set, fires every :data:`_SNAPSHOT_MASK` + 1
    expansions — the checkpointer's incumbent-persistence hook.
    """

    __slots__ = ("limit", "spent", "deadline", "stopped", "snapshot")

    def __init__(self, limit: int, deadline=None) -> None:
        self.limit = limit
        self.spent = 0
        self.deadline = deadline
        self.stopped = False
        self.snapshot = None

    def exhausted(self) -> bool:
        if self.stopped:
            return True
        if self.spent >= self.limit:
            self.stopped = True
            return True
        if self.deadline is not None and not (self.spent & 0xFF) \
                and self.deadline.expired():
            self.stopped = True
            return True
        return False


#: ``spent & _SNAPSHOT_MASK == 0`` gates incumbent snapshots — every
#: 4096 expansions, matching ``runtime.checkpoint.SNAPSHOT_EVERY``.
_SNAPSHOT_MASK = 0xFFF


class _BoundRun(NamedTuple):
    """Suffix bounds of one capacity state for the levels ``start`` to
    ``stop``: ``sums[level - start]`` bounds the score cost of
    ``tags[level:]``.

    ``last[l]`` is the last level whose tag is charged label ``l``, or
    could be (-1 if none). Taking a unit of a label no tag from
    ``level`` on could be charged changes no charge from that level
    on, so the run holds there for that state too.
    """

    start: int
    stop: int
    sums: list[float]
    last: list[int]


class _DfsEngine:
    """The incremental depth-first branch-and-bound.

    Owns private evaluator instances (constraints themselves stay
    immutable), a mutable assignment dict, and the candidate
    index path. Hard evaluators are indexed by ``relevant_labels`` so a
    push touches only the constraints the new label can trip.
    """

    def __init__(self, problem: _Problem, incumbent: _Incumbent,
                 budget: _Budget) -> None:
        self.p = problem
        self.ctx = problem.ctx
        self.incumbent = incumbent
        self.budget = budget
        self.assignment: dict[str, str] = {}
        self.path: list[int] = []
        self.stats = _zero_stats()
        self._nodes = 0
        self._prunes_bound = 0
        self._prunes_hard = 0
        self._prunes_soft = 0
        self._leaf_rejects = 0

        by_label: dict[str, list[HardEvaluator]] = {}
        always: list[HardEvaluator] = []
        self.hard_evaluators: list[HardEvaluator] = []
        for constraint in problem.hard:
            ev = constraint.evaluator(problem.ctx)
            self.hard_evaluators.append(ev)
            labels = constraint.relevant_labels()
            if labels is None:
                always.append(ev)
            else:
                for label in labels:
                    by_label.setdefault(label, []).append(ev)
        self._by_label = by_label
        self._always = tuple(always)

        # All soft evaluators settle exact costs at leaves; only the
        # *stateful* ones (push or pop overridden) need to see pushes,
        # and of those only when the label concerns them.
        self.soft_evaluators: list[tuple[float, SoftEvaluator]] = []
        soft_by_label: dict[str, list[tuple[float, SoftEvaluator]]] = {}
        soft_always: list[tuple[float, SoftEvaluator]] = []
        for weight, constraint in zip(problem.soft_weights,
                                      problem.soft):
            ev = constraint.evaluator(problem.ctx)
            self.soft_evaluators.append((weight, ev))
            cls = type(ev)
            if cls.push is SoftEvaluator.push \
                    and cls.pop is SoftEvaluator.pop:
                continue  # stateless: bound stays 0 for ever
            labels = constraint.relevant_labels()
            if labels is None:
                soft_always.append((weight, ev))
            else:
                for label in labels:
                    soft_by_label.setdefault(label, []).append(
                        (weight, ev))
        self._soft_by_label = soft_by_label
        self._soft_always = tuple(soft_always)
        #: Per-label push plan: (hard evaluators, stateful soft
        #: evaluators) that must see an assignment of this label.
        self._plan: dict[str, tuple] = {}

        self._n = len(problem.tags)
        self._cand_lists = problem.cands
        self._ranges = [range(len(cands)) for cands in self._cand_lists]
        width = problem.cand_ids.shape[1]
        self._levels = np.arange(self._n)
        self._row_start = self._levels * width
        self._flat_ids = problem.cand_ids.ravel()
        self._flat_cost = problem.cand_cost.ravel()
        self._flat_ids_list = self._flat_ids.tolist()
        self._flat_cost_list = self._flat_cost.tolist()
        spans = [(start, start + len(cands)) for start, cands
                 in zip(range(0, self._n * width, width), problem.cands)]
        self._cost_lists = [self._flat_cost_list[a:b] for a, b in spans]
        # Per candidate: its label index when the label is capped, else
        # -1 (taking it leaves every capacity as it was).
        capped = problem.capped.tolist()
        self._capped_lists = [
            [i if capped[i] else -1 for i in self._flat_ids_list[a:b]]
            for a, b in spans]
        #: Capacity each label has left under the current prefix. The
        #: engine takes a capped label's unit on descent and gives it
        #: back on backtrack; the suffix bound reads the same buffer as
        #: a numpy array, and its bytes key the bound memo.
        self.left = array("q", problem.capacity.tolist())
        self._left_np = np.frombuffer(self.left, dtype=np.int64)
        #: Capacities -> the bound runs computed under them; see
        #: :meth:`_suffix_bound`.
        self._bounds: dict[bytes, list[_BoundRun]] = {}
        self._leaf_run = _BoundRun(self._n, self._n, [0.0],
                                   [-1] * len(self.left))

    # ------------------------------------------------------------------
    # push / pop
    # ------------------------------------------------------------------
    def _plan_for(self, label: str) -> tuple:
        plan = self._plan.get(label)
        if plan is None:
            plan = ((*self._by_label.get(label, ()), *self._always),
                    (*self._soft_by_label.get(label, ()),
                     *self._soft_always))
            self._plan[label] = plan
        return plan

    def _try_push(self, tag: str, label: str) -> float | None:
        """Place ``tag -> label``; the soft-bound delta, or None on a
        hard violation (state fully rolled back)."""
        ctx, assignment = self.ctx, self.assignment
        assignment[tag] = label
        hard_evs, soft_evs = self._plan_for(label)
        for i, ev in enumerate(hard_evs):
            if ev.push(tag, label, assignment, ctx):
                while i >= 0:
                    hard_evs[i].pop(tag, label, assignment, ctx)
                    i -= 1
                del assignment[tag]
                return None
        delta = 0.0
        for weight, ev in soft_evs:
            before = ev.bound
            ev.push(tag, label, assignment, ctx)
            delta += weight * (ev.bound - before)
        return delta

    def _pop(self, tag: str, label: str) -> None:
        ctx, assignment = self.ctx, self.assignment
        hard_evs, soft_evs = self._plan[label]
        for weight, ev in reversed(soft_evs):
            ev.pop(tag, label, assignment, ctx)
        for ev in reversed(hard_evs):
            ev.pop(tag, label, assignment, ctx)
        del assignment[tag]

    # ------------------------------------------------------------------
    # suffix bound
    # ------------------------------------------------------------------
    def _suffix_bound(self, level: int) -> _BoundRun:
        """A bound run covering ``level`` under the current capacities.

        Runs are memoised per capacity state, so the search computes a
        bound only when it reaches a state, or a level of it, that no
        earlier run covers.
        """
        if level == self._n:
            return self._leaf_run
        key = self.left.tobytes()
        runs = self._bounds.get(key)
        if runs is None:
            runs = self._bounds[key] = []
        else:
            for run in runs:
                if run.start <= level <= run.stop:
                    return run
        run = self._completion_bounds(level)
        runs.append(run)
        return run

    def _completion_bounds(self, level: int) -> _BoundRun:
        """Admissible costs of the cheapest completions of ``tags[level:]``
        and of the suffixes after it, under the current capacities.

        Each tag is charged its cheapest candidate among the labels
        with capacity left. A label claimed that way by ``k`` tags but
        with capacity ``c < k`` can keep at most ``c`` of them, so the
        other ``k - c`` pay at least their second-cheapest open option:
        those tags are charged it instead, choosing the ``k - c`` whose
        step up (regret) is smallest, so the bound holds whichever
        claimants keep the label. Claim groups are disjoint, so the
        charges add up. inf means no completion within the candidates
        respects the capacities.

        The charges are summed from the last tag backwards, so the sum
        from any later level is a partial sum of the same run. Until the
        first tag of a crowded group, dropping leading tags changes no
        group and no charge: the run's partial sums are that level's
        bound, bit for bit.
        """
        left = self._left_np
        open_ = left[self.p.cand_ids[level:]] > 0
        # Every row ends in an always-open sentinel at cost inf, so a tag
        # with no open candidate is charged inf.
        first = open_.argmax(axis=1)
        at = self._row_start[level:] + first
        claimed = self._flat_ids[at]
        charge = self._flat_cost[at]
        excess = np.bincount(claimed, minlength=len(left)) - left
        last = np.full(len(left), -1)
        np.maximum.at(last, claimed, self._levels[level:])
        last = last.tolist()
        stop = self._n - 1
        if excess.max() > 0:
            crowded = np.flatnonzero(excess[claimed] > 0)
            stop = level + int(crowded[0])
            candidates = open_[crowded]
            candidates[np.arange(len(crowded)), first[crowded]] = False
            second = (self._row_start[level:][crowded]
                      + candidates.argmax(axis=1)).tolist()
            cost, ids = self._flat_cost_list, self._flat_ids_list
            # Crowded claimants grouped by label, smallest regret first;
            # the first ``excess`` of each group pay their runner-up.
            ranked = sorted(
                (label, cost[s] - c1, row, s)
                for label, c1, row, s in zip(claimed[crowded].tolist(),
                                             charge[crowded].tolist(),
                                             crowded.tolist(), second))
            over = excess.tolist()
            taken = previous = -1
            for label, _regret, row, s in ranked:
                taken = taken + 1 if label == previous else 0
                previous = label
                runner_up = ids[s]
                last[runner_up] = max(last[runner_up], level + row)
                if taken < over[label]:
                    charge[row] = cost[s]
        sums = charge[::-1].cumsum()[::-1].tolist()
        return _BoundRun(level, stop, sums, last)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Search the whole tree."""
        # The leaf run covers no level above the last: the root looks up
        # its own.
        self._expand(0, 0.0, 0.0, self._leaf_run)
        self._flush_counters()

    def greedy_seed(self) -> None:
        """Cheapest non-violating candidate per tag, in order; offers
        the completed assignment to the incumbent (the anytime upper
        bound). Leaves evaluator state clean."""
        p = self.p
        cost = 0.0
        pushed: list[tuple[str, str]] = []
        try:
            for level, tag in enumerate(p.tags):
                for idx, label in enumerate(self._cand_lists[level]):
                    if self._try_push(tag, label) is not None:
                        pushed.append((tag, label))
                        self.path.append(idx)
                        cost += self._cost_lists[level][idx]
                        break
                else:
                    return  # stuck: no feasible seed
            self._offer_leaf(cost)
        finally:
            for tag, label in reversed(pushed):
                self._pop(tag, label)
            self.path.clear()
            self._flush_counters()

    def _flush_counters(self) -> None:
        stats = self.stats
        stats["nodes_expanded"] += self._nodes
        stats["prune_bound"] += self._prunes_bound
        stats["prune_hard"] += self._prunes_hard
        stats["prune_soft_bound"] += self._prunes_soft
        stats["leaf_hard_rejects"] += self._leaf_rejects
        self._nodes = self._prunes_bound = self._prunes_hard = 0
        self._prunes_soft = self._leaf_rejects = 0

    def _expand(self, level: int, cost_so_far: float, soft_lower: float,
                run: _BoundRun) -> None:
        """Visit the candidates of ``tags[level]`` in order.

        ``run`` holds under the current capacities from ``level`` on,
        when it covers that far. The candidate loop is deliberately flat
        — prune tests inlined, per-level lists precomputed — because
        this is the engine's one hot path (millions of iterations on
        large schemas)."""
        budget = self.budget
        if budget.exhausted():
            return
        budget.spent += 1
        snap = budget.snapshot
        if snap is not None and not (budget.spent & _SNAPSHOT_MASK):
            # The checkpoint snapshot callback; it only reads the
            # incumbent and writes through the atomic
            # artifact layer, so it cannot perturb the search.
            snap()
        self._nodes += 1
        inc = self.incumbent
        path = self.path
        tag = self.p.tags[level]
        cands = self._cand_lists[level]
        costs = self._cost_lists[level]
        capped_ids = self._capped_lists[level]
        left = self.left
        next_level = level + 1
        is_leaf = next_level == self._n
        # Bounds every child: taking a label only lowers capacities, and
        # fewer capacities never make the cheapest completion cheaper.
        if not run.start <= next_level <= run.stop:
            run = self._suffix_bound(next_level)
        remaining = run.sums[next_level - run.start]
        last = run.last
        indices = self._ranges[level]
        for count, idx in enumerate(indices):
            new_cost = cost_so_far + costs[idx]
            bound = new_cost + remaining + soft_lower
            best_cost, best_path, best_assignment = inc.best
            if bound > best_cost or bound == math.inf or (
                    bound == best_cost and best_assignment is not None
                    and (*path, idx) > best_path[:next_level]):
                # Candidates are cost-sorted: the rest cost more, so the
                # whole remaining sibling run is cut in one break.
                n_cut = len(indices) - count
                if new_cost + remaining <= best_cost < bound:
                    self._prunes_soft += n_cut
                else:
                    self._prunes_bound += n_cut
                break
            capped = capped_ids[idx]
            if capped >= 0 and not left[capped]:
                # The label's frequency limit is reached: the push would
                # be a hard violation.
                self._prunes_hard += 1
                continue
            label = cands[idx]
            delta = self._try_push(tag, label)
            if delta is None:
                self._prunes_hard += 1
                continue
            new_soft = soft_lower + delta
            child_run = run
            child_remaining = remaining
            if capped >= 0:
                left[capped] -= 1
                # A label no later tag could be charged leaves ``run``
                # holding for the child's capacities as well.
                if last[capped] >= next_level:
                    child_run = self._suffix_bound(next_level)
                    child_remaining = \
                        child_run.sums[next_level - child_run.start]
            if delta > 0.0 or child_remaining != remaining:
                # This child's own bound: its soft costs and the
                # capacity its label took from the rest.
                bound = new_cost + child_remaining + new_soft
                best_cost, best_path, best_assignment = inc.best
                if bound > best_cost or bound == math.inf or (
                        bound == best_cost
                        and best_assignment is not None
                        and (*path, idx) > best_path[:next_level]):
                    if new_cost + child_remaining <= best_cost < bound:
                        self._prunes_soft += 1
                    else:
                        self._prunes_bound += 1
                    if capped >= 0:
                        left[capped] += 1
                    self._pop(tag, label)
                    continue
            path.append(idx)
            if is_leaf:
                # The running soft bound is a lower bound only; the
                # leaf re-settles soft costs exactly via the evaluators.
                self._offer_leaf(new_cost)
            else:
                self._expand(next_level, new_cost, new_soft, child_run)
            path.pop()
            if capped >= 0:
                left[capped] += 1
            self._pop(tag, label)

    def _offer_leaf(self, score_cost: float) -> None:
        """Settle exact soft costs and hard completeness at a leaf."""
        ctx, assignment = self.ctx, self.assignment
        for ev in self.hard_evaluators:
            if ev.complete_violation(assignment, ctx):
                self._leaf_rejects += 1
                return
        total = score_cost
        for weight, ev in self.soft_evaluators:
            total += weight * ev.complete_cost(assignment, ctx)
        self.incumbent.offer(total, tuple(self.path), assignment)


class ConstraintHandler:
    """Searches for the least-cost complete mapping under constraints."""

    def __init__(self, constraints: Sequence[Constraint] = (),
                 prob_weight: float = 1.0,
                 soft_weights: dict[str, float] | None = None,
                 candidates_per_tag: int = 8,
                 max_expansions: int = 100_000,
                 epsilon: float = 1e-6) -> None:
        """
        Parameters
        ----------
        constraints:
            The domain constraints (hard and soft, mixed).
        prob_weight:
            The paper's ``a`` coefficient on ``-log prob(m)``.
        soft_weights:
            ``alpha_i`` per soft-constraint ``kind``.
        candidates_per_tag:
            Branching limit: only this many top-scoring labels (plus OTHER
            plus constraint-required labels) are considered per tag.
        max_expansions:
            Node budget; when exhausted the best complete mapping seen
            so far (or a greedy completion) is returned.
        epsilon:
            Floor under confidence scores before taking logs.
        """
        self.constraints = list(constraints)
        self.prob_weight = prob_weight
        self.soft_weights = dict(DEFAULT_SOFT_WEIGHTS)
        if soft_weights:
            self.soft_weights.update(soft_weights)
        self.candidates_per_tag = candidates_per_tag
        self.max_expansions = max_expansions
        self.epsilon = epsilon
        #: Counters from the most recent :meth:`find_mapping` call
        #: (nodes expanded, prunes by reason, best cost).
        self.last_stats: dict = {}

    def __getstate__(self) -> dict:
        # The counters describe this process's last search, not the
        # model: a saved handler starts with none, so saving a model
        # before and after a match writes the same bytes.
        return {**self.__dict__, "last_stats": {}}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def find_mapping(self, scores: dict[str, np.ndarray],
                     space: LabelSpace, ctx: MatchContext,
                     extra_constraints: Sequence[Constraint] = (),
                     observer: Observer | None = None,
                     deadline=None, report=None, warm_start=None,
                     snapshot=None) -> Mapping:
        """The least-cost mapping for the given per-tag score rows.

        ``scores[tag]`` is the prediction converter's normalised score
        vector for that tag. ``extra_constraints`` carries user feedback
        for the current source only (§4.3). ``observer`` records a
        ``search`` span carrying every :attr:`last_stats` entry as an
        attribute (the ``constraint.*`` metrics are read off it).

        When no complete assignment satisfies the hard constraints
        within budget, the result falls back to the per-tag argmax —
        except that the user's feedback still holds: asserted labels
        stay pinned and excluded labels are skipped.

        ``deadline`` (a :class:`repro.resilience.Deadline`) caps the
        search by wall clock on top of the expansion budget; when either
        cuts the search short the best complete mapping found so far is
        returned and ``report`` (a :class:`~repro.resilience.
        DegradationReport`), when given, is flagged *anytime*.

        ``warm_start`` is a checkpointed ``(cost, path, assignment)``
        incumbent pre-offered to the search before any expansion.
        Because incumbents order by ``(cost, path)`` — the same total
        order exploration itself settles — pre-offering is equivalent
        to having explored that leaf first, so a warm-started search
        returns exactly what an uninterrupted one would. ``snapshot``
        is a ``(cost, path, assignment)`` callback invoked with the
        current incumbent every few thousand expansions (and once at
        the end of the search) — the crash-safe persistence hook.
        """
        obs = resolve_observer(observer)
        with obs.trace.span("search") as span:
            mapping = self._find_mapping(scores, space, ctx,
                                         extra_constraints, deadline,
                                         warm_start, snapshot)
            for stat, value in self.last_stats.items():
                span.set_attribute(stat, value)
        if report is not None and self.last_stats.get("anytime"):
            report.mark_anytime()
        return mapping

    def _find_mapping(self, scores: dict[str, np.ndarray],
                      space: LabelSpace, ctx: MatchContext,
                      extra_constraints: Sequence[Constraint],
                      deadline=None, warm_start=None,
                      snapshot=None) -> Mapping:
        hard, soft = split_constraints(
            [*self.constraints, *extra_constraints])
        tags = self._tag_order(list(scores), ctx)
        if not tags:
            self.last_stats = _zero_stats()
            return Mapping({})

        chosen = self._candidates(tags, scores, space, hard)
        problem = _Problem(
            tags, *self._encode(tags, chosen, scores, space, hard),
            hard, soft, [self.soft_weights.get(c.kind, 1.0) for c in soft],
            ctx)

        best, stats = self._branch_and_bound(problem, deadline,
                                             warm_start, snapshot)
        self.last_stats = stats

        if best is not None:
            return Mapping(best)
        # No complete assignment satisfies the hard constraints within
        # budget (possibly they are jointly unsatisfiable on this source):
        # fall back to the argmax mapping, still honouring the user.
        return self._feedback_argmax(scores, space, extra_constraints)

    def _branch_and_bound(self, problem: _Problem, deadline=None,
                          warm_start=None, snapshot=None
                          ) -> tuple[dict[str, str] | None, dict]:
        """Incremental DFS branch-and-bound from a greedy seed."""
        incumbent = _Incumbent()
        budget = _Budget(self.max_expansions, deadline)
        if warm_start is not None:
            warm_cost, warm_path, warm_assignment = warm_start
            incumbent.offer(float(warm_cost), tuple(warm_path),
                            dict(warm_assignment))
        if snapshot is not None:
            def snap() -> None:
                cost, path, assignment = incumbent.best
                if assignment is not None:
                    snapshot(cost, path, assignment)
            budget.snapshot = snap

        engine = _DfsEngine(problem, incumbent, budget)
        engine.greedy_seed()
        engine.run()
        stats = engine.stats
        stats["anytime"] = int(budget.stopped)

        if budget.snapshot is not None:
            budget.snapshot()  # final flush: persist the winner too
        cost, _, assignment = incumbent.best
        stats["best_cost"] = cost
        return assignment, stats

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def greedy_mapping(self, scores: dict[str, np.ndarray],
                       space: LabelSpace) -> Mapping:
        """Argmax assignment, ignoring constraints (§3.2 step 3's
        no-constraints behaviour; also the handler-less ablation)."""
        return Mapping({
            tag: space.label_at(int(np.argmax(row)))
            for tag, row in scores.items()
        })

    def _feedback_argmax(self, scores: dict[str, np.ndarray],
                         space: LabelSpace,
                         feedback: Sequence[Constraint]) -> Mapping:
        """Per-tag argmax under the user's feedback only: a tag with an
        asserted label keeps it, and a tag's excluded labels are
        skipped (OTHER when every label is excluded)."""
        pinned, excluded = _feedback_labels(feedback)
        mapping: dict[str, str] = {}
        for tag, row in scores.items():
            if tag in pinned:
                mapping[tag] = pinned[tag]
                continue
            banned = excluded.get(tag)
            if banned is None:
                mapping[tag] = space.label_at(int(np.argmax(row)))
                continue
            mapping[tag] = next(
                (label for label in (space.label_at(int(i)) for i in
                                     np.argsort(-row, kind="stable"))
                 if label not in banned), OTHER)
        return Mapping(mapping)

    def violations(self, mapping: Mapping, ctx: MatchContext,
                   extra_constraints: Sequence[Constraint] = ()
                   ) -> list[Constraint]:
        """All constraints a complete mapping violates (diagnostics)."""
        hard, soft = split_constraints(
            [*self.constraints, *extra_constraints])
        assignment = {tag: mapping.label_of(tag) for tag in mapping}
        violated: list[Constraint] = [
            c for c in hard if c.check_complete(assignment, ctx)]
        violated.extend(
            c for c in soft if c.cost(assignment, ctx) > 0.0)
        return violated

    def mapping_cost(self, mapping: Mapping,
                     scores: dict[str, np.ndarray], space: LabelSpace,
                     ctx: MatchContext,
                     extra_constraints: Sequence[Constraint] = ()
                     ) -> float:
        """The paper's cost(m) of a complete mapping (inf on hard
        violations).

        ``extra_constraints`` carries per-source user feedback, exactly
        as in :meth:`find_mapping` and :meth:`violations` — so the cost
        reported after feedback agrees with what the search minimised
        and with ``violations()`` on the same mapping.
        """
        hard, soft = split_constraints(
            [*self.constraints, *extra_constraints])
        assignment = {tag: mapping.label_of(tag) for tag in mapping}
        if any(c.check_complete(assignment, ctx) for c in hard):
            return float("inf")
        cost = self._soft_cost(assignment, ctx, soft)
        for tag, label in assignment.items():
            score = max(float(scores[tag][space.index_of(label)]),
                        self.epsilon)
            cost += -self.prob_weight * math.log(score)
        return cost

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _tag_order(self, tags: list[str], ctx: MatchContext) -> list[str]:
        """§6.3 refinement order: most-structured tags first."""
        return sorted(
            tags,
            key=lambda tag: (-ctx.schema.descendant_count(tag), tag))

    def _candidates(self, tags: list[str],
                    scores: dict[str, np.ndarray], space: LabelSpace,
                    hard: list[HardConstraint]) -> list[list[int]]:
        """Each tag's candidate label indices, highest score first."""
        required = {
            c.label for c in hard
            if isinstance(c, FrequencyConstraint) and c.min_count > 0}
        pinned, excluded = _feedback_labels(hard)
        candidates: list[list[int]] = []
        for tag in tags:
            if tag in pinned:
                candidates.append([space.index_of(pinned[tag])])
                continue
            row = scores[tag]
            k = min(self.candidates_per_tag, len(row))
            # Stable sort on -score: ties break by ascending label
            # index, the documented deterministic candidate order.
            top = np.argsort(-row, kind="stable")[:k]
            chosen = list(dict.fromkeys(
                [*(int(i) for i in top), space.index_of(OTHER),
                 *(space.index_of(label) for label in sorted(required))]))
            # Labels excluded by feedback can never be assigned to this
            # tag; dropping them up front tightens the suffix bound.
            banned = excluded.get(tag)
            if banned:
                chosen = [i for i in chosen
                          if space.label_at(i) not in banned] \
                    or [space.index_of(OTHER)]
            # Re-sort so the whole list — appended OTHER / required
            # labels included — is cost-ascending: the engine's sibling
            # break on a bound prune relies on that monotonicity.
            chosen.sort(key=lambda i: (-row[i], i))
            candidates.append(chosen)
        return candidates

    def _encode(self, tags: list[str], chosen: list[list[int]],
                scores: dict[str, np.ndarray], space: LabelSpace,
                hard: list[HardConstraint]) -> tuple:
        """``_Problem``'s candidate fields ``(cands, cand_ids, cand_cost,
        capacity, capped)`` from each tag's candidate label indices."""
        sentinel = len(space)
        capacity = np.full(sentinel + 1, len(tags), dtype=np.int64)
        capped = np.zeros(sentinel + 1, dtype=bool)
        for c in hard:
            if isinstance(c, FrequencyConstraint) \
                    and c.max_count is not None and c.label in space:
                i = space.index_of(c.label)
                capacity[i] = min(capacity[i], c.max_count)
                capped[i] = True
        rows: list[list[int]] = []
        costs: list[list[float]] = []
        for tag, indices in zip(tags, chosen):
            cost = [-self.prob_weight * math.log(max(score, self.epsilon))
                    for score in scores[tag][indices].tolist()]
            # Cheapest-first: lets branch-and-bound cut a whole sibling
            # group as soon as one candidate exceeds the bound.
            order = sorted(range(len(cost)), key=cost.__getitem__)
            rows.append([indices[j] for j in order])
            costs.append([cost[j] for j in order])
        width = max(map(len, rows)) + 1
        cand_ids = np.array(
            [row + [sentinel] * (width - len(row)) for row in rows])
        cand_cost = np.array(
            [row + [math.inf] * (width - len(row)) for row in costs])
        labels = space.labels
        cands = [[labels[i] for i in row] for row in rows]
        return cands, cand_ids, cand_cost, capacity, capped

    def _soft_cost(self, assignment: dict[str, str], ctx: MatchContext,
                   soft: list[SoftConstraint]) -> float:
        return sum(
            self.soft_weights.get(c.kind, 1.0) * c.cost(assignment, ctx)
            for c in soft)


def _feedback_labels(constraints: Sequence[Constraint]
                     ) -> tuple[dict[str, str], dict[str, set[str]]]:
    """``(tag -> asserted label, tag -> excluded labels)`` from the
    feedback constraints among ``constraints``."""
    pinned = {c.tag: c.label for c in constraints
              if isinstance(c, AssignmentConstraint)}
    excluded: dict[str, set[str]] = {}
    for c in constraints:
        if isinstance(c, ExclusionConstraint):
            excluded.setdefault(c.tag, set()).add(c.label)
    return pinned, excluded
