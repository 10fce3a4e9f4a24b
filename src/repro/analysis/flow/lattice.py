"""The three built-in taint lattices.

Each lattice is a declarative bundle: *entry points* (where execution
enters the guarded region), a *source scanner* (what taints a single
function body), and rendering hooks. The reachability engine does the
propagation; a finding is an entry point that reaches a tainted
statement, carrying the shortest call chain as evidence.

* :data:`DETERMINISM` — wall-clock reads, unseeded RNGs, OS entropy,
  and order-sensitive set iteration on any path reachable from
  ``LSDSystem.match``, a ``@task_handler`` worker, or the constraint
  search. The per-file rules flag these at the call site wherever they
  appear; the lattice proves the *path* — a wallclock read two calls
  deep inside a helper is invisible to a per-file rule but not to
  reachability.
* :data:`WORKER_PURITY` — writes to module-level or closure-captured
  state anywhere transitively reachable from worker execution roots
  (``@task_handler`` functions and every callable handed to a
  ``ParallelExecutor`` map). This upgrades ``process-unsafe-state``
  from a one-hop heuristic to full transitive reachability; the
  documented benign caches
  (:data:`~repro.analysis.rules_concurrency.BENIGN_SHARED`) stay
  allowlisted at any depth.
* :data:`FAULT_FLOW` — every armed fault site
  (``policy.fire(SITE_*)`` / ``plan.corrupt(...)``) must either be
  handled by a ``FaultInjected`` except clause somewhere on a caller
  path, or be a *documented propagation* (the arming function's
  docstring names ``FaultInjected``). Sites whose injected exception
  can silently escape the resilience machinery are findings.

Suppressions compose: a taint source silenced with
``# lsd: ignore[<base-rule>]`` (or the flow rule's own id) at the
source line does not seed the lattice — the same line-level contract
the per-file rules honour.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator

from ..astutil import dotted, names_imported_from
from ..engine import SourceFile
from ..rules_concurrency import _shared_writes
from ..rules_determinism import (iter_entropy_calls, iter_set_order,
                                 iter_unseeded_random,
                                 iter_wallclock_calls)
from .callgraph import CallGraph, FunctionInfo, iter_own_nodes

#: The fixed interprocedural entry points of the determinism contract.
DETERMINISM_ENTRY_POINTS = (
    "repro.core.system.LSDSystem.match",
    "repro.constraints.handler.ConstraintHandler.find_mapping",
)

#: Methods of FaultPlan / ResiliencePolicy that arm a fault site.
_ARMING_METHODS = ("fire", "corrupt")

#: Exception type names that count as handling an injected fault: the
#: concrete type, or the blanket handlers that necessarily catch it
#: (quarantine boundaries like train_base_learners catch ``Exception``
#: deliberately — an injected fault is absorbed there like any other
#: learner failure).
_FAULT_EXCEPTION = "FaultInjected"
_FAULT_CATCHALLS = frozenset(
    {_FAULT_EXCEPTION, "Exception", "BaseException"})


@dataclass(frozen=True)
class TaintHit:
    """One tainted statement inside one function."""

    function: str   # qualname of the containing function
    path: str
    line: int
    detail: str     # human message for the finding
    base_rule: str  # the rule id whose suppression also silences it


@dataclass(frozen=True)
class TaintLattice:
    """One interprocedural analysis: entries + per-function sources."""

    name: str
    description: str
    #: graph -> entry-point qualnames to run reachability from.
    entries: Callable[[CallGraph], set[str]]
    #: (graph, info, source) -> taint hits inside one function body.
    scan: Callable[[CallGraph, FunctionInfo, SourceFile],
                   Iterator[TaintHit]]


def _suppressed(source: SourceFile, line: int, *rules: str) -> bool:
    listed = source.suppressions.get(line)
    if listed is None:
        return False
    return not listed or bool(listed.intersection(rules))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _determinism_entries(graph: CallGraph) -> set[str]:
    entries = {name for name in DETERMINISM_ENTRY_POINTS
               if name in graph.functions}
    entries.update(graph.worker_roots)
    return entries


def _determinism_scan(graph: CallGraph, info: FunctionInfo,
                      source: SourceFile) -> Iterator[TaintHit]:
    if source.in_package("observability", "benchmarks"):
        # The observability layer exists to read clocks; its output is
        # telemetry, never pipeline output (same carve-out as the
        # per-file wallclock rule).
        return
    assert source.tree is not None
    nodes = list(iter_own_nodes(info.node)) if info.node is not None \
        else []
    from_random = names_imported_from(source.tree, "random")
    scans = (
        ("wallclock", iter_wallclock_calls(nodes)),
        ("wallclock", iter_entropy_calls(nodes)),
        ("unseeded-random", iter_unseeded_random(nodes, from_random)),
        ("set-iteration", iter_set_order(nodes)),
    )
    for base_rule, hits in scans:
        for node, message in hits:
            line = getattr(node, "lineno", info.lineno)
            if _suppressed(source, line, base_rule):
                continue
            yield TaintHit(info.qualname, source.display, line,
                           message, base_rule)


DETERMINISM = TaintLattice(
    name="determinism",
    description=("nondeterministic primitives reachable from "
                 "LSDSystem.match, task handlers, or the constraint "
                 "search"),
    entries=_determinism_entries,
    scan=_determinism_scan,
)


# ---------------------------------------------------------------------------
# worker purity / shared writes
# ---------------------------------------------------------------------------

def _worker_entries(graph: CallGraph) -> set[str]:
    return set(graph.worker_roots)


def _purity_scan(graph: CallGraph, info: FunctionInfo,
                 source: SourceFile) -> Iterator[TaintHit]:
    if info.node is None:
        return
    nodes = list(iter_own_nodes(info.node))
    for node, description in _shared_writes(info.node, nodes):
        line = getattr(node, "lineno", info.lineno)
        if _suppressed(source, line, "flow-worker-shared-write",
                       "process-unsafe-state"):
            continue
        yield TaintHit(info.qualname, source.display, line,
                       description, "flow-worker-shared-write")


WORKER_PURITY = TaintLattice(
    name="worker-purity",
    description=("module/closure state written anywhere transitively "
                 "reachable from a worker execution root"),
    entries=_worker_entries,
    scan=_purity_scan,
)


# ---------------------------------------------------------------------------
# fault-escape flow
# ---------------------------------------------------------------------------

def iter_arming_sites(info: FunctionInfo
                      ) -> Iterator[tuple[ast.AST, str]]:
    """``(call, site spelling)`` for fault-site arming calls in the
    function's own body: ``<recv>.fire(SITE_X | "literal", ...)`` and
    ``.corrupt(...)`` alike."""
    if info.node is None:
        return
    for node in iter_own_nodes(info.node):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ARMING_METHODS
                and node.args):
            continue
        arg = node.args[0]
        site = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            site = arg.value
        else:
            name = dotted(arg)
            if name is not None:
                terminal = name.rsplit(".", 1)[-1]
                if terminal.startswith("SITE_"):
                    site = terminal
        if site is not None:
            yield node, site


def handles_fault(info: FunctionInfo) -> bool:
    """Whether the function contains an except clause that catches an
    injected fault: ``FaultInjected`` by name (directly or in a tuple),
    or an ``Exception``/``BaseException``/bare catch-all."""
    if info.node is None:
        return False
    for node in iter_own_nodes(info.node):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:  # bare except
            return True
        exprs = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        for expr in exprs:
            name = dotted(expr)
            if name and name.rsplit(".", 1)[-1] in _FAULT_CATCHALLS:
                return True
    return False


def documents_propagation(info: FunctionInfo) -> bool:
    """Whether the arming function's docstring names the injected
    exception — the explicit opt-out for sites that *model a crash*
    and are supposed to propagate (e.g. ``artifact.write``)."""
    if info.node is None:
        return False
    doc = ast.get_docstring(info.node) or ""
    return _FAULT_EXCEPTION in doc


def _fault_scan(graph: CallGraph, info: FunctionInfo,
                source: SourceFile) -> Iterator[TaintHit]:
    for node, site in iter_arming_sites(info):
        line = getattr(node, "lineno", info.lineno)
        if _suppressed(source, line, "fault-site-catalogue"):
            continue
        yield TaintHit(info.qualname, source.display, line,
                       f"arms fault site {site}", "fault-site-catalogue")


FAULT_FLOW = TaintLattice(
    name="fault-flow",
    description=("armed fault sites whose injected exception no "
                 "caller path handles"),
    entries=_worker_entries,  # unused; the rule walks callers instead
    scan=_fault_scan,
)


def all_lattices() -> tuple[TaintLattice, ...]:
    return (DETERMINISM, WORKER_PURITY, FAULT_FLOW)
