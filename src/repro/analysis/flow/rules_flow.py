"""The ``flow-*`` rules: interprocedural findings with call-chain
evidence.

These rules only run when the engine is asked for flow analysis
(``lsd-lint --flow``, or an explicit ``--select flow-...``): they need
the shared :class:`~repro.analysis.flow.callgraph.CallGraph` artifact
the engine builds once per run. Every finding carries the shortest
call chain from an entry point to the offending statement in its
``chain`` field — rendered indented under the finding by the CLI and
preserved verbatim in the JSON artifact.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..engine import Rule, SourceFile, register
from ..findings import Finding
from .callgraph import CallGraph, iter_own_nodes
from .lattice import (DETERMINISM, WORKER_PURITY, documents_propagation,
                      handles_fault, iter_arming_sites)
from .reachability import (callers_of, chain_to, reachable_from,
                           render_chain)

import ast


class FlowRule(Rule):
    """Base class for rules that consume the shared call graph."""

    requires_flow = True

    def chain_finding(self, source: SourceFile, line: int,
                      message: str, chain: Sequence[str]) -> Finding:
        return Finding(source.display, line, self.id, message,
                       self.severity, chain=tuple(chain))


@register
class NondeterministicPathRule(FlowRule):
    """A nondeterministic primitive on any path reachable from the
    matching pipeline's entry points breaks byte-identical output —
    no matter how many helper calls deep it hides."""

    id = "flow-nondeterministic-path"
    severity = "error"
    description = ("wallclock/unseeded-RNG/OS-entropy/set-order "
                   "primitive reachable from LSDSystem.match, a task "
                   "handler, or the constraint search")

    def check_flow(self, graph: CallGraph,
                   sources: Sequence[SourceFile]) -> Iterable[Finding]:
        entries = DETERMINISM.entries(graph)
        forest = reachable_from(graph, entries)
        for qualname in sorted(forest):
            info = graph.functions[qualname]
            source = graph.source_of(info)
            if source is None:
                continue
            chain = chain_to(forest, qualname)
            for hit in DETERMINISM.scan(graph, info, source):
                yield self.chain_finding(
                    source, hit.line,
                    f"{hit.detail} — on a pipeline path from "
                    f"{_short(chain[0])}", chain)


@register
class WorkerSharedWriteRule(FlowRule):
    """Worker-executed code must not write shared state, however many
    helpers deep the write happens — ``process-unsafe-state`` at full
    transitive reachability, over mapped callables as well as task
    handlers."""

    id = "flow-worker-shared-write"
    severity = "error"
    description = ("module/closure state written in code transitively "
                   "reachable from a worker execution root (task "
                   "handler or mapped callable)")

    def check_flow(self, graph: CallGraph,
                   sources: Sequence[SourceFile]) -> Iterable[Finding]:
        forest = reachable_from(graph, WORKER_PURITY.entries(graph))
        for qualname in sorted(forest):
            info = graph.functions[qualname]
            source = graph.source_of(info)
            if source is None:
                continue
            chain = chain_to(forest, qualname)
            for hit in WORKER_PURITY.scan(graph, info, source):
                yield self.chain_finding(
                    source, hit.line,
                    f"{hit.detail} on a worker path from "
                    f"{_short(chain[0])}; in a worker process the write "
                    f"silently stays in the fork", chain)


@register
class FaultUnhandledRule(FlowRule):
    """Every armed fault site needs a ``FaultInjected`` handler on
    some caller path (or an explicit docstring opt-out naming the
    exception) — otherwise an injected fault escapes the resilience
    machinery as a raw crash the degradation report never sees."""

    id = "flow-fault-unhandled"
    severity = "error"
    description = ("fault site armed on a path with no FaultInjected "
                   "handler in any transitive caller and no documented "
                   "propagation")

    def check_flow(self, graph: CallGraph,
                   sources: Sequence[SourceFile]) -> Iterable[Finding]:
        handlers = {qualname for qualname, info in
                    graph.functions.items() if handles_fault(info)}
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            source = graph.source_of(info)
            if source is None:
                continue
            sites = list(iter_arming_sites(info))
            if not sites:
                continue
            if handles_fault(info) or documents_propagation(info):
                continue
            reverse = callers_of(graph, [qualname])
            if handlers.intersection(reverse):
                continue
            chain = _caller_chain(graph, reverse, qualname)
            for node, site in sites:
                line = getattr(node, "lineno", info.lineno)
                if source.suppressions.get(line) is not None and \
                        _line_suppressed(source, line, self.id):
                    continue
                yield self.chain_finding(
                    source, line,
                    f"fault site {site} armed in {_short(qualname)} "
                    f"but no caller path handles FaultInjected; an "
                    f"injected fault escapes as a raw crash", chain)


@register
class UnresolvedHotCallRule(FlowRule):
    """An unresolved call on the hot matching path is a hole in every
    other flow proof — surface it instead of silently assuming it is
    benign."""

    id = "flow-unresolved-hot-call"
    severity = "warning"
    description = ("call site the resolver cannot bind inside a "
                   "function reachable from the matching pipeline's "
                   "entry points")

    def check_flow(self, graph: CallGraph,
                   sources: Sequence[SourceFile]) -> Iterable[Finding]:
        forest = reachable_from(graph, DETERMINISM.entries(graph))
        for unresolved in sorted(
                graph.unresolved,
                key=lambda u: (u.caller, u.line, u.text)):
            if unresolved.caller not in forest:
                continue
            info = graph.functions[unresolved.caller]
            source = graph.source_of(info)
            if source is None:
                continue
            chain = chain_to(forest, unresolved.caller)
            yield self.chain_finding(
                source, unresolved.line,
                f"cannot resolve call to {unresolved.text!r} "
                f"({unresolved.reason}) on a pipeline path from "
                f"{_short(chain[0])}; flow proofs do not cover it",
                chain)


@register
class ObserverGapRule(FlowRule):
    """A span opened on a worker path without an explicit ``parent=``
    lands on the worker's own (empty) span stack: it can never merge
    back into the run's trace tree, so the collector shows a bogus
    root — or nothing — depending on worker count."""

    id = "flow-observer-gap"
    severity = "error"
    description = ("trace span opened on a worker path without an "
                   "explicit parent= — no merge point back into the "
                   "run's trace tree exists")

    def check_flow(self, graph: CallGraph,
                   sources: Sequence[SourceFile]) -> Iterable[Finding]:
        forest = reachable_from(graph, WORKER_PURITY.entries(graph))
        for qualname in sorted(forest):
            info = graph.functions[qualname]
            source = graph.source_of(info)
            if source is None or info.node is None:
                continue
            if source.in_package("observability"):
                continue  # the collector's own plumbing
            chain = chain_to(forest, qualname)
            for node in iter_own_nodes(info.node):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "span"):
                    continue
                if any(kw.arg == "parent" for kw in node.keywords):
                    continue
                yield self.chain_finding(
                    source, node.lineno,
                    f"span opened on a worker path from "
                    f"{_short(chain[0])} without parent=; it cannot "
                    f"merge into the run trace", chain)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _short(qualname: str) -> str:
    return qualname[len("repro."):] if qualname.startswith("repro.") \
        else qualname


def _line_suppressed(source: SourceFile, line: int, rule: str) -> bool:
    listed = source.suppressions.get(line)
    if listed is None:
        return False
    return not listed or rule in listed


def _caller_chain(graph: CallGraph,
                  reverse: dict[str, tuple[str | None, int]],
                  target: str) -> list[str]:
    """An entry-to-site witness chain for a fault finding: from some
    caller nobody else calls, down to the arming function."""
    roots = [qualname for qualname in sorted(reverse)
             if not graph.edges_to(qualname)]
    start = roots[0] if roots else target
    chain = [start]
    node = start
    while node != target:
        nxt = reverse[node][0]
        if nxt is None or nxt in chain:
            break
        chain.append(nxt)
        node = nxt
    return chain


def summarize_chains(findings: Iterable[Finding]) -> str:
    """Debug helper: findings one per line with rendered chains."""
    lines = []
    for finding in findings:
        lines.append(finding.render())
        if finding.chain:
            lines.append(f"    via {render_chain(finding.chain)}")
    return "\n".join(lines)
