"""Concurrency rule: shared-state writes inside worker task handlers.

A worker-side task handler (:func:`repro.core.procpool.task_handler`)
runs in a *forked process*, so a write to module-level or closure
state is not a race — it is a silent no-op from the parent's point of
view. The copy-on-write page the worker dirties never travels back,
the parent keeps its stale value, and (worse) which worker dirtied it
varies run to run. The ``process-unsafe-state`` rule flags such writes
inside ``@task_handler(...)`` functions and their one-hop helpers:
assignments through ``global`` / ``nonlocal``, stores into
subscripts/attributes rooted at closure or module names, and calls of
mutating methods on such names. The flow rule
``flow-worker-shared-write`` follows the same write shapes to full
transitive depth from every worker execution root.

The documented benign-race caches (``featurize._text_cache``, the
per-instance ``feature_cache``, the approximate ``stats`` counters — see
the thread-safety note in :mod:`repro.core.featurize`) are allowlisted:
they are last-write-wins idempotent by design and exercised by the
dynamic sanitizer instead (:mod:`repro.analysis.sanitizer`).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .astutil import chain_parts, root_name
from .engine import Rule, SourceFile, register
from .findings import Finding

#: Method names that mutate their receiver.
_MUTATORS = {
    "append", "appendleft", "extend", "insert", "add", "update",
    "setdefault", "clear", "pop", "popitem", "remove", "discard",
    "sort", "reverse", "write", "writelines", "inc",
}

#: Shared state documented as a benign race (idempotent last-write-wins
#: caches); matched against any component of the written chain.
BENIGN_SHARED = frozenset({"_text_cache", "feature_cache", "stats"})


def _bound_names(target: ast.AST | None) -> Iterator[str]:
    """Names a binding target actually binds. Subscript/attribute
    stores (``shared[k] = v``, ``obj.field = v``) bind nothing — they
    mutate an existing object, which is exactly what the rule exists to
    catch — so they must not mark their root name as local."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _local_names(fn: ast.AST,
                 nodes: Iterable[ast.AST] | None = None) -> set[str]:
    """Names bound inside ``fn`` (params, assignments, loop/with
    targets, comprehension variables, nested defs) — writes to anything
    else touch caller-owned state. ``nodes`` narrows the scan (the flow
    lattice passes the own-body walk so nested defs, which are their
    own graph nodes, are not double-counted)."""
    names: set[str] = set()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.Lambda)):
        args = fn.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            names.add(arg.arg)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    declared: set[str] = set()
    for node in (ast.walk(fn) if nodes is None else nodes):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                               ast.NamedExpr, ast.For, ast.comprehension)
                       ):
            targets = getattr(node, "targets", None) or \
                [getattr(node, "target", None)]
            for target in targets:
                names.update(_bound_names(target))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            names.update(_bound_names(node.optional_vars))
    return names - declared


def _shared_writes(fn: ast.AST,
                   nodes: Iterable[ast.AST] | None = None
                   ) -> Iterator[tuple[ast.AST, str]]:
    """(node, description) for every write to non-local state in fn,
    skipping the :data:`BENIGN_SHARED` caches.

    ``nodes`` narrows both the locals computation and the write scan to
    a subset of the subtree (the flow lattice passes the own-body walk;
    it must be re-iterable or passed twice via :func:`list`)."""
    nodes = None if nodes is None else list(nodes)
    local = _local_names(fn, nodes)

    def is_shared(target: ast.AST) -> str | None:
        """The offending name if ``target`` stores outside fn."""
        root = root_name(target)
        if root is None or root in local:
            return None
        if BENIGN_SHARED.intersection(chain_parts(target)):
            return None
        return ".".join(chain_parts(target)) or root

    for node in (ast.walk(fn) if nodes is None else nodes):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            scope = "global" if isinstance(node, ast.Global) else \
                "nonlocal"
            for name in node.names:
                if name not in BENIGN_SHARED:
                    yield node, (f"declares {scope} {name!r} (writes "
                                 f"escape the task)")
        elif isinstance(node, (ast.Assign, ast.AnnAssign,
                               ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = is_shared(target)
                    if name is not None:
                        yield node, f"stores into shared {name!r}"
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATORS:
            name = is_shared(node.func)
            if name is not None:
                yield node, (f"calls mutating method "
                             f"{name}.{node.func.attr}()")


def _collect_functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Every function/method in the module, by (unqualified) name —
    the one-hop resolution table for task handlers."""
    functions: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, node)
    return functions


def _is_task_handler_decorator(decorator: ast.AST) -> bool:
    """``@task_handler("kind")`` in any spelling — bare name, module
    attribute (``procpool.task_handler``), with or without arguments."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Name):
        return decorator.id == "task_handler"
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "task_handler"
    return False


def _handler_hops(handler: ast.AST,
                  functions: dict[str, ast.AST]) -> list[ast.AST]:
    """The handler plus (one hop) module-local functions its *body*
    calls. Only the body: the decorator expression itself
    (``@task_handler("predict")``) runs at import time in every
    process, so its registry write is not worker-side state."""
    targets: list[ast.AST] = [handler]
    body_calls = (node for statement in getattr(handler, "body", ())
                  for node in ast.walk(statement)
                  if isinstance(node, ast.Call))
    for node in body_calls:
        callee = None
        if isinstance(node.func, ast.Name):
            callee = functions.get(node.func.id)
        elif isinstance(node.func, ast.Attribute):
            callee = functions.get(node.func.attr)
        if callee is not None and callee not in targets:
            targets.append(callee)
    return targets


@register
class ProcessUnsafeStateRule(Rule):
    """Worker-process task handlers must not write module or closure
    state — post-fork writes land in the worker's copy-on-write pages
    and silently never reach the parent."""

    id = "process-unsafe-state"
    severity = "error"
    description = ("mutation of module-level or closure-captured state "
                   "inside a @task_handler worker function; the write "
                   "stays in the forked worker and never reaches the "
                   "parent process")

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        assert source.tree is not None
        functions = _collect_functions(source.tree)
        for node in ast.walk(source.tree):
            if not (isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                    and any(_is_task_handler_decorator(dec)
                            for dec in node.decorator_list)):
                continue
            for target in _handler_hops(node, functions):
                for write, description in _shared_writes(target):
                    yield self.finding(source,
                        write, f"task handler {node.name!r} "
                        f"{description}; a worker process mutates its "
                        f"own fork — the parent never sees the write "
                        f"(allowlist: "
                        f"{', '.join(sorted(BENIGN_SHARED))})")
