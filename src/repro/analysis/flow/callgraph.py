"""The project call graph: every function, every call site, one pass.

Nodes are function definitions (module functions, methods, nested
defs) plus one ``<module>`` pseudo-node per file for import-time code.
Edges are classified by how they were resolved:

* ``direct`` — the callee is a uniquely named module-level function,
  nested def, imported project function, or ``Class.method`` spelled
  out at the call site;
* ``method`` — ``self.m()`` / ``cls.m()`` bound through the enclosing
  class and its project MRO;
* ``dispatch`` — a virtual call: either overrides of a ``self.m()``
  target in known subclasses (the ``BaseLearner`` / ``Rule``
  hierarchies and everything else alike), or a method call on a value
  of unknown type whose name *some* project class defines — the graph
  over-approximates to every definition of that name;
* ``init`` — a class constructed, edged to its ``__init__``;
* ``partial`` — ``functools.partial(f, ...)`` unwrapped one step;
* ``fanout`` — the callable handed to a ``ParallelExecutor``
  ``map``/``map_profiled`` call (these targets are also
  recorded as :attr:`CallGraph.worker_roots`, alongside every
  ``@task_handler`` function);
* ``ref`` — a project function referenced by name without being
  called (passed as a callback); treated as a possible call so taint
  cannot hide behind first-class functions.

Calls that cannot be bound at all (computed callees, unknown names,
attributes of values the resolver cannot type *when* some project
class defines a method of that name is also unavailable) become
:class:`UnresolvedCall` records. Calls whose target is provably
outside the project — stdlib/numpy modules, builtins, and method
names no project class defines (a closed-world argument: such a call
cannot re-enter project code without ``getattr`` tricks) — count as
*external*, resolved but edge-free.

Known soundness gaps, by design (documented in DESIGN.md §9):
``getattr``-constructed calls, exec/eval, monkeypatching, and
callables stored in containers are invisible; dispatch edges
over-approximate; decorator wrappers are not modelled beyond name
identity.
"""

from __future__ import annotations

import ast
import builtins
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..astutil import chain_parts, dotted
from ..engine import SourceFile

#: Name every project module starts with; files outside it are ignored.
PROJECT_ROOT = "repro"

#: ParallelExecutor entry points whose first argument runs on workers.
FANOUT_METHODS = ("map", "map_profiled")

_BUILTIN_NAMES = frozenset(dir(builtins))

#: How many re-export hops ``from .x import y`` chains are followed.
_IMPORT_DEPTH = 6


@dataclass
class FunctionInfo:
    """One function definition node in the graph."""

    qualname: str            # repro.core.matching._predict_tags.predict_with
    module: str              # repro.core.matching
    name: str                # predict_with
    path: str                # display path of the defining file
    lineno: int
    end_lineno: int
    cls: str | None = None   # qualname of the immediately enclosing class
    decorators: tuple[str, ...] = ()
    node: ast.AST | None = None

    @property
    def is_task_handler(self) -> bool:
        return any(dec == "task_handler"
                   or dec.endswith(".task_handler")
                   for dec in self.decorators)


@dataclass(frozen=True)
class CallEdge:
    """One resolved call (or callable reference) between two nodes."""

    caller: str
    callee: str
    line: int
    kind: str  # direct|method|dispatch|init|partial|fanout|ref


@dataclass(frozen=True)
class UnresolvedCall:
    """A call site the resolver could not bind — a visible soundness gap."""

    caller: str
    line: int
    text: str    # the callee expression, as written
    reason: str


@dataclass
class _ClassInfo:
    qualname: str
    module: str
    bases: tuple[str, ...] = ()      # raw dotted spellings
    methods: dict[str, str] = field(default_factory=dict)
    base_quals: tuple[str, ...] = ()  # resolved project-class qualnames


class CallGraph:
    """The assembled graph plus its resolution bookkeeping."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, _ClassInfo] = {}
        self.edges: list[CallEdge] = []
        self.unresolved: list[UnresolvedCall] = []
        #: Call sites bound to targets outside the project.
        self.external_calls: int = 0
        #: Call sites bound to one or more project nodes.
        self.resolved_calls: int = 0
        #: Functions that run on worker threads/processes: every
        #: ``@task_handler`` def plus every resolved fan-out callable.
        self.worker_roots: set[str] = set()
        #: display path -> SourceFile, for rules that re-scan bodies.
        self.sources: dict[str, SourceFile] = {}
        self._out: dict[str, list[CallEdge]] = {}
        self._in: dict[str, list[CallEdge]] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)
        self._in.setdefault(edge.callee, []).append(edge)

    def edges_from(self, qualname: str) -> list[CallEdge]:
        return self._out.get(qualname, [])

    def edges_to(self, qualname: str) -> list[CallEdge]:
        return self._in.get(qualname, [])

    def source_of(self, info: FunctionInfo) -> SourceFile | None:
        return self.sources.get(info.path)

    def subclasses_of(self, class_qual: str) -> list[str]:
        """All transitive project subclasses of ``class_qual``."""
        direct: dict[str, list[str]] = {}
        for cls in self.classes.values():
            for base in cls.base_quals:
                direct.setdefault(base, []).append(cls.qualname)
        out: list[str] = []
        frontier = [class_qual]
        while frontier:
            current = frontier.pop()
            for sub in direct.get(current, ()):
                if sub not in out:
                    out.append(sub)
                    frontier.append(sub)
        return sorted(out)

    # ------------------------------------------------------------------
    # stats and serialization
    # ------------------------------------------------------------------
    @property
    def total_call_sites(self) -> int:
        return (self.resolved_calls + self.external_calls
                + len(self.unresolved))

    @property
    def resolution_ratio(self) -> float:
        """Share of call sites bound to a project target or proven
        external — the number the ≥90% acceptance gate watches."""
        total = self.total_call_sites
        if total == 0:
            return 1.0
        return 1.0 - len(self.unresolved) / total

    def stats(self) -> dict:
        kinds: dict[str, int] = {}
        for edge in self.edges:
            kinds[edge.kind] = kinds.get(edge.kind, 0) + 1
        return {
            "functions": len(self.functions),
            "classes": len(self.classes),
            "edges": len(self.edges),
            "edge_kinds": dict(sorted(kinds.items())),
            "call_sites": self.total_call_sites,
            "resolved": self.resolved_calls,
            "external": self.external_calls,
            "unresolved": len(self.unresolved),
            "resolution_ratio": round(self.resolution_ratio, 4),
            "worker_roots": len(self.worker_roots),
        }

    def to_json(self) -> str:
        payload = {
            "stats": self.stats(),
            "functions": [
                {"qualname": info.qualname, "path": info.path,
                 "line": info.lineno, "class": info.cls,
                 "task_handler": info.is_task_handler}
                for _, info in sorted(self.functions.items())],
            "edges": [
                {"caller": e.caller, "callee": e.callee,
                 "line": e.line, "kind": e.kind}
                for e in sorted(self.edges, key=lambda e: (
                    e.caller, e.line, e.callee, e.kind))],
            "unresolved": [
                {"caller": u.caller, "line": u.line, "text": u.text,
                 "reason": u.reason}
                for u in sorted(self.unresolved, key=lambda u: (
                    u.caller, u.line, u.text))],
            "worker_roots": sorted(self.worker_roots),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        """GraphViz form (resolved edges only; refs dashed)."""
        lines = ["digraph callgraph {", "  rankdir=LR;",
                 '  node [shape=box, fontsize=9];']
        for qualname in sorted(self.functions):
            label = qualname
            if qualname.startswith(PROJECT_ROOT + "."):
                label = qualname[len(PROJECT_ROOT) + 1:]
            shape = (', style=filled, fillcolor="#ffe0b2"'
                     if qualname in self.worker_roots else "")
            lines.append(f'  "{qualname}" [label="{label}"{shape}];')
        for edge in sorted(set(self.edges), key=lambda e: (
                e.caller, e.callee, e.kind)):
            style = ' [style=dashed]' if edge.kind == "ref" else ""
            lines.append(f'  "{edge.caller}" -> "{edge.callee}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CallGraph {len(self.functions)} functions, "
                f"{len(self.edges)} edges, "
                f"{len(self.unresolved)} unresolved>")


# ---------------------------------------------------------------------------
# module naming
# ---------------------------------------------------------------------------

def module_name(display: str) -> str | None:
    """``repro.core.matching`` for ``src/repro/core/matching.py``;
    ``None`` for files outside the project package."""
    parts = display.replace("\\", "/").split("/")
    if PROJECT_ROOT not in parts:
        return None
    parts = parts[parts.index(PROJECT_ROOT):]
    if not parts[-1].endswith(".py"):
        return None
    last = parts[-1][:-3]
    parts = parts[:-1] if last == "__init__" else parts[:-1] + [last]
    return ".".join(parts)


def _is_package(display: str) -> bool:
    return display.endswith("__init__.py")


# ---------------------------------------------------------------------------
# pass 1: definitions and imports
# ---------------------------------------------------------------------------

@dataclass
class _ModuleInfo:
    name: str
    display: str
    is_package: bool
    #: top-level name -> ("func"|"class", qualname) or ("import", target)
    scope: dict[str, tuple[str, str]] = field(default_factory=dict)


def _decorator_names(node: ast.AST) -> tuple[str, ...]:
    names = []
    for dec in getattr(node, "decorator_list", ()):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted(target)
        if name:
            names.append(name)
    return tuple(names)


def _collect_module(graph: CallGraph, mod: _ModuleInfo,
                    source: SourceFile) -> None:
    """Register every def/class/import of one module."""
    assert source.tree is not None
    graph.sources[source.display] = source

    def visit(body: Iterable[ast.stmt], prefix: str,
              cls: str | None, top_level: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                graph.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=mod.name, name=node.name,
                    path=source.display, lineno=node.lineno,
                    end_lineno=node.end_lineno or node.lineno, cls=cls,
                    decorators=_decorator_names(node), node=node)
                if top_level:
                    mod.scope[node.name] = ("func", qualname)
                if cls is not None and cls in graph.classes:
                    graph.classes[cls].methods[node.name] = qualname
                visit(node.body, qualname, None, False)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}"
                bases = tuple(name for name in
                              (dotted(base) for base in node.bases)
                              if name)
                graph.classes[qualname] = _ClassInfo(
                    qualname=qualname, module=mod.name, bases=bases)
                if top_level:
                    mod.scope[node.name] = ("class", qualname)
                visit(node.body, qualname, qualname, False)
            elif isinstance(node, ast.Import) and top_level:
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    mod.scope[local] = ("import", target)
            elif isinstance(node, ast.ImportFrom) and top_level:
                base = _import_base(mod, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else \
                        alias.name
                    mod.scope[local] = ("import", target)
            elif isinstance(node, (ast.If, ast.Try)) and top_level:
                # TYPE_CHECKING / fallback-import blocks still bind
                # top-level names.
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom,
                                        ast.FunctionDef,
                                        ast.AsyncFunctionDef,
                                        ast.ClassDef)):
                        visit([sub], prefix, cls, top_level)

    visit(source.tree.body, mod.name, None, True)


def _import_base(mod: _ModuleInfo, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` names."""
    if not node.level:
        return node.module or ""
    parts = mod.name.split(".")
    # A package's relative level 1 is itself; a module's is its parent.
    keep = len(parts) - node.level + (1 if mod.is_package else 0)
    base = ".".join(parts[:max(keep, 0)])
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base


# ---------------------------------------------------------------------------
# pass 2: global name resolution
# ---------------------------------------------------------------------------

class _Resolver:
    """Binds dotted spellings to project functions/classes."""

    def __init__(self, graph: CallGraph,
                 modules: dict[str, _ModuleInfo]) -> None:
        self.graph = graph
        self.modules = modules
        #: method name -> every project method qualname defining it.
        self.method_index: dict[str, list[str]] = {}
        for cls in graph.classes.values():
            for name, qualname in cls.methods.items():
                self.method_index.setdefault(name, []).append(qualname)
        for candidates in self.method_index.values():
            candidates.sort()

    # -- dotted-path resolution -------------------------------------
    def resolve_path(self, target: str,
                     depth: int = _IMPORT_DEPTH) -> tuple[str, str] | None:
        """``("func"|"class"|"module"|"external", qualname)`` for an
        absolute dotted path, following re-export chains."""
        if depth <= 0:
            return None
        if not target.startswith(PROJECT_ROOT):
            return ("external", target)
        if target in self.graph.functions:
            return ("func", target)
        if target in self.graph.classes:
            return ("class", target)
        if target in self.modules:
            # A submodule can be shadowed by a same-named re-export in
            # the package __init__ (``from .tokenize import tokenize``
            # makes ``from ..text import tokenize`` bind the function,
            # not the module) — prefer the package-scope binding.
            head, _, attr = target.rpartition(".")
            parent = self.modules.get(head)
            if parent is not None and attr in parent.scope:
                entry_kind, entry_target = parent.scope[attr]
                if entry_kind == "import" and entry_target != target:
                    resolved = self.resolve_path(entry_target, depth - 1)
                    if resolved is not None and \
                            resolved[0] in ("func", "class"):
                        return resolved
                elif entry_kind in ("func", "class"):
                    return (entry_kind, entry_target)
            return ("module", target)
        head, _, attr = target.rpartition(".")
        if not head:
            return None
        # Class attribute: Class.method.
        resolved_head = self.resolve_path(head, depth - 1)
        if resolved_head is None:
            return None
        kind, qualname = resolved_head
        if kind == "class":
            method = self.mro_method(qualname, attr)
            return ("func", method) if method else None
        if kind == "module":
            entry = self.modules[qualname].scope.get(attr)
            if entry is None:
                return None
            entry_kind, entry_target = entry
            if entry_kind == "import":
                return self.resolve_path(entry_target, depth - 1)
            return (entry_kind, entry_target)
        if kind == "external":
            return ("external", target)
        return None

    # -- class machinery --------------------------------------------
    def link_bases(self) -> None:
        """Resolve each class's base spellings to project classes."""
        for cls in self.graph.classes.values():
            mod = self.modules.get(cls.module)
            quals = []
            for base in cls.bases:
                resolved = self._resolve_in_module(mod, base)
                if resolved and resolved[0] == "class":
                    quals.append(resolved[1])
            cls.base_quals = tuple(quals)

    def _resolve_in_module(self, mod: _ModuleInfo | None,
                           name: str) -> tuple[str, str] | None:
        """Resolve a dotted spelling in a module's top-level scope."""
        if mod is None:
            return None
        head, _, rest = name.partition(".")
        entry = mod.scope.get(head)
        if entry is None:
            if head in _BUILTIN_NAMES:
                return ("external", name)
            return None
        kind, target = entry
        if kind == "import":
            full = f"{target}.{rest}" if rest else target
            return self.resolve_path(full)
        full = f"{target}.{rest}" if rest else target
        return self.resolve_path(full) if rest else (kind, target)

    def mro_method(self, class_qual: str, method: str,
                   depth: int = 8) -> str | None:
        """The defining qualname of ``method`` on the project MRO."""
        if depth <= 0 or class_qual not in self.graph.classes:
            return None
        cls = self.graph.classes[class_qual]
        if method in cls.methods:
            return cls.methods[method]
        for base in cls.base_quals:
            found = self.mro_method(base, method, depth - 1)
            if found:
                return found
        return None

    def dispatch_targets(self, class_qual: str,
                         method: str) -> list[str]:
        """The MRO resolution plus every subclass override — the
        virtual-dispatch over-approximation."""
        targets = []
        base = self.mro_method(class_qual, method)
        if base:
            targets.append(base)
        for sub in self.graph.subclasses_of(class_qual):
            override = self.graph.classes[sub].methods.get(method)
            if override and override not in targets:
                targets.append(override)
        return targets


# ---------------------------------------------------------------------------
# pass 3: call-site resolution
# ---------------------------------------------------------------------------

def _own_statements(fn: ast.AST) -> Iterator[ast.AST]:
    """Every node in a function's own body, *excluding* nested
    function/class definitions (they are their own graph nodes) but
    *including* lambda bodies and comprehensions."""
    stack = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # The def node itself is visible (it binds a name) but its
            # body belongs to its own graph node.
            continue
        stack.extend(ast.iter_child_nodes(node))


def iter_own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Public alias of the own-body walker used by the lattices."""
    return _own_statements(fn)


def _local_aliases(fn: ast.AST,
                   env: dict[str, str]) -> dict[str, str]:
    """One-step callable aliases bound inside ``fn``:
    ``g = f`` and ``g = functools.partial(f, ...)`` where ``f`` is a
    visible project function."""
    aliases: dict[str, str] = {}
    for node in _own_statements(fn):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        value = node.value
        if isinstance(value, ast.Call) and _is_partial(value.func):
            value = value.args[0] if value.args else None
        if isinstance(value, ast.Name) and value.id in env:
            aliases[node.targets[0].id] = env[value.id]
    return aliases


def _is_partial(func: ast.AST) -> bool:
    name = dotted(func)
    return name in ("partial", "functools.partial")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _CallScanner:
    """Resolves every call site of one function body."""

    def __init__(self, resolver: _Resolver, mod: _ModuleInfo,
                 caller: str, fn: ast.AST, cls: str | None,
                 env: dict[str, str]) -> None:
        self.resolver = resolver
        self.graph = resolver.graph
        self.mod = mod
        self.caller = caller
        self.fn = fn
        self.cls = cls
        self.env = dict(env)
        self.env.update(_local_aliases(fn, self.env))
        self.params = self._param_names(fn)

    @staticmethod
    def _is_super_call(value: ast.AST) -> bool:
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "super")

    @staticmethod
    def _param_names(fn: ast.AST) -> set[str]:
        args = getattr(fn, "args", None)
        if args is None:
            return set()
        names = {a.arg for a in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs)}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names

    # ------------------------------------------------------------------
    def scan(self) -> None:
        seen_refs: set[tuple[str, int]] = set()
        for node in _own_statements(self.fn):
            if isinstance(node, ast.Call):
                self._resolve_call(node)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                self._maybe_ref(node, seen_refs)

    # -- callable references -----------------------------------------
    def _maybe_ref(self, node: ast.AST, seen: set) -> None:
        """A project function referenced outside call position becomes
        a ``ref`` edge — callbacks cannot hide taint."""
        parent_call = getattr(node, "_lsd_call_func", False)
        if parent_call:
            return
        if isinstance(node, ast.Name):
            target = self.env.get(node.id)
            if target and target in self.graph.functions:
                key = (target, node.lineno)
                if key not in seen:
                    seen.add(key)
                    self.graph.add_edge(CallEdge(
                        self.caller, target, node.lineno, "ref"))
        elif isinstance(node, ast.Attribute):
            name = dotted(node)
            if name is None:
                return
            resolved = self.resolver._resolve_in_module(self.mod, name)
            if resolved and resolved[0] == "func":
                key = (resolved[1], node.lineno)
                if key not in seen:
                    seen.add(key)
                    self.graph.add_edge(CallEdge(
                        self.caller, resolved[1], node.lineno, "ref"))

    # -- call sites ---------------------------------------------------
    def _resolve_call(self, node: ast.Call) -> None:
        func = node.func
        # Mark the func expression (and its chain) so the ref pass does
        # not double-count call positions.
        for sub in ast.walk(func):
            sub._lsd_call_func = True  # type: ignore[attr-defined]

        if _is_partial(func):
            self.graph.resolved_calls += 1
            if node.args:
                self._edge_for_callable(node.args[0], node.lineno,
                                        "partial")
            return
        if isinstance(func, ast.Attribute) and \
                func.attr in FANOUT_METHODS and node.args:
            # Fan-out: resolve the method call itself as usual below,
            # and the mapped callable as a worker root.
            for target in self._callable_targets(node.args[0]):
                self.graph.worker_roots.add(target)
                self.graph.add_edge(CallEdge(
                    self.caller, target, node.lineno, "fanout"))

        if isinstance(func, ast.Name):
            self._resolve_name_call(node, func)
        elif isinstance(func, ast.Attribute):
            self._resolve_attr_call(node, func)
        elif isinstance(func, ast.Lambda):
            self.graph.resolved_calls += 1  # body scanned in place
        else:
            self._unresolved(node, "computed callee")

    def _resolve_name_call(self, node: ast.Call,
                           func: ast.Name) -> None:
        name = func.id
        target = self.env.get(name)
        if target is not None:
            resolved = self.resolver.resolve_path(target)
            if resolved is None:
                self._unresolved(node, "unresolvable import")
                return
            kind, qualname = resolved
            if kind == "func":
                self._add(node, qualname, "direct")
            elif kind == "class":
                self._class_init(node, qualname)
            elif kind == "external":
                self.graph.external_calls += 1
            else:  # calling a module — nonsense, count unresolved
                self._unresolved(node, "module called")
            return
        if name in self.params:
            self._unresolved(node, "callable parameter")
            return
        if name in _BUILTIN_NAMES:
            self.graph.external_calls += 1
            return
        self._unresolved(node, "unknown name")

    def _resolve_attr_call(self, node: ast.Call,
                           func: ast.Attribute) -> None:
        parts = chain_parts(func)
        method = func.attr
        if parts and parts[0] in ("self", "cls") and self.cls and \
                len(parts) == 2:
            targets = self.resolver.dispatch_targets(self.cls, method)
            if targets:
                kind = "method" if len(targets) == 1 else "dispatch"
                self._add_many(node, targets, kind)
            else:
                # Inherited from an external base (ABC helpers etc.).
                self.graph.external_calls += 1
            return
        if self._is_super_call(func.value):
            # super().m() binds up the *enclosing* class's MRO — never
            # closed-world dispatch (which would wire every __init__ in
            # the project together).
            targets = []
            if self.cls and self.cls in self.graph.classes:
                for base in self.graph.classes[self.cls].base_quals:
                    found = self.resolver.mro_method(base, method)
                    if found and found not in targets:
                        targets.append(found)
            if targets:
                self._add_many(node, targets, "method")
            else:  # object.__init__ / an external base's method
                self.graph.external_calls += 1
            return
        name = dotted(func)
        if name is not None:
            resolved = self.resolver._resolve_in_module(self.mod, name)
            if resolved is not None:
                kind, qualname = resolved
                if kind == "func":
                    self._add(node, qualname, "direct")
                elif kind == "class":
                    self._class_init(node, qualname)
                elif kind == "external":
                    self.graph.external_calls += 1
                else:
                    self._unresolved(node, "module called")
                return
        # Receiver of unknown type: closed-world method-name dispatch.
        # Dunders are exempt — ``x.__init__()`` spellings are not how
        # project constructors run, and indexing them would wire every
        # class in the project together.
        candidates = [] if _is_dunder(method) else \
            self.resolver.method_index.get(method, [])
        if candidates:
            self._add_many(node, candidates, "dispatch")
        else:
            # No project class defines the method — the call cannot
            # enter project code (getattr tricks aside).
            self.graph.external_calls += 1

    def _class_init(self, node: ast.Call, class_qual: str) -> None:
        init = self.resolver.mro_method(class_qual, "__init__")
        self.graph.resolved_calls += 1
        if init is not None:
            self.graph.add_edge(CallEdge(
                self.caller, init, node.lineno, "init"))

    # -- argument callables ------------------------------------------
    def _callable_targets(self, arg: ast.AST) -> list[str]:
        """Project functions a callable argument can invoke: a named
        function, ``partial(f, ...)``, or — one step — every function
        a lambda body directly calls."""
        if isinstance(arg, ast.Call) and _is_partial(arg.func):
            arg = arg.args[0] if arg.args else arg
        if isinstance(arg, ast.Lambda):
            targets = []
            for sub in ast.walk(arg.body):
                if isinstance(sub, ast.Call):
                    targets.extend(self._callable_targets(sub.func))
            return targets
        if isinstance(arg, ast.Name):
            target = self.env.get(arg.id)
            if target:
                resolved = self.resolver.resolve_path(target)
                if resolved and resolved[0] == "func":
                    return [resolved[1]]
            return []
        if isinstance(arg, ast.Attribute):
            name = dotted(arg)
            if name:
                resolved = self.resolver._resolve_in_module(
                    self.mod, name)
                if resolved and resolved[0] == "func":
                    return [resolved[1]]
            parts = chain_parts(arg)
            if parts and parts[0] in ("self", "cls") and self.cls:
                return self.resolver.dispatch_targets(
                    self.cls, arg.attr)
        return []

    def _edge_for_callable(self, arg: ast.AST, line: int,
                           kind: str) -> None:
        for target in self._callable_targets(arg):
            self.graph.add_edge(CallEdge(self.caller, target, line,
                                         kind))

    # -- bookkeeping --------------------------------------------------
    def _add(self, node: ast.Call, qualname: str, kind: str) -> None:
        self.graph.resolved_calls += 1
        self.graph.add_edge(CallEdge(self.caller, qualname,
                                     node.lineno, kind))
        # Higher-order arguments: a callable handed to a project
        # function is (over-approximately) invoked *by* it, so the
        # receiving function gets the edge. This is what lets a
        # FaultInjected handler around ``write()`` in a helper count
        # as covering the faults its callback raises.
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            for target in self._callable_targets(arg):
                self.graph.add_edge(CallEdge(qualname, target,
                                             node.lineno, "ref"))

    def _add_many(self, node: ast.Call, qualnames: Sequence[str],
                  kind: str) -> None:
        self.graph.resolved_calls += 1
        for qualname in qualnames:
            self.graph.add_edge(CallEdge(self.caller, qualname,
                                         node.lineno, kind))

    def _unresolved(self, node: ast.Call, reason: str) -> None:
        try:
            text = ast.unparse(node.func)
        except (ValueError, RecursionError):  # pragma: no cover
            text = "<unprintable>"
        self.graph.unresolved.append(UnresolvedCall(
            self.caller, node.lineno, text[:80], reason))


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------

def build_graph(sources: Sequence[SourceFile]) -> CallGraph:
    """Assemble the project call graph from parsed sources.

    Only files under the ``repro`` package participate; tests and
    benchmarks see the graph through entry points, never as nodes.
    """
    graph = CallGraph()
    modules: dict[str, _ModuleInfo] = {}
    project: list[tuple[_ModuleInfo, SourceFile]] = []
    for source in sources:
        if source.tree is None:
            continue
        name = module_name(source.display)
        if name is None:
            continue
        mod = _ModuleInfo(name=name, display=source.display,
                          is_package=_is_package(source.display))
        modules[name] = mod
        project.append((mod, source))

    for mod, source in project:
        _collect_module(graph, mod, source)

    resolver = _Resolver(graph, modules)
    resolver.link_bases()

    for mod, source in project:
        assert source.tree is not None
        _scan_scopes(resolver, mod, source)

    for info in graph.functions.values():
        if info.is_task_handler:
            graph.worker_roots.add(info.qualname)
    return graph


def _scan_scopes(resolver: _Resolver, mod: _ModuleInfo,
                 source: SourceFile) -> None:
    """Walk one module's scopes, building each function's visible-name
    environment, then scanning its call sites."""
    graph = resolver.graph

    base_env: dict[str, str] = {}
    for name, (kind, target) in mod.scope.items():
        base_env[name] = target if kind == "import" else target

    module_node = f"{mod.name}.<module>"
    graph.functions.setdefault(module_node, FunctionInfo(
        qualname=module_node, module=mod.name, name="<module>",
        path=source.display, lineno=1,
        end_lineno=len(source.lines) or 1,
        node=source.tree))

    def recurse(body: Iterable[ast.stmt], prefix: str,
                cls: str | None, env: dict[str, str]) -> None:
        local_env = dict(env)
        # Sibling defs are visible to each other regardless of order.
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                local_env[node.name] = f"{prefix}.{node.name}"
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                child_env = dict(local_env)
                # The function's own nested defs are callable from its
                # body (closures like fan_out/quarantine).
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef,
                                        ast.ClassDef)):
                        child_env[sub.name] = f"{qualname}.{sub.name}"
                scanner = _CallScanner(
                    resolver, mod, qualname, node,
                    cls, child_env)
                scanner.scan()
                recurse(node.body, qualname, None, scanner.env)
            elif isinstance(node, ast.ClassDef):
                recurse(node.body, f"{prefix}.{node.name}",
                        f"{prefix}.{node.name}", local_env)

    # Module-level code (registration calls, table building).
    module_fn = ast.Module(body=list(source.tree.body),
                           type_ignores=[])
    shim = ast.FunctionDef(
        name="<module>", args=ast.arguments(
            posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[],
            defaults=[]),
        body=[stmt for stmt in module_fn.body],
        decorator_list=[], returns=None)
    _CallScanner(resolver, mod, module_node, shim, None,
                 base_env).scan()
    recurse(source.tree.body, mod.name, None, base_env)
