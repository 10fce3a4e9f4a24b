"""Observability-hygiene rules.

Two invariants keep the observability layer honest:

* **metric-catalogue** — every metric name emitted through a registry
  (``obs.metrics.counter(...)`` / ``gauge`` / ``histogram``) appears in
  ``repro.observability.metrics.CATALOGUE`` with the matching
  instrument kind, and every catalogued metric is actually emitted
  somewhere. The catalogue is the documented vocabulary reports and
  dashboards consume; silent drift in either direction makes it lie.
* **span-unclosed** — ``trace.span(...)`` is only useful as a context
  manager: entered and exited on every path, including exceptions. A
  span opened without ``with`` never lands in the collector (or lands
  with a bogus duration), so the rule flags any ``.span(...)`` call
  that is not a ``with`` item.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from .astutil import call_arg_string
from .engine import Rule, SourceFile, register
from .findings import Finding

#: Registry methods that name a metric as their first argument.
_REGISTRY_METHODS = {"counter": "counter", "gauge": "gauge",
                     "histogram": "histogram"}

#: The file (path suffix) declaring the catalogue.
_METRICS_MODULE = "observability/metrics.py"


def _parse_catalogue(source: SourceFile
                     ) -> tuple[dict[str, str], dict[str, int], int]:
    """``(name -> kind, name -> declaration line, CATALOGUE line)``
    from the metrics module's AST."""
    assert source.tree is not None
    constants: dict[str, str] = {}
    const_lines: dict[str, int] = {}
    for node in source.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id.startswith("M_") and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            constants[node.targets[0].id] = node.value.value
            const_lines[node.targets[0].id] = node.lineno

    catalogue: dict[str, str] = {}
    lines: dict[str, int] = {}
    catalogue_line = 0
    for node in source.tree.body:
        if not (isinstance(node, (ast.Assign, ast.AnnAssign))):
            continue
        targets = getattr(node, "targets", None) or [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "CATALOGUE"
                   for t in targets):
            continue
        catalogue_line = node.lineno
        value = node.value
        if not isinstance(value, ast.Dict):
            break
        for key, entry in zip(value.keys, value.values):
            if isinstance(key, ast.Name) and key.id in constants:
                name = constants[key.id]
            elif isinstance(key, ast.Constant) and \
                    isinstance(key.value, str):
                name = key.value
            else:
                continue
            kind = ""
            if isinstance(entry, ast.Tuple) and entry.elts and \
                    isinstance(entry.elts[0], ast.Constant):
                kind = str(entry.elts[0].value)
            catalogue[name] = kind
            lines[name] = key.lineno
    # Findings for undeclared metrics point at the constant if there is
    # one, else at the CATALOGUE declaration.
    lines.update({value: const_lines[key]
                  for key, value in constants.items()
                  if value not in lines})
    return catalogue, lines, catalogue_line


def _emitted_metrics(source: SourceFile, constants: dict[str, str]
                     ) -> Iterable[tuple[ast.Call, str, str]]:
    """``(call, metric name, registry kind)`` for every resolvable
    registry emission in the file."""
    assert source.tree is not None
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REGISTRY_METHODS
                and node.args):
            continue
        arg = node.args[0]
        name = call_arg_string(node)
        if name is None:
            ident = None
            if isinstance(arg, ast.Name):
                ident = arg.id
            elif isinstance(arg, ast.Attribute):
                ident = arg.attr
            if ident is None or ident not in constants:
                continue  # dynamic name — not statically checkable
            name = constants[ident]
        yield node, name, _REGISTRY_METHODS[node.func.attr]


@register
class MetricCatalogueRule(Rule):
    """The metric vocabulary and the code must agree, both ways."""

    id = "metric-catalogue"
    severity = "error"
    description = ("metric emitted but missing from metrics.CATALOGUE, "
                   "kind mismatch, or catalogued metric never emitted")

    def check_project(self,
                      sources: Sequence[SourceFile]) -> Iterable[Finding]:
        metrics_module = next(
            (source for source in sources
             if source.display.endswith(_METRICS_MODULE)), None)
        if metrics_module is None:
            return  # catalogue not part of this run's file set
        catalogue, decl_lines, catalogue_line = _parse_catalogue(
            metrics_module)
        constants = {
            name: value for name, value in _module_constants(
                metrics_module).items()}
        used: set[str] = set()
        for source in sources:
            in_metrics_module = source is metrics_module
            imported = _imported_metric_constants(source, constants)
            if not in_metrics_module:
                # Any reference to an M_* constant counts as usage for
                # the never-emitted direction — emissions through
                # lookup tables (e.g. the constraint handler's
                # stat->metric dict) are beyond static resolution.
                used.update(_referenced_constants(source, imported))
            # Scratch registries in tests/benchmarks may emit throwaway
            # names; the catalogue contract binds pipeline code only.
            exercises_registry = source.in_package("tests",
                                                   "benchmarks")
            for call, name, kind in _emitted_metrics(
                    source, imported if not in_metrics_module
                    else constants):
                used.add(name)
                if exercises_registry:
                    continue
                if name not in catalogue:
                    yield self.finding(
                        source, call,
                        f"metric {name!r} is emitted but not declared "
                        f"in metrics.CATALOGUE")
                elif catalogue[name] and catalogue[name] != kind:
                    yield self.finding(
                        source, call,
                        f"metric {name!r} is catalogued as a "
                        f"{catalogue[name]} but emitted via "
                        f".{kind}()")
        for name in sorted(set(catalogue).difference(used)):
            yield self.finding(
                metrics_module,
                decl_lines.get(name, catalogue_line),
                f"metric {name!r} is declared in CATALOGUE but never "
                f"emitted in the analyzed files")


def _module_constants(source: SourceFile) -> dict[str, str]:
    assert source.tree is not None
    constants: dict[str, str] = {}
    for node in source.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id.startswith("M_") and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            constants[node.targets[0].id] = node.value.value
    return constants


def _referenced_constants(source: SourceFile,
                          visible: dict[str, str]) -> set[str]:
    """Metric names whose ``M_*`` constant is referenced (loaded) in
    the file."""
    assert source.tree is not None
    referenced: set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Name) and node.id in visible:
            referenced.add(visible[node.id])
        elif isinstance(node, ast.Attribute) and node.attr in visible:
            referenced.add(visible[node.attr])
    return referenced


def _imported_metric_constants(source: SourceFile,
                               constants: dict[str, str]
                               ) -> dict[str, str]:
    """``M_*`` names visible in ``source`` (imported under any alias)."""
    assert source.tree is not None
    visible: dict[str, str] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in constants:
                    visible[alias.asname or alias.name] = \
                        constants[alias.name]
    # An attribute access like ``metrics.M_FOO`` resolves by attr name.
    visible.update(constants)
    return visible


@register
class SpanUnclosedRule(Rule):
    """``.span(...)`` must be a ``with`` item, or exits leak."""

    id = "span-unclosed"
    severity = "error"
    description = ("trace.span(...) opened outside a with statement — "
                   "the span would never close on error paths")

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        assert source.tree is not None
        with_items: set[int] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "span" and \
                    id(node) not in with_items:
                yield self.finding(
                    source, node,
                    "span opened outside a 'with' statement; use "
                    "'with trace.span(...):' so it closes on all paths")
