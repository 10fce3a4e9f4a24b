"""Garbage-collector tuning rule.

A full collection that lands inside an op shows up in its latency.
Switching the collector off, freezing the heap or raising its
thresholds hides the pause without removing the allocations that cause
it, and leaves every other caller of the library with the tuned
collector. The fix is fewer long-lived container objects, so
``gc-tuning`` flags each such call in program and benchmark code.
Tests may still drive the collector to probe it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .astutil import dotted, names_imported_from
from .engine import Rule, SourceFile, register
from .findings import Finding

#: The ``gc`` functions that tune the collector rather than observe it.
_TUNING = ("disable", "freeze", "set_threshold")


def _tuning_names(tree: ast.Module) -> dict[str, str]:
    """Local call spelling -> ``gc.function`` for every tuning call,
    including ``import gc as x`` and ``from gc import ...`` spellings."""
    modules = {"gc"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == "gc" and alias.asname)
    names = {f"{module}.{function}": f"gc.{function}"
             for module in modules for function in _TUNING}
    for local, original in names_imported_from(tree, "gc").items():
        if original in _TUNING:
            names[local] = f"gc.{original}"
    return names


@register
class GcTuningRule(Rule):
    """Tuning the cyclic collector hides allocation costs; cut the
    long-lived objects instead. Files under ``tests`` are exempt."""

    id = "gc-tuning"
    severity = "error"
    description = ("gc.disable, gc.freeze or gc.set_threshold outside "
                   "tests (cut long-lived allocations instead)")

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        assert source.tree is not None
        if source.in_package("tests"):
            return
        names = _tuning_names(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                name = names.get(dotted(node.func) or "")
                if name is not None:
                    yield self.finding(
                        source, node, f"{name}() tunes the garbage "
                        f"collector; reduce the allocations instead")
