"""Determinism rule.

The repo's headline guarantee — byte-identical matching output at any
``--workers`` count, and reproducible experiments at a fixed seed —
only holds while no code path lets the iteration order of a set, or
OS entropy, into its output. Both change from one interpreter run to
the next (set order with ``PYTHONHASHSEED``), and a code path whose
order matters only on some inputs passes every test that never feeds
it those inputs, so ``set-iteration`` flags each at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .astutil import dotted, names_imported_from
from .engine import Rule, SourceFile, register
from .findings import Finding

#: OS-entropy reads: no seed pins them.
_ENTROPY_CALLS = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}

#: Wrapping calls that preserve the set's (arbitrary) iteration order.
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate", "iter",
                             "join"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _entropy_names(tree: ast.Module) -> dict[str, str]:
    """Local call spelling -> ``module.function`` for every entropy
    read, including ``from os import urandom``-style imports."""
    names = {name: name for name in _ENTROPY_CALLS}
    for module in ("os", "uuid"):
        for local, original in names_imported_from(tree, module).items():
            if f"{module}.{original}" in _ENTROPY_CALLS:
                names[local] = f"{module}.{original}"
    return names


@register
class SetIterationRule(Rule):
    """Iterating a set feeds its arbitrary order into whatever consumes
    the loop — wrap in ``sorted(...)`` before anything ordered sees it.
    OS entropy (``os.urandom``, ``uuid.uuid1/4``) differs on every run,
    so it is flagged wherever it is read."""

    id = "set-iteration"
    severity = "warning"
    description = ("iteration over a set feeding ordered output (wrap "
                   "the set in sorted(...)), or an OS-entropy read "
                   "(os.urandom, uuid.uuid1/uuid4)")

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        assert source.tree is not None
        entropy = _entropy_names(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.finding(
                    source, node.iter, "for-loop over a set has "
                    "arbitrary order; iterate sorted(...) instead")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield self.finding(
                            source, comp.iter, "comprehension over a "
                            "set produces arbitrary order; iterate "
                            "sorted(...) instead")
            elif isinstance(node, ast.Call):
                yield from self._check_call(source, node, entropy)

    def _check_call(self, source: SourceFile, node: ast.Call,
                    entropy: dict[str, str]) -> Iterable[Finding]:
        name = dotted(node.func)
        if name in entropy:
            yield self.finding(
                source, node, f"{entropy[name]}() draws OS entropy "
                f"into the run; derive it from the run's inputs")
        elif isinstance(node.func, (ast.Name, ast.Attribute)):
            func = node.func.id if isinstance(node.func, ast.Name) \
                else node.func.attr
            if func in _ORDER_SENSITIVE_WRAPPERS and node.args and \
                    _is_set_expr(node.args[0]):
                yield self.finding(
                    source, node, f"{func}(set) captures the set's "
                    f"arbitrary order; use sorted(...)")
