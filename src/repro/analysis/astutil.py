"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def call_arg_string(node: ast.Call, index: int = 0) -> str | None:
    """The ``index``-th positional argument if it is a string literal."""
    if len(node.args) > index:
        arg = node.args[index]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def names_imported_from(tree: ast.Module, module: str) -> dict[str, str]:
    """``local name -> original name`` for ``from <module> import ...``."""
    imported: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    return imported


def contains_raise(node: ast.AST) -> bool:
    """Whether any ``raise`` statement appears under ``node``."""
    return any(isinstance(child, ast.Raise) for child in ast.walk(node))
