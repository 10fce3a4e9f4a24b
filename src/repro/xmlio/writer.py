"""Serialize :mod:`repro.xmlio.tree` models and DTDs back to text.

Round-tripping is exercised heavily by the property-based tests: for any
tree built from legal names/text, ``parse(write(tree))`` must reproduce the
tree.
"""

from __future__ import annotations

from .dtd import (Any, AttributeDecl, Choice, ContentModel, DTD, Empty,
                  NameRef, PCData, Sequence)
from .tree import Document, Element, Text


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    # "&" first, so the "&" of an escape is never escaped again.
    return value.replace("&", "&amp;").replace("<", "&lt;") \
        .replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return escape_text(value).replace('"', "&quot;")


def write_element(node: Element, indent: int | None = None,
                  _level: int = 0) -> str:
    """Serialize an element subtree.

    ``indent=None`` produces compact output that round-trips exactly.
    ``indent=n`` pretty-prints with ``n`` spaces per level; elements with
    only text content stay on one line.
    """
    attrs = "".join(
        f' {name}="{escape_attribute(value)}"'
        for name, value in node.attributes.items())
    if not node.children:
        return f"<{node.tag}{attrs}/>"

    if indent is None:
        body = "".join(
            escape_text(c.value) if isinstance(c, Text)
            else write_element(c)
            for c in node.children)
        return f"<{node.tag}{attrs}>{body}</{node.tag}>"

    pad = " " * (indent * _level)
    child_pad = " " * (indent * (_level + 1))
    if all(isinstance(c, Text) for c in node.children):
        body = "".join(escape_text(c.value) for c in node.children
                       if isinstance(c, Text))
        return f"{pad}<{node.tag}{attrs}>{body}</{node.tag}>"
    lines = [f"{pad}<{node.tag}{attrs}>"]
    for child in node.children:
        if isinstance(child, Text):
            if child.value.strip():
                lines.append(child_pad + escape_text(child.value.strip()))
        else:
            lines.append(write_element(child, indent, _level + 1))
    lines.append(f"{pad}</{node.tag}>")
    return "\n".join(lines)


def write_document(document: Document, indent: int | None = None) -> str:
    """Serialize a document, emitting an XML declaration."""
    version = document.version or "1.0"
    parts = [f'<?xml version="{version}"?>']
    if document.doctype_name:
        if document.internal_subset:
            subset = document.internal_subset.strip()
            parts.append(
                f"<!DOCTYPE {document.doctype_name} [\n{subset}\n]>")
        else:
            parts.append(f"<!DOCTYPE {document.doctype_name}>")
    parts.append(write_element(document.root, indent))
    return "\n".join(parts) + "\n"


def write_content_model(model: ContentModel) -> str:
    """Serialize a content-model AST back to DTD syntax."""
    if isinstance(model, Empty):
        return "EMPTY"
    if isinstance(model, Any):
        return "ANY"
    if isinstance(model, (Sequence, Choice)):
        return _render_particle(model)
    # A bare particle must still be parenthesised in a declaration.
    return f"({_render_particle(model)})"


def _render_particle(model: ContentModel) -> str:
    if isinstance(model, PCData):
        return "#PCDATA"
    if isinstance(model, NameRef):
        return f"{model.name}{model.occurrence}"
    if isinstance(model, Sequence):
        inner = ", ".join(_render_particle(i) for i in model.items)
        return f"({inner}){model.occurrence}"
    if isinstance(model, Choice):
        inner = " | ".join(_render_particle(i) for i in model.items)
        return f"({inner}){model.occurrence}"
    raise TypeError(f"unknown content model node {model!r}")


def write_dtd(dtd: DTD) -> str:
    """Serialize a DTD as a sequence of declarations."""
    lines: list[str] = []
    for decl in dtd.elements.values():
        lines.append(
            f"<!ELEMENT {decl.name} {write_content_model(decl.model)}>")
        if decl.attributes:
            attr_lines = [f"<!ATTLIST {decl.name}"]
            for attr in decl.attributes.values():
                attr_lines.append(
                    f"    {attr.name} {attr.type} {_render_default(attr)}")
            attr_lines[-1] += ">"
            lines.extend(attr_lines)
    return "\n".join(lines) + "\n"


def _render_default(attr: AttributeDecl) -> str:
    if attr.default.startswith("#"):
        return attr.default
    return f'"{attr.default}"'
