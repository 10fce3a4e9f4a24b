"""Recursive-descent XML parser built on :class:`repro.xmlio.lexer.Scanner`.

Supports the subset of XML 1.0 that schema-matching workloads need:

* the XML declaration (``<?xml version="1.0" ...?>``),
* a ``<!DOCTYPE name [...]>`` declaration whose internal subset is captured
  verbatim (so :mod:`repro.xmlio.dtd` can parse it),
* elements with attributes, self-closing tags, nested elements,
* character data with predefined and numeric entity references,
* CDATA sections, comments, and processing instructions.

The parser produces the :class:`repro.xmlio.tree.Document` /
:class:`repro.xmlio.tree.Element` model. Whitespace-only text between
elements is dropped by default (``keep_whitespace=True`` keeps it), which is
the behaviour LSD wants when reading data listings.
"""

from __future__ import annotations

import re

from .lexer import CHAR_DATA, Scanner, decode_entity, is_name_start
from .tree import Document, Element

_BRACKET = re.compile(r"[\[\]]")


def parse_document(text: str, keep_whitespace: bool = False) -> Document:
    """Parse a complete XML document and return a :class:`Document`."""
    parser = _Parser(text, keep_whitespace=keep_whitespace)
    return parser.parse_document()


def parse_element(text: str, keep_whitespace: bool = False) -> Element:
    """Parse a single XML element (fragment) and return it."""
    return parse_document(text, keep_whitespace=keep_whitespace).root


def parse_fragments(text: str, keep_whitespace: bool = False) -> list[Element]:
    """Parse a sequence of sibling top-level elements.

    Data listings are often stored as one file containing many
    ``<listing>...</listing>`` elements without a shared root; this helper
    accepts that form directly.
    """
    parser = _Parser(text, keep_whitespace=keep_whitespace)
    return parser.parse_fragments()


class _Parser:
    """Internal recursive-descent machinery; use the module functions."""

    def __init__(self, text: str, keep_whitespace: bool = False,
                 start_line: int = 1, start_column: int = 1) -> None:
        self.scanner = Scanner(text, start_line, start_column)
        self.keep_whitespace = keep_whitespace
        self.doctype_name: str | None = None
        self.internal_subset: str | None = None
        self.version: str | None = None
        self.encoding: str | None = None

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def parse_document(self) -> Document:
        self._parse_prolog()
        root = self._parse_element()
        self._skip_misc()
        if not self.scanner.at_end:
            raise self.scanner.error("content after the root element")
        return Document(root, self.doctype_name, self.version,
                        self.encoding, self.internal_subset)

    def parse_fragments(self) -> list[Element]:
        self._parse_prolog()
        roots: list[Element] = []
        while True:
            self._skip_misc()
            if self.scanner.at_end:
                break
            roots.append(self._parse_element())
        if not roots:
            raise self.scanner.error("no elements found")
        return roots

    # ------------------------------------------------------------------
    # prolog
    # ------------------------------------------------------------------
    def _parse_prolog(self) -> None:
        scanner = self.scanner
        scanner.skip_whitespace()
        if scanner.looking_at("<?xml"):
            self._parse_xml_declaration()
        while True:
            scanner.skip_whitespace()
            if scanner.looking_at("<!--"):
                self._skip_comment()
            elif scanner.looking_at("<?"):
                scanner.advance(2)
                scanner.read_until("?>")
            elif scanner.looking_at("<!DOCTYPE"):
                self._parse_doctype()
            else:
                break

    def _parse_xml_declaration(self) -> None:
        scanner = self.scanner
        scanner.expect("<?xml")
        body = scanner.read_until("?>")
        for key, value in _parse_pseudo_attributes(body):
            if key == "version":
                self.version = value
            elif key == "encoding":
                self.encoding = value

    def _parse_doctype(self) -> None:
        scanner = self.scanner
        scanner.expect("<!DOCTYPE")
        scanner.skip_whitespace()
        self.doctype_name = scanner.read_name()
        scanner.skip_whitespace()
        # Optional external identifier (SYSTEM/PUBLIC) — recorded but unused.
        if scanner.looking_at("SYSTEM"):
            scanner.advance(len("SYSTEM"))
            scanner.skip_whitespace()
            scanner.read_quoted()
            scanner.skip_whitespace()
        elif scanner.looking_at("PUBLIC"):
            scanner.advance(len("PUBLIC"))
            scanner.skip_whitespace()
            scanner.read_quoted()
            scanner.skip_whitespace()
            scanner.read_quoted()
            scanner.skip_whitespace()
        if scanner.peek() == "[":
            scanner.advance()
            start = scanner.pos
            depth = 1
            while True:
                bracket = scanner.skip_to(_BRACKET)
                if bracket is None:
                    raise scanner.error("unterminated DOCTYPE internal subset")
                depth += 1 if bracket.group() == "[" else -1
                if depth == 0:
                    break
                scanner.advance()
            self.internal_subset = scanner.text[start:scanner.pos]
            scanner.expect("]")
            scanner.skip_whitespace()
        scanner.expect(">")

    # ------------------------------------------------------------------
    # elements
    # ------------------------------------------------------------------
    def _parse_element(self) -> Element:
        scanner = self.scanner
        location = scanner.location()
        scanner.expect("<")
        tag = scanner.read_name()
        attributes = self._parse_attributes()
        if scanner.looking_at("/>"):
            scanner.advance(2)
            node = Element(tag, attributes)
            node.source_location = location
            return node
        scanner.expect(">")
        node = Element(tag, attributes)
        node.source_location = location
        self._parse_content(node)
        scanner.expect("</")
        end_tag = scanner.read_name()
        if end_tag != tag:
            raise scanner.error(
                f"mismatched end tag </{end_tag}> for <{tag}>")
        scanner.skip_whitespace()
        scanner.expect(">")
        return node

    def _parse_attributes(self) -> dict[str, str]:
        scanner = self.scanner
        attributes: dict[str, str] = {}
        while True:
            skipped = scanner.skip_whitespace()
            ch = scanner.peek()
            if ch in (">", "/") or scanner.at_end:
                return attributes
            if not skipped:
                raise scanner.error("expected whitespace before attribute")
            if not is_name_start(ch):
                raise scanner.error(f"unexpected character {ch!r} in tag")
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            raw = scanner.read_quoted()
            if name in attributes:
                raise scanner.error(f"duplicate attribute {name!r}")
            attributes[name] = _decode_text(raw, scanner)

    def _parse_content(self, node: Element) -> None:
        scanner = self.scanner
        buffer: list[str] = []

        def flush() -> None:
            if not buffer:
                return
            text = "".join(buffer)
            buffer.clear()
            if not self.keep_whitespace and not text.strip():
                return
            node.append_text(text)

        while True:
            run = scanner.consume(CHAR_DATA)
            if run:
                buffer.append(run)
            if scanner.at_end:
                raise scanner.error(f"unterminated element <{node.tag}>")
            if scanner.looking_at("</"):
                flush()
                return
            if scanner.looking_at("<!--"):
                flush()
                self._skip_comment()
            elif scanner.looking_at("<![CDATA["):
                scanner.advance(len("<![CDATA["))
                buffer.append(scanner.read_until("]]>"))
            elif scanner.looking_at("<?"):
                flush()
                scanner.advance(2)
                scanner.read_until("?>")
            elif scanner.peek() == "<":
                flush()
                node.append(self._parse_element())
            else:  # "&"
                scanner.advance()
                name = scanner.read_until(";")
                buffer.append(decode_entity(name, scanner))

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _skip_comment(self) -> None:
        self.scanner.expect("<!--")
        body = self.scanner.read_until("-->")
        if "--" in body:
            raise self.scanner.error("'--' is not allowed inside a comment")

    def _skip_misc(self) -> None:
        scanner = self.scanner
        while True:
            scanner.skip_whitespace()
            if scanner.looking_at("<!--"):
                self._skip_comment()
            elif scanner.looking_at("<?"):
                scanner.advance(2)
                scanner.read_until("?>")
            else:
                return


def _decode_text(raw: str, scanner: Scanner) -> str:
    """Resolve entity references inside an attribute value."""
    out: list[str] = []
    i = 0
    while (amp := raw.find("&", i)) >= 0:
        end = raw.find(";", amp + 1)
        if end < 0:
            raise scanner.error("unterminated entity reference")
        out.append(raw[i:amp])
        out.append(decode_entity(raw[amp + 1:end], scanner))
        i = end + 1
    if not out:
        return raw
    out.append(raw[i:])
    return "".join(out)


def _parse_pseudo_attributes(body: str) -> list[tuple[str, str]]:
    """Parse ``key="value"`` pairs inside an XML declaration body."""
    scanner = Scanner(body)
    pairs: list[tuple[str, str]] = []
    while True:
        scanner.skip_whitespace()
        if scanner.at_end:
            return pairs
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        pairs.append((name, scanner.read_quoted()))
