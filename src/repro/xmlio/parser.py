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

One grammar serves every ingestion mode of :mod:`repro.xmlio.recovery`.
Each well-formedness violation goes through :meth:`_Parser._violation`:
``strict`` raises :class:`~repro.xmlio.errors.XMLSyntaxError` there;
otherwise the first violation records ``malformed-listing``, after which
``salvage`` abandons the chunk and ``lenient`` returns, so the code after
the call applies the least surprising repair (auto-close unbalanced tags,
keep undeclared entity references as literal text, treat stray markup as
character data) and records it.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import SourceLocation, XMLSyntaxError
from .lexer import (ATTRIBUTE, CHAR_DATA, END_TAG, FRAGMENT_START, NAME,
                    NAME_CHARS, START_TAG, Scanner, decode_entity,
                    is_name_start)
from .tree import Document, Element

if TYPE_CHECKING:
    from .recovery import RecoveryLog

_BRACKET = re.compile(r"[\[\]]")
#: An unquoted attribute value: up to whitespace, ``<``, ``>`` or ``/>``.
_UNQUOTED_VALUE = re.compile(r"(?:[^\s<>/]|/(?!>))*")
#: A character that cannot appear in an entity-reference body.
_NOT_ENTITY_BODY = re.compile(r"[<&\"'\s]")
#: A repair keeps an undeclared entity reference only if its body is
#: shorter than this; otherwise the ``&`` is literal character data.
_MAX_ENTITY = 32


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
                 start_line: int = 1, start_column: int = 1,
                 mode: str = "strict", log: RecoveryLog | None = None,
                 listing: int | None = None) -> None:
        self.scanner = Scanner(text, start_line, start_column)
        self.keep_whitespace = keep_whitespace
        self.mode = mode
        self.log = log
        self.listing = listing
        #: Index in ``log.events`` where this parse's repairs begin;
        #: ``None`` as long as the input is well-formed.
        self.first_repair: int | None = None
        self.doctype_name: str | None = None
        self.internal_subset: str | None = None
        self.version: str | None = None
        self.encoding: str | None = None

    # ------------------------------------------------------------------
    # violations and repairs
    # ------------------------------------------------------------------
    def _violation(self, message: str,
                   location: SourceLocation | None = None) -> None:
        """Every well-formedness violation passes through here.

        ``strict`` raises it. In the other modes the first violation
        records ``malformed-listing``; ``salvage`` then raises too (its
        chunk driver drops the listing) and ``lenient`` returns to the
        caller, which applies and records the repair.
        """
        if location is None:
            location = self.scanner.location()
        if self.mode != "strict" and self.first_repair is None:
            self.log.record("malformed-listing",
                            f"listing is not well-formed: {message}",
                            location, self.listing)
            self.first_repair = len(self.log.events)
        if self.mode != "lenient":
            raise XMLSyntaxError(message, location.line, location.column)

    def _repair(self, kind: str, message: str,
                location: SourceLocation | None = None) -> None:
        """Record a repair, at the cursor unless ``location`` is given."""
        if location is None:
            location = self.scanner.location()
        self.log.record(kind, message, location, self.listing)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def parse_document(self) -> Document:
        scanner = self.scanner
        self._parse_prolog()
        if not (scanner.peek() == "<" and is_name_start(scanner.peek(1))):
            self._not_an_element()
        root = self._parse_element()
        self._skip_misc()
        if not scanner.at_end:
            self._violation("content after the root element")
        return Document(root, self.doctype_name, self.version,
                        self.encoding, self.internal_subset)

    def parse_fragments(self) -> list[Element]:
        scanner = self.scanner
        self._parse_prolog()
        roots: list[Element] = []
        while True:
            self._skip_misc()
            if scanner.at_end:
                break
            if scanner.peek() == "<" and is_name_start(scanner.peek(1)):
                roots.append(self._parse_element())
            else:
                self._skip_stray()
        if not roots:
            self._violation("no elements found")
        return roots

    # ------------------------------------------------------------------
    # prolog and top-level misc
    # ------------------------------------------------------------------
    def _parse_prolog(self) -> None:
        scanner = self.scanner
        scanner.skip_whitespace()
        # ``<?xml-stylesheet ...?>`` is a PI, not the declaration.
        if scanner.looking_at("<?xml") and not NAME_CHARS.match(
                scanner.text, scanner.pos + len("<?xml")).group():
            scanner.advance(len("<?xml"))
            start = scanner.location()
            body = self._until("?>", "XML declaration")
            try:
                pairs = _parse_pseudo_attributes(body, start)
            except XMLSyntaxError as exc:
                self._violation(exc.reason, exc.location)
                pairs = []
            for key, value in pairs:
                if key == "version":
                    self.version = value
                elif key == "encoding":
                    self.encoding = value
        while True:
            self._skip_misc()
            if not scanner.looking_at("<!DOCTYPE"):
                return
            start = scanner.pos
            try:
                self._parse_doctype()
            except XMLSyntaxError as exc:
                self._violation(exc.reason, exc.location)
                scanner.pos = start
                scanner.skip_markup_decl()

    def _parse_doctype(self) -> None:
        scanner = self.scanner
        scanner.expect("<!DOCTYPE")
        scanner.skip_whitespace()
        self.doctype_name = scanner.read_name()
        scanner.skip_whitespace()
        # Optional external identifier (SYSTEM/PUBLIC) — read but unused.
        for keyword, literals in (("SYSTEM", 1), ("PUBLIC", 2)):
            if scanner.looking_at(keyword):
                scanner.advance(len(keyword))
                for _ in range(literals):
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

    def _skip_misc(self) -> None:
        """Skip whitespace, comments and processing instructions."""
        scanner = self.scanner
        while True:
            scanner.skip_whitespace()
            if scanner.looking_at("<!--"):
                self._comment()
            elif scanner.looking_at("<?"):
                self._pi()
            else:
                return

    def _skip_stray(self) -> None:
        """Skip top-level content that does not start an element."""
        scanner = self.scanner
        start = scanner.pos
        self._not_an_element()
        if scanner.looking_at("<!"):
            scanner.skip_markup_decl()
            message = "markup declaration between listings skipped"
        else:
            scanner.skip_to(FRAGMENT_START)
            junk = clip(scanner.text[start:scanner.pos])
            message = f"content {junk!r} outside any element skipped"
        self._repair("stray-markup", message, scanner.location(start))

    def _not_an_element(self) -> None:
        """The violation for markup at the cursor that is not a start
        tag where one is due."""
        scanner = self.scanner
        if scanner.peek() != "<":
            found = scanner.peek() or "<end of input>"
            self._violation(f"expected '<', found {found!r}")
        else:
            found = scanner.peek(1) or "<end of input>"
            self._violation(f"expected a name, found {found!r}",
                            scanner.location(scanner.pos + 1))

    # ------------------------------------------------------------------
    # elements
    # ------------------------------------------------------------------
    def _parse_element(self) -> Element:
        """Parse the element whose start tag is at the cursor, its
        descendants held on an explicit stack of open elements.

        Each well-formed start tag, end tag of the open element and
        character-data run is one anchored match of a token pattern of
        :mod:`repro.xmlio.lexer`. What the patterns decline goes to the
        per-construct methods below, the only code that reports a
        violation or makes a repair.
        """
        scanner = self.scanner
        root, empty = self._start_tag()
        if empty:
            return root
        text = scanner.text
        stack = [root]
        parent = root
        buffer: list[str] = []
        keep_whitespace = self.keep_whitespace

        def flush() -> None:
            if not buffer:
                return
            value = "".join(buffer)
            buffer.clear()
            if keep_whitespace or value.strip():
                stack[-1].append_text(value)

        pos = scanner.pos
        while True:
            run = None
            if (match := CHAR_DATA.match(text, pos)) is not None:
                run = match.group()
                pos = match.end()
            start = START_TAG.match(text, pos)
            end = None if start else END_TAG.match(text, pos)
            if start is None and (end is None or end.group(1) != parent.tag):
                if run is not None:
                    buffer.append(run)
                scanner.pos = pos
                self._parse_declined(stack, buffer, flush)
                if not stack:
                    return root
                parent = stack[-1]
                pos = scanner.pos
                continue
            # A tag follows, so the text before it is complete.
            if buffer:
                if run is not None:
                    buffer.append(run)
                flush()
            elif run is not None and (keep_whitespace or not run.isspace()):
                parent.append_text(run)
            if start is not None:
                scanner.pos = pos
                child, empty = self._start_tag(start)
                child.parent = parent
                parent.children.append(child)
                if not empty:
                    stack.append(child)
                    parent = child
                pos = scanner.pos
                continue
            stack.pop()
            pos = end.end()
            if not stack:
                scanner.pos = pos
                return root
            parent = stack[-1]

    def _parse_declined(self, stack: list[Element], buffer: list[str],
                        flush) -> None:
        """Parse the content construct at the cursor that the token
        patterns declined. An element left open at the end of the input
        is auto-closed, which empties ``stack``."""
        scanner = self.scanner
        if scanner.at_end:
            self._violation(f"unterminated element <{stack[-1].tag}>")
            flush()
            for node in reversed(stack):
                self._repair("auto-closed", f"auto-closed <{node.tag}> "
                             "still open at end of input")
            stack.clear()
        elif scanner.looking_at("</"):
            self._parse_end_tag(stack, flush)
        elif scanner.looking_at("<!--"):
            flush()
            self._comment()
        elif scanner.looking_at("<![CDATA["):
            scanner.advance(len("<![CDATA["))
            buffer.append(self._until("]]>", "CDATA section"))
        elif scanner.looking_at("<?"):
            flush()
            self._pi()
        elif scanner.peek() != "<":  # "&"
            buffer.append(self._reference())
        elif is_name_start(scanner.peek(1)):
            flush()
            child, empty = self._parse_start_tag()
            stack[-1].append(child)
            if not empty:
                stack.append(child)
        else:
            self._not_an_element()
            self._repair("stray-markup",
                         "stray '<' treated as character data")
            buffer.append(scanner.advance())

    def _start_tag(self, match: re.Match | None = None
                   ) -> tuple[Element, bool]:
        """The start tag at the cursor, in one :data:`START_TAG` match
        (``match``, when the caller has made it) or, when the pattern
        declines the tag or an attribute repeats, by
        :meth:`_parse_start_tag`."""
        scanner = self.scanner
        if match is None:
            match = START_TAG.match(scanner.text, scanner.pos)
            if match is None:
                return self._parse_start_tag()
        tag, run, empty = match.group("tag", "attributes", "empty")
        node = Element(tag)
        if run:
            pairs = ATTRIBUTE.findall(run)
            attributes = node.attributes
            for name, double, single in pairs:
                attributes[name] = double or single
            if len(attributes) < len(pairs):
                return self._parse_start_tag()
        node._at = scanner.pos
        node._lines = scanner.lines
        scanner.pos = match.end()
        return node, bool(empty)

    def _parse_start_tag(self) -> tuple[Element, bool]:
        """Parse the start tag at the cursor (a ``<`` and a name start);
        return the element and whether the tag was self-closing."""
        scanner = self.scanner
        start = scanner.pos
        scanner.pos += 1  # "<"
        tag = scanner.consume(NAME)
        node = Element(tag)
        node._at = start
        node._lines = scanner.lines
        while True:
            skipped = scanner.skip_whitespace()
            ch = scanner.peek()
            if ch == ">":
                scanner.pos += 1
                return node, False
            if scanner.looking_at("/>"):
                scanner.pos += 2
                return node, True
            if not ch:
                self._violation("expected '>', found '<end of input>'")
                self._repair("unterminated", f"start tag <{tag}> not closed "
                             "before end of input", scanner.location(start))
                return node, False
            if ch == "/":
                self._violation("expected '>', found '/'")
            elif not skipped:
                self._violation("expected whitespace before attribute")
            elif not is_name_start(ch):
                self._violation(f"unexpected character {ch!r} in tag")
            if ch == "<":
                self._repair("unterminated", f"start tag <{tag}> not closed "
                             "before the next tag", scanner.location(start))
                return node, False
            if not is_name_start(ch):
                self._repair("malformed-attribute", f"unexpected character "
                             f"{ch!r} in <{tag}> start tag skipped")
                scanner.advance()
                continue
            if not skipped:
                self._repair("malformed-attribute", "missing whitespace "
                             f"before attribute in <{tag}>")
            self._parse_attribute(tag, node.attributes)

    def _parse_attribute(self, tag: str, attributes: dict[str, str]) -> None:
        scanner = self.scanner
        name = scanner.consume(NAME)
        scanner.skip_whitespace()
        if scanner.peek() != "=":
            found = scanner.peek() or "<end of input>"
            self._violation(f"expected '=', found {found!r}")
            self._repair("malformed-attribute", f"attribute {name!r} in "
                         f"<{tag}> has no value; treated as empty")
            raw = ""
        else:
            scanner.advance()
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote in ("'", '"'):
                scanner.advance()
                raw = self._until(quote, f"value of attribute {name!r}")
            else:
                self._violation("expected a quoted literal")
                self._repair("malformed-attribute", "unquoted value for "
                             f"attribute {name!r} in <{tag}>")
                raw = scanner.consume(_UNQUOTED_VALUE)
        duplicate = name in attributes
        if duplicate:
            self._violation(f"duplicate attribute {name!r}")
        value = self._attribute_text(raw)
        if duplicate:
            self._repair("malformed-attribute",
                         f"duplicate attribute {name!r} in <{tag}> ignored")
        else:
            attributes[name] = value

    def _parse_end_tag(self, stack: list[Element], flush) -> None:
        """Parse the end tag at the cursor, closing what it names."""
        scanner = self.scanner
        start = scanner.pos
        scanner.pos += 2  # "</"
        name = scanner.consume(NAME)
        if not name:
            found = scanner.peek() or "<end of input>"
            self._violation(f"expected a name, found {found!r}")
            self._repair("stray-markup", "malformed end tag treated as "
                         "character data", scanner.location(start))
            flush()
            stack[-1].append_text("</")
            return
        open_tag = stack[-1].tag
        if name != open_tag:
            self._violation(f"mismatched end tag </{name}> for <{open_tag}>")
        scanner.skip_whitespace()
        if scanner.peek() == ">":
            scanner.pos += 1
        else:
            found = scanner.peek() or "<end of input>"
            self._violation(f"expected '>', found {found!r}")
            junk = scanner.location()
            self._until(">", f"end tag </{name}>")
            self._repair("stray-markup",
                         f"junk inside end tag </{name}> skipped", junk)
        if name == open_tag:
            flush()
            stack.pop()
            return
        location = scanner.location(start)
        if all(node.tag != name for node in stack):
            self._repair("stray-end-tag", f"ignored end tag </{name}> "
                         "that matches no open element", location)
            return
        flush()
        while stack[-1].tag != name:
            self._repair("auto-closed", f"auto-closed <{stack.pop().tag}> "
                         f"at mismatched end tag </{name}>", location)
        stack.pop()

    # ------------------------------------------------------------------
    # entity references
    # ------------------------------------------------------------------
    def _reference(self) -> str:
        """Resolve the entity reference whose ``&`` is at the cursor."""
        scanner = self.scanner
        start = scanner.pos
        scanner.advance()
        end = scanner.text.find(";", scanner.pos)
        body = scanner.text[scanner.pos:end] if end >= 0 else ""
        value = decode_entity(body)
        if value is not None:
            scanner.pos = end + 1
            return value
        if end < 0:
            self._violation("unterminated construct, expected ';'")
        else:
            self._violation(f"unknown entity reference &{body};",
                            scanner.location(end + 1))
        location = scanner.location(start)
        if not _plausible_entity(body):
            self._repair("skipped-entity", "malformed entity reference "
                         "treated as literal '&'", location)
            return "&"
        scanner.pos = end + 1
        self._repair("skipped-entity", f"undeclared entity &{body}; kept "
                     "as literal text", location)
        return f"&{body};"

    def _attribute_text(self, raw: str) -> str:
        """Resolve the entity references inside an attribute value."""
        out: list[str] = []
        i = 0
        while (amp := raw.find("&", i)) >= 0:
            out.append(raw[i:amp])
            end = raw.find(";", amp + 1)
            body = raw[amp + 1:end] if end >= 0 else ""
            value = decode_entity(body)
            i = end + 1
            if value is None:
                self._violation("unterminated entity reference" if end < 0
                                else f"unknown entity reference &{body};")
                if not _plausible_entity(body):
                    self._repair("skipped-entity", "malformed entity "
                                 "reference in attribute value kept "
                                 "literally")
                    value = "&"
                    i = amp + 1
                else:
                    self._repair("skipped-entity", f"undeclared entity "
                                 f"&{body}; in attribute value kept "
                                 "literally")
                    value = f"&{body};"
            out.append(value)
        if not out:
            return raw
        out.append(raw[i:])
        return "".join(out)

    # ------------------------------------------------------------------
    # comments and terminated constructs
    # ------------------------------------------------------------------
    def _comment(self) -> None:
        scanner = self.scanner
        start = scanner.pos
        scanner.advance(len("<!--"))
        if "--" in self._until("-->", "comment"):
            self._violation("'--' is not allowed inside a comment")
            self._repair("malformed-comment", "'--' inside a comment kept",
                         scanner.location(start))

    def _pi(self) -> None:
        """Skip the processing instruction at the cursor. Its target may
        not be ``xml`` in any letter case (XML 1.0 §2.6): that name
        belongs to the declaration at the very start of the input."""
        scanner = self.scanner
        scanner.advance(2)
        target = NAME_CHARS.match(scanner.text, scanner.pos).group()
        if target.lower() == "xml":
            location = scanner.location()
            self._violation(f"reserved processing-instruction target "
                            f"{target!r}", location)
            self._repair("malformed-pi", f"processing instruction with "
                         f"reserved target {target!r} skipped", location)
        self._until("?>", "processing instruction")

    def _until(self, terminator: str, what: str) -> str:
        """Consume through ``terminator``; return the text before it.
        The repair for a missing terminator consumes the rest."""
        scanner = self.scanner
        index = scanner.text.find(terminator, scanner.pos)
        if index < 0:
            self._violation(f"unterminated construct, expected {terminator!r}")
            self._repair("unterminated",
                         f"unterminated {what} consumed to end of input")
            index = len(scanner.text)
        body = scanner.text[scanner.pos:index]
        scanner.pos = min(index + len(terminator), len(scanner.text))
        return body


def _plausible_entity(body: str) -> bool:
    """True if ``body`` could be an entity-reference body."""
    return 0 < len(body) < _MAX_ENTITY and \
        _NOT_ENTITY_BODY.search(body) is None


#: The XML declaration's pseudo-attributes, in their required order.
_DECLARATION_NAMES = ("version", "encoding", "standalone")
#: What each pseudo-attribute's value must match in full (XML 1.0
#: §2.8 ``VersionNum``, §4.3.3 ``EncName``, §2.9 ``SDDecl``), and how a
#: violation describes it.
_DECLARATION_VALUES = {
    "version": (re.compile(r"1\.[0-9]+"), "'1.' and digits"),
    "encoding": (re.compile("[A-Za-z][A-Za-z0-9._-]*"),
                 "a letter, then letters, digits, '.', '_' or '-'"),
    "standalone": (re.compile("yes|no"), "'yes' or 'no'"),
}


def _parse_pseudo_attributes(body: str, start: SourceLocation
                             ) -> list[tuple[str, str]]:
    """Parse the ``key="value"`` pairs of an XML declaration body that
    begins at ``start``.

    XML 1.0 §2.8: ``version`` comes first and is required, then an
    optional ``encoding``, then an optional ``standalone``; no other
    name, and none twice. Each value must match its production (see
    :data:`_DECLARATION_VALUES`). A violation raises at the offending
    name or value, in file-absolute coordinates.
    """
    scanner = Scanner(body, start.line, start.column)
    pairs: list[tuple[str, str]] = []
    while True:
        scanner.skip_whitespace()
        if scanner.at_end:
            break
        at = scanner.location()
        name = scanner.read_name()
        previous = _DECLARATION_NAMES.index(pairs[-1][0]) if pairs else -1
        if not pairs and name != "version":
            problem = f"expected 'version' first, found {name!r}"
        elif name not in _DECLARATION_NAMES:
            problem = f"unknown pseudo-attribute {name!r}"
        elif _DECLARATION_NAMES.index(name) <= previous:
            problem = f"repeated pseudo-attribute {name!r}" \
                if name in dict(pairs) else \
                f"pseudo-attribute {name!r} after {pairs[-1][0]!r}"
        else:
            problem = None
        if problem is not None:
            raise XMLSyntaxError(f"XML declaration: {problem}", at.line,
                                 at.column)
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        at = scanner.location()
        value = scanner.read_quoted()
        pattern, wanted = _DECLARATION_VALUES[name]
        if pattern.fullmatch(value) is None:
            raise XMLSyntaxError(f"XML declaration: {name} must be "
                                 f"{wanted}, found {value!r}",
                                 at.line, at.column)
        pairs.append((name, value))
    if not pairs:
        raise scanner.error("XML declaration: missing 'version'")
    return pairs


def clip(text: str, limit: int = 30) -> str:
    """``text`` with whitespace runs collapsed, cut to ``limit`` chars."""
    text = " ".join(text.split())
    if len(text) <= limit:
        return text
    return text[:limit] + "..."
