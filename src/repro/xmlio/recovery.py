"""Error-recovering XML ingestion for malformed listing files.

The strict parser in :mod:`repro.xmlio.parser` raises on the first
well-formedness violation, which is the right contract for schema files
but too brittle for real-world listing extracts (Section 4 of the paper
runs LSD over sources wrapped by imperfect extractors). This module adds
two lenient ingestion modes on top of it:

* ``lenient`` — repair malformed listings in place: auto-close
  unbalanced tags, keep undeclared entity references as literal text,
  treat stray markup as character data. Every repair is recorded in a
  structured :class:`RecoveryLog` instead of raising.
* ``salvage`` — keep only the well-formed sibling listings and drop the
  malformed ones, recording what was dropped and why.

Both modes work on *chunks*: :func:`split_fragments` cuts the input into
top-level element fragments with a tolerant depth tracker, so one corrupt
listing cannot take down its well-formed siblings. ``strict`` mode
bypasses the chunker entirely and is byte-identical to
:func:`repro.xmlio.parser.parse_fragments`.

Recovery log entries reuse :class:`repro.xmlio.errors.SourceLocation`,
the same location type every parser/validator error carries, and all
positions are file-absolute (chunk parses are seeded with the chunk's
start line/column).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SourceLocation, UNKNOWN_LOCATION, XMLSyntaxError
from .lexer import (CHAR_DATA, NAME, NAME_CHARS, Scanner, decode_entity,
                    is_name_start)
from .parser import _Parser, parse_fragments
from .tree import Element

#: The ingestion modes accepted by :func:`read_fragments` and the CLI.
INGEST_MODES = ("strict", "lenient", "salvage")

#: Longest entity-reference body the recovering parser will look for
#: before deciding a ``&`` is literal character data.
_MAX_ENTITY = 32

#: Where the chunker has to look again: a ``<`` inside an element, the
#: next quote or tag end inside a start tag or declaration, and the
#: start of the next fragment in stray content.
_LT = re.compile("<")
_TAG_MARK = re.compile("['\"<>]")
_DECL_MARK = re.compile("['\"\\[\\]>]")
_FRAGMENT_START = re.compile(f"<(?:[!?]|{NAME.pattern})")
#: An unquoted attribute value: up to whitespace, ``<``, ``>`` or ``/>``.
_UNQUOTED_VALUE = re.compile(r"(?:[^\s<>/]|/(?!>))*")
#: A character that cannot appear in an entity-reference body.
_NOT_ENTITY_BODY = re.compile(r"[<&\"'\s]")


# ---------------------------------------------------------------------------
# recovery log
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryEvent:
    """One repair or salvage decision made during lenient ingestion."""

    kind: str
    message: str
    location: SourceLocation
    #: Index of the top-level fragment the event belongs to, or ``None``
    #: for document-level events.
    listing: int | None = None

    def as_dict(self) -> dict:
        entry = {
            "kind": self.kind,
            "message": self.message,
            "line": self.location.line,
            "column": self.location.column,
        }
        if self.listing is not None:
            entry["listing"] = self.listing
        return entry


class RecoveryLog:
    """Structured account of everything lenient ingestion had to fix.

    ``clean`` / ``recovered`` / ``dropped`` hold top-level listing
    indices; ``events`` holds every individual repair in input order.
    An empty log (``log.ok``) means the input was well-formed and the
    lenient result is identical to a strict parse.
    """

    def __init__(self) -> None:
        self.events: list[RecoveryEvent] = []
        self.clean: list[int] = []
        self.recovered: list[int] = []
        self.dropped: list[int] = []

    @property
    def ok(self) -> bool:
        return not self.events

    def record(self, kind: str, message: str,
               location: SourceLocation = UNKNOWN_LOCATION,
               listing: int | None = None) -> RecoveryEvent:
        event = RecoveryEvent(kind, message, location, listing)
        self.events.append(event)
        return event

    def counts(self) -> dict[str, int]:
        """Event tally per kind, sorted by kind for stable output."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return dict(sorted(out.items()))

    def as_dict(self) -> dict:
        return {
            "listings": {
                "clean": len(self.clean),
                "recovered": sorted(self.recovered),
                "dropped": sorted(self.dropped),
            },
            "counts": self.counts(),
            "events": [event.as_dict() for event in self.events],
        }


# ---------------------------------------------------------------------------
# tolerant top-level chunker
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fragment:
    """A top-level slice of the input: one element, or stray content."""

    text: str
    line: int
    column: int
    kind: str = "element"  # "element" | "stray"


def split_fragments(text: str) -> list[Fragment]:
    """Cut ``text`` into top-level fragments without parsing them.

    The splitter tracks element depth with a quote/comment/CDATA-aware
    sweep, so it survives content the strict parser would reject; its
    job is only to isolate sibling listings from each other. A fragment
    that never closes swallows the rest of the input (the recovering
    parser then auto-closes it).
    """
    scanner = Scanner(text)
    fragments: list[Fragment] = []
    while not scanner.at_end:
        scanner.skip_whitespace()
        if scanner.at_end:
            break
        location = scanner.location()
        start = scanner.pos
        if scanner.looking_at("<!--"):
            _consume_until(scanner, "-->")
        elif scanner.looking_at("<?"):
            _consume_until(scanner, "?>")
        elif scanner.looking_at("<!"):
            _consume_markup_decl(scanner)
        elif scanner.peek() == "<" and is_name_start(scanner.peek(1)):
            _consume_element(scanner)
            fragments.append(Fragment(text[start:scanner.pos],
                                      location.line, location.column))
        else:
            _consume_stray(scanner)
            chunk = text[start:scanner.pos]
            if chunk.strip():
                fragments.append(Fragment(chunk, location.line,
                                          location.column, "stray"))
    return fragments


def _consume_until(scanner: Scanner, terminator: str) -> None:
    """Advance past ``terminator``, or to EOF if it never appears."""
    index = scanner.text.find(terminator, scanner.pos)
    if index < 0:
        scanner.advance(len(scanner.text) - scanner.pos)
    else:
        scanner.advance(index - scanner.pos + len(terminator))


def _consume_markup_decl(scanner: Scanner) -> None:
    """Skip a ``<!...>`` declaration, honouring quotes and ``[...]``."""
    scanner.advance(2)
    depth = 0
    while (mark := scanner.skip_to(_DECL_MARK)) is not None:
        ch = mark.group()
        scanner.advance()
        if ch in ("'", '"'):
            _consume_until(scanner, ch)
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth <= 0:
            return


def _consume_element(scanner: Scanner) -> None:
    """Advance past one top-level element, balancing tags tolerantly.

    Open tags are tracked *by name* so a mismatched end tag inside a
    malformed listing (e.g. ``<listing><price>100</listing>``) still
    ends the fragment at ``</listing>`` instead of swallowing the
    well-formed siblings that follow. End tags matching nothing on the
    stack are ignored.
    """
    stack: list[str] = []
    while scanner.skip_to(_LT) is not None:
        if scanner.looking_at("<!--"):
            scanner.advance(4)
            _consume_until(scanner, "-->")
        elif scanner.looking_at("<![CDATA["):
            scanner.advance(9)
            _consume_until(scanner, "]]>")
        elif scanner.looking_at("<?"):
            scanner.advance(2)
            _consume_until(scanner, "?>")
        elif scanner.looking_at("</"):
            scanner.advance(2)
            name = scanner.consume(NAME_CHARS)
            _consume_until(scanner, ">")
            if name in stack:
                while stack and stack.pop() != name:
                    pass
            if not stack:
                return
        elif scanner.peek() == "<" and is_name_start(scanner.peek(1)):
            name, self_closing = _consume_start_tag(scanner)
            if not self_closing:
                stack.append(name)
            elif not stack:
                return
        else:
            scanner.advance()


def _consume_start_tag(scanner: Scanner) -> tuple[str, bool]:
    """Advance past a start tag; return ``(name, self_closing)``."""
    scanner.advance()  # "<"
    name = scanner.consume(NAME_CHARS)
    while (mark := scanner.skip_to(_TAG_MARK)) is not None:
        ch = mark.group()
        if ch in ("'", '"'):
            scanner.advance()
            _consume_until(scanner, ch)
        elif ch == ">":
            self_closing = scanner.text[scanner.pos - 1] == "/"
            scanner.advance()
            return name, self_closing
        else:
            # Start tag never closed — let the tag tracker resume at
            # the stray "<" and treat the element as open.
            return name, False
    return name, False


def _consume_stray(scanner: Scanner) -> None:
    """Advance past top-level content that cannot begin a fragment."""
    scanner.skip_to(_FRAGMENT_START)


# ---------------------------------------------------------------------------
# recovering parser
# ---------------------------------------------------------------------------
class RecoveringParser:
    """Recursive-descent parser that records repairs instead of raising.

    The grammar mirrors :class:`repro.xmlio.parser._Parser`; every point
    where the strict parser would raise instead applies the least
    surprising repair and appends a :class:`RecoveryEvent` to ``log``.
    ``parse_fragments`` therefore always returns (possibly empty) trees.
    """

    def __init__(self, text: str, keep_whitespace: bool = False,
                 log: RecoveryLog | None = None,
                 listing: int | None = None,
                 start_line: int = 1, start_column: int = 1) -> None:
        self.scanner = Scanner(text, start_line, start_column)
        self.keep_whitespace = keep_whitespace
        self.log = log if log is not None else RecoveryLog()
        self.listing = listing

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def parse_fragments(self) -> list[Element]:
        scanner = self.scanner
        roots: list[Element] = []
        self._skip_prolog()
        while True:
            self._skip_misc()
            if scanner.at_end:
                return roots
            if scanner.peek() == "<" and is_name_start(scanner.peek(1)):
                roots.append(self._parse_element())
            else:
                location = self._here()
                start = scanner.pos
                _consume_stray(scanner)
                junk = scanner.text[start:scanner.pos]
                if junk.strip():
                    self._record_at(
                        "stray-markup",
                        f"content {_clip(junk)!r} outside any element "
                        "skipped", location)

    # ------------------------------------------------------------------
    # prolog / misc
    # ------------------------------------------------------------------
    def _skip_prolog(self) -> None:
        scanner = self.scanner
        scanner.skip_whitespace()
        if scanner.looking_at("<?xml"):
            scanner.advance(5)
            self._until("?>", "XML declaration")
        while True:
            scanner.skip_whitespace()
            if scanner.looking_at("<!--"):
                self._comment()
            elif scanner.looking_at("<?"):
                scanner.advance(2)
                self._until("?>", "processing instruction")
            elif scanner.looking_at("<!DOCTYPE"):
                _consume_markup_decl(scanner)
            else:
                return

    def _skip_misc(self) -> None:
        scanner = self.scanner
        while True:
            scanner.skip_whitespace()
            if scanner.looking_at("<!--"):
                self._comment()
            elif scanner.looking_at("<?"):
                scanner.advance(2)
                self._until("?>", "processing instruction")
            elif scanner.looking_at("<!"):
                location = self._here()
                _consume_markup_decl(scanner)
                self._record_at(
                    "stray-markup",
                    "markup declaration between listings skipped",
                    location)
            else:
                return

    # ------------------------------------------------------------------
    # elements
    # ------------------------------------------------------------------
    def _parse_element(self) -> Element:
        scanner = self.scanner
        root, self_closing = self._parse_start_tag()
        if self_closing:
            return root
        stack: list[Element] = [root]
        buffer: list[str] = []

        def flush() -> None:
            if not buffer:
                return
            text = "".join(buffer)
            buffer.clear()
            if not self.keep_whitespace and not text.strip():
                return
            stack[-1].append_text(text)

        while stack:
            run = scanner.consume(CHAR_DATA)
            if run:
                buffer.append(run)
            if scanner.at_end:
                flush()
                for node in reversed(stack):
                    self._record(
                        "auto-closed",
                        f"auto-closed <{node.tag}> still open at end "
                        "of input")
                break
            if scanner.looking_at("</"):
                self._parse_end_tag(stack, flush)
            elif scanner.looking_at("<!--"):
                flush()
                self._comment()
            elif scanner.looking_at("<![CDATA["):
                scanner.advance(9)
                buffer.append(self._until("]]>", "CDATA section"))
            elif scanner.looking_at("<?"):
                flush()
                scanner.advance(2)
                self._until("?>", "processing instruction")
            elif scanner.peek() == "<" and is_name_start(scanner.peek(1)):
                flush()
                child, self_closing = self._parse_start_tag()
                stack[-1].append(child)
                if not self_closing:
                    stack.append(child)
            elif scanner.peek() == "<":
                self._record("stray-markup",
                             "stray '<' treated as character data")
                buffer.append(scanner.advance())
            else:  # "&"
                buffer.append(self._entity())
        return root

    def _parse_end_tag(self, stack: list[Element], flush) -> None:
        scanner = self.scanner
        location = self._here()
        scanner.advance(2)
        if scanner.at_end or not is_name_start(scanner.peek()):
            self._record_at("stray-markup",
                            "malformed end tag treated as character data",
                            location)
            # Re-emit the consumed "</" as text via the caller's buffer:
            # simplest is to append directly to the innermost element.
            flush()
            stack[-1].append_text("</")
            return
        name = scanner.read_name()
        scanner.skip_whitespace()
        if scanner.peek() == ">":
            scanner.advance()
        else:
            junk_location = self._here()
            self._until(">", f"end tag </{name}>")
            self._record_at("stray-markup",
                            f"junk inside end tag </{name}> skipped",
                            junk_location)
        open_tags = [node.tag for node in stack]
        if name == open_tags[-1]:
            flush()
            stack.pop()
        elif name in open_tags:
            flush()
            while stack[-1].tag != name:
                node = stack.pop()
                self._record_at(
                    "auto-closed",
                    f"auto-closed <{node.tag}> at mismatched end tag "
                    f"</{name}>", location)
            stack.pop()
        else:
            self._record_at(
                "stray-end-tag",
                f"ignored end tag </{name}> that matches no open "
                "element", location)

    def _parse_start_tag(self) -> tuple[Element, bool]:
        scanner = self.scanner
        location = self._here()
        scanner.advance()  # "<" — guaranteed by the caller's lookahead
        tag = scanner.read_name()
        attributes: dict[str, str] = {}
        while True:
            skipped = scanner.skip_whitespace()
            if scanner.at_end:
                self._record_at(
                    "unterminated",
                    f"start tag <{tag}> not closed before end of input",
                    location)
                break
            ch = scanner.peek()
            if scanner.looking_at("/>"):
                scanner.advance(2)
                node = Element(tag, attributes)
                node.source_location = location
                return node, True
            if ch == ">":
                scanner.advance()
                break
            if ch == "<":
                self._record_at(
                    "unterminated",
                    f"start tag <{tag}> not closed before the next tag",
                    location)
                break
            if not is_name_start(ch):
                self._record(
                    "malformed-attribute",
                    f"unexpected character {ch!r} in <{tag}> start tag "
                    "skipped")
                scanner.advance()
                continue
            if not skipped:
                self._record(
                    "malformed-attribute",
                    f"missing whitespace before attribute in <{tag}>")
            name = scanner.read_name()
            scanner.skip_whitespace()
            if scanner.peek() == "=":
                scanner.advance()
                scanner.skip_whitespace()
                value = self._attribute_value(tag, name)
            else:
                self._record(
                    "malformed-attribute",
                    f"attribute {name!r} in <{tag}> has no value; "
                    "treated as empty")
                value = ""
            if name in attributes:
                self._record(
                    "malformed-attribute",
                    f"duplicate attribute {name!r} in <{tag}> ignored")
            else:
                attributes[name] = value
        node = Element(tag, attributes)
        node.source_location = location
        return node, False

    def _attribute_value(self, tag: str, name: str) -> str:
        scanner = self.scanner
        quote = scanner.peek()
        if quote in ("'", '"'):
            scanner.advance()
            raw = self._until(quote, f"value of attribute {name!r}")
            return self._decode_raw(raw)
        self._record("malformed-attribute",
                     f"unquoted value for attribute {name!r} in <{tag}>")
        return self._decode_raw(scanner.consume(_UNQUOTED_VALUE))

    # ------------------------------------------------------------------
    # character data
    # ------------------------------------------------------------------
    def _entity(self) -> str:
        scanner = self.scanner
        location = self._here()
        scanner.advance()  # "&"
        end = scanner.text.find(";", scanner.pos,
                                scanner.pos + _MAX_ENTITY)
        body = scanner.text[scanner.pos:end] if end >= 0 else ""
        if end < 0 or not body or not _entity_body_ok(body):
            self._record_at(
                "skipped-entity",
                "malformed entity reference treated as literal '&'",
                location)
            return "&"
        scanner.advance(end - scanner.pos + 1)
        try:
            return decode_entity(body)
        except XMLSyntaxError:
            self._record_at(
                "skipped-entity",
                f"undeclared entity &{body}; kept as literal text",
                location)
            return f"&{body};"

    def _decode_raw(self, raw: str) -> str:
        """Tolerantly resolve entity references in an attribute value."""
        out: list[str] = []
        i = 0
        while (amp := raw.find("&", i)) >= 0:
            out.append(raw[i:amp])
            i = amp
            end = raw.find(";", i + 1, i + 1 + _MAX_ENTITY)
            body = raw[i + 1:end] if end > 0 else ""
            if end < 0 or not body or not _entity_body_ok(body):
                self._record(
                    "skipped-entity",
                    "malformed entity reference in attribute value kept "
                    "literally")
                out.append("&")
                i += 1
                continue
            try:
                out.append(decode_entity(body))
            except XMLSyntaxError:
                self._record(
                    "skipped-entity",
                    f"undeclared entity &{body}; in attribute value kept "
                    "literally")
                out.append(f"&{body};")
            i = end + 1
        if not out:
            return raw
        out.append(raw[i:])
        return "".join(out)

    # ------------------------------------------------------------------
    # shared tolerant consumers
    # ------------------------------------------------------------------
    def _comment(self) -> None:
        location = self._here()
        self.scanner.advance(4)
        body = self._until("-->", "comment")
        if "--" in body:
            self._record_at("malformed-comment",
                            "'--' inside a comment kept", location)

    def _until(self, terminator: str, what: str) -> str:
        scanner = self.scanner
        index = scanner.text.find(terminator, scanner.pos)
        if index < 0:
            location = self._here()
            body = scanner.advance(len(scanner.text) - scanner.pos)
            self._record_at(
                "unterminated",
                f"unterminated {what} consumed to end of input",
                location)
            return body
        chunk = scanner.text[scanner.pos:index]
        scanner.advance(len(chunk) + len(terminator))
        return chunk

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _here(self) -> SourceLocation:
        return self.scanner.location()

    def _record(self, kind: str, message: str) -> None:
        self._record_at(kind, message, self._here())

    def _record_at(self, kind: str, message: str,
                   location: SourceLocation) -> None:
        self.log.record(kind, message, location, self.listing)


def _entity_body_ok(body: str) -> bool:
    """True if ``body`` could plausibly be an entity-reference body."""
    return _NOT_ENTITY_BODY.search(body) is None


def _clip(text: str, limit: int = 30) -> str:
    text = " ".join(text.split())
    if len(text) <= limit:
        return text
    return text[:limit] + "..."


# ---------------------------------------------------------------------------
# mode-aware ingestion
# ---------------------------------------------------------------------------
def parse_chunk(fragment: Fragment, mode: str, log: RecoveryLog,
                listing: int, keep_whitespace: bool = False) -> list[Element]:
    """Parse one top-level chunk under an ingestion mode.

    Well-formed chunks take the strict parser path (so a clean input
    produces byte-identical trees in every mode); malformed chunks raise
    (strict), or are repaired (lenient) or dropped (salvage), with the
    decision recorded. The parse is seeded with the chunk's start, so
    every location, raised or logged, is file-absolute.
    """
    if mode == "strict":
        return _Parser(fragment.text, keep_whitespace, fragment.line,
                       fragment.column).parse_fragments()
    location = SourceLocation(fragment.line, fragment.column)
    if fragment.kind != "element":
        log.record("stray-markup",
                   f"content {_clip(fragment.text)!r} between listings "
                   "skipped", location, listing)
        return []
    try:
        roots = _Parser(fragment.text, keep_whitespace,
                        fragment.line, fragment.column).parse_fragments()
    except XMLSyntaxError as exc:
        message = str(exc).split(" (line ")[0] if exc.args else str(exc)
        log.record("malformed-listing",
                   f"listing is not well-formed: {message}",
                   exc.location, listing)
        if mode == "salvage":
            log.dropped.append(listing)
            log.record("dropped-listing",
                       "malformed listing dropped (salvage mode)",
                       location, listing)
            return []
        before = len(log.events)
        parser = RecoveringParser(fragment.text, keep_whitespace, log,
                                  listing, fragment.line, fragment.column)
        roots = parser.parse_fragments()
        repairs = len(log.events) - before
        if roots:
            log.recovered.append(listing)
            log.record("recovered-listing",
                       f"listing repaired with {repairs} recovery "
                       "action(s)", location, listing)
        else:
            log.dropped.append(listing)
            log.record("dropped-listing",
                       "listing could not be repaired", location, listing)
        return roots
    log.clean.append(listing)
    return roots


def read_fragments(text: str, mode: str = "strict",
                   keep_whitespace: bool = False) \
        -> tuple[list[Element], RecoveryLog]:
    """Parse sibling top-level elements under an ingestion mode.

    ``strict`` delegates to :func:`repro.xmlio.parser.parse_fragments`
    unchanged (and therefore raises on malformed input); ``lenient`` and
    ``salvage`` never raise — they return whatever could be read plus a
    :class:`RecoveryLog` describing the repairs or drops.
    """
    if mode not in INGEST_MODES:
        raise ValueError(
            f"unknown ingestion mode {mode!r}; expected one of "
            f"{', '.join(INGEST_MODES)}")
    if mode == "strict":
        return parse_fragments(text, keep_whitespace=keep_whitespace), \
            RecoveryLog()
    log = RecoveryLog()
    roots: list[Element] = []
    for index, fragment in enumerate(split_fragments(text)):
        roots.extend(parse_chunk(fragment, mode, log, index,
                                 keep_whitespace=keep_whitespace))
    if not roots:
        log.record("no-elements",
                   "no listings could be parsed from the input",
                   SourceLocation(1, 1))
    return roots, log
