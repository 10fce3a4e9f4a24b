"""Error-recovering XML ingestion for malformed listing files.

Strict parsing raises on the first well-formedness violation, which is
the right contract for schema files but too brittle for real-world
listing extracts (Section 4 of the paper runs LSD over sources wrapped by
imperfect extractors). Two lenient ingestion modes sit next to it:

* ``lenient`` — repair malformed listings in place: auto-close
  unbalanced tags, keep undeclared entity references as literal text,
  treat stray markup as character data. Every repair is recorded in a
  structured :class:`RecoveryLog` instead of raising.
* ``salvage`` — keep only the well-formed sibling listings and drop the
  malformed ones, recording what was dropped and why.

Both modes work on *chunks*: :func:`split_fragments` cuts the input into
top-level element fragments with a tolerant depth tracker, so one corrupt
listing cannot take down its well-formed siblings. Each chunk is parsed
once, by the one grammar of :mod:`repro.xmlio.parser` run in the chunk's
mode; the mode only decides what a violation does. ``strict`` mode
bypasses the chunker entirely and is byte-identical to
:func:`repro.xmlio.parser.parse_fragments`.

Recovery log entries reuse :class:`repro.xmlio.errors.SourceLocation`,
the same location type every parser/validator error carries, and all
positions are file-absolute (chunk parses are seeded with the chunk's
start line/column).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import SourceLocation, UNKNOWN_LOCATION, XMLSyntaxError
from .lexer import (END_TAG, FRAGMENT_START, NAME_CHARS, START_TAG,
                    Scanner, is_name_start)
from .parser import _Parser, clip, parse_fragments
from .tree import Element

#: The ingestion modes accepted by :func:`read_fragments` and the CLI.
INGEST_MODES = ("strict", "lenient", "salvage")

#: Where the chunker has to look again inside a start tag that the
#: token patterns declined: the next quote or tag end.
_TAG_MARK = re.compile("['\"<>]")


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
        #: Top-level fragments read (listings and stray content): the
        #: listing index at which :meth:`merge` starts the next file.
        self.fragments = 0

    @property
    def ok(self) -> bool:
        return not self.events

    def record(self, kind: str, message: str,
               location: SourceLocation = UNKNOWN_LOCATION,
               listing: int | None = None) -> None:
        self.events.append(RecoveryEvent(kind, message, location, listing))

    def merge(self, other: "RecoveryLog") -> None:
        """Append ``other``, the log of the next file read. Its listing
        indices continue after this log's fragments, so every listing of
        a multi-file run keeps its own index; lines and columns stay
        relative to their file."""
        offset = self.fragments
        self.clean.extend(index + offset for index in other.clean)
        self.recovered.extend(index + offset for index in other.recovered)
        self.dropped.extend(index + offset for index in other.dropped)
        self.events.extend(
            event if event.listing is None
            else replace(event, listing=event.listing + offset)
            for event in other.events)
        self.fragments += other.fragments

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
    sweep, so it survives content a strict parse would reject; its job
    is only to isolate sibling listings from each other. A fragment that
    never closes swallows the rest of the input (lenient mode then
    auto-closes it). The prolog, comments and PIs are checked by the
    parser's own grammar; what it rejects there, and any markup
    declaration after the prolog, becomes a stray fragment, so lenient
    and salvage record what strict rejects.
    """
    scanner = Scanner(text)
    fragments: list[Fragment] = []
    scanner.skip_whitespace()
    if scanner.looking_at("<?") or scanner.looking_at("<!"):
        _skip_checked(scanner, _Parser._parse_prolog, fragments)
    while True:
        scanner.skip_whitespace()
        if scanner.at_end:
            break
        location = scanner.location()
        start = scanner.pos
        if scanner.looking_at("<!--") or scanner.looking_at("<?"):
            _skip_checked(scanner, _Parser._skip_misc, fragments)
        elif scanner.looking_at("<!"):
            scanner.skip_markup_decl()
            fragments.append(Fragment(text[start:scanner.pos],
                                      location.line, location.column,
                                      "stray"))
        elif scanner.peek() == "<" and is_name_start(scanner.peek(1)):
            _consume_element(scanner)
            fragments.append(Fragment(text[start:scanner.pos],
                                      location.line, location.column))
        else:
            scanner.skip_to(FRAGMENT_START)
            chunk = text[start:scanner.pos]
            if chunk.strip():
                fragments.append(Fragment(chunk, location.line,
                                          location.column, "stray"))
    return fragments


def _skip_checked(scanner: Scanner, construct: Callable[[_Parser], None],
                  fragments: list[Fragment]) -> None:
    """Advance past the constructs at the cursor by ``construct``, a
    :class:`~repro.xmlio.parser._Parser` method (the prolog, or comments
    and PIs); if it finds one malformed, what it consumed becomes a
    stray fragment."""
    location = scanner.location()
    start = scanner.pos
    probe = _Parser("", mode="lenient", log=RecoveryLog())
    probe.scanner = scanner
    construct(probe)
    if probe.first_repair is not None:
        fragments.append(Fragment(scanner.text[start:scanner.pos],
                                  location.line, location.column, "stray"))


def _consume_element(scanner: Scanner) -> None:
    """Advance past one top-level element, balancing tags tolerantly.

    Open tags are tracked *by name* so a mismatched end tag inside a
    malformed listing (e.g. ``<listing><price>100</listing>``) still
    ends the fragment at ``</listing>`` instead of swallowing the
    well-formed siblings that follow. End tags matching nothing on the
    stack are ignored. A well-formed start or end tag is one
    :data:`~repro.xmlio.lexer.START_TAG` or
    :data:`~repro.xmlio.lexer.END_TAG` match; only what those decline
    takes the quote-aware sweep.
    """
    text = scanner.text
    stack: list[str] = []
    pos = scanner.pos
    while (pos := text.find("<", pos)) >= 0:
        if (match := START_TAG.match(text, pos)) is not None:
            pos = match.end()
            if not match.group("empty"):
                stack.append(match.group("tag"))
            elif not stack:
                break
        elif (match := END_TAG.match(text, pos)) is not None:
            pos = match.end()
            if _close(stack, match.group(1)):
                break
        else:
            scanner.pos = pos
            done = _consume_markup(scanner, stack)
            pos = scanner.pos
            if done:
                break
    scanner.pos = len(text) if pos < 0 else pos


def _close(stack: list[str], name: str) -> bool:
    """Close the open tag ``name`` and every tag opened inside it; an
    end tag that matches no open tag is ignored. True once no tag is
    open."""
    if name in stack:
        while stack.pop() != name:
            pass
    return not stack


def _consume_markup(scanner: Scanner, stack: list[str]) -> bool:
    """Advance past the markup at the cursor that the token patterns
    declined, tracking the tags it opens or closes on ``stack``; True
    once the element is complete."""
    if scanner.looking_at("<!--"):
        scanner.advance(4)
        scanner.skip_past("-->")
    elif scanner.looking_at("<![CDATA["):
        scanner.advance(9)
        scanner.skip_past("]]>")
    elif scanner.looking_at("<?"):
        scanner.advance(2)
        scanner.skip_past("?>")
    elif scanner.looking_at("</"):
        scanner.advance(2)
        name = scanner.consume(NAME_CHARS)
        scanner.skip_past(">")
        return _close(stack, name)
    elif is_name_start(scanner.peek(1)):
        name, self_closing = _consume_start_tag(scanner)
        if not self_closing:
            stack.append(name)
        return not stack
    else:
        scanner.advance()
    return False


def _consume_start_tag(scanner: Scanner) -> tuple[str, bool]:
    """Advance past a start tag; return ``(name, self_closing)``."""
    scanner.advance()  # "<"
    name = scanner.consume(NAME_CHARS)
    while (mark := scanner.skip_to(_TAG_MARK)) is not None:
        ch = mark.group()
        if ch in ("'", '"'):
            scanner.advance()
            scanner.skip_past(ch)
        elif ch == ">":
            self_closing = scanner.text[scanner.pos - 1] == "/"
            scanner.advance()
            return name, self_closing
        else:
            # Start tag never closed — let the tag tracker resume at
            # the stray "<" and treat the element as open.
            return name, False
    return name, False


# ---------------------------------------------------------------------------
# mode-aware ingestion
# ---------------------------------------------------------------------------
def _parse_chunk(fragment: Fragment, text: str, mode: str,
                 log: RecoveryLog, listing: int,
                 keep_whitespace: bool) -> list[Element]:
    """Parse one chunk, once, under an ingestion mode.

    A well-formed chunk gives the strict parse's trees in every mode; a
    malformed one raises (strict), is repaired (lenient) or dropped
    (salvage), with the decision recorded. The parse is seeded with the
    chunk's start, so every location, raised or logged, is file-absolute.
    """
    location = SourceLocation(fragment.line, fragment.column)
    if fragment.kind != "element" and mode != "strict":
        log.record("stray-markup",
                   f"content {clip(text)!r} between listings skipped",
                   location, listing)
        return []
    parser = _Parser(text, keep_whitespace, fragment.line, fragment.column,
                     mode, log, listing)
    try:
        roots = parser.parse_fragments()
    except XMLSyntaxError:
        if mode == "strict":
            raise
        log.dropped.append(listing)
        log.record("dropped-listing",
                   "malformed listing dropped (salvage mode)",
                   location, listing)
        return []
    if mode == "strict":
        return roots
    if parser.first_repair is None:
        log.clean.append(listing)
    else:
        repairs = len(log.events) - parser.first_repair
        log.recovered.append(listing)
        log.record("recovered-listing",
                   f"listing repaired with {repairs} recovery action(s)",
                   location, listing)
    return roots


def read_fragments(text: str, mode: str = "strict",
                   keep_whitespace: bool = False,
                   hook: Callable[[int, Fragment, RecoveryLog], str | None]
                   | None = None) \
        -> tuple[list[Element], RecoveryLog]:
    """Parse sibling top-level elements under an ingestion mode.

    ``strict`` without a ``hook`` delegates to
    :func:`repro.xmlio.parser.parse_fragments` unchanged (and therefore
    raises on malformed input); otherwise the input is chunked and each
    chunk parsed once under ``mode``. ``lenient`` and ``salvage`` never
    raise — they return whatever could be read plus a
    :class:`RecoveryLog` describing the repairs or drops. ``hook`` (the
    fault injector's) returns the text to parse for each chunk, or
    ``None`` to skip it.
    """
    if mode not in INGEST_MODES:
        raise ValueError(
            f"unknown ingestion mode {mode!r}; expected one of "
            f"{', '.join(INGEST_MODES)}")
    log = RecoveryLog()
    if mode == "strict" and hook is None:
        roots = parse_fragments(text, keep_whitespace=keep_whitespace)
        log.fragments = len(roots)
        return roots, log
    roots: list[Element] = []
    for index, fragment in enumerate(split_fragments(text)):
        log.fragments += 1
        chunk = fragment.text if hook is None else hook(index, fragment, log)
        if chunk is not None:
            roots.extend(_parse_chunk(fragment, chunk, mode, log, index,
                                      keep_whitespace))
    if not roots:
        if mode == "strict":
            # No listing chunk at all: fail as the plain parse fails.
            return parse_fragments(text, keep_whitespace=keep_whitespace), \
                log
        log.record("no-elements",
                   "no listings could be parsed from the input",
                   SourceLocation(1, 1))
    return roots, log
