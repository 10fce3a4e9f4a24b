"""Run-based scanner shared by the XML and DTD parsers.

The scanner is a cursor (one ``pos``) over a string plus the small set
of lookahead/consume primitives a recursive-descent parser needs. Every
primitive consumes a whole run — a slice, an anchored regex match, or a
jump to the next occurrence of a pattern — never one character per
Python call. ``line``/``column`` are not tracked while scanning: they
are computed on demand by bisecting a :class:`LineIndex` of the text's
newlines, built the first time a position is asked for. The index keeps
the newline offsets, not the text, so a parsed element can hold it with
its start offset and resolve its own position when it is first read
(:attr:`repro.xmlio.tree.Element.source_location`), long after the
scanner and its text are gone. :mod:`repro.xmlio.parser`, the listing
chunker in :mod:`repro.xmlio.recovery` and :mod:`repro.xmlio.dtd` all
build on it, so position reporting is consistent across the substrate.

Next to the scanner sit the token patterns (:data:`START_TAG`,
:data:`END_TAG`, :data:`ATTRIBUTE`), built from the same name character
sets as :data:`NAME`. The parser and the listing chunker take each
well-formed tag in one anchored match of them and leave only what they
decline to the scanner primitives.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left

from .errors import SourceLocation, XMLSyntaxError

#: Characters allowed to *start* an XML name (simplified to ASCII plus a
#: couple of common extras; sufficient for schema-matching workloads).
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
#: Characters allowed in the body of an XML name.
_NAME_BODY = _NAME_START | frozenset("0123456789.-")


def _char_class(chars: frozenset[str]) -> str:
    return "[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]"


#: An XML name, from the same character sets as :func:`is_name_start`
#: and :func:`is_name_char`.
NAME = re.compile(_char_class(_NAME_START) + _char_class(_NAME_BODY) + "*")
#: A (possibly empty) run of name characters.
NAME_CHARS = re.compile(_char_class(_NAME_BODY) + "*")
#: A (possibly empty) run of whitespace: exactly the characters for
#: which ``str.isspace()`` is true.
WHITESPACE = re.compile(r"\s*")
#: A run of character data up to the next markup or entity reference.
CHAR_DATA = re.compile(r"[^<&]+")

# The token patterns: each takes one well-formed tag in one anchored
# match and declines anything else, so the parser's per-construct
# grammar only ever sees what it has to check or repair. An attribute
# value containing "&" is declined, because its references need
# resolving.
#: One attribute of a :data:`START_TAG`'s attribute run: its name, and
#: its double- or single-quoted value (the other group is empty).
ATTRIBUTE = re.compile(
    rf"""\s+({NAME.pattern})\s*=\s*(?:"([^"&]*)"|'([^'&]*)')""")
#: A start tag: its ``tag``, its run of ``attributes`` and ``empty``,
#: ``"/"`` if it closes itself.
START_TAG = re.compile(
    rf"<(?P<tag>{NAME.pattern})(?P<attributes>(?:{ATTRIBUTE.pattern})*)"
    r"\s*(?P<empty>/?)>")
#: An end tag and its name.
END_TAG = re.compile(rf"</({NAME.pattern})\s*>")
#: The start of a top-level construct: a start tag, a comment, a
#: processing instruction or a markup declaration.
FRAGMENT_START = re.compile(f"<(?:[!?]|{NAME.pattern})")
#: Where a skipped markup declaration has to look again.
_DECL_MARK = re.compile("['\"\\[\\]>]")
_NEWLINE = re.compile("\n")
#: The body of a character reference: ``#`` and ASCII decimal digits, or
#: ``#x`` and hex digits (XML's ``CharRef``).
_CHAR_REF = re.compile("#(?:([0-9]+)|x([0-9a-fA-F]+))")

#: The five predefined XML entities.
PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


def is_name_start(ch: str) -> bool:
    """True if ``ch`` may begin an XML name."""
    return ch in _NAME_START


def is_name_char(ch: str) -> bool:
    """True if ``ch`` may appear inside an XML name."""
    return ch in _NAME_BODY


class LineIndex:
    """Where one text's newlines sit: enough to turn an offset into a
    (line, column) once the text itself is gone.

    ``start_line``/``start_column`` give the position of the text's
    first character, so a chunk of a larger document reports
    file-absolute positions. The newline offsets are kept as one
    ``array`` of machine integers; the index holds no reference to the
    text it was built from.
    """

    __slots__ = ("newlines", "start_line", "start_column")

    def __init__(self, text: str, start_line: int = 1,
                 start_column: int = 1) -> None:
        self.newlines = array(
            "q", [match.start() for match in _NEWLINE.finditer(text)])
        self.start_line = start_line
        self.start_column = start_column

    def location(self, pos: int) -> SourceLocation:
        """The 1-based (line, column) of offset ``pos`` of the text."""
        newlines = self.newlines
        before = bisect_left(newlines, pos)
        if before == 0:
            return SourceLocation(self.start_line, self.start_column + pos)
        return SourceLocation(self.start_line + before,
                              pos - newlines[before - 1])


class Scanner:
    """A cursor over ``text``; positions are computed, not tracked.

    ``pos`` is the only state the primitives move. :attr:`line` and
    :attr:`column` are derived from it, so the reported position can
    never drift from the cursor.
    """

    def __init__(self, text: str, line: int = 1, column: int = 1) -> None:
        """``line``/``column`` give the position of ``text[0]`` —
        parsers working on a slice of a larger document pass the slice's
        start so every reported location is file-absolute."""
        self.text = text
        self.pos = 0
        self.start_line = line
        self.start_column = column
        self._lines: LineIndex | None = None

    # ------------------------------------------------------------------
    # position
    # ------------------------------------------------------------------
    @property
    def lines(self) -> LineIndex:
        """The text's newline index, built on first use."""
        lines = self._lines
        if lines is None:
            lines = self._lines = LineIndex(self.text, self.start_line,
                                            self.start_column)
        return lines

    def location(self, pos: int | None = None) -> SourceLocation:
        """The 1-based (line, column) of the cursor, or of ``pos``."""
        return self.lines.location(self.pos if pos is None else pos)

    @property
    def line(self) -> int:
        return self.location().line

    @property
    def column(self) -> int:
        return self.location().column

    def error(self, message: str) -> XMLSyntaxError:
        """Build a syntax error pinned at the current position."""
        location = self.location()
        return XMLSyntaxError(message, location.line, location.column)

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    @property
    def at_end(self) -> bool:
        """True once every character has been consumed."""
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        """The character ``offset`` ahead of the cursor, or ``""`` at EOF."""
        index = self.pos + offset
        if index >= len(self.text):
            return ""
        return self.text[index]

    def looking_at(self, prefix: str) -> bool:
        """True if the unconsumed input starts with ``prefix``."""
        return self.text.startswith(prefix, self.pos)

    def advance(self, count: int = 1) -> str:
        """Consume ``count`` characters and return them."""
        start = self.pos
        self.pos = min(start + count, len(self.text))
        return self.text[start:self.pos]

    def consume(self, pattern: re.Pattern) -> str:
        """Consume and return ``pattern``'s match at the cursor
        (``""`` when it does not match here)."""
        match = pattern.match(self.text, self.pos)
        if match is None:
            return ""
        self.pos = match.end()
        return match.group()

    def skip_to(self, pattern: re.Pattern) -> re.Match | None:
        """Move to the start of ``pattern``'s next match and return it;
        with no match ahead, move to EOF and return ``None``."""
        match = pattern.search(self.text, self.pos)
        self.pos = len(self.text) if match is None else match.start()
        return match

    # ------------------------------------------------------------------
    # compound consumers
    # ------------------------------------------------------------------
    def expect(self, literal: str) -> None:
        """Consume ``literal`` or raise."""
        if not self.looking_at(literal):
            found = self.peek() or "<end of input>"
            raise self.error(f"expected {literal!r}, found {found!r}")
        self.pos += len(literal)

    def skip_whitespace(self) -> int:
        """Consume any run of whitespace; return how many chars were eaten."""
        return len(self.consume(WHITESPACE))

    def read_name(self) -> str:
        """Consume and return an XML name."""
        name = self.consume(NAME)
        if not name:
            found = self.peek() or "<end of input>"
            raise self.error(f"expected a name, found {found!r}")
        return name

    def read_until(self, terminator: str) -> str:
        """Consume up to (but not including) ``terminator``; consume it too.

        Returns the text before the terminator. Raises at EOF.
        """
        index = self.text.find(terminator, self.pos)
        if index < 0:
            raise self.error(f"unterminated construct, expected {terminator!r}")
        chunk = self.text[self.pos:index]
        self.pos = index + len(terminator)
        return chunk

    def skip_past(self, terminator: str) -> None:
        """Consume through ``terminator``, or to EOF if it never appears."""
        index = self.text.find(terminator, self.pos)
        self.pos = len(self.text) if index < 0 else index + len(terminator)

    def skip_markup_decl(self) -> None:
        """Consume the ``<!...>`` declaration at the cursor, honouring
        quotes and ``[...]``; one that never closes runs to EOF."""
        self.pos += 2
        depth = 0
        while (mark := self.skip_to(_DECL_MARK)) is not None:
            ch = mark.group()
            self.pos += 1
            if ch in ("'", '"'):
                self.skip_past(ch)
            elif ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                return

    def read_quoted(self) -> str:
        """Consume a single- or double-quoted literal; return its body."""
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error("expected a quoted literal")
        self.pos += 1
        return self.read_until(quote)


def decode_entity(name: str) -> str | None:
    """Resolve an entity reference body (the part between ``&`` and ``;``).

    Supports the five predefined entities plus decimal (``#65``) and hex
    (``#x41``) character references to an XML ``Char``; anything else
    is ``None``.
    """
    if name in PREDEFINED_ENTITIES:
        return PREDEFINED_ENTITIES[name]
    match = _CHAR_REF.fullmatch(name)
    if match is None:
        return None
    decimal, hexadecimal = match.groups()
    if decimal is not None:
        # int() refuses decimal strings over 4,300 digits; any value
        # past the last Char (7 digits) is out of range anyway.
        decimal = decimal.lstrip("0")
        code = int(decimal or "0") if len(decimal) <= 7 else -1
    else:
        code = int(hexadecimal, 16)
    if code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF \
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF:
        return chr(code)
    return None
