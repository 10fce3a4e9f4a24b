"""Error types raised by the :mod:`repro.xmlio` substrate.

Every error carries a :class:`SourceLocation` (1-based line and column)
pointing a user at the offending byte of the document or DTD. Paths
where the position is genuinely unknowable (e.g. validating an element
tree that was built programmatically rather than parsed) use
:data:`UNKNOWN_LOCATION` instead of dropping the fields, so consumers —
including the ingestion recovery log, which reuses the same location
type — can always read ``error.location.line`` / ``.column``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A 1-based (line, column) position inside a source text.

    ``line == 0`` (see :data:`UNKNOWN_LOCATION`) means the position is
    unknown; :meth:`known` distinguishes the two without sentinel checks
    at every call site.
    """

    line: int
    column: int

    @property
    def known(self) -> bool:
        return self.line > 0

    def __str__(self) -> str:
        if not self.known:
            return "unknown position"
        return f"line {self.line}, column {self.column}"


#: The placeholder for errors whose position cannot be determined.
UNKNOWN_LOCATION = SourceLocation(0, 0)


def _normalize(line: int | None, column: int | None) -> SourceLocation:
    """Fold legacy ``(line, column)`` pairs into a SourceLocation.

    Historical call sites passed ``None``/``-1`` for unknown parts; a
    known line with an unknown column clamps the column to 1 so the
    location stays usable rather than half-missing.
    """
    if line is None or line < 1:
        return UNKNOWN_LOCATION
    if column is None or column < 1:
        return SourceLocation(line, 1)
    return SourceLocation(line, column)


class XMLError(Exception):
    """Base class for all errors raised by the XML substrate."""


class XMLSyntaxError(XMLError):
    """A document is not well-formed XML.

    Parameters
    ----------
    message:
        Human-readable description of what went wrong.
    line, column:
        1-based position of the offending character. Both default to
        unknown, but every parser-internal raise supplies them.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        #: The message without the location suffix.
        self.reason = message
        self.location = _normalize(line, column)
        self.line = self.location.line if self.location.known else line
        self.column = self.location.column if self.location.known \
            else column
        if self.location.known:
            message = f"{message} ({self.location})"
        super().__init__(message)


class DTDSyntaxError(XMLSyntaxError):
    """A DTD declaration could not be parsed."""


class ValidationError(XMLError):
    """A well-formed document does not conform to its DTD.

    ``path`` holds the slash-separated element path at which the violation
    was detected, e.g. ``"house-listing/contact"``; ``location`` the
    source position of that element when the tree came from the parser
    (programmatically built trees validate at :data:`UNKNOWN_LOCATION`).
    """

    def __init__(self, message: str, path: str | None = None,
                 location: SourceLocation | None = None) -> None:
        self.path = path
        self.location = location if location is not None \
            else UNKNOWN_LOCATION
        suffix = []
        if path:
            suffix.append(f"at {path}")
        if self.location.known:
            suffix.append(str(self.location))
        if suffix:
            message = f"{message} ({'; '.join(suffix)})"
        super().__init__(message)
