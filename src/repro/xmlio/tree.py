"""In-memory tree model for XML documents.

The model is intentionally small: an :class:`Element` has a tag, an
attribute dictionary, a list of children (elements and text runs,
interleaved in document order), and a parent pointer. A :class:`Document`
wraps the root element together with optional prolog information.

LSD treats XML attributes and sub-elements uniformly (Section 2.1 of the
paper), so the schema-matching layers above mostly use :meth:`Element.iter`
and :meth:`Element.text_content`.

Positions are resolved on read. A parsed element stores only its start
tag's offset and the :class:`~repro.xmlio.lexer.LineIndex` its parse
shares among all its elements; :attr:`Element.source_location` turns
the pair into a line and column the first time it is read and keeps
the result. Only the validator, error messages and tests read them, so
a listing that is only matched never pays for its positions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .errors import SourceLocation
    from .lexer import LineIndex


class Text:
    """A run of character data inside an element."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Text({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Text) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Text", self.value))


class Element:
    """An XML element: tag, attributes, ordered children, parent pointer."""

    __slots__ = ("tag", "attributes", "children", "parent", "_at",
                 "_lines")

    def __init__(self, tag: str,
                 attributes: dict[str, str] | None = None) -> None:
        self.tag = tag
        self.attributes: dict[str, str] = \
            dict(attributes) if attributes else {}
        self.children: list[Element | Text] = []
        self.parent: Element | None = None
        #: While ``_lines`` is set: the start tag's offset into the
        #: text ``_lines`` indexes. Otherwise the resolved location.
        self._at: int | SourceLocation | None = None
        self._lines: LineIndex | None = None

    @property
    def source_location(self) -> SourceLocation | None:
        """Where the element's start tag sat in the parsed source
        (:class:`~repro.xmlio.errors.SourceLocation`), or ``None`` for
        programmatically built trees. Resolved on first read."""
        lines = self._lines
        if lines is not None:
            self._at = lines.location(self._at)
            self._lines = None
        return self._at

    @source_location.setter
    def source_location(self, location: SourceLocation | None) -> None:
        self._at = location
        self._lines = None

    def location(self) -> SourceLocation | None:
        """The element's source position, or ``None`` when unknown."""
        return self.source_location

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, child: "Element | Text") -> "Element | Text":
        """Append ``child`` and (for elements) set its parent pointer."""
        if isinstance(child, Element):
            child.parent = self
        self.children.append(child)
        return child

    def append_text(self, value: str) -> Text:
        """Append a text run, merging with a trailing text sibling."""
        if self.children and isinstance(self.children[-1], Text):
            last = self.children[-1]
            merged = Text(last.value + value)
            self.children[-1] = merged
            return merged
        node = Text(value)
        self.children.append(node)
        return node

    def make_child(self, tag: str, text: str | None = None,
                   attributes: dict[str, str] | None = None) -> "Element":
        """Create, append and return a child element (optionally with text)."""
        child = Element(tag, attributes)
        if text is not None:
            child.append_text(text)
        self.append(child)
        return child

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    @property
    def element_children(self) -> list["Element"]:
        """Child *elements* only, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    @property
    def is_leaf(self) -> bool:
        """True if the element contains no child elements."""
        return not self.element_children

    def find(self, tag: str) -> "Element | None":
        """First direct child element with the given tag, or ``None``."""
        for child in self.element_children:
            if child.tag == tag:
                return child
        return None

    def findall(self, tag: str) -> list["Element"]:
        """All direct child elements with the given tag."""
        return [c for c in self.element_children if c.tag == tag]

    def iter(self, tag: str | None = None) -> Iterator["Element"]:
        """Depth-first pre-order iterator over this element and descendants.

        When ``tag`` is given, only elements with that tag are yielded.
        """
        if tag is None or self.tag == tag:
            yield self
        for child in self.element_children:
            yield from child.iter(tag)

    def path(self) -> str:
        """Slash-separated tag path from the root to this element."""
        parts: list[str] = []
        node: Element | None = self
        while node is not None:
            parts.append(node.tag)
            node = node.parent
        return "/".join(reversed(parts))

    def ancestors(self) -> Iterator["Element"]:
        """Iterate ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Height of the subtree rooted here (a leaf has depth 1)."""
        kids = self.element_children
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    # ------------------------------------------------------------------
    # content
    # ------------------------------------------------------------------
    def text_content(self) -> str:
        """All character data in the subtree, concatenated in order.

        Attribute values are included as well because LSD treats attributes
        like sub-elements.
        """
        parts: list[str] = []
        self._collect_text(parts)
        # Collapse runs of whitespace so the join never doubles spaces.
        # One collapse over the flat fragment list produces the same
        # word sequence as collapsing at every recursion level.
        return " ".join(" ".join(parts).split())

    def _collect_text(self, parts: list[str]) -> None:
        parts.extend(self.attributes.values())
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.value)
            else:
                child._collect_text(parts)

    def immediate_text(self) -> str:
        """Character data directly inside this element (not descendants)."""
        return " ".join(
            c.value for c in self.children if isinstance(c, Text)
        ).strip()

    def copy(self) -> "Element":
        """Deep copy of the subtree (parent pointer of the copy is None)."""
        clone = Element(self.tag, self.attributes)
        clone._at = self._at
        clone._lines = self._lines
        for child in self.children:
            if isinstance(child, Text):
                clone.children.append(Text(child.value))
            else:
                clone.append(child.copy())
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({self.tag!r}, children={len(self.children)})"


class Document:
    """A parsed XML document: optional prolog info plus the root element."""

    __slots__ = ("root", "doctype_name", "version", "encoding",
                 "internal_subset")

    def __init__(self, root: Element, doctype_name: str | None = None,
                 version: str | None = None,
                 encoding: str | None = None,
                 internal_subset: str | None = None) -> None:
        self.root = root
        self.doctype_name = doctype_name
        self.version = version
        self.encoding = encoding
        #: Raw text of the DOCTYPE internal subset, if the document had one;
        #: feed it to :func:`repro.xmlio.dtd.parse_dtd`.
        self.internal_subset = internal_subset

    def iter(self, tag: str | None = None) -> Iterator[Element]:
        """Iterate the whole tree (see :meth:`Element.iter`)."""
        return self.root.iter(tag)

    def tags(self) -> set[str]:
        """The set of distinct element tags used in the document."""
        return {element.tag for element in self.iter()}


def element(tag: str, *children: "Element | str",
            attributes: dict[str, str] | None = None) -> Element:
    """Convenience builder: ``element('a', element('b', 'text'))``.

    String children become text runs; element children are appended in
    order. This keeps test and example code terse.
    """
    node = Element(tag, attributes)
    for child in children:
        if isinstance(child, str):
            node.append_text(child)
        else:
            node.append(child)
    return node


def from_pairs(tag: str, pairs: Iterable[tuple[str, str]]) -> Element:
    """Build a flat two-level element from ``(child_tag, text)`` pairs."""
    node = Element(tag)
    for child_tag, text in pairs:
        node.make_child(child_tag, text)
    return node
