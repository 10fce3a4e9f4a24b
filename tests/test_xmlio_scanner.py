"""Positions and whitespace of the run-based scanner.

The scanner computes ``line``/``column`` from a newline index instead of
counting characters as it consumes them, so these tests pin its
positions against an independent count over ``text[:offset]``.
"""

import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlio import Element, XMLSyntaxError, parse_fragments
from repro.xmlio.lexer import (ATTRIBUTE, END_TAG, NAME, NAME_CHARS,
                               START_TAG, WHITESPACE, Scanner,
                               is_name_char, is_name_start)
from repro.xmlio.writer import escape_attribute, escape_text, write_element

ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))


def position(text, offset):
    """1-based (line, column) of ``text[offset]``, counted directly."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


# ---------------------------------------------------------------------------
# random trees, written out with every element's "<" offset
# ---------------------------------------------------------------------------
names = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(string.ascii_letters + "_"),
    st.text(string.ascii_letters + string.digits + ".-", max_size=4))
text_chars = st.sampled_from(
    ["a", "Z", "7", " ", "\t", "\n", "\r\n", "é", "中", "€", "\U0001f600",
     "&", "<", ">", "'", '"', ";"])
plain_texts = st.lists(text_chars, min_size=1, max_size=8).map("".join)


@st.composite
def text_pieces(draw):
    """(markup, value) for one run of character data: escaped text, a
    character reference, or a CDATA section."""
    value = draw(plain_texts)
    kind = draw(st.sampled_from(["escaped", "hex", "decimal", "cdata"]))
    if kind == "hex":
        return "".join(f"&#x{ord(ch):X};" for ch in value), value
    if kind == "decimal":
        return "".join(f"&#{ord(ch)};" for ch in value), value
    if kind == "cdata":
        return f"<![CDATA[{value}]]>", value
    return escape_text(value), value


@st.composite
def trees(draw, depth=0):
    """``(element, children)`` where each child is a subtree or a list
    of text pieces; the element carries the decoded text."""
    node = Element(draw(names), draw(st.dictionaries(
        names, plain_texts, max_size=2)))
    children = []
    for _ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
        if draw(st.booleans()):
            child, grandchildren = draw(trees(depth=depth + 1))
            node.append(child)
            children.append((child, grandchildren))
        elif not children or not isinstance(children[-1], list):
            pieces = draw(st.lists(text_pieces(), min_size=1, max_size=3))
            node.append_text("".join(value for _, value in pieces))
            children.append(pieces)
    return node, children


def render(tree, out, offsets, escaped_only):
    """Append ``tree``'s markup to ``out`` (a list of strings), recording
    each element's start offset in document order."""
    node, children = tree
    offsets.append(sum(map(len, out)))
    attrs = "".join(f' {name}="{escape_attribute(value)}"'
                    for name, value in node.attributes.items())
    if not children:
        out.append(f"<{node.tag}{attrs}/>")
        return
    out.append(f"<{node.tag}{attrs}>")
    for child in children:
        if isinstance(child, list):
            for markup, value in child:
                out.append(escape_text(value) if escaped_only else markup)
        else:
            render(child, out, offsets, escaped_only)
    out.append(f"</{node.tag}>")


def dump(node):
    return (node.tag, node.attributes,
            [dump(c) if isinstance(c, Element) else c.value
             for c in node.children])


separators = st.lists(st.sampled_from([" ", "\t", "\n", "\r\n"]),
                      min_size=1, max_size=3).map("".join)


@st.composite
def documents(draw, escaped_only=False):
    """``(text, roots, offsets)`` for a few sibling trees. With
    ``escaped_only`` each tree is written by :func:`write_element`."""
    roots = draw(st.lists(trees(), min_size=1, max_size=3))
    out, offsets = [draw(separators)], []
    for node, children in roots:
        before = len(out)
        render((node, children), out, offsets, escaped_only)
        if escaped_only:
            assert "".join(out[before:]) == write_element(node)
            out[before:] = [write_element(node)]
        out.append(draw(separators))
    return "".join(out), [node for node, _ in roots], offsets


def iter_elements(roots):
    for root in roots:
        yield from root.iter()


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(documents(escaped_only=True))
    def test_write_element_output_round_trips(self, document):
        self.check(*document)

    @settings(max_examples=100, deadline=None)
    @given(documents())
    def test_references_and_cdata_round_trip(self, document):
        self.check(*document)

    @staticmethod
    def check(text, roots, offsets):
        parsed = parse_fragments(text, keep_whitespace=True)
        assert [dump(r) for r in parsed] == [dump(r) for r in roots]
        located = [node.source_location
                   for node in iter_elements(parsed)]
        assert [(loc.line, loc.column) for loc in located] == \
            [position(text, offset) for offset in offsets]


# ---------------------------------------------------------------------------
# pinned properties
# ---------------------------------------------------------------------------
class TestPositions:
    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from("ab\n\r\té"), max_size=40),
           st.data())
    def test_seeded_scanner_reports_file_absolute_positions(self, text,
                                                            data):
        start = data.draw(st.integers(0, len(text)))
        offset = data.draw(st.integers(start, len(text)))
        scanner = Scanner(text[start:], *position(text, start))
        scanner.advance(offset - start)
        location = scanner.location()
        assert (location.line, location.column) == position(text, offset)
        assert (scanner.line, scanner.column) == position(text, offset)

    @settings(max_examples=100, deadline=None)
    @given(documents())
    def test_unterminated_element_reports_end_of_input(self, document):
        text, roots, _ = document
        last = roots[-1]
        if not last.children:
            return
        cut = text.rstrip(" \t\r\n")
        assert cut.endswith(f"</{last.tag}>")
        cut = cut[:-len(f"</{last.tag}>")]
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_fragments(cut)
        assert (excinfo.value.line, excinfo.value.column) == \
            position(cut, len(cut))
        assert "unterminated element" in str(excinfo.value)

    def test_positions_are_read_only(self):
        scanner = Scanner("a\nb")
        with pytest.raises(AttributeError):
            scanner.line = 5
        with pytest.raises(AttributeError):
            scanner.column = 5


class TestCharacterClasses:
    def test_whitespace_is_exactly_isspace(self):
        matched = set("".join(WHITESPACE.findall(ALL_CHARS)))
        assert matched == {ch for ch in ALL_CHARS if ch.isspace()}

    def test_name_patterns_share_the_name_predicates(self):
        body = set("".join(NAME_CHARS.findall(ALL_CHARS)))
        assert body == {ch for ch in ALL_CHARS if is_name_char(ch)}
        # One character per match: "\0" is not a name character.
        starts = set(NAME.findall("\0".join(ALL_CHARS)))
        assert starts == {ch for ch in ALL_CHARS if is_name_start(ch)}

    @pytest.mark.parametrize("pattern, template", [
        (START_TAG, "<{}/>"), (END_TAG, "</{}>"), (ATTRIBUTE, " {}=''"),
    ], ids=["start-tag", "end-tag", "attribute"])
    def test_token_patterns_share_the_name_predicates(self, pattern,
                                                      template):
        text = "".join(template.format(ch) for ch in ALL_CHARS)
        names = {match.group(1) for match in pattern.finditer(text)}
        assert names == {ch for ch in ALL_CHARS if is_name_start(ch)}
