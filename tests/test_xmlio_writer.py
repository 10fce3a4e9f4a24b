"""Round-trip and serialization tests for the XML/DTD writers.

Includes hypothesis property tests: any tree we can build out of legal
names and text must survive ``parse(write(tree))`` unchanged, and any DTD
must survive ``parse_dtd(write_dtd(dtd))``.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlio import (Element, Text, escape_attribute, escape_text,
                         parse_document, parse_dtd, parse_element,
                         write_content_model, write_document, write_dtd,
                         write_element)

# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

tag_names = st.text(alphabet=string.ascii_lowercase + "-",
                    min_size=1, max_size=8).filter(
    lambda s: s[0].isalpha() and s[-1] != "-")

# Whitespace-only, CR and non-ASCII text included: the round trips parse
# with keep_whitespace=True, which keeps every text run as written.
_TEXT_CHARS = string.ascii_letters + string.digits + \
    " \t\r\n&<>'\"$,.()-\u00e9\u2014\U0001f600"
text_values = st.one_of(st.text(alphabet=" \t\r\n", min_size=1, max_size=4),
                        st.text(alphabet=_TEXT_CHARS, min_size=1,
                                max_size=30))

attr_values = st.text(alphabet=_TEXT_CHARS, max_size=20)


@st.composite
def elements(draw, max_depth=3):
    tag = draw(tag_names)
    attributes = draw(st.dictionaries(tag_names, attr_values, max_size=3))
    node = Element(tag, attributes)
    if max_depth <= 0:
        body = draw(st.one_of(st.none(), text_values))
        if body is not None:
            node.append_text(body)
        return node
    kind = draw(st.integers(0, 2))
    if kind == 0:
        node.append_text(draw(text_values))
    elif kind == 1:
        for child in draw(st.lists(elements(max_depth=max_depth - 1),
                                   max_size=3)):
            node.append(child)
    return node


def trees_equal(a: Element, b: Element) -> bool:
    if a.tag != b.tag or a.attributes != b.attributes:
        return False
    if len(a.children) != len(b.children):
        return False
    for ca, cb in zip(a.children, b.children):
        if isinstance(ca, Text) != isinstance(cb, Text):
            return False
        if isinstance(ca, Text):
            if ca.value != cb.value:
                return False
        elif not trees_equal(ca, cb):
            return False
    return True


class TestElementRoundTrip:
    @given(elements())
    @settings(max_examples=150, deadline=None)
    def test_compact_roundtrip(self, tree):
        text = write_element(tree)
        parsed = parse_element(text, keep_whitespace=True)
        assert trees_equal(tree, parsed)

    def test_escaping(self):
        node = Element("t")
        node.append_text("a < b & c > d")
        out = write_element(node)
        assert "&lt;" in out and "&amp;" in out
        assert parse_element(out).immediate_text() == "a < b & c > d"

    @given(st.text(alphabet=_TEXT_CHARS + "&<>\"&;#x\u00fc\u4e2d"))
    @settings(max_examples=300, deadline=None)
    def test_escapes_equal_a_per_character_reference(self, value):
        text_escapes = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
        attr_escapes = {**text_escapes, '"': "&quot;"}
        assert escape_text(value) == "".join(
            text_escapes.get(ch, ch) for ch in value)
        assert escape_attribute(value) == "".join(
            attr_escapes.get(ch, ch) for ch in value)

    def test_attribute_escaping(self):
        node = Element("t", {"q": 'say "hi" & <bye>'})
        out = write_element(node)
        assert parse_element(out).attributes["q"] == 'say "hi" & <bye>'

    def test_empty_element_self_closes(self):
        assert write_element(Element("x")) == "<x/>"

    def test_pretty_print(self):
        root = parse_element("<a><b>x</b><c><d>y</d></c></a>")
        out = write_element(root, indent=2)
        lines = out.splitlines()
        assert lines[0] == "<a>"
        assert lines[1] == "  <b>x</b>"
        assert "    <d>y</d>" in lines

    def test_pretty_print_reparses_equal(self):
        root = parse_element("<a><b>x</b><c><d>y</d></c></a>")
        reparsed = parse_element(write_element(root, indent=2))
        assert trees_equal(root, reparsed)


class TestDocumentWriter:
    def test_document_with_doctype(self):
        doc = parse_document(
            "<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r>x</r>")
        out = write_document(doc)
        assert out.startswith("<?xml")
        assert "<!DOCTYPE r [" in out
        reparsed = parse_document(out)
        assert reparsed.doctype_name == "r"
        assert reparsed.root.immediate_text() == "x"

    def test_document_without_doctype(self):
        doc = parse_document("<r/>")
        assert "<!DOCTYPE" not in write_document(doc)


DTD_SAMPLES = [
    "<!ELEMENT a (#PCDATA)>",
    "<!ELEMENT x (a?, b*, c+)><!ELEMENT a (#PCDATA)>"
    "<!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>",
    "<!ELEMENT x (a | b)><!ELEMENT a EMPTY><!ELEMENT b ANY>",
    "<!ELEMENT x ((a, b) | c)*><!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
    "<!ELEMENT c EMPTY>",
    "<!ELEMENT d (#PCDATA | em)*><!ELEMENT em (#PCDATA)>",
]


class TestDTDRoundTrip:
    def test_samples_roundtrip(self):
        for sample in DTD_SAMPLES:
            dtd = parse_dtd(sample)
            text = write_dtd(dtd)
            reparsed = parse_dtd(text)
            assert set(reparsed.tag_names()) == set(dtd.tag_names())
            for name in dtd.tag_names():
                assert repr(reparsed[name].model) == repr(dtd[name].model), \
                    f"model of {name} changed through round trip"

    def test_attlist_roundtrip(self):
        dtd = parse_dtd(
            "<!ELEMENT a (#PCDATA)>"
            '<!ATTLIST a id CDATA #REQUIRED s (x|y) "x">')
        reparsed = parse_dtd(write_dtd(dtd))
        attrs = reparsed["a"].attributes
        assert attrs["id"].default == "#REQUIRED"
        assert attrs["s"].default == "x"

    def test_content_model_rendering(self):
        dtd = parse_dtd("<!ELEMENT x (a?, (b | c)+)>"
                        "<!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
                        "<!ELEMENT c EMPTY>")
        rendered = write_content_model(dtd["x"].model)
        assert rendered == "(a?, (b | c)+)"
