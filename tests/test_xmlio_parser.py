"""Unit tests for the from-scratch XML parser."""

import time

import pytest

from repro.datasets import load_domain
from repro.xmlio import (Element, Text, XMLSyntaxError, parse_document,
                         parse_element, parse_fragments, write_element)
from repro.xmlio.parser import _Parser
from repro.xmlio.recovery import INGEST_MODES, read_fragments


class TestBasicParsing:
    def test_single_empty_element(self):
        doc = parse_document("<root/>")
        assert doc.root.tag == "root"
        assert doc.root.children == []

    def test_element_with_text(self):
        root = parse_element("<price>$70,000</price>")
        assert root.tag == "price"
        assert root.immediate_text() == "$70,000"

    def test_nested_elements(self):
        root = parse_element(
            "<house-listing><location>Seattle, WA</location>"
            "<price>$70,000</price></house-listing>")
        assert [c.tag for c in root.element_children] == ["location", "price"]
        assert root.find("location").immediate_text() == "Seattle, WA"

    def test_deeply_nested(self):
        root = parse_element("<a><b><c><d>x</d></c></b></a>")
        assert root.depth() == 4
        assert root.find("b").find("c").find("d").immediate_text() == "x"

    def test_paper_figure3_listing(self):
        text = """
        <house-listing>
          <location>Seattle, WA</location>
          <price> $70,000</price>
          <contact><name>Kate Richardson</name>
            <phone>(206) 523 4719</phone>
          </contact>
        </house-listing>
        """
        root = parse_element(text)
        assert root.tag == "house-listing"
        contact = root.find("contact")
        assert contact.find("phone").immediate_text() == "(206) 523 4719"
        assert "Kate Richardson" in root.text_content()

    def test_attributes(self):
        root = parse_element('<listing id="42" status="for sale"/>')
        assert root.attributes == {"id": "42", "status": "for sale"}

    def test_single_quoted_attributes(self):
        root = parse_element("<a x='1'/>")
        assert root.attributes["x"] == "1"

    def test_whitespace_between_elements_dropped(self):
        root = parse_element("<a>\n  <b>x</b>\n  <c>y</c>\n</a>")
        assert all(isinstance(c, Element) for c in root.children)

    def test_keep_whitespace_mode(self):
        root = parse_element("<a> <b>x</b> </a>", keep_whitespace=True)
        assert any(isinstance(c, Text) for c in root.children)

    def test_mixed_content_preserved(self):
        root = parse_element("<d>Call <b>now</b> please</d>")
        kinds = [type(c).__name__ for c in root.children]
        assert kinds == ["Text", "Element", "Text"]
        assert root.text_content() == "Call now please"


class TestEntitiesAndSpecials:
    def test_predefined_entities(self):
        root = parse_element("<t>a &lt; b &amp;&amp; c &gt; d</t>")
        assert root.immediate_text() == "a < b && c > d"

    def test_numeric_entities(self):
        root = parse_element("<t>&#65;&#x42;</t>")
        assert root.immediate_text() == "AB"

    def test_entity_in_attribute(self):
        root = parse_element('<t name="a&amp;b"/>')
        assert root.attributes["name"] == "a&b"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_element("<t>&nosuch;</t>")

    def test_cdata_section(self):
        root = parse_element("<t><![CDATA[<not> & parsed]]></t>")
        assert root.immediate_text() == "<not> & parsed"

    def test_comments_skipped(self):
        root = parse_element("<a><!-- hidden --><b>x</b></a>")
        assert [c.tag for c in root.element_children] == ["b"]

    def test_processing_instruction_skipped(self):
        root = parse_element("<a><?php echo ?><b>x</b></a>")
        assert [c.tag for c in root.element_children] == ["b"]


class TestProlog:
    def test_xml_declaration(self):
        doc = parse_document('<?xml version="1.1" encoding="utf-8"?><r/>')
        assert doc.version == "1.1"
        assert doc.encoding == "utf-8"

    def test_doctype_name(self):
        doc = parse_document("<!DOCTYPE listing><listing/>")
        assert doc.doctype_name == "listing"

    def test_doctype_internal_subset_captured(self):
        doc = parse_document(
            "<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r>x</r>")
        assert "<!ELEMENT r" in doc.internal_subset

    def test_doctype_system_identifier(self):
        doc = parse_document('<!DOCTYPE r SYSTEM "r.dtd"><r/>')
        assert doc.doctype_name == "r"

    def test_leading_comment(self):
        doc = parse_document("<!-- hello --><r/>")
        assert doc.root.tag == "r"


class TestDeclarationPseudoAttributes:
    """XML 1.0 §2.8: ``version`` first and required, then an optional
    ``encoding``, then an optional ``standalone`` of ``yes`` or ``no``;
    no other name and no repeats."""

    @pytest.mark.parametrize("text, reason, line, column", [
        ("<?xml?><a/>", "missing 'version'", 1, 6),
        ('<?xml encoding="utf-8"?><a/>',
         "expected 'version' first, found 'encoding'", 1, 7),
        ('<?xml version="1.0" bogus="x"?><a/>',
         "unknown pseudo-attribute 'bogus'", 1, 21),
        ('<?xml standalone="yes" version="1.0"?><a/>',
         "expected 'version' first, found 'standalone'", 1, 7),
        ('<?xml version="1.0" standalone="no" encoding="utf-8"?><a/>',
         "pseudo-attribute 'encoding' after 'standalone'", 1, 37),
        ('<?xml version="1.0" version="1.0"?><a/>',
         "repeated pseudo-attribute 'version'", 1, 21),
        ('<?xml version="1.0"\n  standalone="maybe"?><a/>',
         "standalone must be 'yes' or 'no', found 'maybe'", 2, 14),
        ('<?xml version="banana" encoding="1 2"?><a/>',
         "version must be '1.' and digits, found 'banana'", 1, 15),
        ("<?xml version='2.0'?><a/>",
         "version must be '1.' and digits, found '2.0'", 1, 15),
        ('<?xml version="1."?><a/>',
         "version must be '1.' and digits, found '1.'", 1, 15),
        ('\n <?xml version="1.0"\n\tencoding="1 2"?><a/>',
         "encoding must be a letter, then letters, digits, '.', '_' or "
         "'-', found '1 2'", 3, 11),
        ('<?xml version="1.0" encoding=""?><a/>',
         "encoding must be a letter, then letters, digits, '.', '_' or "
         "'-', found ''", 1, 30),
    ])
    def test_strict_raises_at_the_file_absolute_position(
            self, text, reason, line, column):
        for parse in (parse_document, parse_fragments):
            with pytest.raises(XMLSyntaxError) as info:
                parse(text)
            assert info.value.reason == f"XML declaration: {reason}"
            assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize("text", [
        "<?xml?><a/>",
        '<?xml encoding="utf-8"?><a/>',
        '<?xml version="1.0" bogus="x"?><a/>',
        '<?xml standalone="yes" version="1.0"?><a/>',
        '<?xml version="banana"?><a/>',
        '<?xml version="1.0" encoding="utf 8"?><a/>',
    ])
    @pytest.mark.parametrize("mode", ["lenient", "salvage"])
    def test_lenient_modes_record_the_violation(self, text, mode):
        roots, log = read_fragments(text, mode)
        assert [root.tag for root in roots] == ["a"]
        assert log.counts() == {"stray-markup": 1}

    def test_a_complete_declaration_is_accepted(self):
        doc = parse_document('<?xml version="1.0" encoding="utf-8" '
                             "standalone='no' ?><r/>")
        assert (doc.version, doc.encoding) == ("1.0", "utf-8")

    @pytest.mark.parametrize("version, encoding", [
        ("1.0", "UTF-8"), ("1.10", "ISO-8859-1"), ("1.1", "x.y_z-9"),
        ("1.0", "e")])
    def test_values_of_the_productions_are_accepted(self, version,
                                                    encoding):
        doc = parse_document(f'<?xml version="{version}" '
                             f'encoding="{encoding}"?><r/>')
        assert (doc.version, doc.encoding) == (version, encoding)


class TestReservedPITarget:
    """XML 1.0 §2.6: no processing-instruction target may be ``xml`` in
    any letter case; only the declaration at the start uses the name."""

    LATE_DECLARATION = '<?xml version="1.0"?><a/><?xml version=1.0?><b/>'

    def test_strict_rejects_a_declaration_after_the_first_element(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_fragments(self.LATE_DECLARATION)
        assert "reserved processing-instruction target 'xml'" in str(
            info.value)
        assert (info.value.line, info.value.column) == (1, 28)

    @pytest.mark.parametrize("text", ["<a><?XmL x?></a>",
                                      '<?XML version="1.0"?><a/>'])
    def test_strict_rejects_the_name_in_any_case(self, text):
        with pytest.raises(XMLSyntaxError, match="reserved"):
            parse_document(text)

    def test_names_that_only_start_with_xml_are_ordinary_targets(self):
        roots = parse_fragments('<?xml-stylesheet href="s.css"?><a/>'
                                "<?xmlfoo?><b><?xml-x y?></b>")
        assert [root.tag for root in roots] == ["a", "b"]

    @pytest.mark.parametrize("mode", ["lenient", "salvage"])
    def test_lenient_modes_record_a_late_declaration(self, mode):
        roots, log = read_fragments(self.LATE_DECLARATION, mode)
        assert [root.tag for root in roots] == ["a", "b"]
        assert log.counts() == {"stray-markup": 1}

    def test_lenient_repairs_and_salvage_drops_a_listing_holding_one(self):
        text = "<a><?xml x?>1</a><b>2</b>"
        roots, log = read_fragments(text, "lenient")
        assert [root.text_content() for root in roots] == ["1", "2"]
        assert log.recovered == [0]
        assert log.counts()["malformed-pi"] == 1
        roots, log = read_fragments(text, "salvage")
        assert [root.tag for root in roots] == ["b"]
        assert log.dropped == [0]


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "<a>",                      # unterminated
        "<a></b>",                  # mismatched end tag
        "<a><b></a></b>",           # crossed nesting
        "text only",                # no element
        "<a/><b/>",                 # two roots in document mode
        "<a x=1/>",                 # unquoted attribute
        '<a x="1" x="2"/>',         # duplicate attribute
        "<a><!-- -- --></a>",       # double hyphen in comment
        "<1a/>",                    # bad name start
        "< a/>",                    # space after <
    ])
    def test_malformed_documents_raise(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse_document(bad)

    @pytest.mark.parametrize("text, line, column", [
        ("<?xml version=1.0?><r/>", 1, 15),
        ("<?xml\n  version=1.0?><r/>", 2, 11),
    ])
    def test_declaration_error_is_file_absolute(self, text, line, column):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_document(text)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_document("<a>\n<b></c>\n</a>")
        assert excinfo.value.line == 2


class TestFragments:
    def test_multiple_top_level_elements(self):
        roots = parse_fragments("<l>one</l><l>two</l><l>three</l>")
        assert [r.immediate_text() for r in roots] == ["one", "two", "three"]

    def test_fragments_with_prolog(self):
        roots = parse_fragments('<?xml version="1.0"?><a/><b/>')
        assert [r.tag for r in roots] == ["a", "b"]

    def test_empty_input_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragments("   ")


class TestTreeModel:
    def test_path(self):
        root = parse_element("<a><b><c>x</c></b></a>")
        leaf = root.find("b").find("c")
        assert leaf.path() == "a/b/c"

    def test_iter_by_tag(self):
        root = parse_element("<a><b>1</b><c><b>2</b></c></a>")
        assert [b.immediate_text() for b in root.iter("b")] == ["1", "2"]

    def test_findall(self):
        root = parse_element("<a><b>1</b><b>2</b><c/></a>")
        assert len(root.findall("b")) == 2

    def test_text_content_includes_attributes(self):
        root = parse_element('<a note="attr text"><b>body</b></a>')
        content = root.text_content()
        assert "attr text" in content and "body" in content

    def test_copy_is_deep(self):
        root = parse_element("<a><b>x</b></a>")
        clone = root.copy()
        clone.find("b").children[0].value = "changed"
        assert root.find("b").immediate_text() == "x"

    def test_ancestors(self):
        root = parse_element("<a><b><c/></b></a>")
        c = root.find("b").find("c")
        assert [n.tag for n in c.ancestors()] == ["b", "a"]

    def test_parent_pointers(self):
        root = parse_element("<a><b/></a>")
        assert root.find("b").parent is root


class TestTokenPath:
    """Well-formed tags and text take one pattern match each; only what
    the patterns decline reaches the per-construct grammar."""

    @pytest.fixture(scope="class")
    def listings_text(self):
        source = load_domain("real_estate_1").sources[3]
        return "\n".join(write_element(listing, indent=2)
                         for listing in source.listings(200))

    @pytest.mark.parametrize("mode", INGEST_MODES)
    def test_well_formed_listings_never_enter_the_grammar(
            self, monkeypatch, listings_text, mode):
        calls = []
        for name in ("_parse_start_tag", "_parse_end_tag",
                     "_parse_declined", "_violation"):
            original = getattr(_Parser, name)

            def counting(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(_Parser, name, counting)
        roots, log = read_fragments(listings_text, mode)
        assert len(roots) == 200 and log.ok
        assert sum(len(list(root.iter())) for root in roots) > 2000
        assert calls == []

    @pytest.mark.parametrize("mode", INGEST_MODES)
    @pytest.mark.parametrize("body", [
        "".join(f"{' ' * 8}\n\tn{i}='v'" for i in range(11_000)),
        " " * 200_000,
        "".join(f" n{i}='&amp;' " for i in range(15_000)),
    ], ids=["attributes", "whitespace", "references"])
    def test_unterminated_start_tag_is_read_in_linear_time(self, mode,
                                                           body):
        text = "<l><a" + body
        assert len(text) >= 200_000
        started = time.perf_counter()
        try:
            read_fragments(text, mode)
        except XMLSyntaxError:
            assert mode == "strict"
        # Linear work takes at most ~0.2 s on a shared 2-CPU host; a
        # quadratic rescan of the tag (one per attribute) takes many
        # seconds.
        assert time.perf_counter() - started < 2.0
