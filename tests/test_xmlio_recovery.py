"""Tests for error-recovering XML ingestion (lenient/salvage modes)."""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import load_domain
from repro.datasets.registry import DOMAIN_NAMES
from repro.resilience.faults import CORRUPTION_STYLES, corrupt_text
from repro.xmlio import parse_element, parse_fragments, write_element
from repro.xmlio.errors import XMLSyntaxError
from repro.xmlio.recovery import (INGEST_MODES, RecoveryLog,
                                  read_fragments, split_fragments)

CLEAN = """
<listing><price>100000</price><city>Miami</city></listing>
<listing><price>250000</price><city>Boston</city></listing>
"""

#: Listing 1 never closes <price>; its siblings are well-formed.
UNBALANCED = """
<listing><price>100000</price><city>Miami</city></listing>
<listing><price>250000<city>Boston</city></listing>
<listing><price>300000</price><city>Austin</city></listing>
"""


def tags_of(roots):
    return [[child.tag for child in root.element_children] for root in roots]


class TestStrictMode:
    def test_clean_input_matches_plain_parse(self):
        strict, log = read_fragments(CLEAN, "strict")
        plain = parse_fragments(CLEAN)
        assert log.ok
        assert [write_element(r) for r in strict] == \
            [write_element(r) for r in plain]

    def test_malformed_input_raises(self):
        with pytest.raises(XMLSyntaxError):
            read_fragments(UNBALANCED, "strict")

    def test_error_carries_line_and_column(self):
        try:
            read_fragments("<a>\n  <b>text</c>\n</a>", "strict")
        except XMLSyntaxError as exc:
            assert exc.location.line == 2
            assert exc.location.column > 1
            assert "line 2" in str(exc)
        else:
            pytest.fail("malformed input did not raise")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown ingestion mode"):
            read_fragments(CLEAN, "paranoid")
        assert set(INGEST_MODES) == {"strict", "lenient", "salvage"}


class TestLenientMode:
    def test_clean_input_is_identical_to_strict(self):
        lenient, log = read_fragments(CLEAN, "lenient")
        strict = parse_fragments(CLEAN)
        assert log.ok
        assert [write_element(r) for r in lenient] == \
            [write_element(r) for r in strict]

    def test_auto_closes_unbalanced_tag(self):
        roots, log = read_fragments(UNBALANCED, "lenient")
        assert len(roots) == 3
        assert log.recovered == [1]
        assert log.clean == [0, 2]
        # The repaired listing keeps both children; <price> was closed
        # at the mismatched </listing>.
        assert tags_of(roots)[1] == ["price"]
        assert roots[1].element_children[0].element_children[0].tag == "city"
        assert any(event.kind == "auto-closed" for event in log.events)

    def test_undeclared_entity_kept_as_text(self):
        roots, log = read_fragments(
            "<a><b>Tom &amp; Jerry &copy; now</b></a>", "lenient")
        assert roots[0].element_children[0].text_content() == "Tom & Jerry &copy; now"
        assert any(event.kind == "skipped-entity"
                   for event in log.events)

    def test_stray_angle_bracket_becomes_character_data(self):
        roots, log = read_fragments(
            "<a><b>price < 100</b></a>", "lenient")
        assert roots[0].element_children[0].text_content() == "price < 100"
        assert any(event.kind == "stray-markup" for event in log.events)

    def test_unclosed_at_end_of_input(self):
        roots, log = read_fragments("<a><b>text", "lenient")
        assert len(roots) == 1
        assert roots[0].element_children[0].text_content() == "text"
        auto = [e for e in log.events if e.kind == "auto-closed"]
        assert len(auto) == 2  # <b> and <a>

    def test_event_locations_are_file_absolute(self):
        text = ("<listing><price>1</price></listing>\n"
                "<listing><price>2<city>X</city></listing>\n")
        _, log = read_fragments(text, "lenient")
        lines = {event.location.line for event in log.events
                 if event.kind == "auto-closed"}
        assert lines == {2}
        entry = next(event.as_dict() for event in log.events
                     if event.kind == "auto-closed")
        assert entry["line"] == 2 and entry["column"] > 1
        assert entry["listing"] == 1


class TestTopLevelMisc:
    """A malformed comment, processing instruction or prolog, and a
    markup declaration between listings, are recorded, not skipped
    silently: strict rejects them."""

    @pytest.mark.parametrize("text, tags", [
        ("<!-->\n<a>1</a>", []),
        ("<a>1</a><!-- x -- y --><b/>", ["a", "b"]),
        ("<a>1</a>\n<?pi\n<b/>", ["a"]),
        ("<a/><!DOCTYPE x><b/>", ["a", "b"]),
        ("<a/><![CDATA[x]]><b/>", ["a", "b"]),
        ("<?xml version=1.0?><a/>", ["a"]),
        ("<!DOCTYPE 1><a/>", ["a"]),
        ("<!DOCTYPE a><!DOCTYPE b [<a/>", []),
    ])
    @pytest.mark.parametrize("mode", ["lenient", "salvage"])
    def test_recorded(self, text, tags, mode):
        with pytest.raises(XMLSyntaxError):
            read_fragments(text, "strict")
        roots, log = read_fragments(text, mode)
        assert [root.tag for root in roots] == tags
        assert "stray-markup" in log.counts()

    def test_well_formed_ones_stay_silent(self):
        roots, log = read_fragments(
            "<?pi x?><a>1</a><!-- ok --><!----><b/>", "lenient")
        assert [root.tag for root in roots] == ["a", "b"]
        assert log.ok

    def test_well_formed_prolog_stays_silent(self):
        roots, log = read_fragments(
            '<?xml version="1.0"?>\n<!-- c --><!DOCTYPE a [<!ELEMENT a '
            'ANY>]><?pi?><a>1</a><b/>', "lenient")
        assert [root.tag for root in roots] == ["a", "b"]
        assert log.ok


class TestSalvageMode:
    def test_drops_malformed_keeps_siblings(self):
        roots, log = read_fragments(UNBALANCED, "salvage")
        assert len(roots) == 2
        assert log.dropped == [1]
        assert log.clean == [0, 2]
        assert [root.element_children[0].text_content() for root in roots] == \
            ["100000", "300000"]

    def test_all_malformed_records_no_elements(self):
        roots, log = read_fragments("<a><b></a>", "salvage")
        assert roots == []
        assert any(event.kind == "no-elements" for event in log.events)


def test_each_listing_is_parsed_once(monkeypatch):
    """A malformed listing is read once, not strictly and then again
    to repair it: one scanner for the chunker, one per listing."""
    from repro.xmlio.lexer import Scanner
    texts = []
    init = Scanner.__init__

    def counting_init(self, text, *args):
        texts.append(text)
        init(self, text, *args)

    monkeypatch.setattr(Scanner, "__init__", counting_init)
    for mode in ("lenient", "salvage"):
        texts.clear()
        read_fragments(UNBALANCED, mode)
        assert len(texts) == 1 + 3, mode


class TestRecoveryLog:
    def test_as_dict_shape(self):
        _, log = read_fragments(UNBALANCED, "lenient")
        entry = log.as_dict()
        assert entry["listings"]["clean"] == 2
        assert entry["listings"]["recovered"] == [1]
        assert entry["listings"]["dropped"] == []
        assert entry["counts"]["recovered-listing"] == 1
        assert all({"kind", "message", "line", "column"}
                   <= set(event) for event in entry["events"])

    def test_empty_log_is_ok(self):
        log = RecoveryLog()
        assert log.ok
        assert log.counts() == {}

    def test_merged_files_keep_every_listing_index(self):
        """A second file's listings are numbered after the first's
        fragments, clean files included."""
        merged = RecoveryLog()
        for text in (UNBALANCED, "<listing/><listing/>", UNBALANCED):
            merged.merge(read_fragments(text, "lenient")[1])
        assert merged.fragments == 8
        entry = merged.as_dict()
        assert entry["listings"] == {"clean": 6, "recovered": [1, 6],
                                     "dropped": []}
        assert entry["counts"]["recovered-listing"] == 2
        assert [event["listing"] for event in entry["events"]
                if event["kind"] == "recovered-listing"] == [1, 6]

    def test_strict_log_counts_the_listings_read(self):
        assert read_fragments("<a/><b/><c/>")[1].fragments == 3


class TestSplitFragments:
    def test_isolates_siblings(self):
        fragments = split_fragments(UNBALANCED)
        assert len(fragments) == 3
        assert all(fragment.kind == "element"
                   for fragment in fragments)
        assert fragments[1].line == 3

    def test_comments_and_pis_skipped(self):
        fragments = split_fragments(
            "<!-- header --><?pi data?><a>1</a><!-- mid --><b>2</b>")
        assert [f.text for f in fragments] == ["<a>1</a>", "<b>2</b>"]

    def test_stray_content_is_its_own_fragment(self):
        fragments = split_fragments("junk <a>1</a>")
        assert [f.kind for f in fragments] == ["stray", "element"]


class TestCharacterReferences:
    """Only XML's ``CharRef`` forms naming an XML ``Char`` resolve."""

    REJECTED = ["#99999999999", "#x+41", "# 65", "#1_0", "#\u0663",
                "#X41", "#0", "#xD800", "#xFFFE", "#x110000",
                "#" + "1" * 5000]
    ACCEPTED = {"#65": "A", "#x41": "A", "#x2014": "\u2014",
                "#0000065": "A", "#9": "\t", "#x10FFFF": "\U0010ffff"}

    @pytest.mark.parametrize("body", REJECTED, ids=range(len(REJECTED)))
    def test_strict_rejects(self, body):
        for markup in (f"<t>&{body};</t>", f'<t a="&{body};"/>'):
            with pytest.raises(XMLSyntaxError,
                               match="unknown entity reference"):
                parse_element(markup)

    @pytest.mark.parametrize("body", REJECTED, ids=range(len(REJECTED)))
    def test_lenient_keeps_the_reference_as_text(self, body):
        roots, log = read_fragments(f"<t>&{body};</t><u>ok</u>",
                                    "lenient")
        assert roots[0].text_content() == f"&{body};"
        assert roots[1].text_content() == "ok"
        assert log.recovered == [0] and log.clean == [1]
        assert "skipped-entity" in log.counts()

    @pytest.mark.parametrize("body", REJECTED, ids=range(len(REJECTED)))
    def test_salvage_drops_the_listing(self, body):
        roots, log = read_fragments(f'<t a="&{body};"/><u>ok</u>',
                                    "salvage")
        assert [root.tag for root in roots] == ["u"]
        assert log.dropped == [0]

    def test_accepted_references(self):
        for body, char in self.ACCEPTED.items():
            for mode in INGEST_MODES:
                roots, log = read_fragments(
                    f'<t a="[&{body};]">[&{body};]</t>', mode)
                assert roots[0].immediate_text() == f"[{char}]"
                assert roots[0].attributes["a"] == f"[{char}]"
                assert log.ok


# ---------------------------------------------------------------------------
# never raise: arbitrary text and damaged listings of every domain
# ---------------------------------------------------------------------------
#: Tokens weighted towards markup, so random texts hit every repair.
TOKENS = list("<>&;#/!?[]\"'\n") + [
    "a", "b", " ", "=", "x", "9", "<a>", "</a>", "<b ", "/>", "&amp;",
    "&#", "&#x", "99999999999", "<!--", "-->", "<![CDATA[", "]]>", "<?",
    "?>", "<!DOCTYPE", "\u00e9"]
arbitrary_texts = st.lists(st.sampled_from(TOKENS), max_size=60).map(
    "".join)

@functools.cache
def written_listings(domain):
    """Two listings of each source of ``domain``, as ``lsd generate``
    writes them."""
    return [write_element(listing, indent=2)
            for source in load_domain(domain).sources
            for listing in source.listings(2)]


def check_never_raises(text):
    """Lenient and salvage return; their events sit inside the input;
    strict raises nothing but XMLSyntaxError. Returns the results."""
    results = {}
    try:
        results["strict"] = read_fragments(text, "strict")
    except XMLSyntaxError:
        pass
    last_line = text.count("\n") + 1
    for mode in INGEST_MODES[1:]:
        roots, log = results[mode] = read_fragments(text, mode)
        for event in log.events:
            assert 1 <= event.location.line <= last_line, event
            assert event.location.column >= 1, event
    return results


@settings(max_examples=300, deadline=None)
@given(arbitrary_texts)
@example("<t>&#99999999999;</t>")
@example('<t a="&#x+41;">&# 65;</t>&#1_0;<u>&#\u0663;')
def test_arbitrary_text_never_raises(text):
    check_never_raises(text)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DOMAIN_NAMES), st.integers(0, 9),
       st.sampled_from(CORRUPTION_STYLES), st.integers(0, 2 ** 16))
def test_damaged_listings_never_raise(domain, first, style, seed):
    listings = written_listings(domain)[first:first + 3]
    clean = "\n".join(listings) + "\n"
    results = check_never_raises(clean)
    trees = [[write_element(root) for root in results[mode][0]]
             for mode in INGEST_MODES]
    assert trees[0] == trees[1] == trees[2]
    assert all(results[mode][1].ok for mode in INGEST_MODES)
    damaged = [corrupt_text(listings[0], style, random.Random(seed))]
    check_never_raises("\n".join(damaged + listings[1:]) + "\n")
