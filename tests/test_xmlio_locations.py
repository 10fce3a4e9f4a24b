"""Element locations resolved on read, held to an independent count.

A parsed element stores only its start tag's offset and the newline
index its parse shares (:class:`repro.xmlio.lexer.LineIndex`);
:meth:`Element.location` resolves the pair on first read. These tests
hold every element's location, in every ingestion mode and under an
``ingest.chunk`` fault plan, to :func:`position`: a direct newline count
over the text before the element's ``<``. They also pin what a parsed
tree keeps alive: its locations, but never its input text.
"""

import copy
import gc
import json
import pickle
import re
import types

import pytest

from repro.datasets import load_domain
from repro.datasets.registry import DOMAIN_NAMES
from repro.resilience import ingest as ingest_module
from repro.resilience.faults import FaultPlan
from repro.resilience.ingest import ingest_fragments
from repro.xmlio import (Element, SourceLocation, XMLSyntaxError, element,
                         parse_document, parse_fragments, write_element)
from repro.xmlio.lexer import LineIndex, Scanner
from repro.xmlio.recovery import INGEST_MODES, read_fragments

from .test_xmlio_scanner import position
from .xmlio_golden import FIXTURE

#: A start tag's "<": written listings escape every "<" of their text,
#: so this finds exactly the elements, in document order.
START = re.compile("<[A-Za-z_:]")

#: Corrupts every other listing chunk, in a style the plan's seed picks.
CORRUPT_EVERY_OTHER = {"site": "ingest.chunk", "action": "corrupt",
                       "at_hit": 1, "every": 2}
#: Targets the chunk site but corrupts nothing: strict then parses
#: chunk by chunk, each parse seeded with its file position.
IDLE = {"site": "ingest.chunk", "action": "corrupt", "key": "none"}


def source_texts(listings=5):
    """(name, text) of every source of every domain, written as ``lsd
    generate`` writes a listings file."""
    texts = []
    for domain_name in DOMAIN_NAMES:
        for source in load_domain(domain_name).sources:
            text = "\n".join(write_element(listing, indent=2)
                             for listing in source.listings(listings))
            texts.append((f"{domain_name}/{source.name}", text + "\n"))
    return texts


SOURCES = source_texts()
GOLDEN_TEXTS = [(case["name"], case["text"]) for case in json.loads(
    FIXTURE.read_text(encoding="utf-8"))["fragments"]]


def iter_elements(roots):
    for root in roots:
        yield from root.iter()


def offset_of(text, line, column):
    """The offset of 1-based (``line``, ``column``) in ``text``."""
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + column - 1


def check_stored_offsets(text, roots, chunks=None):
    """Every element's location equals :func:`position` at the offset it
    stored, made file-absolute by its parse's start.

    ``chunks`` maps a chunk parse's start (line, column) to the text it
    parsed, when a fault plan changed it; the element is then counted in
    ``text`` up to the chunk's start followed by the parsed chunk.
    Returns the number of elements checked.
    """
    checked = 0
    for node in iter_elements(roots):
        lines = node._lines
        assert isinstance(lines, LineIndex), node.tag
        start = (lines.start_line, lines.start_column)
        base = offset_of(text, *start)
        seen = text
        if chunks is not None and start in chunks:
            seen = text[:base] + chunks[start]
        offset = base + node._at
        assert seen.startswith("<" + node.tag, offset)
        assert node.location() == SourceLocation(*position(seen, offset))
        checked += 1
    return checked


def recording_chunks(monkeypatch):
    """Make :func:`ingest_fragments` record the text each chunk parse
    reads, keyed by the chunk's start (line, column)."""
    chunks = {}
    read = ingest_module.read_fragments

    def recording(text, mode, keep_whitespace, hook=None):
        def record(index, fragment, log):
            chunk = hook(index, fragment, log)
            chunks[(fragment.line, fragment.column)] = chunk
            return chunk
        return read(text, mode, keep_whitespace, record)

    monkeypatch.setattr(ingest_module, "read_fragments", recording)
    return chunks


class TestEquivalence:
    @pytest.mark.parametrize("mode", INGEST_MODES)
    @pytest.mark.parametrize("name, text", SOURCES,
                             ids=[name for name, _ in SOURCES])
    def test_every_source_locates_its_start_tags(self, name, text, mode):
        roots, log = read_fragments(text, mode)
        assert log.ok
        located = [node.location() for node in iter_elements(roots)]
        assert [(loc.line, loc.column) for loc in located] == \
            [position(text, match.start()) for match in START.finditer(text)]

    @pytest.mark.parametrize("mode", INGEST_MODES)
    @pytest.mark.parametrize("name, text", SOURCES,
                             ids=[name for name, _ in SOURCES])
    def test_every_source_under_a_chunk_fault_plan(self, monkeypatch,
                                                   name, text, mode):
        chunks = recording_chunks(monkeypatch)
        fault = IDLE if mode == "strict" else CORRUPT_EVERY_OTHER
        plan = FaultPlan.from_dict({"seed": 3, "faults": [fault]})
        roots, log = ingest_fragments(text, mode, plan)
        assert log.ok == (mode == "strict")
        assert len(chunks) > 1
        assert check_stored_offsets(text, roots, chunks) > 0

    @pytest.mark.parametrize("mode", INGEST_MODES)
    @pytest.mark.parametrize("keep_whitespace", [False, True])
    def test_golden_inputs(self, mode, keep_whitespace):
        """The fixture's generated, hand-made and corrupted inputs."""
        checked = 0
        for _, text in GOLDEN_TEXTS:
            try:
                roots, _ = read_fragments(text, mode, keep_whitespace)
            except XMLSyntaxError:
                assert mode == "strict"
                continue
            checked += check_stored_offsets(text, roots)
        assert checked > 1000

    def test_document_root_and_prolog(self):
        text = ('<?xml version="1.0"?>\n<!DOCTYPE r [<!ELEMENT r ANY>]>\n'
                "<!-- c -->\r\n  <r>\n\t<a/><b x='\n'>1</b>\n</r>\n")
        root = parse_document(text).root
        assert check_stored_offsets(text, [root]) == 3
        assert root.location() == SourceLocation(4, 3)

    def test_a_read_is_cached_and_drops_the_index(self):
        (root,) = parse_fragments("<a>\n <b/></a>")
        child = root.children[0]
        first = child.location()
        assert child.location() is first
        assert (child._at, child._lines) == (first, None)
        assert root._lines is not None

    def test_elements_of_one_parse_share_one_index(self):
        roots = parse_fragments("<a><b/></a>\n<c>\n<d/></c>")
        assert len({id(node._lines) for node in iter_elements(roots)}) == 1

    def test_index_and_scanner_agree(self):
        text = "ab\n\ncd\r\ne\n"
        scanner = Scanner(text, 7, 5)
        lines = LineIndex(text, 7, 5)
        for pos in range(len(text) + 1):
            assert scanner.location(pos) == lines.location(pos)
            line, column = position(text, pos)
            assert lines.location(pos) == SourceLocation(
                line + 6, column + 4 if line == 1 else column)


class TestCopiesAndAssignment:
    TEXT = "<l>\n  <a x='1'>1</a>\n  <b><c/></b>\n</l>"

    @staticmethod
    def locations(root):
        return [node.location() for node in root.iter()]

    @pytest.mark.parametrize("duplicate", [
        Element.copy,
        lambda node: pickle.loads(
            pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy,
        copy.copy,
    ], ids=["copy", "pickle", "deepcopy", "shallow-copy"])
    @pytest.mark.parametrize("read_first", [False, True])
    def test_duplicates_keep_the_location(self, duplicate, read_first):
        (root,) = parse_fragments(self.TEXT)
        expected = self.locations(parse_fragments(self.TEXT)[0])
        if read_first:
            self.locations(root)
        clone = duplicate(root)
        assert self.locations(clone) == expected
        assert self.locations(root) == expected

    def test_built_trees_report_none(self):
        built = element("l", element("a", "1"), attributes={"x": "y"})
        assert [node.location() for node in built.iter()] == [None, None]
        assert built.copy().location() is None
        assert pickle.loads(pickle.dumps(built)).location() is None

    @pytest.mark.parametrize("read_first", [False, True])
    def test_assignment_wins(self, read_first):
        (root,) = parse_fragments(self.TEXT)
        if read_first:
            root.location()
        root.source_location = SourceLocation(40, 2)
        assert root.location() == SourceLocation(40, 2)
        root.source_location = None
        assert root.location() is None
        assert root.copy().location() is None


class TestRetention:
    """A parsed tree keeps its newline index, never its input text."""

    #: Objects the walk may visit before it counts as unbounded.
    WALK_LIMIT = 100_000
    #: Referents the walk does not follow: classes, modules and code
    #: reach the whole interpreter, not the tree.
    OPAQUE = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.CodeType)

    @classmethod
    def reachable(cls, start):
        seen = {id(start): start}
        frontier = [start]
        while frontier:
            obj = frontier.pop()
            for ref in gc.get_referents(obj):
                if id(ref) in seen or isinstance(ref, cls.OPAQUE):
                    continue
                seen[id(ref)] = ref
                frontier.append(ref)
                assert len(seen) <= cls.WALK_LIMIT, "unbounded walk"
        return list(seen.values())

    @staticmethod
    def listings_text():
        source = load_domain("real_estate_1").sources[3]
        return "\n".join(write_element(listing, indent=2)
                         for listing in source.listings(20))

    @pytest.mark.parametrize("mode", INGEST_MODES)
    def test_a_parsed_listing_does_not_reach_its_input(self, mode):
        text = self.listings_text()
        roots, _ = read_fragments(text, mode)
        listing = roots[3]
        reached = self.reachable(listing)
        assert any(isinstance(obj, LineIndex) for obj in reached)
        assert not any(obj is text for obj in reached)
        assert not any(isinstance(obj, Scanner) for obj in reached)
        index = listing._lines
        assert not any(ref is text for ref in gc.get_referents(index))
        assert not any(obj is text for obj in self.reachable(index))
        assert [ref for ref in gc.get_referents(index)
                if not isinstance(ref, (int, type))] == [index.newlines]
