"""Golden parse fixture for the XML substrate: inputs, dumps, and writer.

``tests/data/xmlio_golden.json`` records what the XML parser, in each
ingestion mode, and the DTD parser produce for a fixed set of inputs: every
element tree (tag, attributes, children, ``source_location``), every
:class:`~repro.xmlio.recovery.RecoveryLog`, and every syntax error's
message, line and column. ``tests/test_xmlio_golden.py`` replays the
inputs and demands identical output, so a rewrite of the scanner cannot
change a tree, a location or an error without failing.

The inputs are stored in the fixture itself, so the fixture does not
drift when the dataset generators change. Regenerate it only when a
change of output is intended::

    PYTHONPATH=src python -m tests.xmlio_golden
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.datasets import load_domain
from repro.datasets.registry import DOMAIN_NAMES
from repro.resilience.faults import CORRUPTION_STYLES, corrupt_text
from repro.xmlio import parse_document, parse_dtd, write_dtd, write_element
from repro.xmlio.errors import XMLSyntaxError
from repro.xmlio.recovery import INGEST_MODES, read_fragments
from repro.xmlio.tree import Element

FIXTURE = Path(__file__).parent / "data" / "xmlio_golden.json"

#: Listings per source in the generated inputs.
LISTINGS_PER_SOURCE = 2

#: Every malformed input of ``test_xmlio_parser.py`` and
#: ``test_xmlio_recovery.py``, plus inputs that reach the remaining
#: repair paths of lenient mode and the chunker.
MALFORMED = [
    # test_xmlio_parser.py
    "<a>",
    "<a></b>",
    "<a><b></a></b>",
    "text only",
    "<a/><b/>",
    "<a x=1/>",
    '<a x="1" x="2"/>',
    "<a><!-- -- --></a>",
    "<1a/>",
    "< a/>",
    "<a>\n<b></c>\n</a>",
    "<t>&nosuch;</t>",
    "   ",
    # test_xmlio_recovery.py
    "\n<listing><price>100000</price><city>Miami</city></listing>\n"
    "<listing><price>250000<city>Boston</city></listing>\n"
    "<listing><price>300000</price><city>Austin</city></listing>\n",
    "<a>\n  <b>text</c>\n</a>",
    "<a><b>Tom &amp; Jerry &copy; now</b></a>",
    "<a><b>price < 100</b></a>",
    "<a><b>text",
    "<listing><price>1</price></listing>\n"
    "<listing><price>2<city>X</city></listing>\n",
    "<a><b></a>",
    "junk <a>1</a>",
    # further repair paths
    "<l a=1 b='2' c>x</l>",
    '<l a="1"b="2">x</l>',
    "<l><p>1</p junk></l>",
    "<l></ >x</l>",
    "<l>a &amp b &#xZZ; c & d</l>",
    '<l t="x &nope; &amp y">z</l>',
    "<l><!-- never closed </l>",
    "<l><![CDATA[ never closed </l>",
    "<l><?pi never closed </l>",
    '<l x="never closed>text</l>',
    "<l><p>1</p>\n<!DOCTYPE x [<!ELEMENT x ANY>]>\n<l>2</l>",
    "<a>1</a>\n<!DOCTYPE d [ <!ENTITY e \"]>\"> ]>\n<b>2</b>",
    "<a>1</a> stray text <b>2</b> <c",
    "<a>1</a></a><b>2</b>",
    "<a x='1' / >z</a>",
    "<a><b x='1'<c>2</c></b></a>",
    "<a \t\r\n x = 'y' >v</a >",
    "\r\n<l>\r\n\t<p>café – naïve</p>\r\n</l>\r\n<l><p>&#x41;\t",
    "<l>éè <p>中文</p> &lt;ü&gt;</l><l></m>",
    '<?xml version="1.0"?>\n<!-- header -->\n<l><a>1</a></l>\n'
    "<l><a>2</b></l>\n",
    '<?xml version="1.0" encoding="utf-8"?>\n'
    "<!DOCTYPE l [<!ELEMENT l ANY>]>\n<l>ok</l><?pi x?><!--c--><l>2</l>",
]

#: Well-formed inputs with the constructs generated listings lack.
WELL_FORMED = [
    "<!-- header --><?pi data?><a>1</a><!-- mid --><b>2</b>",
    '<?xml version="1.1" encoding="utf-8"?>\r\n'
    '<!DOCTYPE r SYSTEM "r.dtd">\r\n<r a="&quot;q&quot;" b=\'&#65;\'>\r\n'
    "\t<x>one &amp; two</x>\r\n\t<y><![CDATA[<raw> & ]]>tail</y>\r\n"
    "\t<z/> <w>été \U0001f600</w>\r\n</r>\r\n",
    "<!DOCTYPE r PUBLIC \"-//x\" 'r.dtd' [<!ELEMENT r (a)*>\n"
    "<!ATTLIST r id CDATA #IMPLIED>]>\n<r id='7'>\n  <a> pad </a>\n"
    "  <a>&#x2014;&#8212;</a>\n</r>",
    "<d>Call <b>now</b> please <!-- c --> and <?p i?> later</d>",
]

#: Inputs at the edges of the one-match token path: tags whose every
#: attribute is a plain quoted value, and what it must hand back to the
#: per-construct grammar.
TOKEN_EDGES = [
    # attribute values the patterns take or decline
    "<a x=\"1<2\" y='a>b' z=\"/>\">t</a><b/>",
    "<a x=\"line\none\r\ntwo\" y='\t'>t</a>",
    '<a x="Tom &amp; Jerry" y="&#65;&#x42;">t</a>',
    '<a x="&nosuch;" y="a & b" z="&amp">t</a>',
    "<a x=\"it's\" y='say \"hi\"' z=\"\" w=''/>",
    '<a x="é中 ü">ü</a>',
    # duplicate attributes
    '<a x="1" x="2"><b>t</b></a>',
    '<a x="&amp;" x="&bad;"/>',
    "<a x='1' y='2' x='3' y='4'>t</a>",
    # whitespace around "=" and before "/>" or ">"
    "<a x = \"1\"  y= '2' z =\"3\" />",
    "<a\tx=\"1\"\ny=\"2\"\r\n/><b x=\"1\"\t>t</b\t>",
    "<a x=\"1\" >t</a ><b/ >",
    "<a b=\"1\"c=\"2\">t</a>",
    "<a b=\"1\"c=\"2\"/><d e='1'f='2'>t</d>",
    # malformed start tags
    "<a x=>t</a>",
    "<a x>t</a>",
    "<a =\"1\">t</a>",
    "<a 1x=\"1\">t</a>",
    "<a x=\"1\"",
    "<a x=\"1\" ",
    "<a x=\"1\"/",
    "<a><b x=\"1\"/",
    "<a><b x='1' <c/></b></a>",
    # mismatched or whitespace-padded end tags
    "<a><b>1</B></a>",
    "<a><b>1</b ></a\t>",
    "<a><b>1</b\r\n></a\n>",
    "<a><b>1</b x></a>",
    "<a><b><c>1</b></a>",
    "<a><b>1</c></b></a>",
    "<a>1</a\t",
    # names with ".", "-", ":" and "_"
    "<ns:a.b-c x.y-z:w=\"1\" _q=\"2\"><_q-1.2>t</_q-1.2></ns:a.b-c>",
    "<a:b><a:c/></a:b><a.b/><a-b>1</a-b>",
    # CRLF and tabs between tags
    "<a>\r\n\t<b>1</b>\r\n\t<c/>\r\n</a>\r\n\t<d>2</d>",
    "<a>\t<b>\t1\t</b>\t</a>",
    # whitespace runs next to references, CDATA, comments and PIs
    "<a> &amp;</a><b>&amp; </b><c> &amp; </c>",
    "<a> <![CDATA[x]]></a><b><![CDATA[ ]]></b><c> <![CDATA[]]> </c>",
    "<a>x<!--c--> </a><b> <!--c-->y</b><c> <?p?> </c>",
    "<a> <b/> x <c/>\n</a>",
    "<a>x<![CDATA[y]]>z&lt;w</a>",
    "<a>1 > 0 ]]> x\ry</a>",
    # top-level constructs the splitter tracks
    "<a x='>'/><b>1</b>",
    "<a x=\"</a>\">1</a><b/>",
    "<a><b x='/>'></b></a><c/>",
    "<a></b><c/></a><d/>",
    "<a>1</a >\n<b>2</b\n>",
    "<a/><!DOCTYPE x><b/>",
    "<?xml version=1.0?><a/>",
    "<?xml version=\"1.0\"?><a/><?xml version=1.0?><b/>",
    # XML declaration pseudo-attributes: version first, then optional
    # encoding and standalone, in that order, each once
    "<?xml?><a/>",
    "<?xml encoding=\"utf-8\"?><a/>",
    "<?xml version=\"1.0\" bogus=\"x\"?><a/>",
    "<?xml standalone=\"yes\" version=\"1.0\"?><a/>",
    "<?xml version=\"1.0\" standalone=\"no\" encoding=\"utf-8\"?><a/>",
    "<?xml version=\"1.0\" version=\"1.0\"?><a/>",
    "<?xml version=\"1.0\" standalone=\"maybe\"?>\n<a/>",
    "<?xml version=\"1.0\" encoding=\"utf-8\" standalone=\"yes\" ?>"
    "<a/><b/>",
    # XML declaration values: VersionNum is "1." and digits, EncName a
    # letter, then letters, digits, ".", "_" or "-"
    "<?xml version=\"banana\" encoding=\"1 2\"?><a/>",
    "<?xml version=\"2.0\"?><a/>",
    "<?xml version=\"1.\"?><a/>",
    "<?xml version=\"1.0 \"?><a/>",
    "<?xml version=\"1.0\" encoding=\"\"?>\n<a/>",
    "<?xml version=\"1.0\" encoding=\"-utf\"?><a/><b/>",
    "<?xml version='1.0' encoding='utf 8'?>\n<a/>",
    "<?xml version=\"1.10\" encoding=\"ISO_8859-1.x\"?><a/>",
]

#: ``test_xmlio_dtd.py``'s malformed DTDs, plus a few more.
MALFORMED_DTDS = [
    "<!ELEMENT x (a,>",
    "<!ELEMENT x (a | b, c)>",
    "<!ELEMENT x >",
    "<!BOGUS x (a)>",
    "<!ELEMENT a (#PCDATA)>\n<!ATTLIST a id CDATA\n",
    "<!ELEMENT a (b)>\r\n\t<!ELEMENT 9 (c)>",
    "<!-- note --><!ELEMENT a (#PCDATA)><!ENTITY e 'x'><?pi?>\n  %",
]


def dump_element(node: Element) -> list:
    """``[tag, attributes, [line, column] | None, children]``; text
    children are plain strings."""
    location = node.location()
    return [
        node.tag,
        dict(node.attributes),
        None if location is None else [location.line, location.column],
        [dump_element(child) if isinstance(child, Element) else child.value
         for child in node.children],
    ]


def dump_error(exc: XMLSyntaxError) -> dict:
    return {"type": type(exc).__name__, "str": str(exc),
            "line": exc.line, "column": exc.column}


def run_fragments(text: str, mode: str, keep_whitespace: bool) -> dict:
    """What :func:`read_fragments` returns for one input, as JSON."""
    try:
        roots, log = read_fragments(text, mode, keep_whitespace)
    except XMLSyntaxError as exc:
        return {"error": dump_error(exc)}
    return {"trees": [dump_element(root) for root in roots],
            "log": log.as_dict()}


def run_document(text: str) -> dict:
    """What :func:`parse_document` returns for one input, as JSON."""
    try:
        document = parse_document(text)
    except XMLSyntaxError as exc:
        return {"error": dump_error(exc)}
    return {"tree": dump_element(document.root),
            "prolog": [document.doctype_name, document.version,
                       document.encoding, document.internal_subset]}


def run_dtd(text: str) -> dict:
    """What :func:`parse_dtd` returns for one input, as JSON."""
    try:
        return {"dtd": write_dtd(parse_dtd(text))}
    except XMLSyntaxError as exc:
        return {"error": dump_error(exc)}


def generated_inputs() -> list[tuple[str, str]]:
    """(name, text) for a small sample of every source of every domain,
    written as ``lsd generate`` writes listings files."""
    inputs = []
    for domain_name in DOMAIN_NAMES:
        domain = load_domain(domain_name)
        for source in domain.sources:
            listings = source.listings(LISTINGS_PER_SOURCE)
            text = "\n".join(write_element(listing, indent=2)
                             for listing in listings) + "\n"
            inputs.append((f"{domain_name}/{source.name}", text))
    return inputs


def corrupted_inputs(generated: list[tuple[str, str]]) \
        -> list[tuple[str, str]]:
    """Every corruption style applied to the first listing of a few
    generated inputs, with its well-formed sibling left intact."""
    inputs = []
    for name, text in generated[::7]:
        first, sep, rest = text.partition("\n<")
        for style in CORRUPTION_STYLES:
            rng = random.Random(f"{name}:{style}")
            damaged = corrupt_text(first, style, rng) + sep + rest
            inputs.append((f"{name}+{style}", damaged))
    return inputs


def run_modes(text: str) -> dict:
    """Every mode's result with and without ``keep_whitespace``. A mode
    whose result equals the strict one is stored as ``"strict"``."""
    results = {}
    for keep_whitespace in (False, True):
        strict = run_fragments(text, "strict", keep_whitespace)
        modes = {"strict": strict}
        for mode in INGEST_MODES[1:]:
            result = run_fragments(text, mode, keep_whitespace)
            modes[mode] = "strict" if result == strict else result
        results[f"keep_whitespace={keep_whitespace}"] = modes
    return results


def handmade_inputs() -> list[tuple[str, str]]:
    """(name, text) of every hand-made XML input, in fixture order."""
    return [(f"{prefix}/{i}", text)
            for prefix, texts in (("malformed", MALFORMED),
                                  ("well-formed", WELL_FORMED),
                                  ("token-edge", TOKEN_EDGES))
            for i, text in enumerate(texts)]


def handmade_dtds() -> list[tuple[str, str]]:
    """(name, text) of every hand-made DTD input, in fixture order."""
    return [(f"malformed-dtd/{i}", text)
            for i, text in enumerate(MALFORMED_DTDS)]


def build_cases() -> dict:
    """Every case's input and its recorded output."""
    generated = generated_inputs()
    handmade = handmade_inputs()
    fragments = [{"name": name, "text": text, "results": run_modes(text)}
                 for name, text in
                 generated + handmade + corrupted_inputs(generated)]
    documents = [{"name": name, "text": text, "result": run_document(text)}
                 for name, text in handmade]
    dtd_texts = handmade_dtds()
    for domain_name in DOMAIN_NAMES:
        domain = load_domain(domain_name)
        dtd_texts.append((f"{domain_name}/mediated",
                          write_dtd(domain.mediated_schema.dtd)))
        for source in domain.sources:
            dtd_texts.append((f"{domain_name}/{source.name}",
                              write_dtd(source.schema.dtd)))
    dtds = [{"name": name, "text": text, "result": run_dtd(text)}
            for name, text in dtd_texts]
    return {"fragments": fragments, "documents": documents, "dtds": dtds}


def main() -> None:
    """Write the fixture: compact JSON, one case per line."""
    sections = []
    for section, cases in build_cases().items():
        lines = ",\n".join(json.dumps(case, ensure_ascii=False,
                                       separators=(",", ":"))
                            for case in cases)
        sections.append(f"{json.dumps(section)}:[\n{lines}]")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text("{" + ",\n".join(sections) + "}\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
