"""Replay the golden parse fixture: same trees, locations, logs, errors.

See :mod:`tests.xmlio_golden` for what the fixture holds and how to
regenerate it.
"""

import json

import pytest

from repro.xmlio.recovery import INGEST_MODES

from .xmlio_golden import (FIXTURE, handmade_dtds, handmade_inputs,
                           run_document, run_dtd, run_fragments)

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


def _id(case):
    return case["name"]


@pytest.mark.parametrize("case", GOLDEN["fragments"], ids=_id)
def test_fragments_match_golden(case):
    for keep_whitespace in (False, True):
        expected = case["results"][f"keep_whitespace={keep_whitespace}"]
        for mode in INGEST_MODES:
            want = expected[mode]
            if want == "strict":
                want = expected["strict"]
            got = run_fragments(case["text"], mode, keep_whitespace)
            assert got == want, (mode, keep_whitespace)


@pytest.mark.parametrize("case", GOLDEN["documents"], ids=_id)
def test_document_matches_golden(case):
    assert run_document(case["text"]) == case["result"]


@pytest.mark.parametrize("case", GOLDEN["dtds"], ids=_id)
def test_dtd_matches_golden(case):
    assert run_dtd(case["text"]) == case["result"]


def test_fixture_covers_every_domain_and_failure_kind():
    names = {case["name"].split("/")[0] for case in GOLDEN["fragments"]}
    assert {"real_estate_1", "time_schedule", "faculty",
            "real_estate_2", "malformed", "well-formed"} <= names
    outcomes = [result for case in GOLDEN["fragments"]
                for modes in case["results"].values()
                for result in modes.values() if result != "strict"]
    assert any("error" in outcome for outcome in outcomes)
    assert any(outcome.get("log", {}).get("events")
               for outcome in outcomes)
    assert any("error" in case["result"] for case in GOLDEN["dtds"])


def test_fixture_holds_every_handmade_input():
    """An input added to a hand-made list without regenerating the
    fixture would not be replayed at all; this catches it. Generated
    inputs are left out: the fixture stores them so that it does not
    follow the dataset generators."""
    handmade = handmade_inputs()
    prefixes = {name.split("/")[0] for name, _ in handmade}

    def stored(section, prefixes):
        return [(case["name"], case["text"]) for case in GOLDEN[section]
                if case["name"].split("/")[0] in prefixes]

    assert stored("fragments", prefixes) == handmade
    assert stored("documents", prefixes) == handmade
    assert stored("dtds", {"malformed-dtd"}) == handmade_dtds()
