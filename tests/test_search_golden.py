"""Replay the golden search fixture: same winners, same cost bits.

See :mod:`tests.search_golden` for what the fixture holds and how to
regenerate it.
"""

import json

import pytest

from .search_golden import (FIXTURE, outcome, replay_session_search,
                            session_context, session_system,
                            synthetic_search)

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["synthetic"],
                         ids=lambda case: f"tags{case['size']}")
def test_synthetic_search_matches_golden(case):
    handler, mapping = synthetic_search(case["size"])
    assert outcome(handler, mapping) == {
        "mapping": case["mapping"], "best_cost": case["best_cost"]}


@pytest.mark.parametrize(
    "session", GOLDEN["sessions"],
    ids=lambda s: f"{s['source']}-seed{s['sample_seed']}")
def test_session_searches_match_golden(session):
    domain, system = session_system()
    ctx = session_context(domain, session["source"],
                          session["sample_seed"])
    assert session["searches"], "a session runs at least one search"
    for number, search in enumerate(session["searches"]):
        mapping = replay_session_search(system.handler, system.space, ctx,
                                        GOLDEN["rows"], search)
        assert outcome(system.handler, mapping) == {
            "mapping": search["mapping"],
            "best_cost": search["best_cost"]}, \
            f"search {number} of {session['source']} diverged"
