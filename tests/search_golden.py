"""Golden search fixture for the constraint handler: inputs and winners.

``tests/data/search_golden.json`` records what
:meth:`ConstraintHandler.find_mapping` returns for a fixed set of
searches: the mapping and ``repr(last_stats["best_cost"])`` of each.
``tests/test_search_golden.py`` replays the searches and demands the
same mapping and the same cost repr, so a change to the search engine
or its bound cannot change a winner, or the bits of its cost, without
failing.

Two families of searches:

* ``synthetic`` — every size of the ``BENCH_constraints`` workload
  (``benchmarks/test_constraints_throughput.py``), rebuilt from its
  size;
* ``sessions`` — every search of two §6.3 feedback sessions each on the
  Real Estate II sources ``assessor-feed.gov`` and ``dreamhomes.com``,
  under a model trained on 10 listings of each of the three training
  sources. The score rows each search saw are stored in the fixture
  (little-endian float64 bytes, in hex), so replaying needs no trained
  model; the search context is rebuilt from the session's generated
  listings.

Regenerate the fixture only when a change of output is intended::

    PYTHONPATH=src python -m tests.search_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from benchmarks.test_constraints_throughput import _make_instance
from repro.constraints import (AssignmentConstraint, ConstraintHandler,
                               MatchContext)
from repro.core.feedback import FeedbackSession
from repro.core.instance import extract_columns
from repro.core.labels import OTHER
from repro.datasets import load_domain
from repro.evaluation import SystemConfig, build_system

FIXTURE = Path(__file__).parent / "data" / "search_golden.json"

#: ``BENCH_constraints`` sizes (tags per synthetic instance).
SYNTHETIC_SIZES = (10, 25, 50, 100, 200)
#: Budget of the synthetic searches, as in the benchmark.
SYNTHETIC_MAX_EXPANSIONS = 500_000

DOMAIN = "real_estate_2"
SESSION_SOURCES = ("assessor-feed.gov", "dreamhomes.com")
SESSION_SEEDS = (1, 2)
TRAIN_LISTINGS = 10
SESSION_LISTINGS = 10
MAX_PER_TAG = 100
#: Oracle corrections after which session capture gives up.
MAX_CORRECTIONS = 100


def synthetic_search(size: int):
    """Run one synthetic search; ``(handler, mapping)``."""
    scores, space, ctx, constraints, feedback = _make_instance(size)
    handler = ConstraintHandler(constraints,
                                max_expansions=SYNTHETIC_MAX_EXPANSIONS)
    mapping = handler.find_mapping(scores, space, ctx, feedback)
    return handler, mapping


def _encode_row(row: np.ndarray) -> str:
    return np.ascontiguousarray(row, dtype="<f8").tobytes().hex()


def decode_row(text: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(text), dtype="<f8").copy()


def session_system():
    """The untrained Real Estate II system: its handler and label space
    are all a replay needs."""
    domain = load_domain(DOMAIN)
    system = build_system(domain, SystemConfig("complete"),
                          max_instances_per_tag=MAX_PER_TAG)
    return domain, system


def session_context(domain, source_name: str, sample_seed: int
                    ) -> MatchContext:
    """The search context a session's matches build."""
    source = next(s for s in domain.sources if s.name == source_name)
    listings = source.listings(SESSION_LISTINGS, sample_seed=sample_seed)
    return MatchContext(source.schema, extract_columns(
        source.schema, listings, MAX_PER_TAG))


def replay_session_search(handler, space, ctx, rows: list[str],
                          search: dict):
    """Run one captured session search; the mapping."""
    scores = {tag: decode_row(rows[index])
              for tag, index in search["scores"].items()}
    feedback = [AssignmentConstraint(tag, label)
                for tag, label in search["feedback"]]
    return handler.find_mapping(scores, space, ctx,
                                extra_constraints=feedback)


def outcome(handler, mapping) -> dict:
    return {"mapping": [[tag, label]
                        for tag, label in sorted(mapping.items())],
            "best_cost": repr(handler.last_stats["best_cost"])}


def _capture_sessions() -> tuple[list[str], list[dict]]:
    """Train, run the sessions, and record every search's inputs."""
    domain, system = session_system()
    for source in domain.sources[:3]:
        system.add_training_source(
            source.schema,
            source.listings(TRAIN_LISTINGS, sample_seed=0),
            source.mapping)
    system.train()
    system.backend = "serial"

    rows: list[str] = []
    row_index: dict[str, int] = {}
    captured: list[dict] = []
    handler = system.handler
    find_mapping = handler.find_mapping

    def capture(scores, space, ctx, extra_constraints=(), **kwargs):
        search = {
            "scores": {},
            "feedback": [[c.tag, c.label] for c in extra_constraints],
        }
        for tag in sorted(scores):
            text = _encode_row(scores[tag])
            if text not in row_index:
                row_index[text] = len(rows)
                rows.append(text)
            search["scores"][tag] = row_index[text]
        mapping = find_mapping(scores, space, ctx, extra_constraints,
                               **kwargs)
        search["live"] = outcome(handler, mapping)
        captured[-1]["searches"].append(search)
        return mapping

    handler.find_mapping = capture
    try:
        for name in SESSION_SOURCES:
            source = next(s for s in domain.sources if s.name == name)
            for seed in SESSION_SEEDS:
                captured.append({"source": name, "sample_seed": seed,
                                 "searches": []})
                session = FeedbackSession(
                    system, source.schema,
                    source.listings(SESSION_LISTINGS, sample_seed=seed))
                truth = source.mapping
                for _ in range(MAX_CORRECTIONS):
                    wrong = next(
                        (tag for tag in session.review_order()
                         if session.mapping[tag] != truth.get(tag, OTHER)),
                        None)
                    if wrong is None:
                        break
                    session.assert_match(wrong, truth.get(wrong, OTHER))
    finally:
        del handler.find_mapping
    return rows, captured


def build_fixture() -> dict:
    synthetic = []
    for size in SYNTHETIC_SIZES:
        handler, mapping = synthetic_search(size)
        synthetic.append({"size": size, **outcome(handler, mapping)})

    rows, sessions = _capture_sessions()
    domain, system = session_system()
    for session in sessions:
        ctx = session_context(domain, session["source"],
                              session["sample_seed"])
        for search in session["searches"]:
            live = search.pop("live")
            mapping = replay_session_search(system.handler, system.space,
                                            ctx, rows, search)
            replayed = outcome(system.handler, mapping)
            # The replay must see what the live session saw, or the
            # fixture would pin a search nobody runs.
            assert replayed == live, (session["source"], live, replayed)
            search.update(replayed)
    return {"synthetic": synthetic, "rows": rows, "sessions": sessions}


def main() -> None:
    fixture = build_fixture()
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n",
                       encoding="utf-8")
    n_sessions = sum(len(s["searches"]) for s in fixture["sessions"])
    print(f"wrote {FIXTURE}: {len(fixture['synthetic'])} synthetic and "
          f"{n_sessions} session searches, {len(fixture['rows'])} rows")


if __name__ == "__main__":
    main()
