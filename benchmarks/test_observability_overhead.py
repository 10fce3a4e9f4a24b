"""Always-on span overhead: recording a match's span tree must be ~free.

Matching records its spans on every call — into a private collector
when the caller keeps no trace — because the stage profile,
``MatchResult.timings``, the report's ``stages`` section and the
metrics registry are all derived from the span tree. This benchmark pins the cost of that always-on recording:

1. An observed matching run captures the span tree one run records
   (names, nesting and attributes; its extra ``quality`` span makes
   the estimate err high).
2. Recording that same tree into a fresh private collector — the
   observer wrapping, every span opened and closed, and the stage
   profile derived from the subtree — is timed directly; its total
   must stay under 3% of the *fastest* matching run.
3. A sanity check matches with the disabled observer explicitly and
   asserts outputs identical to the observer-less call and to the
   observed one.

Writes its report to ``.lsd/bench_observability.json`` (gitignored);
the committed ``BENCH_observability.json`` is a recorded result that a
run never rewrites.

Environment knobs::

    LSD_BENCH_OBS_LISTINGS   listings per source (default 50)
    LSD_BENCH_OBS_ROUNDS     timing rounds       (default 3)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import featurize
from repro.datasets import load_domain
from repro.evaluation import SystemConfig, build_system
from repro.observability import NO_OP, Observer, StageProfile, with_trace

REPORT_PATH = Path(__file__).resolve().parent.parent / ".lsd" / \
    "bench_observability.json"
N_LISTINGS = int(os.environ.get("LSD_BENCH_OBS_LISTINGS", "50"))
ROUNDS = int(os.environ.get("LSD_BENCH_OBS_ROUNDS", "3"))
MAX_OVERHEAD = 0.03


def _build():
    domain = load_domain("real_estate_1", seed=0)
    system = build_system(domain, SystemConfig("complete"),
                          max_instances_per_tag=N_LISTINGS)
    for source in domain.sources[:3]:
        system.add_training_source(
            source.schema, source.listings(N_LISTINGS), source.mapping)
    system.train()
    target = domain.sources[3]
    return system, target.schema, target.listings(N_LISTINGS)


def _time_span_recording(spans) -> float:
    """Seconds to record the span tree ``spans`` the way an
    observer-less match does: a private collector, every span opened
    and closed with its attributes, then the profile derived."""
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    def record(trace, recorded_parent, parent_id) -> None:
        for span in children.get(recorded_parent, []):
            with trace.span(span.name, parent=parent_id,
                            **span.attributes) as active:
                record(trace, span.span_id, active.span_id)

    start = time.perf_counter()
    trace = with_trace(NO_OP).trace
    record(trace, None, None)
    StageProfile.from_spans(trace.spans, "match")
    return time.perf_counter() - start


def test_always_on_span_overhead():
    system, schema, listings = _build()

    # The span tree one run records.
    featurize.clear_text_cache()
    observed = Observer.full()
    observed_result = system.match(schema, listings, observer=observed)
    spans = observed.trace.spans

    # Fastest observer-less matching run (spans recorded privately).
    best = float("inf")
    for _ in range(ROUNDS + 1):  # first round doubles as warm-up
        featurize.clear_text_cache()
        start = time.perf_counter()
        baseline_result = system.match(schema, listings)
        best = min(best, time.perf_counter() - start)

    span_seconds = min(_time_span_recording(spans)
                       for _ in range(ROUNDS))
    overhead = span_seconds / best

    # Disabled observer changes nothing about the outputs.
    featurize.clear_text_cache()
    noop_result = system.match(schema, listings, observer=NO_OP)
    assert dict(noop_result.mapping.items()) == \
        dict(baseline_result.mapping.items()) == \
        dict(observed_result.mapping.items())
    for tag in baseline_result.tag_scores:
        assert np.array_equal(noop_result.tag_scores[tag],
                              baseline_result.tag_scores[tag])
    assert noop_result.quality == [] and baseline_result.quality == []
    assert len(observed_result.quality) == len(schema.tags)
    assert set(noop_result.profile.counters) == \
        set(observed_result.profile.counters)

    report = {
        "workload": {
            "domain": "real_estate_1",
            "listings_per_source": N_LISTINGS,
            "rounds": ROUNDS,
            "spans_per_run": len(spans),
            "cpu_count": os.cpu_count(),
        },
        "match_best_ms": round(best * 1000.0, 3),
        "span_recording_ms": round(span_seconds * 1000.0, 3),
        "span_overhead": round(overhead, 5),
        "max_allowed": MAX_OVERHEAD,
    }
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print("\n" + json.dumps(report, indent=2))

    assert overhead < MAX_OVERHEAD, (
        f"always-on span recording costs {overhead:.2%} of a matching "
        f"run (limit {MAX_OVERHEAD:.0%})")
