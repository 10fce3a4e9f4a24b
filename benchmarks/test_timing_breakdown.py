"""E9 — §7 efficiency note: where matching time goes.

The paper reports that "LSD spends most of its time in the constraint
handler" (seconds to minutes, sometimes 20). This bench records the
split this reproduction measures — ``MatchResult.timings``, read off
the match's span tree — so the difference is documented rather than
hidden. Real Estate II, trained on three sources, matching the fourth.

At the default settings (25 listings per source, at most 25 instances
per tag) learner prediction dominates: about 91% of matching time,
extraction about 5%, and the constraint handler (branch-and-bound with
the structure-score tag order and top-k branching) 3-4%, about 4 ms
(three runs on a 2-CPU host). The handler's share grows with column
size — 11% at 80 listings and 80 instances per tag — but stays far from
the paper's handler-dominated profile.
"""

from repro.datasets import load_domain
from repro.evaluation import SystemConfig, build_system, format_table

from .common import bench_settings, publish


def run_match():
    settings = bench_settings()
    domain = load_domain("real_estate_2", seed=0)
    system = build_system(
        domain, SystemConfig("complete"),
        max_instances_per_tag=settings.max_instances_per_tag)
    for source in domain.sources[:3]:
        system.add_training_source(
            source.schema, source.listings(settings.n_listings),
            source.mapping)
    system.train()
    test = domain.sources[3]
    return system.match(test.schema, test.listings(settings.n_listings))


def test_timing_breakdown(benchmark):
    result = benchmark.pedantic(run_match, rounds=1, iterations=1)
    total = sum(result.timings.values())
    rows = [
        [phase, f"{seconds:.3f}s",
         f"{seconds / total * 100:.1f}%" if total else "-"]
        for phase, seconds in result.timings.items()
    ]
    settings = bench_settings()
    table = format_table(
        ["Matching phase", "Time", "Share"], rows,
        title=("E9: matching-time breakdown (Real Estate II source, "
               f"{settings.n_listings} listings, at most "
               f"{settings.max_instances_per_tag} instances per tag)"))
    publish("timing_breakdown", table)

    assert set(result.timings) == {"extract", "predict", "constraints"}
    assert total > 0.0
