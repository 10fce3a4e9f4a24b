"""Pipeline-level telemetry: exposition determinism across execution
backends, per-worker resource reporting on the process pool, and the
progress events a real match emits."""

import pytest

from repro.observability import (Observer, build_match_report,
                                 parse_openmetrics, render_openmetrics,
                                 validate_report)
from repro.observability.events import EventStream, validate_file
from repro.observability.expo import samples_for
from repro.observability.metrics import (M_POOL_QUEUE_WAIT, M_POOL_TASKS,
                                         M_POOL_WORKER_CPU,
                                         M_POOL_WORKER_RSS,
                                         M_POOL_WORKERS)

from .test_core_system import (GREATHOMES_LISTINGS, GREATHOMES_SCHEMA,
                               trained_system)

#: Metric families whose values are a pure function of the input —
#: identical at any worker count and on every backend. Timing
#: histograms, cache hit/miss counters (racy across workers), and the
#: pool.*/proc.* resource families are deliberately absent.
DETERMINISTIC = ("match.instances", "match.tags", "match.column_size",
                 "predict.structure_passes")


@pytest.fixture(scope="module")
def system():
    return trained_system()


def _exposition(system, workers: int, backend: str) -> str:
    system.workers = workers
    system.backend = backend
    observer = Observer.full()
    try:
        system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                     observer=observer)
    finally:
        system.close_pool()
        system.workers, system.backend = 1, "process"
    full = render_openmetrics(observer.metrics,
                              labels={"command": "match"})
    deterministic = {
        line for line in full.splitlines()
        for name in DETERMINISTIC
        if f"lsd_{name.replace('.', '_')}" in line}
    return full, "\n".join(sorted(deterministic))


class TestExpositionDeterminism:
    def test_byte_identical_across_worker_counts_and_backends(self,
                                                              system):
        full_serial, baseline = _exposition(system, 1, "serial")
        for workers, backend in ((4, "serial"), (2, "process")):
            _, lines = _exposition(system, workers, backend)
            assert lines == baseline, (workers, backend)
        assert baseline  # the filter actually selected families
        parse_openmetrics(full_serial)  # and the full text stays valid


class TestProcessPoolResources:
    def test_match_reports_per_worker_rss_cpu_and_queue_wait(self,
                                                             system):
        system.workers = 2
        system.backend = "process"
        observer = Observer.full()
        try:
            system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                         observer=observer)
        finally:
            system.close_pool()
            system.workers, system.backend = 1, "process"
        summary = observer.metrics.summary()
        rss = summary["histograms"][M_POOL_WORKER_RSS]
        cpu = summary["histograms"][M_POOL_WORKER_CPU]
        assert 1 <= rss["count"] <= 2  # one sample per worker that ran
        assert rss["min"] > 0  # a live worker has a nonzero RSS
        assert cpu["count"] == rss["count"]
        assert summary["gauges"][M_POOL_WORKERS] >= 1.0
        wait = summary["histograms"][M_POOL_QUEUE_WAIT]
        tasks = summary["counters"][M_POOL_TASKS]
        assert tasks >= 1
        assert wait["count"] == tasks  # every dispatch measured a wait

    def test_serial_run_has_no_pool_families(self, system):
        observer = Observer.full()
        system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                     observer=observer)
        summary = observer.metrics.summary()
        assert M_POOL_WORKER_RSS not in summary["histograms"]
        assert M_POOL_WORKERS not in summary["gauges"]


class TestMatchEvents:
    def test_match_emits_a_valid_stage_narrative(self, system, tmp_path):
        path = tmp_path / "events.jsonl"
        events = EventStream(path)
        observer = Observer.full(events=events)
        system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                     observer=observer)
        events.close()
        assert validate_file(path) == []
        kinds = [event["kind"] for event in events.events]
        for stage in ("extract", "predict", "constrain"):
            starts = [e for e in events.events
                      if e["kind"] == "stage_start"
                      and e.get("stage") == stage]
            ends = [e for e in events.events
                    if e["kind"] == "stage_end" and e.get("stage") == stage]
            assert len(starts) == 1 and len(ends) == 1, stage
        assert kinds.index("stage_start") < kinds.index("shard_complete")

    def test_shard_heartbeats_cover_the_task_grid(self, system, tmp_path):
        system.workers = 4
        events = EventStream(tmp_path / "events.jsonl")
        observer = Observer.full(events=events)
        try:
            system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                         observer=observer)
        finally:
            system.workers = 1
        events.close()
        shards = [e for e in events.events
                  if e["kind"] == "shard_complete"]
        assert shards
        grid_size = shards[0]["shards"]
        assert [s["index"] for s in shards[:grid_size]] == \
            list(range(grid_size))
        assert all(s["rows"] >= 1 for s in shards)

    def test_shard_heartbeats_identical_across_worker_counts(
            self, system, tmp_path):
        def heartbeat_set(workers):
            system.workers = workers
            events = EventStream(tmp_path / f"w{workers}.jsonl")
            try:
                system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                             observer=Observer.full(events=events))
            finally:
                system.workers = 1
            events.close()
            return [{k: e[k] for k in ("label", "index", "shards",
                                       "rows", "stage")}
                    for e in events.events
                    if e["kind"] == "shard_complete"]

        assert heartbeat_set(1) == heartbeat_set(4)


class TestOneInstrumentationSpine:
    """Every timing view of a match is read off its span tree."""

    @staticmethod
    def _observed_match(system, tmp_path, workers: int):
        events = EventStream(tmp_path / f"events{workers}.jsonl")
        observer = Observer.full(events=events)
        system.workers = workers
        try:
            result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                                  observer=observer)
        finally:
            system.close_pool()
            system.workers = 1
            events.close()
        return result, observer, events.events

    def test_every_view_equals_the_span_elapsed(self, system, tmp_path):
        result, observer, events = self._observed_match(system,
                                                        tmp_path, 1)
        spans = {span.span_id: span for span in observer.trace.spans}
        stages = ("extract", "predict", "constrain")
        elapsed = {stage: spans[f"match/{stage}"].elapsed
                   for stage in stages}

        assert result.timings == {"extract": elapsed["extract"],
                                  "predict": elapsed["predict"],
                                  "constraints": elapsed["constrain"]}
        counters = result.profile.counters
        report = build_match_report(
            config={"workers": 1},
            dataset={"fingerprint": "greathomes",
                     "tags": counters["tags"],
                     "instances": counters["instances"]},
            result=result, observer=observer)
        assert validate_report(report) == []
        for stage in stages:
            assert report["stages"]["timings"][stage] == elapsed[stage]
        ends = {event["stage"]: event["elapsed_seconds"]
                for event in events if event["kind"] == "stage_end"}
        assert ends == elapsed

        # The --profile table: one top-level row per child span of
        # ``match``, totalling their elapsed.
        top = [span for span in spans.values()
               if span.parent_id == "match"]
        table = result.profile.table()
        for span in top:
            row = next(line for line in table.splitlines()
                       if line.split()[:1] == [span.name])
            assert f"{span.elapsed:9.4f}s" in row
        assert result.profile.top_level_total() == pytest.approx(
            sum(span.elapsed for span in top), rel=1e-12)
        learners = [span for span in spans.values()
                    if span.name.startswith("learner.name_matcher")]
        assert result.profile.seconds(
            "predict.learner.name_matcher") == pytest.approx(
                sum(span.elapsed for span in learners), rel=1e-12)

    def test_serial_and_process_views_agree(self, system, tmp_path):
        serial, _, _ = self._observed_match(system, tmp_path, 1)
        process, _, _ = self._observed_match(system, tmp_path, 2)
        # The featurize cache counters describe this process's cache,
        # which pool workers bypass and earlier runs warm: same keys,
        # values that depend on where and when the run happened.
        local = ("cache_hits", "cache_misses")

        def deterministic(profile):
            return {name: value for name, value in profile.counters.items()
                    if name not in local}

        assert deterministic(process.profile) == \
            deterministic(serial.profile)
        assert set(process.profile.counters) == \
            set(serial.profile.counters)
        assert set(process.profile.timings) == \
            set(serial.profile.timings)
        assert serial.profile.counters["instances"] > 0
        assert serial.profile.counters["structure_passes"] >= 1
