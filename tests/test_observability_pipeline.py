"""Pipeline-level telemetry: metric determinism across execution
backends, per-worker resource reporting on the process pool, and the
views of a real match's span tree."""

import pytest

from repro.observability import (Observer, build_match_report,
                                 validate_report)
from repro.observability.metrics import (M_POOL_QUEUE_WAIT, M_POOL_TASKS,
                                         M_POOL_WORKER_CPU,
                                         M_POOL_WORKER_RSS,
                                         M_POOL_WORKERS)
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.runtime import Checkpointer

from .test_core_system import (GREATHOMES_LISTINGS, GREATHOMES_SCHEMA,
                               trained_system)

#: Metric families whose values are a pure function of the input —
#: identical at any worker count and on every backend. Timing
#: histograms, cache hit/miss counters (racy across workers), and the
#: pool.* resource families are deliberately absent.
DETERMINISTIC = ("match.instances", "match.tags", "match.column_size",
                 "predict.structure_passes")


@pytest.fixture(scope="module")
def system():
    return trained_system()


def _deterministic_metrics(system, workers: int, backend: str) -> dict:
    system.workers = workers
    system.backend = backend
    observer = Observer.full()
    try:
        system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                     observer=observer)
    finally:
        system.close_pool()
        system.workers, system.backend = 1, "process"
    summary = observer.metrics.summary()
    return {name: values[name] for values in summary.values()
            for name in DETERMINISTIC if name in values}


class TestExpositionDeterminism:
    def test_byte_identical_across_worker_counts_and_backends(self,
                                                              system):
        baseline = _deterministic_metrics(system, 1, "serial")
        for workers, backend in ((4, "serial"), (2, "process")):
            assert _deterministic_metrics(system, workers, backend) == \
                baseline, (workers, backend)
        assert set(baseline) == set(DETERMINISTIC)


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


class TestOneInstrumentationSpine:
    """Every timing view of a match is read off its span tree."""

    @staticmethod
    def _observed_match(system, workers: int):
        observer = Observer.full()
        system.workers = workers
        try:
            result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                                  observer=observer)
        finally:
            system.close_pool()
            system.workers = 1
        return result, observer

    def test_every_view_equals_the_span_elapsed(self, system):
        result, observer = self._observed_match(system, 1)
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

    def test_serial_and_process_views_agree(self, system):
        serial, _ = self._observed_match(system, 1)
        process, _ = self._observed_match(system, 2)
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


#: StageProfile counter -> the registry counter ``record_run`` reads off
#: it.
PROFILE_METRICS = {
    "tags": "match.tags", "instances": "match.instances",
    "cache_hits": "featurize.cache_hits",
    "cache_misses": "featurize.cache_misses",
    "structure_passes": "predict.structure_passes",
    "structure_repredicted": "predict.structure_repredicted",
    **{f"constraint_{stat}": f"constraint.{stat}" for stat in (
        "nodes_expanded", "prune_bound", "prune_hard",
        "prune_soft_bound", "leaf_hard_rejects")},
}

#: A plan that quarantines one learner and forces the pool off.
CRASH_PLAN = [{"site": "learner.predict", "key": "name_matcher",
               "action": "raise", "count": 99},
              {"site": "executor.pool", "key": "predict",
               "action": "raise"}]


def _recorded_match(system, workers: int, faults=None):
    """One observed match; the system is reset afterwards."""
    system.workers = workers
    if faults is not None:
        system.policy = ResiliencePolicy(fault_plan=FaultPlan.from_dict(
            {"seed": 0, "faults": faults}))
    observer = Observer.full()
    try:
        result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                              observer=observer)
    finally:
        system.close_pool()
        system.workers, system.policy = 1, None
    return result, observer


class TestRegistryIsASpanView:
    """The registry's counts are read off the finished run's spans."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_profile_counter_equals_its_registry_counter(
            self, system, workers):
        result, observer = _recorded_match(system, workers)
        summary = observer.metrics.summary()
        assert set(result.profile.counters) == set(PROFILE_METRICS)
        for counter, value in result.profile.counters.items():
            assert summary["counters"][PROFILE_METRICS[counter]] == \
                value, counter
        histograms = summary["histograms"]
        assert histograms["match.column_size"]["count"] == \
            result.profile.counters["tags"]
        learner_rows = sum(
            span.attributes["instances"] for span in observer.trace.spans
            if span.name.startswith("learner."))
        assert histograms["predict.instance_latency_seconds"]["count"] \
            == learner_rows

    def test_two_matches_sum_counters_and_ratio(self):
        from repro.core import featurize
        from repro.xmlio import parse_fragments

        from .test_core_matching_edge import SOURCE, trained_system

        system = trained_system()
        listings = parse_fragments(
            "<l><a>alpha apple</a><b>berry</b></l>" * 3)
        featurize.clear_text_cache()
        observer = Observer.full()
        runs = [system.match(SOURCE, listings, observer=observer)
                for _ in range(2)]
        counters = observer.metrics.summary()["counters"]
        for counter, name in PROFILE_METRICS.items():
            values = [run.profile.counters.get(counter) for run in runs]
            if values != [None, None]:
                assert counters[name] == sum(values), counter
        # The second match found every text cached; the ratio still
        # describes both runs together.
        assert runs[1].profile.counters["cache_misses"] == 0
        hits = counters["featurize.cache_hits"]
        misses = counters["featurize.cache_misses"]
        assert misses > 0
        assert observer.metrics.summary()["gauges"][
            "featurize.cache_hit_ratio"] == hits / (hits + misses)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_degraded_run_counts_equal_its_report(self, system, workers):
        result, observer = _recorded_match(system, workers, CRASH_PLAN)
        degradation = result.degradation
        counters = observer.metrics.summary()["counters"]
        resilience = {name: value for name, value in counters.items()
                      if name.startswith("resilience.")}
        assert resilience == {
            "resilience.learners_quarantined":
                len(degradation.quarantined_learners),
            "resilience.pool_failures": len(degradation.pool_failures),
            "resilience.faults_fired": len(degradation.fired_faults),
        }
        assert degradation.quarantined_learners == ["name_matcher"]

    def test_checkpoint_outcome_is_read_off_the_constrain_span(
            self, system, tmp_path):
        def checkpointed(resume: bool):
            checkpoint = Checkpointer(tmp_path, "run")
            checkpoint.open(resume=resume)
            observer = Observer.full()
            system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                         observer=observer, checkpoint=checkpoint)
            spans = {span.span_id: span for span in observer.trace.spans}
            counters = observer.metrics.summary()["counters"]
            return (spans["match/constrain"].attributes["checkpoint"],
                    {name: value for name, value in counters.items()
                     if name.startswith("runtime.checkpoint.")})

        assert checkpointed(resume=False) == (
            "saved", {"runtime.checkpoint.writes": 1})
        assert checkpointed(resume=True) == (
            "resumed", {"runtime.checkpoint.stages_resumed": 1})

    def test_train_records_instances_and_cv_tasks(self):
        system = trained_system()
        observer = Observer.full()
        system.train(observer=observer)
        spans = {span.span_id: span for span in observer.trace.spans}
        counters = observer.metrics.summary()["counters"]
        assert counters == {
            "train.instances":
                spans["train/fit/fit.name_matcher"].attributes[
                    "instances"],
            "train.cv_tasks": system.folds * len(system.learners),
        }


class TestFailedTaskSpans:
    def test_serial_and_process_mark_the_same_failed_spans(self, system):
        def errors(workers):
            _, observer = _recorded_match(system, workers, CRASH_PLAN[:1])
            return {span.span_id: span.attributes["error"]
                    for span in observer.trace.spans
                    if "error" in span.attributes}

        serial = errors(1)
        assert serial and set(serial.values()) == {"FaultInjected"}
        assert all(".name_matcher" in span_id for span_id in serial)
        assert errors(2) == serial
