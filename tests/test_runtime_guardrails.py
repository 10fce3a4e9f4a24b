"""Tests for the run guardrails: the ``--watchdog`` hung-worker kill and
the ``--rss-limit`` memory tiers.

Each guardrail is checked where it takes effect — the process-pool map
engine (:func:`repro.core.procpool._kill_overdue`), the shard planner
and the run deadline the constraint search polls — so the unit tests
drive those checks directly with an injected RSS reader, and
the end-to-end tests run a real worker pool and the real CLI.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.constraints import FrequencyConstraint
from repro.core import LSDSystem, SourceSchema
from repro.core.parallel import shard_bounds
from repro.core.procpool import _kill_overdue
from repro.learners import (ContentMatcher, NaiveBayesLearner, NameMatcher,
                            XMLLearner)
from repro.observability import MetricsRegistry, validate_file
from repro.observability.metrics import (M_PRESSURE_ACTIONS,
                                         M_PRESSURE_LEVEL,
                                         M_WATCHDOG_KILLS,
                                         record_degradation)
from repro.resilience import ResiliencePolicy
from repro.resilience import policy as policy_module
from repro.resilience.policy import CHECKPOINT_AND_DEGRADE, HALVE_SHARD_GRAIN

from .test_core_system import (GREATHOMES_LISTINGS, GREATHOMES_SCHEMA,
                               HOMESEEKERS_LISTINGS, HOMESEEKERS_MAPPING,
                               HOMESEEKERS_SCHEMA, MEDIATED,
                               REALESTATE_LISTINGS, REALESTATE_MAPPING,
                               REALESTATE_SCHEMA)
from .test_runtime_crash_resume import _match_argv


@pytest.fixture()
def rss(monkeypatch):
    """The policy module's RSS reader, set by hand (bytes)."""
    value = [0]
    monkeypatch.setattr(policy_module, "read_rss_bytes",
                        lambda: value[0])
    return value


def _metrics_of(policy):
    registry = MetricsRegistry()
    record_degradation(registry, policy.report)
    return registry


class FakePool:
    def __init__(self, ages):
        self._ages = dict(ages)
        self.killed = []

    def dispatch_ages(self):
        return dict(self._ages)

    def kill_worker(self, worker_id):
        self.killed.append(worker_id)
        self._ages.pop(worker_id, None)


# ---------------------------------------------------------------------------
# watchdog: hung workers
# ---------------------------------------------------------------------------

class TestSupervisor:
    """Watchdog supervision: the map engine's hung-worker kill."""

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(watchdog=0)

    def test_overdue_workers_are_killed_and_recorded(self):
        pool = FakePool({0: 0.5, 1: 3.0, 2: 7.5})
        policy = ResiliencePolicy(watchdog=2.0)
        timeout = _kill_overdue(pool, 2.0, policy.report)
        assert pool.killed == [1, 2]
        # The engine next wakes when the surviving task turns overdue.
        assert timeout == pytest.approx(1.5)
        kinds = [event["kind"] for event in policy.report.watchdog]
        assert kinds == ["worker_killed", "worker_killed"]
        assert _metrics_of(policy).counter(M_WATCHDOG_KILLS).value == 2
        assert policy.report.degraded

    def test_in_deadline_workers_survive(self):
        pool = FakePool({0: 0.5})
        policy = ResiliencePolicy(watchdog=2.0)
        assert _kill_overdue(pool, 2.0, policy.report) == \
            pytest.approx(1.5)
        assert pool.killed == []
        assert _kill_overdue(FakePool({}), 2.0, policy.report) == 2.0
        assert policy.report.watchdog == []

    def test_broken_or_absent_pool_is_skipped(self):
        """The check lives in the pool's map engine: a map that runs
        serially — no pool, or a broken one — has no worker to kill."""
        from repro.core.parallel import ParallelExecutor
        from repro.core.procpool import ProcessTask, WorkerPool

        from .test_core_procpool import _fitted_name_matcher

        tasks = [ProcessTask(payload={}, batch=[], fallback=lambda i=i: i)
                 for i in range(3)]
        policy = ResiliencePolicy(watchdog=1e-9)
        serial = ParallelExecutor(workers=2, policy=policy)
        assert serial.map_profiled(lambda task: task.fallback(),
                                   tasks) == [0, 1, 2]
        pool = WorkerPool([_fitted_name_matcher()], workers=1)
        try:
            pool.crash_worker(0)
            broken = ParallelExecutor(workers=2, policy=policy,
                                      backend="process", pool=pool)
            assert broken.map_profiled(lambda task: task.fallback(),
                                       tasks) == [0, 1, 2]
        finally:
            pool.shutdown()
        assert policy.report.watchdog == []

    def test_watchdog_alone_leaves_the_run_deadline_inert(self):
        """The watchdog acts only in the pool's map engine; the search's
        deadline is bounded by ``--deadline`` and ``--rss-limit``."""
        deadline = ResiliencePolicy(watchdog=1e-9).start_deadline()
        time.sleep(0.01)
        assert not deadline.active
        assert not deadline.expired()


class _SleepOnceInWorker(NameMatcher):
    """Hangs on the first prediction any pool worker makes once
    ``marker`` is set: the marker file is created exclusively, so
    exactly one call (in one worker) sleeps; the parent process never
    does."""

    marker = None

    def predict_scores(self, instances):
        if self.marker is not None \
                and multiprocessing.parent_process() is not None:
            try:
                os.close(os.open(self.marker,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                time.sleep(60)
        return super().predict_scores(instances)


class TestHungWorker:
    def test_hung_worker_is_killed_and_its_shard_redispatched(
            self, tmp_path):
        """A real 2-worker pool: the worker holding the hung task is
        killed past the watchdog, its shard re-runs on the survivor, and
        the mapping and every score row equal the serial run's."""
        sleepy = _SleepOnceInWorker()
        system = LSDSystem(
            MEDIATED,
            [sleepy, ContentMatcher(), NaiveBayesLearner(), XMLLearner()],
            constraints=[FrequencyConstraint.at_most_one(label)
                         for label in MEDIATED.label_space().real_labels()])
        system.add_training_source(REALESTATE_SCHEMA, REALESTATE_LISTINGS,
                                   REALESTATE_MAPPING)
        system.add_training_source(HOMESEEKERS_SCHEMA,
                                   HOMESEEKERS_LISTINGS,
                                   HOMESEEKERS_MAPPING)
        system.train()
        serial = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)

        # Set before the pool starts, so the workers hold it too.
        sleepy.marker = str(tmp_path / "slept")
        policy = ResiliencePolicy(watchdog=1.0)
        system.workers = 2
        system.policy = policy
        try:
            guarded = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)
        finally:
            system.close_pool()
        assert (tmp_path / "slept").exists()
        kinds = [event["kind"] for event in policy.report.watchdog]
        assert kinds == ["worker_killed"]
        assert len(policy.report.worker_deaths) == 1
        assert policy.report.pool_failures == []
        assert guarded.mapping == serial.mapping
        assert guarded.tag_scores.keys() == serial.tag_scores.keys()
        for tag, row in serial.tag_scores.items():
            assert np.array_equal(guarded.tag_scores[tag], row)


# ---------------------------------------------------------------------------
# memory guardrails
# ---------------------------------------------------------------------------

class TestPressureMonitor:
    """The RSS tiers: grain halving at plan time, checkpoint-and-degrade
    in the run deadline."""

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(rss_limit=0)

    def test_nominal_rss_takes_no_action(self, rss):
        rss[0] = 500
        policy = ResiliencePolicy(rss_limit=1000)
        assert not policy.memory_pressed(HALVE_SHARD_GRAIN)
        assert not policy.start_deadline().expired()
        assert policy.report.pressure_events == []
        assert not policy.report.degraded

    def test_reshard_tier_halves_the_shard_grain(self, rss):
        rss[0] = 920
        policy = ResiliencePolicy(rss_limit=1000)
        assert policy.memory_pressed(HALVE_SHARD_GRAIN)
        assert not policy.start_deadline().expired()  # below 97%
        assert policy.report.pressure_events == [
            {"tier": 2, "action": "halve_shard_grain"}]

    def test_degrade_tier_trips_deadline(self, rss):
        rss[0] = 969
        policy = ResiliencePolicy(rss_limit=1000)
        deadline = policy.start_deadline()
        assert not deadline.expired()
        rss[0] = 970  # the 97% watermark
        assert deadline.expired()
        rss[0] = 0
        assert deadline.expired()  # latched
        assert policy.report.pressure_events == [
            {"tier": 3, "action": "checkpoint_and_degrade"}]

    def test_a_spike_escalates_through_every_tier_in_order(self, rss):
        rss[0] = 990
        policy = ResiliencePolicy(rss_limit=1000)
        deadline = policy.start_deadline()
        assert policy.memory_pressed(HALVE_SHARD_GRAIN)  # plan time
        assert deadline.expired()  # the search's poll
        assert [e["tier"] for e in policy.report.pressure_events] == \
            [2, 3]
        metrics = _metrics_of(policy)
        assert metrics.counter(M_PRESSURE_ACTIONS).value == 2
        assert metrics.gauge(M_PRESSURE_LEVEL).value == 3.0
        assert policy.report.degraded

    def test_tiers_fire_once_while_pressure_stays_high(self, rss):
        rss[0] = 990
        policy = ResiliencePolicy(rss_limit=1000)
        for _ in range(2):
            assert policy.memory_pressed(HALVE_SHARD_GRAIN)
            assert policy.memory_pressed(CHECKPOINT_AND_DEGRADE)
            assert policy.start_deadline().expired()
        assert [e["action"] for e in policy.report.pressure_events] == \
            ["halve_shard_grain", "checkpoint_and_degrade"]

    def test_receding_pressure_rearms_the_tiers(self, rss):
        """The halving tier is checked at every plan: once RSS recedes
        below its watermark maps go back to the full grain, and a later
        climb halves them again (the report records the action once)."""
        policy = ResiliencePolicy(rss_limit=1000)
        pressed = []
        for value in (920, 300, 920):
            rss[0] = value
            pressed.append(policy.memory_pressed(HALVE_SHARD_GRAIN))
        assert pressed == [True, False, True]
        assert len(policy.report.pressure_events) == 1

    def test_live_reader_drives_the_default_path(self):
        policy = ResiliencePolicy(rss_limit=1)  # any real RSS is >97%
        assert policy.start_deadline().expired()

    def test_clean_run_emits_no_guardrail_metrics(self):
        metrics = _metrics_of(ResiliencePolicy(rss_limit=1 << 40))
        assert M_PRESSURE_LEVEL not in metrics.summary()["gauges"]
        assert metrics.summary()["counters"] == {}


class TestShardScale:
    """The halved shard grain a pressured plan uses."""

    def test_scaled_plans_cover_identically(self):
        for n, target in ((997, 2048), (997, 256), (5000, 256)):
            baseline = shard_bounds(n, target)
            finer = shard_bounds(n, target, scale=2)
            flat = [row for start, stop in finer
                    for row in range(start, stop)]
            assert flat == list(range(n))
            assert len(finer) >= len(baseline)
        assert len(shard_bounds(997, 256, scale=2)) == 8
        assert len(shard_bounds(997, 256)) == 4


# ---------------------------------------------------------------------------
# end to end through the CLI
# ---------------------------------------------------------------------------

def _learner_spans(trace_path, learner):
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    return sorted(span["name"] for span in spans
                  if span["name"].startswith(f"learner.{learner}"))


class TestRssLimitCli:
    def test_rss_limit_degrades_to_a_complete_mapping(self, cli_workspace,
                                                      tmp_path):
        """A 1 MiB limit: the prediction map is planned at half grain,
        the search exits on its anytime path, and every source tag is
        still mapped."""
        report_path = tmp_path / "guard.json"
        out = tmp_path / "guard.txt"
        assert main(_match_argv(cli_workspace, out, "--rss-limit", "1",
                                "--report-out", str(report_path))) == 0
        report = validate_file(report_path)  # raises on a violation
        degradation = report["degradation"]
        assert degradation["anytime"] is True
        assert [event["action"] for event in degradation["pressure"]] == \
            ["halve_shard_grain", "checkpoint_and_degrade"]
        mapped = {line.split("=")[0].strip()
                  for line in out.read_text().splitlines()
                  if "=" in line and not line.startswith("#")}
        schema = (cli_workspace / "data" / "greathomes.com"
                  / "schema.dtd").read_text()
        assert mapped == set(SourceSchema(schema).tags)

    def test_halved_grain_keeps_the_mapping_and_refines_the_plan(
            self, cli_workspace, tmp_path, rss, monkeypatch):
        """At 92% of the limit the map is planned at half grain: more
        shards in the trace, the same mapping and report quality. The
        content matcher declares a fine grain here, so the workspace's
        small batch is split at all."""
        monkeypatch.setattr(ContentMatcher, "shard_rows", 256,
                            raising=False)
        runs = {}
        for name, extra in (("plain", ()),
                            ("halved", ("--rss-limit", "1000"))):
            rss[0] = int(0.92 * 1000 * (1 << 20))
            out = tmp_path / f"{name}.txt"
            trace = tmp_path / f"{name}.jsonl"
            report = tmp_path / f"{name}.json"
            assert main(_match_argv(cli_workspace, out, *extra,
                                    "--trace-out", str(trace),
                                    "--report-out", str(report))) == 0
            runs[name] = (out.read_bytes(), json.loads(report.read_text()),
                          _learner_spans(trace, "content_matcher"))
        plain, halved = runs["plain"], runs["halved"]
        assert halved[0] == plain[0]
        assert halved[1]["mapping"] == plain[1]["mapping"]
        assert halved[1]["quality"] == plain[1]["quality"]
        assert halved[1]["degradation"]["pressure"] == [
            {"tier": 2, "action": "halve_shard_grain"}]
        assert "anytime" not in halved[1]["degradation"]
        assert len(halved[2]) > len(plain[2])
