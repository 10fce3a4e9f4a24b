"""Unit tests for the runtime watchdog (:mod:`repro.runtime.
supervisor`) and the memory-pressure guardrails (:mod:`repro.runtime.
pressure`), driven tick-by-tick with fake pools and injected RSS
samples — no timing dependence."""

import pytest

from repro.core import featurize
from repro.core.parallel import SHARD_SCALE, shard_bounds
from repro.observability.metrics import (M_PRESSURE_ACTIONS,
                                         M_PRESSURE_LEVEL,
                                         M_WATCHDOG_KILLS,
                                         M_WATCHDOG_STALLS,
                                         MetricsRegistry)
from repro.resilience import ResiliencePolicy
from repro.runtime import (PressureMonitor, PressureThresholds,
                           Supervisor)
from repro.runtime.pressure import TIER_ACTIONS


@pytest.fixture(autouse=True)
def _reset_shared_runtime_state():
    yield
    SHARD_SCALE.reset()
    featurize.clear_text_cache()


class FakePool:
    broken = False

    def __init__(self, ages):
        self._ages = dict(ages)
        self.killed = []

    def dispatch_ages(self):
        return dict(self._ages)

    def kill_worker(self, worker_id):
        self.killed.append(worker_id)
        self._ages.pop(worker_id, None)


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------

class TestSupervisor:
    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            Supervisor(0)

    def test_overdue_workers_are_killed_and_recorded(self):
        pool = FakePool({0: 0.5, 1: 3.0, 2: 7.5})
        policy = ResiliencePolicy()
        registry = MetricsRegistry()
        supervisor = Supervisor(2.0, pool_provider=lambda: pool,
                                policy=policy, registry=registry)
        killed = supervisor.check_once(now=100.0)
        assert killed == [1, 2]
        assert pool.killed == [1, 2]
        assert supervisor.kills == [1, 2]
        kinds = [event["kind"] for event in policy.report.watchdog]
        assert kinds == ["worker_killed", "worker_killed"]
        assert registry.counter(M_WATCHDOG_KILLS).value == 2
        assert policy.report.degraded

    def test_in_deadline_workers_survive(self):
        pool = FakePool({0: 0.5})
        supervisor = Supervisor(2.0, pool_provider=lambda: pool)
        assert supervisor.check_once(now=100.0) == []
        assert pool.killed == []

    def test_broken_or_absent_pool_is_skipped(self):
        supervisor = Supervisor(1.0, pool_provider=lambda: None)
        assert supervisor.check_once(now=0.0) == []
        pool = FakePool({0: 99.0})
        pool.broken = True
        supervisor = Supervisor(1.0, pool_provider=lambda: pool)
        assert supervisor.check_once(now=0.0) == []
        assert pool.killed == []

    def test_silence_past_deadline_trips_the_run_deadline(self):
        policy = ResiliencePolicy()
        deadline = policy.start_deadline()
        registry = MetricsRegistry()
        supervisor = Supervisor(5.0, policy=policy, registry=registry)
        supervisor.note_event("stage_start", {"stage": "predict"})
        beat = supervisor._last_beat
        assert not deadline.expired()
        supervisor.check_once(now=beat + 5.5)
        assert deadline.expired()  # anytime exit forced
        stalls = [event for event in policy.report.watchdog
                  if event["kind"] == "stall"]
        assert len(stalls) == 1
        assert registry.counter(M_WATCHDOG_STALLS).value == 1

    def test_stall_records_once_until_a_new_heartbeat(self):
        policy = ResiliencePolicy()
        supervisor = Supervisor(5.0, policy=policy)
        supervisor.note_event("stage_start", {})
        beat = supervisor._last_beat
        supervisor.check_once(now=beat + 6.0)
        supervisor.check_once(now=beat + 7.0)  # still the same stall
        assert len(policy.report.watchdog) == 1
        supervisor.note_event("shard_complete", {})  # progress resumed
        beat = supervisor._last_beat
        supervisor.check_once(now=beat + 6.0)  # a second, new stall
        assert len(policy.report.watchdog) == 2

    def test_no_heartbeat_ever_means_no_stall(self):
        """Without an event stream there is no heartbeat signal; the
        supervisor must not fabricate stalls from silence it never
        had a baseline for."""
        policy = ResiliencePolicy()
        supervisor = Supervisor(1.0, policy=policy)
        supervisor.check_once(now=1e9)
        assert policy.report.watchdog == []

    def test_thread_lifecycle_is_idempotent(self):
        supervisor = Supervisor(5.0, poll=0.01)
        with supervisor:
            assert supervisor._thread is not None
            supervisor.start()  # second start: same thread
        assert supervisor._thread is None
        supervisor.stop()  # stop after stop: no-op


# ---------------------------------------------------------------------------
# memory pressure
# ---------------------------------------------------------------------------

class TestPressureMonitor:
    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            PressureMonitor(0)

    def test_nominal_rss_takes_no_action(self):
        monitor = PressureMonitor(1000)
        assert monitor.sample_once(rss_bytes=500) == 0
        assert monitor.actions == []

    def test_shed_tier_clears_the_featurize_cache(self):
        featurize._text_cache["seed"] = ["cached"]
        monitor = PressureMonitor(1000)
        assert monitor.sample_once(rss_bytes=850) == 1
        assert monitor.actions == [TIER_ACTIONS[1]]
        assert featurize._text_cache == {}

    def test_reshard_tier_halves_the_shard_grain(self):
        wide = shard_bounds(10_000)
        monitor = PressureMonitor(1000)
        assert monitor.sample_once(rss_bytes=920) == 2
        assert SHARD_SCALE.factor == 2
        finer = shard_bounds(10_000)
        assert len(finer) > len(wide)
        # Coverage is unchanged — only the grain moved.
        assert finer[0][0] == 0 and finer[-1][1] == 10_000

    def test_degrade_tier_trips_deadline(self):
        policy = ResiliencePolicy()
        deadline = policy.start_deadline()
        monitor = PressureMonitor(1000, policy=policy)
        assert monitor.sample_once(rss_bytes=990) == 3
        assert deadline.expired()

    def test_a_spike_escalates_through_every_tier_in_order(self):
        policy = ResiliencePolicy()
        registry = MetricsRegistry()
        monitor = PressureMonitor(1000, policy=policy,
                                  registry=registry)
        monitor.sample_once(rss_bytes=990)
        assert monitor.actions == [TIER_ACTIONS[1], TIER_ACTIONS[2],
                                   TIER_ACTIONS[3]]
        assert [e["tier"] for e in policy.report.pressure_events] == \
            [1, 2, 3]
        assert registry.counter(M_PRESSURE_ACTIONS).value == 3
        assert registry.gauge(M_PRESSURE_LEVEL).value == 3.0
        assert policy.report.degraded

    def test_tiers_fire_once_while_pressure_stays_high(self):
        monitor = PressureMonitor(1000)
        monitor.sample_once(rss_bytes=850)
        monitor.sample_once(rss_bytes=860)
        assert monitor.actions == [TIER_ACTIONS[1]]

    def test_receding_pressure_rearms_the_tiers(self):
        monitor = PressureMonitor(1000)
        monitor.sample_once(rss_bytes=850)
        monitor.sample_once(rss_bytes=300)  # below the shed watermark
        monitor.sample_once(rss_bytes=850)  # sawtooth climbs again
        assert monitor.actions == [TIER_ACTIONS[1], TIER_ACTIONS[1]]

    def test_custom_thresholds(self):
        monitor = PressureMonitor(
            1000, thresholds=PressureThresholds(shed=0.5, reshard=0.6,
                                                degrade=0.7))
        assert monitor.sample_once(rss_bytes=550) == 1

    def test_live_reader_drives_the_default_path(self):
        monitor = PressureMonitor(1)  # 1 byte: any real RSS is tier 3
        policy_free_tier = monitor.sample_once()
        assert policy_free_tier == 3


# ---------------------------------------------------------------------------
# shard-grain scale
# ---------------------------------------------------------------------------

class TestShardScale:
    def test_halve_doubles_factor_up_to_the_cap(self):
        for expected in (2, 4, 8, 16, 16):
            assert SHARD_SCALE.halve() == expected
        SHARD_SCALE.reset()
        assert SHARD_SCALE.factor == 1

    def test_scaled_plans_cover_identically(self):
        baseline = shard_bounds(997)
        SHARD_SCALE.halve()
        finer = shard_bounds(997)
        flat = [row for start, stop in finer
                for row in range(start, stop)]
        assert flat == list(range(997))
        assert len(finer) >= len(baseline)
