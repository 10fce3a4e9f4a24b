"""Tests for the seeded fault injector, deadlines and degradation log."""

import random

import pytest

from repro.resilience import (Deadline, DegradationReport, FaultInjected,
                              FaultPlan, FaultSpec, LearnerTimeout,
                              SITE_CATALOGUE, SITE_EXECUTOR_TASK,
                              SITE_INGEST_CHUNK, SITE_LEARNER_PREDICT,
                              call_with_timeout, corrupt_text)


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="no.such.site")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site=SITE_LEARNER_PREDICT, action="explode")

    def test_unknown_corruption_style_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption style"):
            FaultSpec(site=SITE_INGEST_CHUNK, action="corrupt",
                      message="nonsense")

    def test_schedule_fields_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(site=SITE_LEARNER_PREDICT, at_hit=0)

    def test_round_trips_through_as_dict(self):
        spec = FaultSpec(site=SITE_EXECUTOR_TASK, key="3", at_hit=2,
                         every=4, count=5, message="boom")
        assert FaultSpec(**spec.as_dict()) == spec


class TestFaultPlanParsing:
    def test_from_json_happy_path(self):
        plan = FaultPlan.from_json(
            '{"seed": 7, "faults": [{"site": "learner.predict", '
            '"key": "name_matcher"}]}')
        assert plan.seed == 7
        assert plan.specs[0].key == "name_matcher"

    def test_bad_json_raises_value_error(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seeds": 1})

    def test_unknown_spec_field_named_with_index(self):
        with pytest.raises(ValueError, match=r"faults\[0\]"):
            FaultPlan.from_dict(
                {"faults": [{"site": "learner.predict", "when": 3}]})


class TestFiring:
    def plan(self, **kwargs):
        return FaultPlan(specs=(FaultSpec(**kwargs),))

    def test_raise_action_carries_site_and_key(self):
        plan = self.plan(site=SITE_LEARNER_PREDICT, key="nb")
        with pytest.raises(FaultInjected) as excinfo:
            plan.fire(SITE_LEARNER_PREDICT, "nb")
        assert excinfo.value.site == SITE_LEARNER_PREDICT
        assert excinfo.value.key == "nb"

    def test_key_scoping(self):
        plan = self.plan(site=SITE_LEARNER_PREDICT, key="nb")
        plan.fire(SITE_LEARNER_PREDICT, "whirl")  # other key: no fire
        with pytest.raises(FaultInjected):
            plan.fire(SITE_LEARNER_PREDICT, "nb")

    def test_schedule_at_every_count(self):
        plan = self.plan(site=SITE_EXECUTOR_TASK, key="0", at_hit=2,
                         every=3, count=2)
        fired = []
        for hit in range(1, 12):
            try:
                plan.fire(SITE_EXECUTOR_TASK, "0")
            except FaultInjected:
                fired.append(hit)
        assert fired == [2, 5]  # at hit 2, again 3 later, then spent

    def test_site_wide_spec_counts_across_keys(self):
        plan = self.plan(site=SITE_EXECUTOR_TASK, at_hit=3)
        plan.fire(SITE_EXECUTOR_TASK, "0")
        plan.fire(SITE_EXECUTOR_TASK, "1")
        with pytest.raises(FaultInjected):
            plan.fire(SITE_EXECUTOR_TASK, "2")

    def test_records_are_sorted_not_arrival_ordered(self):
        plan = FaultPlan(specs=(
            FaultSpec(site=SITE_EXECUTOR_TASK, key="5"),
            FaultSpec(site=SITE_EXECUTOR_TASK, key="1"),
        ))
        for key in ("5", "1"):
            with pytest.raises(FaultInjected):
                plan.fire(SITE_EXECUTOR_TASK, key)
        assert [r["key"] for r in plan.records()] == ["1", "5"]


class TestCorruption:
    def test_corrupt_is_deterministic_per_seed_site_key(self):
        def run():
            plan = FaultPlan(specs=(FaultSpec(
                site=SITE_INGEST_CHUNK, action="corrupt"),), seed=3)
            return plan.corrupt(SITE_INGEST_CHUNK, "0",
                                "<a><b>some text here</b></a>")
        assert run() == run()

    def test_corrupted_text_differs_and_keeps_start_tag(self):
        plan = FaultPlan(specs=(FaultSpec(
            site=SITE_INGEST_CHUNK, action="corrupt"),), seed=3)
        text = "<a><b>some text here</b></a>"
        damaged, style = plan.corrupt(SITE_INGEST_CHUNK, "0", text)
        assert style is not None
        assert damaged != text
        assert damaged.startswith("<a>")

    def test_every_style_damages_or_preserves_sanely(self):
        text = "<listing><price>100</price></listing>"
        for style in ("drop-close", "bogus-entity", "stray-markup",
                      "truncate-tail"):
            damaged = corrupt_text(text, style, random.Random(1))
            assert damaged.startswith("<listing>")

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption style"):
            corrupt_text("<a/>", "melt", random.Random(0))


class TestDeadline:
    def test_inert_deadline_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.active
        assert not deadline.expired()
        assert deadline.remaining() is None

    def test_zero_deadline_is_immediately_expired(self):
        deadline = Deadline(0.0)
        assert deadline.active
        assert deadline.expired()

    def test_generous_deadline_not_expired(self):
        assert not Deadline(3600.0).expired()


class TestCallWithTimeout:
    def test_no_timeout_is_a_direct_call(self):
        assert call_with_timeout(lambda x: x + 1, (41,)) == 42

    def test_errors_propagate_unchanged(self):
        with pytest.raises(KeyError, match="boom"):
            call_with_timeout(
                lambda: (_ for _ in ()).throw(KeyError("boom")), (),
                timeout=5.0)

    def test_slow_call_raises_learner_timeout(self):
        import time
        with pytest.raises(LearnerTimeout):
            call_with_timeout(time.sleep, (2.0,), timeout=0.05)


class TestDegradationReport:
    def test_fresh_report_is_not_degraded(self):
        report = DegradationReport()
        assert not report.degraded
        assert report.as_dict() == {}

    def test_quarantined_learners_deduplicated_in_order(self):
        report = DegradationReport()
        report.quarantine("nb", "predict", "boom", "ValueError")
        report.quarantine("whirl", "predict", "boom", "ValueError")
        report.quarantine("nb", "predict", "again", "ValueError")
        assert report.quarantined_learners == ["nb", "whirl"]
        assert report.degraded

    def test_retries_sorted_in_as_dict(self):
        report = DegradationReport()
        report.retried("predict", 3, 2, True)
        report.retried("predict", 1, 2, True)
        entries = report.as_dict()["retries"]
        assert [entry["task"] for entry in entries] == [1, 3]

    def test_summary_names_every_degradation(self):
        report = DegradationReport()
        assert report.summary() == "degraded"
        report.quarantine("nb", "predict", "boom", "ValueError")
        report.retried("predict", 1, 2, True)
        report.pool_failed("predict")
        report.worker_died("predict", 0, 1)
        report.watchdog_event("worker_killed", "worker 0 held a shard")
        report.pressure(1, "halve_shard_grain")
        report.mark_anytime()
        report.artifact_failed("report", "disk full")
        assert report.summary() == (
            "quarantined learners: nb; task retries: 1; pool fell back "
            "to serial: predict; worker deaths: 1; watchdog: worker_killed; "
            "memory pressure: halve_shard_grain; anytime search exit; "
            "artifacts not written: report")

    def test_every_site_is_catalogued(self):
        from repro.resilience import (SITE_EXECUTOR_POOL,
                                      SITE_LEARNER_FIT,
                                      SITE_SEARCH_ROOT)
        for site in (SITE_INGEST_CHUNK, SITE_LEARNER_FIT,
                     SITE_LEARNER_PREDICT, SITE_EXECUTOR_TASK,
                     SITE_EXECUTOR_POOL, SITE_SEARCH_ROOT):
            assert site in SITE_CATALOGUE
