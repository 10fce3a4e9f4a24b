"""End-to-end resilience tests: quarantine, retries, pool fallback,
anytime search, fault-aware ingestion, and the chaos acceptance run."""

import json

import numpy as np
import pytest

from repro.resilience import (FaultPlan, ResiliencePolicy,
                              ingest_fragments)

pytestmark = pytest.mark.filterwarnings("ignore")

N_LISTINGS = 15


@pytest.fixture(scope="module")
def trained():
    """One trained system + domain, shared across the module. Tests
    must leave ``system.policy`` and ``system.workers`` reset."""
    from repro.core import LSDSystem
    from repro.datasets import load_domain

    domain = load_domain("real_estate_1")
    system = LSDSystem.with_default_learners(
        domain.mediated_schema, constraints=domain.constraints,
        extra_learners=domain.recognizers(), workers=1)
    for source in domain.sources[:2]:
        system.add_training_source(source.schema,
                                   source.listings(N_LISTINGS),
                                   source.mapping)
    system.train()
    return system, domain


def match_under(trained, policy, workers=1):
    system, domain = trained
    source = domain.sources[2]
    system.workers = workers
    system.policy = policy
    try:
        return system.match(source.schema, source.listings(N_LISTINGS))
    finally:
        system.policy = None
        system.workers = 1


def plan_of(*faults, seed=0):
    return FaultPlan.from_dict({"seed": seed, "faults": list(faults)})


class TestInertPolicy:
    def test_matches_policy_free_run_exactly(self, trained):
        baseline = match_under(trained, None)
        policied = match_under(trained, ResiliencePolicy())
        assert dict(policied.mapping.items()) == \
            dict(baseline.mapping.items())
        for tag, row in baseline.tag_scores.items():
            assert np.array_equal(policied.tag_scores[tag], row)
        assert baseline.degradation is None
        assert policied.degradation is not None
        assert not policied.degradation.degraded


class TestPredictQuarantine:
    def test_crashing_learner_is_quarantined_not_fatal(self, trained):
        policy = ResiliencePolicy(fault_plan=plan_of(
            {"site": "learner.predict", "key": "name_matcher",
             "action": "raise", "count": 99}))
        result = match_under(trained, policy)
        degradation = result.degradation
        assert degradation.quarantined_learners == ["name_matcher"]
        event = degradation.quarantines[0]
        assert event.stage == "predict"
        assert event.error_type == "FaultInjected"
        # The run still proposes a label for every source tag.
        _, domain = trained
        assert set(dict(result.mapping.items())) == \
            set(domain.sources[2].schema.tags)

    def test_without_policy_the_same_fault_would_raise(self, trained):
        """The legacy path has no quarantine: this pins that the
        resilience behaviour is policy-gated, not always-on."""
        baseline = match_under(trained, None)
        assert baseline.degradation is None


class TestExecutorResilience:
    def test_task_fault_recovered_by_retry_budget(self, trained):
        policy = ResiliencePolicy(retries=1, backoff=0.0,
                                  fault_plan=plan_of(
                                      {"site": "executor.task",
                                       "key": "0", "count": 1}))
        result = match_under(trained, policy)
        retries = result.degradation.as_dict()["retries"]
        assert retries == [{"stage": "predict", "task": 0,
                            "attempts": 2, "recovered": True}]
        baseline = match_under(trained, None)
        assert dict(result.mapping.items()) == \
            dict(baseline.mapping.items())

    def test_task_fault_without_retries_raises(self, trained):
        from repro.resilience import FaultInjected
        policy = ResiliencePolicy(fault_plan=plan_of(
            {"site": "executor.task", "key": "0", "count": 1}))
        with pytest.raises(FaultInjected):
            match_under(trained, policy)

    def test_pool_death_falls_back_to_serial(self, trained):
        policy = ResiliencePolicy(fault_plan=plan_of(
            {"site": "executor.pool", "key": "predict"}))
        result = match_under(trained, policy, workers=4)
        assert result.degradation.as_dict()["pool_failures"] == \
            ["predict"]
        baseline = match_under(trained, None)
        assert dict(result.mapping.items()) == \
            dict(baseline.mapping.items())


class TestWorkerProcessKill:
    """The ``worker.process`` site hard-kills a live pool worker before
    the predict map dispatches anything: the map finishes serially, the
    pool is retired, and the output is the serial run's."""

    @staticmethod
    def run(trained, workers):
        from repro.observability import Observer
        system, domain = trained
        source = domain.sources[2]
        system.workers = workers
        system.policy = ResiliencePolicy(fault_plan=plan_of(
            {"site": "worker.process", "key": "predict",
             "action": "raise"}))
        try:
            return system.match(source.schema, source.listings(N_LISTINGS),
                                observer=Observer.full())
        finally:
            system.policy = None
            system.workers = 1
            system.close_pool()

    def test_killed_worker_falls_back_to_serial_output(self, trained):
        killed = self.run(trained, workers=2)
        serial = self.run(trained, workers=1)
        # At workers=1 there is no process to kill.
        assert not serial.degradation.degraded
        assert "predict" in killed.degradation.as_dict()["pool_failures"]
        assert dict(killed.mapping.items()) == dict(serial.mapping.items())
        assert set(killed.tag_scores) == set(serial.tag_scores)
        for tag, row in serial.tag_scores.items():
            assert np.array_equal(killed.tag_scores[tag], row), tag
        assert serial.quality
        assert [record.as_dict() for record in killed.quality] == \
            [record.as_dict() for record in serial.quality]


class TestAnytimeSearch:
    def test_search_fault_forces_best_so_far(self, trained):
        policy = ResiliencePolicy(fault_plan=plan_of(
            {"site": "constraints.search", "key": "search"}))
        result = match_under(trained, policy)
        assert result.anytime
        assert result.degradation.anytime
        _, domain = trained
        assert set(dict(result.mapping.items())) == \
            set(domain.sources[2].schema.tags)


class TestFitQuarantine:
    def test_learner_dropped_from_ensemble_during_training(self):
        from repro.core import LSDSystem
        from repro.datasets import load_domain

        domain = load_domain("real_estate_1")
        policy = ResiliencePolicy(fault_plan=plan_of(
            {"site": "learner.fit", "key": "naive_bayes"}))
        system = LSDSystem.with_default_learners(
            domain.mediated_schema, constraints=domain.constraints,
            extra_learners=domain.recognizers(), policy=policy)
        for source in domain.sources[:2]:
            system.add_training_source(source.schema,
                                       source.listings(10),
                                       source.mapping)
        system.train()
        assert [event.stage for event in policy.report.quarantines] == \
            ["fit"]
        names = [learner.name for learner in system.active_learners]
        assert "naive_bayes" not in names
        assert "name_matcher" in names
        # Matching runs on the survivors only.
        source = domain.sources[2]
        system.policy = None
        result = system.match(source.schema, source.listings(10))
        assert set(dict(result.mapping.items())) == \
            set(source.schema.tags)


class TestFaultAwareIngestion:
    CORRUPT_EVERY = {"site": "ingest.chunk", "action": "corrupt",
                     "at_hit": 1, "every": 10, "count": 2}

    def listings_text(self, count=20):
        return "\n".join(
            f"<listing><price>{100 + i}</price>"
            f"<city>City{i}</city></listing>" for i in range(count))

    def test_lenient_mode_absorbs_injected_corruption(self):
        plan = plan_of(self.CORRUPT_EVERY, seed=5)
        roots, log = ingest_fragments(self.listings_text(), "lenient",
                                      plan)
        assert not log.ok
        injected = [e for e in log.events if e.kind == "injected-fault"]
        assert len(injected) == 2
        assert len(roots) + len(log.dropped) == 20
        assert len(log.clean) == 18

    def test_strict_mode_raises_on_injected_corruption(self):
        from repro.xmlio.errors import XMLSyntaxError
        plan = plan_of(self.CORRUPT_EVERY, seed=5)
        with pytest.raises(XMLSyntaxError):
            ingest_fragments(self.listings_text(), "strict", plan)

    def test_strict_errors_under_a_plan_are_file_absolute(self):
        from repro.xmlio.errors import XMLSyntaxError
        text = ('<?xml version="1.0"?>\n<!-- header -->\n'
                "<l><a>1</a></l>\n<l><a>2</b></l>\n")
        idle = plan_of({"site": "ingest.chunk", "action": "corrupt",
                        "key": "99"})
        errors = []
        for plan in (None, idle):
            with pytest.raises(XMLSyntaxError) as excinfo:
                ingest_fragments(text, "strict", plan)
            errors.append(excinfo.value)
        assert [(e.line, e.column) for e in errors] == [(4, 11), (4, 11)]
        assert str(errors[0]) == str(errors[1])

    def test_strict_injected_corruption_points_into_the_file(self):
        from repro.xmlio.errors import XMLSyntaxError
        text = "<!-- header -->\n" + self.listings_text(3)
        plan = plan_of({"site": "ingest.chunk", "action": "corrupt",
                        "key": "2", "message": "drop-close"})
        with pytest.raises(XMLSyntaxError) as excinfo:
            ingest_fragments(text, "strict", plan)
        # Listing 2 sits on line 4; dropping its close leaves it open
        # to the end of the input, where the error is reported.
        assert excinfo.value.line == 4
        assert excinfo.value.column == len(text.splitlines()[-1]) - \
            len("</listing>") + 1

    def test_strict_plan_without_listings_fails_like_plain_parse(self):
        from repro.xmlio.errors import XMLSyntaxError
        plan = plan_of({"site": "ingest.chunk", "action": "corrupt"})
        messages = []
        for chosen in (None, plan):
            with pytest.raises(XMLSyntaxError) as excinfo:
                ingest_fragments("<!-- only -->\n  ", "strict", chosen)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_no_ingest_faults_delegates_to_recovery(self):
        plan = plan_of({"site": "learner.predict", "key": "nb"})
        roots, log = ingest_fragments(self.listings_text(5), "lenient",
                                      plan)
        assert log.ok
        assert len(roots) == 5


class TestChaosAcceptance:
    """The issue's acceptance run: corrupt listings + a learner crash
    + pool death, at workers 1 and 4 — identical degraded output."""

    def test_diff_chaos_determinism_passes(self):
        from repro.analysis.sanitizer import diff_chaos_determinism
        report = diff_chaos_determinism(workers=4, repeats=1,
                                        n_listings=10)
        assert report.ok, report.render()
        assert report.details["quarantined"] == ["name_matcher"]
        assert report.details["fired_faults"] >= 3


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    from repro.cli import main

    out = tmp_path_factory.mktemp("chaos-data")
    assert main(["generate", "--domain", "real_estate_1",
                 "--out", str(out), "--listings", "20"]) == 0
    return out


@pytest.fixture(scope="module")
def model(generated, tmp_path_factory):
    from repro.cli import main

    model_path = tmp_path_factory.mktemp("chaos-model") / "model.lsd"
    assert main([
        "train",
        "--mediated", str(generated / "mediated.dtd"),
        "--constraints", str(generated / "constraints.txt"),
        "--train",
        str(generated / "homeseekers.com"),
        str(generated / "yahoo-homes.com"),
        "--model", str(model_path),
        "--max-instances", "20",
    ]) == 0
    return model_path


CHAOS_PLAN = {
    "seed": 42,
    "faults": [
        {"site": "ingest.chunk", "action": "corrupt", "at_hit": 1,
         "every": 10, "count": 2},
        {"site": "learner.predict", "key": "name_matcher",
         "action": "raise", "message": "chaos: learner crash"},
        {"site": "executor.pool", "key": "predict", "action": "raise"},
    ],
}


class TestCliChaos:
    def run_match(self, generated, model, tmp_path, workers,
                  *extra):
        from repro.cli import main

        out = tmp_path / f"mapping-w{workers}.txt"
        report = tmp_path / f"report-w{workers}.json"
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
            "--out", str(out), "--report-out", str(report),
            "--workers", str(workers), *extra,
        ])
        return code, out, report

    def test_chaos_run_degrades_identically_at_any_workers(
            self, generated, model, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(CHAOS_PLAN))
        outputs = {}
        for workers in (1, 4):
            code, out, report = self.run_match(
                generated, model, tmp_path, workers,
                "--input-mode", "lenient",
                "--fault-plan", str(plan_path))
            assert code == 0
            captured = capsys.readouterr()
            assert "DEGRADED RUN" in captured.err
            outputs[workers] = (out.read_text(),
                                json.loads(report.read_text()))

        assert outputs[1][0] == outputs[4][0]  # mapping files: bytes
        serial, parallel = outputs[1][1], outputs[4][1]
        assert serial["degradation"] == parallel["degradation"]
        assert serial["mapping"] == parallel["mapping"]
        assert serial["quality"] == parallel["quality"]

        degradation = serial["degradation"]
        assert [q["learner"] for q in degradation["quarantined"]] == \
            ["name_matcher"]
        assert degradation["ingestion"]["listings"]["recovered"] or \
            degradation["ingestion"]["listings"]["dropped"]
        assert degradation["pool_failures"] == ["predict"]

    def test_chaos_report_validates_against_schema(
            self, generated, model, tmp_path, capsys):
        from repro.observability import validate_file

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(CHAOS_PLAN))
        code, _, report = self.run_match(
            generated, model, tmp_path, 2,
            "--input-mode", "lenient", "--fault-plan", str(plan_path))
        assert code == 0
        capsys.readouterr()
        validated = validate_file(str(report))
        assert "degradation" in validated

    def test_clean_run_report_has_no_degradation_section(
            self, generated, model, tmp_path, capsys):
        code, _, report = self.run_match(generated, model, tmp_path, 1)
        assert code == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert "degradation" not in data
        assert "input_mode" not in data["config"]


class TestCliErrors:
    def test_corrupt_model_file_is_a_one_line_error(self, generated,
                                                    tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.lsd"
        bad.write_bytes(b"not a model")
        code = main([
            "match", "--model", str(bad),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.lsd" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_model_file(self, generated, capsys):
        from repro.cli import main

        code = main([
            "match", "--model", "/nonexistent/model.lsd",
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
        ])
        assert code == 2

    def test_unreadable_listings_hint_mentions_lenient_mode(
            self, generated, model, tmp_path, capsys):
        from repro.cli import main

        broken = tmp_path / "broken.xml"
        broken.write_text("<listing><price>1</listing>")
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings", str(broken),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--input-mode lenient" in err

    def test_bad_fault_plan_is_a_cli_error(self, generated, model,
                                           tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"faults": [{"site": "no.such.site"}]}')
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
            "--fault-plan", str(plan_path),
        ])
        assert code == 2
        assert "unknown fault site" in capsys.readouterr().err
