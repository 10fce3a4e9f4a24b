"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A generated Real Estate I domain on disk."""
    out = tmp_path_factory.mktemp("data")
    code = main(["generate", "--domain", "real_estate_1",
                 "--out", str(out), "--listings", "20"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model(generated, tmp_path_factory):
    """A model trained via the CLI on three generated sources."""
    model_path = tmp_path_factory.mktemp("models") / "model.lsd"
    code = main([
        "train",
        "--mediated", str(generated / "mediated.dtd"),
        "--constraints", str(generated / "constraints.txt"),
        "--train",
        str(generated / "homeseekers.com"),
        str(generated / "yahoo-homes.com"),
        str(generated / "realestate.com"),
        "--model", str(model_path),
        "--max-instances", "20",
    ])
    assert code == 0
    return model_path


class TestGenerate:
    def test_layout(self, generated):
        assert (generated / "mediated.dtd").exists()
        assert (generated / "constraints.txt").exists()
        source = generated / "homeseekers.com"
        for name in ("schema.dtd", "listings.xml", "mapping.txt"):
            assert (source / name).exists()

    def test_mapping_file_format(self, generated):
        text = (generated / "homeseekers.com" / "mapping.txt").read_text()
        assert "location = ADDRESS" in text

    def test_listings_parse(self, generated):
        from repro.xmlio import parse_fragments
        listings = parse_fragments(
            (generated / "nwrealty.com" / "listings.xml").read_text())
        assert len(listings) == 20

    def test_constraints_parse(self, generated):
        from repro.constraints import parse_constraints
        constraints = parse_constraints(
            (generated / "constraints.txt").read_text())
        assert len(constraints) > 10


class TestTrainAndMatch:
    def test_model_file_written(self, model):
        assert model.exists() and model.stat().st_size > 0

    def test_match_new_source(self, generated, model, tmp_path,
                              capsys):
        out_file = tmp_path / "proposed.txt"
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
            "--out", str(out_file),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "=>" in printed
        text = out_file.read_text()
        assert "listed-price = PRICE" in text

    def test_match_with_feedback(self, generated, model, capsys):
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
            "--feedback", "city=OTHER",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "city                 => OTHER" in printed

    def test_match_with_workers_and_profile(self, generated, model,
                                            capsys):
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
            "--workers", "4", "--profile",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "=>" in printed
        # The profile table lists the pipeline stages and counters.
        assert "predict" in printed
        assert "instances" in printed

    def test_bad_feedback_syntax(self, generated, model, capsys):
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
            "--feedback", "city",
        ])
        assert code == 2
        assert "TAG=LABEL" in capsys.readouterr().err


class TestObservabilityOutputs:
    def _match(self, generated, model, tmp_path, workers, suffix):
        trace = tmp_path / f"trace{suffix}.jsonl"
        report = tmp_path / f"report{suffix}.json"
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
            "--workers", str(workers),
            "--trace-out", str(trace),
            "--report-out", str(report),
        ])
        assert code == 0
        return trace, report

    def test_trace_tree_and_report(self, generated, model, tmp_path):
        from repro.observability import read_jsonl, validate_file
        from repro.observability.metrics import M_PREDICT_LATENCY

        trace_path, report_path = self._match(
            generated, model, tmp_path, workers=1, suffix="")

        spans = read_jsonl(trace_path)
        ids = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [root.span_id for root in roots] == ["run"]
        # Parent links all resolve; learner and constraint-search
        # children are present under the match subtree.
        for span in spans:
            assert span.parent_id is None or span.parent_id in ids
        assert any(span.name.startswith("learner.") for span in spans)
        assert "run/match/constrain/search" in ids
        # The root covers (almost) all of the traced work.
        children = sum(span.elapsed for span in spans
                       if span.parent_id == "run")
        assert children <= roots[0].elapsed * 1.001

        report = validate_file(report_path)
        schema_tags = 19  # greathomes.com in Real Estate I
        assert report["dataset"]["tags"] == schema_tags
        assert len(report["quality"]) == schema_tags
        assert {record["tag"] for record in report["quality"]} == \
            set(report["mapping"])
        latency = report["metrics"]["histograms"][M_PREDICT_LATENCY]
        assert latency["count"] > 0
        assert 0 < latency["p50"] <= latency["p90"] <= latency["p99"]

    def test_structure_deterministic_across_workers(self, generated,
                                                    model, tmp_path):
        import json

        from repro.observability import read_jsonl

        trace1, report1 = self._match(generated, model, tmp_path,
                                      workers=1, suffix="1")
        trace4, report4 = self._match(generated, model, tmp_path,
                                      workers=4, suffix="4")
        ids1 = sorted(s.span_id for s in read_jsonl(trace1))
        ids4 = sorted(s.span_id for s in read_jsonl(trace4))
        assert ids1 == ids4

        r1 = json.loads(report1.read_text())
        r4 = json.loads(report4.read_text())
        assert r1["mapping"] == r4["mapping"]
        assert r1["quality"] == r4["quality"]
        assert r1["dataset"] == r4["dataset"]

    def test_train_trace_out(self, generated, tmp_path):
        from repro.observability import read_jsonl

        trace_path = tmp_path / "train_trace.jsonl"
        code = main([
            "train",
            "--mediated", str(generated / "mediated.dtd"),
            "--train", str(generated / "homeseekers.com"),
            "--model", str(tmp_path / "traced.lsd"),
            "--max-instances", "10",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        names = {span.name for span in read_jsonl(trace_path)}
        assert {"run", "train", "build", "cv", "fit_meta"} <= names
        assert any(name.startswith("fit.") for name in names)
        assert any(name.startswith("fold.") for name in names)


class TestErrors:
    def test_missing_source_dir(self, generated, tmp_path, capsys):
        code = main([
            "train", "--mediated", str(generated / "mediated.dtd"),
            "--train", str(tmp_path / "nope"),
            "--model", str(tmp_path / "m.lsd"),
        ])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_bad_dtd(self, generated, tmp_path, capsys):
        bad = tmp_path / "bad.dtd"
        bad.write_text("<!ELEMENT broken")
        code = main([
            "train", "--mediated", str(bad),
            "--train", str(generated / "homeseekers.com"),
            "--model", str(tmp_path / "m.lsd"),
        ])
        assert code == 2

    def test_bad_mapping_file(self, generated, tmp_path, capsys):
        source = tmp_path / "src"
        source.mkdir()
        (source / "schema.dtd").write_text(
            (generated / "homeseekers.com" / "schema.dtd").read_text())
        (source / "listings.xml").write_text(
            (generated / "homeseekers.com" / "listings.xml").read_text())
        (source / "mapping.txt").write_text("just some words\n")
        code = main([
            "train", "--mediated", str(generated / "mediated.dtd"),
            "--train", str(source),
            "--model", str(tmp_path / "m.lsd"),
        ])
        assert code == 2
        assert "tag = LABEL" in capsys.readouterr().err


class TestEvaluate:
    def test_ladder_runs(self, capsys):
        code = main(["evaluate", "--domain", "faculty",
                     "--experiment", "ladder",
                     "--listings", "15", "--splits", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "faculty" in printed and "%" in printed

    def test_feedback_experiment_runs(self, capsys):
        code = main(["evaluate", "--domain", "faculty",
                     "--experiment", "feedback", "--listings", "15"])
        assert code == 0
        assert "corrections" in capsys.readouterr().out


class TestArtifactFaultDegradation:
    """Regression for the ``artifact.write`` fault site: before the
    fix, no transitive caller of ``atomic_write_text`` handled
    ``FaultInjected``, so an injected artifact-write fault crashed an
    otherwise-successful run with a raw traceback. The CLI must absorb
    the failure, warn, and record it in the degradation report
    instead."""

    def test_report_write_fault_degrades_not_crashes(
            self, generated, model, tmp_path, capsys):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "faults": [{"site": "artifact.write", "action": "raise"}]}))
        report = tmp_path / "report.json"
        code = main([
            "match", "--model", str(model),
            "--schema", str(generated / "greathomes.com" / "schema.dtd"),
            "--listings",
            str(generated / "greathomes.com" / "listings.xml"),
            "--report-out", str(report),
            "--fault-plan", str(plan),
        ])
        assert code == 0
        captured = capsys.readouterr()
        # The match result still printed; the artifact loss is a
        # warning, not a crash, and no half-written report remains.
        assert "=>" in captured.out
        assert "warning: report not written" in captured.err
        assert not report.exists()

    def test_emit_artifact_records_the_loss(self, tmp_path, capsys):
        from repro.cli import _emit_artifact
        from repro.resilience import ResiliencePolicy

        policy = ResiliencePolicy()

        def boom():
            raise OSError("disk full")

        assert not _emit_artifact("ledger", tmp_path / "ledger.jsonl",
                                  policy.report, boom)
        assert "warning: ledger not written" in capsys.readouterr().err
        assert policy.report.degraded
        assert policy.report.as_dict()["artifact_failures"] == [
            {"artifact": "ledger", "cause": "disk full"}]
