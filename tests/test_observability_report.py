"""Tests for run reports: building, round-trip, schema validation."""

from types import SimpleNamespace

import pytest

from repro.observability import (Observer, QualityRecord, StageProfile,
                                 build_match_report, dataset_fingerprint,
                                 load_report, load_schema, render_text,
                                 validate_file, validate_report,
                                 write_report)
from repro.observability.metrics import M_PREDICT_LATENCY


def _record(tag: str = "price", assigned: str = "PRICE",
            override: bool = False) -> QualityRecord:
    return QualityRecord(
        tag=tag, column_size=20,
        learner_top={"naive_bayes": {"label": "PRICE", "score": 0.9}},
        meta_weights={"naive_bayes": 0.5},
        predicted="PRICE", predicted_score=0.9, margin=0.6,
        agreement=1.0, assigned=assigned,
        constraint_override=override)


def _result(records=None) -> SimpleNamespace:
    profile = StageProfile({"extract": 0.25,
                            "predict.learner.naive_bayes": 0.5},
                           {"instances": 40})
    return SimpleNamespace(
        profile=profile,
        quality=list(records if records is not None else [_record()]),
        mapping={"price": "PRICE", "agent": "OTHER"})


def _observer() -> Observer:
    observer = Observer.full()
    observer.metrics.counter("match.instances").inc(40)
    observer.metrics.histogram(M_PREDICT_LATENCY).observe(1e-4,
                                                          count=40)
    return observer


def _report(**overrides) -> dict:
    kwargs = dict(
        config={"model": "m.lsd", "workers": 2},
        dataset={"fingerprint": "abc123", "tags": 2, "instances": 40},
        result=_result(), observer=_observer(), created=1700000000.0)
    kwargs.update(overrides)
    return build_match_report(**kwargs)


class TestFingerprint:
    def test_stable_and_tag_order_insensitive(self):
        a = dataset_fingerprint(["b", "a"], ["x", "y"])
        b = dataset_fingerprint(["a", "b"], ["x", "y"])
        assert a == b
        assert len(a) == 16

    def test_sensitive_to_content(self):
        base = dataset_fingerprint(["a"], ["x"])
        assert dataset_fingerprint(["a"], ["y"]) != base
        assert dataset_fingerprint(["b"], ["x"]) != base
        assert dataset_fingerprint(["a"], ["x", ""]) != base


class TestBuildReport:
    def test_sections(self):
        report = _report()
        assert report["command"] == "match"
        assert report["created"] == 1700000000.0
        assert report["config"]["workers"] == 2
        assert report["stages"]["counters"]["instances"] == 40
        assert report["metrics"]["counters"]["match.instances"] == 40
        assert report["mapping"] == {"agent": "OTHER",
                                     "price": "PRICE"}
        assert report["quality"][0]["tag"] == "price"

    def test_disabled_observer_yields_empty_metrics(self):
        report = _report(observer=None)
        assert report["metrics"] == {"counters": {}, "gauges": {},
                                     "histograms": {}}

    def test_round_trip(self, tmp_path):
        report = _report()
        path = tmp_path / "report.json"
        write_report(report, path)
        assert load_report(path) == report

    def test_quality_record_round_trip(self):
        record = _record(override=True)
        assert QualityRecord.from_dict(record.as_dict()) == record


class TestSchemaValidation:
    def test_built_report_is_valid(self):
        assert validate_report(_report()) == []

    def test_schema_file_loads(self):
        schema = load_schema()
        assert schema["type"] == "object"
        assert "quality" in schema["properties"]

    def test_missing_required_key(self):
        report = _report()
        del report["mapping"]
        errors = validate_report(report)
        assert any("mapping" in error for error in errors)

    def test_wrong_type(self):
        report = _report()
        report["dataset"]["tags"] = "two"
        errors = validate_report(report)
        assert any("expected integer" in error for error in errors)

    def test_unexpected_top_level_key(self):
        report = _report()
        report["extra"] = 1
        errors = validate_report(report)
        assert any("extra" in error for error in errors)

    def test_bad_enum(self):
        report = _report()
        report["kind"] = "something-else"
        assert validate_report(report)

    def test_negative_minimum(self):
        report = _report()
        report["created"] = -5.0
        assert any("minimum" in error
                   for error in validate_report(report))

    def test_bool_is_not_an_integer(self):
        report = _report()
        report["dataset"]["tags"] = True
        assert validate_report(report)

    def test_validate_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_report(), path)
        assert validate_file(path)["kind"] == "lsd-run-report"

    def test_validate_file_raises_with_violations(self, tmp_path):
        report = _report()
        del report["quality"]
        path = tmp_path / "bad.json"
        write_report(report, path)
        with pytest.raises(ValueError, match="quality"):
            validate_file(path)


class TestRenderText:
    def test_mentions_mapping_and_metrics(self):
        text = render_text(_report())
        assert "price" in text and "PRICE" in text
        assert "p50" in text and "p99" in text
        assert "extract" in text

    def test_override_flag(self):
        result = _result([_record(assigned="OTHER", override=True)])
        text = render_text(_report(result=result))
        assert "OVERRIDE" in text

    def test_tag_without_quality_record_still_listed(self):
        text = render_text(_report())
        assert "agent" in text
