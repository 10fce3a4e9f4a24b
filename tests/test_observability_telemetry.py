"""Live-telemetry tests: OpenMetrics exposition (rendering, parsing,
HTTP endpoint, ad-hoc CLI), resource sampling, progress events, atomic
artifact writes, and the run ledger's regression gate."""

import json
import math
import urllib.request

import pytest

from repro.observability import parse_openmetrics, render_openmetrics
from repro.observability import ledger as run_ledger
from repro.observability.artifacts import (atomic_append_jsonl,
                                           atomic_write_text)
from repro.observability.events import (EVENT_CATALOGUE, EV_RUN_END,
                                        EV_RUN_START, EV_SHARD_COMPLETE,
                                        EV_STAGE_END, EV_STAGE_START,
                                        EventStream, NullEventStream,
                                        read_events, validate_events,
                                        validate_file)
from repro.observability.expo import (TelemetryServer, exposition_name,
                                      format_value, registry_from_summary,
                                      samples_for)
from repro.observability.expo import main as expo_main
from repro.observability.metrics import MetricsRegistry
from repro.observability import resources
from repro.observability.resources import (ProcSample, read_proc_self,
                                           read_rss_bytes, sample_into)
from repro.resilience import (FaultInjected, FaultPlan, FaultSpec,
                              SITE_ARTIFACT_WRITE)


# ---------------------------------------------------------------------------
# exposition names and value formatting
# ---------------------------------------------------------------------------

class TestExpositionNames:
    def test_dots_become_underscores_under_the_lsd_prefix(self):
        assert exposition_name("match.instances") == "lsd_match_instances"

    def test_hostile_characters_sanitize(self):
        assert exposition_name("a-b c/d") == "lsd_a_b_c_d"

    def test_leading_digit_guard(self):
        # The prefix already guards the full name; the sanitized stem
        # itself must stay a valid metric-name tail.
        name = exposition_name("2fast")
        assert name.startswith("lsd_")
        assert "2fast" in name

    def test_format_value_integers_and_floats(self):
        assert format_value(3) == "3"
        assert format_value(0.25) == "0.25"

    def test_format_value_specials(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"

    def test_format_value_rejects_bools_and_strings(self):
        with pytest.raises(TypeError):
            format_value(True)
        with pytest.raises(TypeError):
            format_value("7")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("match.instances").inc(40)
    registry.gauge("match.tags").set(7.0)
    histogram = registry.histogram("predict.latency",
                                   bounds=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    return registry


class TestRenderOpenMetrics:
    def test_counter_renders_with_total_suffix(self):
        text = render_openmetrics(_registry())
        assert "# TYPE lsd_match_instances counter" in text
        assert "lsd_match_instances_total 40" in text

    def test_gauge_renders_plain(self):
        text = render_openmetrics(_registry())
        assert "lsd_match_tags 7.0" in text

    def test_ends_with_eof_line(self):
        assert render_openmetrics(_registry()).endswith("# EOF\n")

    def test_help_comes_from_the_catalogue(self):
        registry = MetricsRegistry()
        registry.counter("match.instances").inc()
        text = render_openmetrics(registry)
        assert "# HELP lsd_match_instances " in text

    def test_labels_render_sorted_and_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        text = render_openmetrics(
            registry, labels={"b": 'say "hi"\n', "a": "back\\slash"})
        assert ('lsd_x_total{a="back\\\\slash",b="say \\"hi\\"\\n"} 1'
                in text)

    def test_help_escaping_of_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("match.instances").inc()
        # Rewrite HELP via the parser round-trip below instead: here we
        # just pin that catalogue HELP lines never contain raw newlines.
        for line in render_openmetrics(registry).splitlines():
            if line.startswith("# HELP"):
                assert "\n" not in line[1:]

    def test_histogram_buckets_are_cumulative(self):
        text = render_openmetrics(_registry())
        families = parse_openmetrics(text)
        samples = families["lsd_predict_latency"]["samples"]
        buckets = [(labels["le"], value)
                   for name, labels, value in samples
                   if name.endswith("_bucket")]
        assert buckets == [("0.1", 1), ("1.0", 3), ("10.0", 4),
                           ("+Inf", 5)]

    def test_histogram_sum_and_count_match_summary(self):
        registry = _registry()
        summary = registry.histogram("predict.latency").summary()
        families = parse_openmetrics(render_openmetrics(registry))
        samples = dict(
            (name, value) for name, labels, value
            in families["lsd_predict_latency"]["samples"]
            if not name.endswith("_bucket"))
        assert samples["lsd_predict_latency_count"] == summary["count"]
        assert samples["lsd_predict_latency_sum"] == \
            pytest.approx(summary["sum"])

    def test_families_sort_by_exposed_name(self):
        text = render_openmetrics(_registry())
        family_names = [line.split()[2] for line in text.splitlines()
                        if line.startswith("# TYPE")]
        assert family_names == sorted(family_names)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParseOpenMetrics:
    def test_round_trip_agrees_with_summary(self):
        registry = _registry()
        summary = registry.summary()
        families = parse_openmetrics(render_openmetrics(registry))
        for name, value in summary["counters"].items():
            ((_, _, parsed),) = samples_for(families, name)
            assert parsed == value
        for name, value in summary["gauges"].items():
            ((_, _, parsed),) = samples_for(families, name)
            assert parsed == value

    def test_label_escapes_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(2)
        labels = {"quote": 'a"b', "newline": "a\nb", "slash": "a\\b"}
        families = parse_openmetrics(
            render_openmetrics(registry, labels=labels))
        ((_, parsed, value),) = samples_for(families, "x")
        assert parsed == labels
        assert value == 2

    def test_special_values_parse(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(float("inf"))
        families = parse_openmetrics(render_openmetrics(registry))
        ((_, _, value),) = samples_for(families, "g")
        assert math.isinf(value) and value > 0

    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError):
            parse_openmetrics("lsd_x_total 1\n")

    def test_content_after_eof_rejected(self):
        with pytest.raises(ValueError):
            parse_openmetrics("# EOF\nlsd_x_total 1\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ValueError):
            parse_openmetrics("lsd_x_total\n# EOF\n")


# ---------------------------------------------------------------------------
# the HTTP endpoint
# ---------------------------------------------------------------------------

class TestTelemetryServer:
    def test_metrics_and_healthz_routes(self):
        registry = _registry()
        with TelemetryServer(registry, labels={"command": "test"}) \
                as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as rsp:
                body = rsp.read().decode()
                assert rsp.headers["Content-Type"].startswith(
                    "application/openmetrics-text")
            with urllib.request.urlopen(f"{server.url}/healthz") as rsp:
                assert json.loads(rsp.read()) == {"status": "ok"}
        families = parse_openmetrics(body)
        ((_, labels, value),) = samples_for(families, "match.instances")
        assert value == 40
        assert labels == {"command": "test"}

    def test_unknown_route_is_404(self):
        with TelemetryServer(MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/nope")
            assert excinfo.value.code == 404

    def test_scrape_agrees_with_live_summary(self):
        registry = _registry()
        with TelemetryServer(registry) as server:
            registry.counter("late.increment").inc(3)
            with urllib.request.urlopen(f"{server.url}/metrics") as rsp:
                families = parse_openmetrics(rsp.read().decode())
        ((_, _, value),) = samples_for(families, "late.increment")
        assert value == registry.summary()["counters"]["late.increment"]


# ---------------------------------------------------------------------------
# ad-hoc exposition of saved reports
# ---------------------------------------------------------------------------

class TestExpoCli:
    def test_once_prints_a_parseable_exposition(self, tmp_path, capsys):
        report = {
            "command": "match",
            "dataset": {"fingerprint": "abc123"},
            "metrics": _registry().summary(),
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert expo_main(["--report", str(path), "--once"]) == 0
        families = parse_openmetrics(capsys.readouterr().out)
        ((_, labels, value),) = samples_for(families, "match.instances")
        assert value == 40
        assert labels == {"command": "match", "fingerprint": "abc123"}

    def test_missing_report_is_an_error(self, tmp_path, capsys):
        assert expo_main(["--report", str(tmp_path / "nope.json"),
                          "--once"]) == 2

    def test_registry_from_summary_round_trips_headlines(self):
        original = _registry()
        rebuilt = registry_from_summary(original.summary())
        assert rebuilt.summary()["counters"] == \
            original.summary()["counters"]
        assert rebuilt.summary()["gauges"] == original.summary()["gauges"]
        digest = rebuilt.summary()["histograms"]["predict.latency"]
        source = original.summary()["histograms"]["predict.latency"]
        for key in ("count", "sum", "min", "max", "mean"):
            assert digest[key] == pytest.approx(source[key])


# ---------------------------------------------------------------------------
# resource sampling
# ---------------------------------------------------------------------------

class TestResources:
    def test_read_proc_self_reports_a_live_process(self):
        sample = read_proc_self()
        assert sample.rss_bytes > 0
        assert sample.cpu_seconds >= 0
        assert sample.open_fds > 0
        assert sample.threads >= 1

    def test_proc_sample_dict_round_trip(self):
        sample = ProcSample(rss_bytes=1024, cpu_seconds=0.5,
                            open_fds=7, threads=2)
        assert ProcSample.from_dict(sample.as_dict()) == sample

    def test_sample_into_sets_the_proc_gauges(self):
        registry = MetricsRegistry()
        sample = ProcSample(rss_bytes=2048, cpu_seconds=1.5,
                            open_fds=9, threads=3)
        sample_into(registry, sample)
        gauges = registry.summary()["gauges"]
        assert gauges["proc.rss_bytes"] == 2048.0
        assert gauges["proc.cpu_seconds"] == 1.5
        assert gauges["proc.open_fds"] == 9.0
        assert gauges["proc.threads"] == 3.0

    def test_read_rss_bytes_agrees_with_the_full_snapshot(self):
        rss = read_rss_bytes()
        assert rss > 0
        # Same procfs figure, read at a slightly different instant.
        assert abs(rss - read_proc_self().rss_bytes) < 64 << 20

    def test_sampler_with_canned_reader_is_deterministic(self,
                                                         monkeypatch):
        """The endpoint samples once on start and again on every
        scrape — no sampling thread."""
        canned = iter([ProcSample(1, 0.1, 1, 1), ProcSample(2, 0.2, 2, 2)])
        monkeypatch.setattr(resources, "read_proc_self",
                            lambda: next(canned))
        registry = MetricsRegistry()
        with TelemetryServer(registry) as server:
            assert registry.summary()["gauges"]["proc.rss_bytes"] == 1.0
            with urllib.request.urlopen(f"{server.url}/metrics") as rsp:
                families = parse_openmetrics(rsp.read().decode())
        ((_, _, value),) = samples_for(families, "proc.rss_bytes")
        assert value == 2.0
        assert registry.summary()["gauges"]["proc.rss_bytes"] == 2.0

    def test_saved_report_endpoint_keeps_its_recorded_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("proc.rss_bytes").set(7.0)
        with TelemetryServer(registry, sample_proc=False) as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as rsp:
                families = parse_openmetrics(rsp.read().decode())
        ((_, _, value),) = samples_for(families, "proc.rss_bytes")
        assert value == 7.0


# ---------------------------------------------------------------------------
# progress events
# ---------------------------------------------------------------------------

class TestEventStream:
    def test_stream_emits_validates_and_publishes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventStream(path) as stream:
            stream.emit(EV_RUN_START, command="match")
            stream.emit(EV_STAGE_START, stage="extract")
            stream.emit(EV_STAGE_END, stage="extract",
                        elapsed_seconds=0.1, items=40)
            stream.emit(EV_SHARD_COMPLETE, stage="predict",
                        label="learner.nb", index=0, shards=2, rows=20)
            stream.emit(EV_RUN_END, ok=True, elapsed_seconds=0.2)
        assert path.exists()
        assert not path.with_name("events.jsonl.tmp").exists()
        events = read_events(path)
        assert [event["kind"] for event in events] == [
            "run_start", "stage_start", "stage_end", "shard_complete",
            "run_end"]
        assert validate_events(events) == []
        assert validate_file(path) == []

    def test_lines_stream_to_tmp_before_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stream = EventStream(path)
        stream.emit(EV_RUN_START, command="train")
        tmp = path.with_name(path.name + ".tmp")
        assert json.loads(tmp.read_text())["kind"] == "run_start"
        stream.close()

    def test_unknown_kind_rejected(self, tmp_path):
        with EventStream(tmp_path / "e.jsonl") as stream:
            with pytest.raises(ValueError):
                stream.emit("made_up_kind")

    def test_seq_gap_and_extra_key_fail_validation(self):
        problems = validate_events([
            {"seq": 1, "kind": "run_start", "ts": 1.0},
            {"seq": 3, "kind": "run_end", "ts": 2.0, "ok": True},
        ])
        assert any("seq" in problem for problem in problems)
        problems = validate_events([
            {"seq": 1, "kind": "run_start", "ts": 1.0, "bogus": 1}])
        assert problems

    def test_decreasing_timestamps_fail_validation(self):
        problems = validate_events([
            {"seq": 1, "kind": "run_start", "ts": 2.0},
            {"seq": 2, "kind": "run_end", "ts": 1.0, "ok": True},
        ])
        assert problems

    def test_null_stream_is_inert(self):
        stream = NullEventStream()
        assert stream.enabled is False
        assert stream.emit(EV_RUN_START) == {}
        stream.close()

    def test_every_catalogued_kind_validates(self, tmp_path):
        payloads = {
            EV_RUN_START: {"command": "match"},
            EV_RUN_END: {"ok": True, "elapsed_seconds": 0.1},
            EV_STAGE_START: {"stage": "extract"},
            EV_STAGE_END: {"stage": "extract", "elapsed_seconds": 0.1},
            EV_SHARD_COMPLETE: {"stage": "predict", "label": "nb",
                                "index": 0, "shards": 1, "rows": 4},
            "degradation": {"reason": "quarantined 1 learner(s)"},
            "checkpoint": {"stage": "open", "run_id": "abcd-a1",
                           "resumed_from": "abcd-a0"},
            "resume": {"stage": "extract"},
        }
        assert set(payloads) == set(EVENT_CATALOGUE)
        with EventStream(tmp_path / "all.jsonl") as stream:
            for kind, payload in payloads.items():
                stream.emit(kind, **payload)
        assert validate_file(tmp_path / "all.jsonl") == []


# ---------------------------------------------------------------------------
# atomic artifact writes
# ---------------------------------------------------------------------------

class TestAtomicWrites:
    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_injected_crash_between_write_and_rename(self, tmp_path):
        """The artifact.write fault site fires at the worst instant —
        after the temp file is complete, before the rename — and the
        destination must keep its previous content."""
        path = tmp_path / "report.json"
        atomic_write_text(path, '{"run": 1}')
        plan = FaultPlan(specs=(
            FaultSpec(site=SITE_ARTIFACT_WRITE, key="report.json"),))
        with pytest.raises(FaultInjected):
            atomic_write_text(path, '{"run": 2}', plan=plan)
        assert path.read_text() == '{"run": 1}'
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_append_jsonl_preserves_prior_lines_on_crash(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        atomic_append_jsonl(path, '{"n": 1}')
        plan = FaultPlan(specs=(
            FaultSpec(site=SITE_ARTIFACT_WRITE, key="ledger.jsonl"),))
        with pytest.raises(FaultInjected):
            atomic_append_jsonl(path, '{"n": 2}', plan=plan)
        assert path.read_text() == '{"n": 1}\n'
        atomic_append_jsonl(path, '{"n": 2}')
        assert [json.loads(line) for line in path.read_text().splitlines()
                ] == [{"n": 1}, {"n": 2}]


# ---------------------------------------------------------------------------
# the run ledger
# ---------------------------------------------------------------------------

def _entry(total: float, created: float, accuracy=None,
           label: str = "match", fingerprint: str = "f00d") -> dict:
    return run_ledger.build_entry(
        label=label, fingerprint=fingerprint, created=created,
        timings={"predict": total * 0.8, "total": total},
        metrics={"instances": 40}, accuracy=accuracy)


class TestLedger:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        entry = _entry(1.0, created=100.0)
        run_ledger.append_entry(entry, path)
        assert run_ledger.read_ledger(path) == [entry]

    def test_malformed_line_reports_its_number(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\n{nope\n')
        with pytest.raises(ValueError, match="2"):
            run_ledger.read_ledger(path)

    def test_history_renders_every_entry(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for i in range(3):
            run_ledger.append_entry(_entry(1.0 + i, created=float(i)),
                                    path)
        text = run_ledger.render_history(run_ledger.read_ledger(path))
        assert text.count("match") >= 3

    def test_diff_reports_timing_ratio(self):
        diff = run_ledger.diff_entries(_entry(1.0, created=1.0),
                                       _entry(2.0, created=2.0))
        rendered = run_ledger.render_diff(diff)
        assert "2.00x" in rendered

    def test_check_passes_on_steady_timings(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for i in range(4):
            run_ledger.append_entry(_entry(1.0, created=float(i)), path)
        ok, text = run_ledger.check_ledger(path)
        assert ok
        assert "ok" in text

    def test_check_flags_a_2x_slowdown_vs_3_run_baseline(self, tmp_path):
        """The acceptance case: three steady baseline runs, then one at
        2x — ``ledger check`` must flag it (threshold 1.5x)."""
        path = tmp_path / "ledger.jsonl"
        for i in range(3):
            run_ledger.append_entry(_entry(1.0, created=float(i)), path)
        run_ledger.append_entry(_entry(2.0, created=3.0), path)
        ok, text = run_ledger.check_ledger(path, window=3)
        assert not ok
        assert "REGRESSION" in text

    def test_check_flags_an_accuracy_drop(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for i in range(3):
            run_ledger.append_entry(
                _entry(1.0, created=float(i), accuracy=0.95), path)
        run_ledger.append_entry(
            _entry(1.0, created=3.0, accuracy=0.90), path)
        ok, text = run_ledger.check_ledger(path)
        assert not ok

    def test_single_run_has_no_baseline(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        run_ledger.append_entry(_entry(1.0, created=0.0), path)
        ok, text = run_ledger.check_ledger(path)
        assert ok
        assert "no baseline" in text

    def test_series_are_keyed_by_label_and_fingerprint(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for i in range(3):
            run_ledger.append_entry(_entry(1.0, created=float(i)), path)
        # A 2x run of a *different* dataset must not trip the gate.
        run_ledger.append_entry(
            _entry(2.0, created=3.0, fingerprint="beef"), path)
        ok, _ = run_ledger.check_ledger(path)
        assert ok

    def test_check_honors_a_custom_threshold(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for i in range(3):
            run_ledger.append_entry(_entry(1.0, created=float(i)), path)
        run_ledger.append_entry(_entry(2.0, created=3.0), path)
        ok, _ = run_ledger.check_ledger(path, max_slowdown=3.0)
        assert ok
