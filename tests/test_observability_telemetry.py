"""Run-record plumbing tests: resource sampling, atomic artifact
writes, and the run ledger's regression gate."""

import json

import pytest

from repro.observability import ledger as run_ledger
from repro.observability.artifacts import (atomic_append_jsonl,
                                           atomic_write_text)
from repro.observability.resources import (ProcSample, read_proc_self,
                                           read_rss_bytes)
from repro.resilience import (FaultInjected, FaultPlan, FaultSpec,
                              SITE_ARTIFACT_WRITE)


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

    def test_read_rss_bytes_agrees_with_the_full_snapshot(self):
        rss = read_rss_bytes()
        assert rss > 0
        # Same procfs figure, read at a slightly different instant.
        assert abs(rss - read_proc_self().rss_bytes) < 64 << 20


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
