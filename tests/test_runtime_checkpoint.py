"""Unit tests for :mod:`repro.runtime.checkpoint` and the durability
contract of the atomic artifact layer it builds on: keys, manifests,
incumbent and mapping roundtrips, absorbed write faults, and never-torn
files."""

import json
import os
import threading

from repro.observability import artifacts
from repro.observability.artifacts import (atomic_write_bytes,
                                           atomic_write_text)
from repro.observability.ledger import build_entry, check_ledger
from repro.resilience import (FaultPlan, FaultSpec, ResiliencePolicy,
                              SITE_ARTIFACT_WRITE)
from repro.runtime import (CHECKPOINT_VERSION, Checkpointer,
                           STAGE_CONSTRAIN, run_key)


# ---------------------------------------------------------------------------
# run keys
# ---------------------------------------------------------------------------

class TestRunKey:
    def test_deterministic_and_short(self):
        key = run_key("fp", feedback=["a=B"],
                      settings={"input_mode": "strict"})
        assert key == run_key("fp", feedback=["a=B"],
                              settings={"input_mode": "strict"})
        assert len(key) == 16
        int(key, 16)  # hex

    def test_output_affecting_knobs_change_the_key(self):
        base = run_key("fp")
        assert run_key("other") != base
        assert run_key("fp", feedback=["price=PRICE"]) != base
        assert run_key("fp", settings={"max_instances": 5}) != base

    def test_feedback_order_is_canonicalized(self):
        assert run_key("fp", feedback=["a=X", "b=Y"]) == \
            run_key("fp", feedback=["b=Y", "a=X"])

    def test_workers_and_backend_are_not_parameters(self):
        # Output is byte-identical across parallelism, so the key
        # signature deliberately has no worker/backend knobs: a run
        # may resume under different parallelism than it started.
        import inspect

        params = inspect.signature(run_key).parameters
        assert "workers" not in params
        assert "backend" not in params


# ---------------------------------------------------------------------------
# the checkpointer
# ---------------------------------------------------------------------------

class TestCheckpointer:
    def test_open_writes_a_versioned_manifest(self, tmp_path):
        ck = Checkpointer(tmp_path, "k1")
        ck.open(resume=False)
        manifest = json.loads(
            (tmp_path / "k1" / "MANIFEST.json").read_text())
        assert manifest["schema_version"] == CHECKPOINT_VERSION == 2
        assert manifest["kind"] == "lsd-checkpoint"
        assert manifest["run_key"] == "k1"
        assert manifest["attempt"] == 1
        assert manifest["run_id"] == "k1-a1"
        assert manifest["stages"] == []
        assert ck.run_id == "k1-a1"
        assert not ck.has(STAGE_CONSTRAIN)

    def test_mapping_roundtrip(self, tmp_path):
        ck = Checkpointer(tmp_path, "k1")
        ck.open(resume=False)
        assert ck.save_mapping({"b": "Y", "a": "X"}) is True
        assert ck.has(STAGE_CONSTRAIN)
        fresh = Checkpointer(tmp_path, "k1")
        fresh.open(resume=True)
        assert fresh.load_mapping() == {"a": "X", "b": "Y"}

    def test_incumbent_roundtrips_floats_exactly(self, tmp_path):
        ck = Checkpointer(tmp_path, "k1")
        ck.open(resume=False)
        cost = 0.1 + 0.2  # a float whose repr must survive the trip
        ck.save_incumbent(cost, (0, 3, 1), {"price": "PRICE"})
        fresh = Checkpointer(tmp_path, "k1")
        fresh.open(resume=True)
        loaded = fresh.load_incumbent()
        assert loaded == (cost, (0, 3, 1), {"price": "PRICE"})
        assert loaded[0] == cost  # bitwise, not approximately

    def test_incumbent_writes_are_deduplicated(self, tmp_path):
        ck = Checkpointer(tmp_path, "k1")
        ck.open(resume=False)
        writes = []
        original = ck._write_text
        ck._write_text = lambda name, text: writes.append(name) or \
            original(name, text)
        ck.save_incumbent(2.0, (1, 2), {"a": "X"})
        ck.save_incumbent(2.0, (1, 2), {"a": "X"})  # unchanged: no IO
        ck.save_incumbent(1.0, (1, 1), {"a": "Y"})
        ck.save_incumbent(1.5, (2, 2), None)  # no assignment: ignored
        assert writes == ["incumbent.json", "incumbent.json"]

    def test_resume_bumps_attempt_and_records_lineage(self, tmp_path):
        first = Checkpointer(tmp_path, "k1")
        first.open(resume=False)
        first.save_mapping({"t": "X"})
        second = Checkpointer(tmp_path, "k1")
        second.open(resume=True)
        assert second.run_id == "k1-a2"
        assert second.resumed_from == "k1-a1"
        assert second.has(STAGE_CONSTRAIN)
        third = Checkpointer(tmp_path, "k1")
        third.open(resume=False)  # fresh run: stages reset,
        assert third.manifest["stages"] == []  # ids never repeat
        assert third.run_id == "k1-a3"
        assert third.resumed_from is None
        assert third.load_mapping() is None

    def test_foreign_or_corrupt_manifest_starts_fresh(self, tmp_path):
        other = Checkpointer(tmp_path, "other-key")
        other.open(resume=False)
        other.save_mapping({"t": "X"})
        (tmp_path / "k1").mkdir()
        (tmp_path / "k1" / "MANIFEST.json").write_text("{not json")
        ck = Checkpointer(tmp_path, "k1")
        ck.open(resume=True)
        assert ck.resumed_from is None
        assert ck.manifest["stages"] == []

    def test_version_1_directory_is_not_half_read(self, tmp_path):
        """A checkpoint written by the previous format (score shards,
        an extract marker) is ignored whole: the resume starts fresh
        and serves neither its incumbent nor its mapping."""
        directory = tmp_path / "k1"
        directory.mkdir()
        (directory / "MANIFEST.json").write_text(json.dumps({
            "schema_version": 1, "kind": "lsd-checkpoint",
            "run_key": "k1", "attempt": 1, "run_id": "k1-a1",
            "stages": ["extract", "predict", "constrain"],
            "scores": {"nb": "scores_nb.bin"}}))
        (directory / "incumbent.json").write_text(json.dumps({
            "cost": 1.0, "path": [0], "assignment": {"t": "X"}}))
        (directory / "mapping.json").write_text('{"t": "X"}\n')
        ck = Checkpointer(tmp_path, "k1")
        ck.open(resume=True)
        assert ck.resumed_from is None
        assert ck.run_id == "k1-a1"
        assert ck.load_incumbent() is None
        assert ck.load_mapping() is None

    def test_write_fault_is_absorbed_never_torn(self, tmp_path):
        """An ``artifact.write`` fault during a checkpoint save is a
        recorded degradation: the save reports failure, the stage is
        not committed, and no torn or temp file is left behind."""
        policy = ResiliencePolicy()
        plan = FaultPlan(specs=(
            FaultSpec(site=SITE_ARTIFACT_WRITE, key="mapping.json"),))
        ck = Checkpointer(tmp_path, "k1", plan=plan,
                          report=policy.report)
        ck.open(resume=False)
        assert ck.save_mapping({"t": "X"}) is False
        assert not ck.has(STAGE_CONSTRAIN)
        lost = [f["artifact"] for f in
                policy.report.artifact_failures]
        assert lost == ["checkpoint:mapping.json"]
        assert sorted(p.name for p in (tmp_path / "k1").iterdir()) == \
            ["MANIFEST.json"]  # no mapping, no temp litter


# ---------------------------------------------------------------------------
# artifact-layer durability
# ---------------------------------------------------------------------------

class TestArtifactDurability:
    def test_concurrent_writers_leave_one_complete_file(self,
                                                        tmp_path):
        path = tmp_path / "shared.json"
        contents = [f'{{"writer": {i}, "pad": "{"x" * 512}"}}'
                    for i in range(8)]
        barrier = threading.Barrier(len(contents))

        def write(text):
            barrier.wait()
            for _ in range(20):
                atomic_write_text(path, text)

        threads = [threading.Thread(target=write, args=(text,))
                   for text in contents]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert path.read_text() in contents  # whole, never interleaved
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_fsync_happens_before_rename(self, tmp_path, monkeypatch):
        """The durability ordering checkpoints rely on: data reaches
        disk before the name flips to the new version."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            artifacts.os, "fsync",
            lambda fd: calls.append("fsync") or real_fsync(fd))
        monkeypatch.setattr(
            artifacts.os, "replace",
            lambda a, b: calls.append("replace") or real_replace(a, b))
        atomic_write_bytes(tmp_path / "data.bin", b"payload")
        assert "fsync" in calls and "replace" in calls
        assert calls.index("fsync") < calls.index("replace")
        assert (tmp_path / "data.bin").read_bytes() == b"payload"

    def test_process_death_mode_skips_fsync_but_stays_atomic(
            self, tmp_path, monkeypatch):
        """``durable=False`` — the checkpoint write path — sheds the
        storage round-trip while keeping the rename contract: the
        destination is complete-or-absent and no temp litter
        remains."""
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            artifacts.os, "fsync",
            lambda fd: calls.append("fsync") or real_fsync(fd))
        atomic_write_text(tmp_path / "marker.json", '{"ok": true}\n',
                          durable=False)
        atomic_write_bytes(tmp_path / "shard.bin", b"rows",
                           durable=False)
        assert calls == []
        assert (tmp_path / "marker.json").read_text() == '{"ok": true}\n'
        assert (tmp_path / "shard.bin").read_bytes() == b"rows"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["marker.json", "shard.bin"]


# ---------------------------------------------------------------------------
# resume-aware ledger
# ---------------------------------------------------------------------------

class TestLedgerResumeExclusion:
    @staticmethod
    def _entry(created, total, **kwargs):
        return build_entry(label="match", fingerprint="fp",
                           created=created,
                           timings={"total": total}, **kwargs)

    def test_build_entry_carries_run_lineage(self):
        entry = self._entry(1.0, 2.0, run_id="k-a2",
                            resumed_from="k-a1")
        assert entry["run_id"] == "k-a2"
        assert entry["resumed_from"] == "k-a1"
        plain = self._entry(1.0, 2.0)
        assert "run_id" not in plain and "resumed_from" not in plain

    def test_resumed_entries_never_poison_the_baseline(self, tmp_path):
        """A resumed run only timed the stages it actually ran; its
        fast partial totals are excluded from both the baseline and
        the gated newest entry."""
        path = tmp_path / "ledger.jsonl"
        lines = [self._entry(1.0, 10.0), self._entry(2.0, 10.5),
                 # a crashed-then-resumed rerun, 50x "faster":
                 self._entry(3.0, 0.2, run_id="k-a2",
                             resumed_from="k-a1"),
                 self._entry(4.0, 10.2)]
        path.write_text("".join(json.dumps(e) + "\n" for e in lines))
        ok, text = check_ledger(path)
        assert ok, text
        assert "vs 2 baseline run(s)" in text

    def test_only_resumed_series_has_nothing_comparable(self,
                                                        tmp_path):
        path = tmp_path / "ledger.jsonl"
        entry = self._entry(1.0, 0.2, run_id="k-a2",
                            resumed_from="k-a1")
        path.write_text(json.dumps(entry) + "\n")
        ok, text = check_ledger(path)
        assert ok
        assert "only resumed partial run(s)" in text
