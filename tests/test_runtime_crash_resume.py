"""Crash-safe checkpoint/resume, end to end.

The durability contract: a run killed at any point resumes to a
byte-identical mapping. Proven two ways — in-process against the
matching pipeline directly (fast, covers partial-manifest resume), and
through the real CLI with an injected ``SIGKILL``
(``LSD_CHECKPOINT_CRASH``) followed by ``--resume``.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _graceful_shutdown, main
from repro.observability import dataset_fingerprint
from repro.resilience import ResiliencePolicy
from repro.runtime import Checkpointer, run_key

from .test_core_system import (GREATHOMES_LISTINGS, GREATHOMES_SCHEMA,
                               trained_system)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def system():
    return trained_system()


def _match(system, checkpoint=None):
    return system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                        checkpoint=checkpoint)


def _open_checkpoint(tmp_path, resume=False):
    fingerprint = dataset_fingerprint(
        GREATHOMES_SCHEMA.tags,
        [listing.text_content() for listing in GREATHOMES_LISTINGS])
    checkpoint = Checkpointer(tmp_path / "ck", run_key(fingerprint))
    checkpoint.open(resume=resume)
    return checkpoint


class TestInProcessResume:
    def test_checkpointed_run_matches_the_baseline(self, system,
                                                   tmp_path):
        baseline = _match(system)
        checkpoint = _open_checkpoint(tmp_path)
        checkpointed = _match(system, checkpoint=checkpoint)
        assert checkpointed.mapping == baseline.mapping
        # A complete run keeps exactly what a resume can use.
        assert sorted(p.name for p in checkpoint.dir.iterdir()) == \
            ["MANIFEST.json", "incumbent.json", "mapping.json"]

    def test_full_resume_replays_the_identical_mapping(self, system,
                                                       tmp_path):
        baseline = _match(system, checkpoint=_open_checkpoint(tmp_path))
        resumed_ck = _open_checkpoint(tmp_path, resume=True)
        assert resumed_ck.resumed_from is not None
        assert resumed_ck.has("constrain")
        resumed = _match(system, checkpoint=resumed_ck)
        assert resumed.mapping == baseline.mapping

    def test_resume_with_only_the_incumbent_is_byte_identical(
            self, system, tmp_path):
        """Simulate a crash after the search saved its incumbent but
        before the mapping commit: the resumed run re-predicts, warm-
        starts the search, and reproduces the uninterrupted run's
        mapping and scores."""
        baseline = _match(system, checkpoint=_open_checkpoint(tmp_path))
        partial = _open_checkpoint(tmp_path, resume=True)
        partial.manifest["stages"] = []
        (partial.dir / "mapping.json").unlink()
        assert sorted(p.name for p in partial.dir.iterdir()) == \
            ["MANIFEST.json", "incumbent.json"]
        assert partial.load_incumbent() is not None
        resumed = _match(system, checkpoint=partial)
        assert resumed.mapping == baseline.mapping
        assert resumed.tag_scores.keys() == baseline.tag_scores.keys()
        for tag, row in baseline.tag_scores.items():
            assert resumed.tag_scores[tag].tobytes() == row.tobytes()
        assert partial.has("constrain")


class TestGracefulShutdown:
    def test_sigterm_trips_the_deadline_and_is_recorded(self):
        policy = ResiliencePolicy()
        deadline = policy.start_deadline()
        before = signal.getsignal(signal.SIGTERM)
        with _graceful_shutdown(policy):
            os.kill(os.getpid(), signal.SIGTERM)
            # The handler converts the signal into a deadline trip; the
            # run then finishes through its normal artifact writers.
            assert deadline.expired()
        shutdowns = [event for event in policy.report.watchdog
                     if event["kind"] == "shutdown"]
        assert len(shutdowns) == 1
        assert "SIGTERM" in shutdowns[0]["detail"]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_flag_validation(self, tmp_path):
        base = ["match", "--model", str(tmp_path / "m"), "--schema",
                str(tmp_path / "s"), "--listings", str(tmp_path / "l")]
        assert main(base + ["--resume"]) == 2
        assert main(base + ["--checkpoint-dir", str(tmp_path),
                            "--watchdog", "0"]) == 2
        assert main(base + ["--rss-limit", "-1"]) == 2


# ---------------------------------------------------------------------------
# CLI SIGKILL matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A generated domain plus a trained model, built once through the
    real CLI entry point."""
    root = tmp_path_factory.mktemp("cli-durability")
    data = root / "data"
    model = root / "model.lsd"
    assert main(["generate", "--domain", "real_estate_1",
                 "--out", str(data), "--listings", "20",
                 "--seed", "7"]) == 0
    assert main(["train", "--mediated", str(data / "mediated.dtd"),
                 "--train", str(data / "homeseekers.com"),
                 str(data / "yahoo-homes.com"),
                 "--constraints", str(data / "constraints.txt"),
                 "--model", str(model), "--max-instances", "20"]) == 0
    return root


def _match_argv(workspace: Path, out: Path, *extra: str) -> list[str]:
    source = workspace / "data" / "greathomes.com"
    return ["match", "--model", str(workspace / "model.lsd"),
            "--schema", str(source / "schema.dtd"),
            "--listings", str(source / "listings.xml"),
            "--out", str(out), *extra]


def _run_cli(argv: list[str], crash_stage: str | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if crash_stage is not None:
        env["LSD_CHECKPOINT_CRASH"] = crash_stage
    else:
        env.pop("LSD_CHECKPOINT_CRASH", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=env,
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)


class TestCliCrashResume:
    @pytest.mark.parametrize("stage", ["incumbent", "constrain"])
    def test_sigkill_then_resume_is_byte_identical(
            self, cli_workspace, tmp_path, stage):
        baseline = tmp_path / "baseline.txt"
        assert main(_match_argv(cli_workspace, baseline)) == 0

        ck_dir = tmp_path / "ck"
        out = tmp_path / "mapping.txt"
        killed = _run_cli(
            _match_argv(cli_workspace, out,
                        "--checkpoint-dir", str(ck_dir)),
            crash_stage=stage)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert not out.exists()

        resumed = _run_cli(
            _match_argv(cli_workspace, out, "--checkpoint-dir",
                        str(ck_dir), "--resume"))
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming run" in resumed.stdout
        assert out.read_bytes() == baseline.read_bytes()

    def test_resume_under_another_model_starts_fresh(
            self, cli_workspace, tmp_path):
        """The run key covers the model: resuming a checkpoint written
        with one model under another must print the second model's own
        mapping, never the first model's saved one."""
        data = cli_workspace / "data"
        other_model = tmp_path / "other.lsd"
        assert main(["train", "--mediated", str(data / "mediated.dtd"),
                     "--train", str(data / "homeseekers.com"),
                     "--model", str(other_model),
                     "--max-instances", "3"]) == 0
        other_plain = tmp_path / "other-plain.txt"
        argv = _match_argv(cli_workspace, other_plain)
        argv[argv.index("--model") + 1] = str(other_model)
        assert main(argv) == 0
        first = tmp_path / "first.txt"
        ck_dir = tmp_path / "ck"
        assert main(_match_argv(cli_workspace, first,
                                "--checkpoint-dir", str(ck_dir))) == 0
        assert first.read_bytes() != other_plain.read_bytes()

        resumed = tmp_path / "resumed.txt"
        argv = _match_argv(cli_workspace, resumed,
                           "--checkpoint-dir", str(ck_dir), "--resume")
        argv[argv.index("--model") + 1] = str(other_model)
        assert main(argv) == 0
        assert resumed.read_bytes() == other_plain.read_bytes()

    def test_constraints_source_exists(self, cli_workspace):
        source = cli_workspace / "data" / "greathomes.com"
        assert (source / "schema.dtd").exists()
        assert (source / "listings.xml").exists()
