"""Crash-safe checkpointing with a byte-identical resume contract.

A checkpoint keeps only what a resume uses, under
``<checkpoint-dir>/<run_key>/``:

``MANIFEST.json``
    Version, run key, attempt counter and completed stages. Written
    when the attempt opens and again after the mapping commit, so the
    manifest never claims a mapping that is not fully on disk.
``incumbent.json``
    The constraint search's best-so-far ``(cost, path, assignment)``
    leaf, snapshotted every :data:`SNAPSHOT_EVERY` expansions and once
    more when the search ends. A resumed search pre-offers it to the
    fresh incumbent — equivalent to that leaf being explored first, so
    the final mapping (the lexicographically first minimum-cost
    assignment) is unchanged.
``mapping.json``
    The final mapping (stage ``constrain``).

Everything before the search — ingest, extraction, learner prediction
— re-runs on resume. Those stages are deterministic and take ~100 ms
on a 200-listing Real Estate I source; persisting their output cost
more on every run than it saved on the rare resume that could use it.
The search is the stage that can run for minutes (the paper's §7
reports handler runtimes of up to 20 minutes), and its incumbent is
what a resume warm-starts from. A resumed run thus re-derives every
score and quality record exactly as an uninterrupted run does.

The *run key* fingerprints everything that determines pipeline output:
the dataset fingerprint, feedback constraints, and the
output-affecting settings (the CLI adds the input mode and the sha256
of the model file). Resuming under a different key starts fresh
instead of serving another run's state — worker counts are
deliberately *not* part of the key, because the pipeline is
byte-identical across them.

Every write is synchronous and goes through
:mod:`repro.observability.artifacts` (temp file + rename), so a run
SIGKILLed at any instant leaves either the previous complete snapshot
or the new complete snapshot, never a torn file. The fsync layer is
deliberately skipped (``durable=False``): the threat model is
*process death* — SIGKILL, OOM kill, a watchdog kill — where
everything the rename published survives in the page cache. Against
the rarer power-loss crash the contract degrades gracefully rather
than breaking: every load re-validates (manifest and incumbent parse)
and a torn artifact just means the search starts cold. Write failures
(including the injected ``artifact.write`` fault) are absorbed into
the degradation report: the run keeps its results and simply loses
that checkpoint.

The ``LSD_CHECKPOINT_CRASH`` environment hook SIGKILLs the process
right after the first incumbent write (``incumbent``) or the mapping
commit (``constrain``) — the CI ``crash-resume`` job uses it to prove
the kill-then-resume contract at both points deterministically.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from pathlib import Path

from ..observability.artifacts import atomic_write_text
from ..resilience.faults import FaultInjected

CHECKPOINT_VERSION = 2
CHECKPOINT_KIND = "lsd-checkpoint"
MANIFEST_NAME = "MANIFEST.json"
INCUMBENT_NAME = "incumbent.json"
MAPPING_NAME = "mapping.json"

STAGE_CONSTRAIN = "constrain"

#: Crash-hook point right after an incumbent snapshot lands on disk.
CRASH_INCUMBENT = "incumbent"

#: Expansion interval between incumbent snapshots during the search.
SNAPSHOT_EVERY = 4096

#: Environment hook: SIGKILL the process right after the named
#: checkpoint write. Purely a test/CI device.
CRASH_ENV = "LSD_CHECKPOINT_CRASH"


def run_key(fingerprint: str, *, feedback: tuple | list = (),
            settings: dict | None = None) -> str:
    """The checkpoint cache key for one logical run.

    Hashes the dataset fingerprint with every knob that can change
    pipeline *output* (feedback constraints, the model, handler and
    extraction settings). Worker count and backend are excluded:
    output is byte-identical across them, so a run may resume under a
    different parallelism than it started with.
    """
    digest = hashlib.sha256()
    digest.update(fingerprint.encode())
    for item in sorted(str(f) for f in feedback):
        digest.update(b"\x01")
        digest.update(item.encode())
    for key, value in sorted((settings or {}).items()):
        digest.update(b"\x02")
        digest.update(f"{key}={value}".encode())
    return digest.hexdigest()[:16]


class Checkpointer:
    """The search incumbent and final mapping of one run, under
    ``directory/key/``.

    ``plan`` arms the ``artifact.write`` fault site on every
    checkpoint write; ``report`` (a
    :class:`~repro.resilience.DegradationReport`) receives absorbed
    write failures. Both default to inert.

    Loads serve state only to a resumed attempt: a fresh run ignores
    whatever an earlier attempt left on disk.
    """

    def __init__(self, directory: str | Path, key: str, *,
                 plan=None, report=None) -> None:
        self.dir = Path(directory) / key
        self.key = key
        self.plan = plan
        self.report = report
        self._lock = threading.Lock()
        self._last_incumbent = None
        self.manifest: dict = self._fresh_manifest(attempt=1)
        self.resumed_from: str | None = None

    # ------------------------------------------------------------------
    # manifest / identity
    # ------------------------------------------------------------------
    def _fresh_manifest(self, attempt: int) -> dict:
        return {
            "schema_version": CHECKPOINT_VERSION,
            "kind": CHECKPOINT_KIND,
            "run_key": self.key,
            "attempt": attempt,
            "run_id": f"{self.key}-a{attempt}",
            "stages": [],
        }

    @property
    def run_id(self) -> str:
        return self.manifest["run_id"]

    def open(self, resume: bool) -> None:
        """Initialise this attempt's manifest.

        With ``resume=True`` and a compatible manifest on disk, prior
        stage state is adopted and ``resumed_from`` records the prior
        attempt's run id. Otherwise (fresh run, version mismatch, or
        key mismatch) the attempt starts with no completed stages —
        but still bumps the attempt counter so run ids never repeat
        within a checkpoint directory.
        """
        prior = self._read_manifest()
        attempt = (prior["attempt"] + 1) if prior else 1
        if resume and prior is not None:
            self.manifest = prior
            self.manifest["attempt"] = attempt
            self.resumed_from = prior["run_id"]
            self.manifest["resumed_from"] = self.resumed_from
            self.manifest["run_id"] = f"{self.key}-a{attempt}"
        else:
            self.manifest = self._fresh_manifest(attempt)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._write_manifest()

    def _read_manifest(self) -> dict | None:
        path = self.dir / MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if manifest.get("schema_version") != CHECKPOINT_VERSION \
                or manifest.get("kind") != CHECKPOINT_KIND \
                or manifest.get("run_key") != self.key:
            return None
        return manifest

    def _write_manifest(self) -> bool:
        return self._write_text(MANIFEST_NAME,
                                json.dumps(self.manifest, indent=2,
                                           sort_keys=True) + "\n")

    def has(self, stage: str) -> bool:
        return stage in self.manifest["stages"]

    # ------------------------------------------------------------------
    # guarded writes
    # ------------------------------------------------------------------
    def _write_text(self, name: str, text: str) -> bool:
        try:
            atomic_write_text(self.dir / name, text, plan=self.plan,
                              durable=False)
        except (FaultInjected, OSError) as exc:
            self._lost(name, exc)
            return False
        return True

    def _lost(self, name: str, exc: Exception) -> None:
        """A checkpoint write failed; the run continues, the artifact
        is simply not on disk (a resume will redo its work)."""
        if self.report is not None:
            self.report.artifact_failed(f"checkpoint:{name}", str(exc))

    # ------------------------------------------------------------------
    # search incumbent
    # ------------------------------------------------------------------
    def save_incumbent(self, cost: float, path: tuple,
                       assignment: dict | None) -> None:
        """Snapshot the search's best-so-far leaf (deduplicated, never
        fatal). JSON floats round-trip exactly
        (repr grammar), so a warm start re-offers the identical cost."""
        if assignment is None:
            return
        state = (cost, tuple(path))
        with self._lock:
            if state == self._last_incumbent:
                return
            self._last_incumbent = state
            text = json.dumps({
                "cost": cost, "path": list(path),
                "assignment": assignment}, sort_keys=True) + "\n"
            if self._write_text(INCUMBENT_NAME, text):
                maybe_crash(CRASH_INCUMBENT)

    def load_incumbent(self) -> tuple | None:
        if self.resumed_from is None:
            return None
        try:
            raw = json.loads((self.dir / INCUMBENT_NAME).read_text())
            return (float(raw["cost"]), tuple(raw["path"]),
                    dict(raw["assignment"]))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # ------------------------------------------------------------------
    # stage: constrain
    # ------------------------------------------------------------------
    def save_mapping(self, mapping: dict[str, str]) -> bool:
        """Persist the final mapping, then commit the stage in the
        manifest."""
        text = json.dumps(dict(sorted(mapping.items())),
                          sort_keys=True) + "\n"
        if not self._write_text(MAPPING_NAME, text):
            return False
        if not self.has(STAGE_CONSTRAIN):
            self.manifest["stages"].append(STAGE_CONSTRAIN)
        self._write_manifest()
        maybe_crash(STAGE_CONSTRAIN)
        return True

    def load_mapping(self) -> dict[str, str] | None:
        if not self.has(STAGE_CONSTRAIN):
            return None
        try:
            return dict(json.loads(
                (self.dir / MAPPING_NAME).read_text()))
        except (OSError, ValueError):
            return None


def maybe_crash(stage: str) -> None:
    """SIGKILL ourselves if the crash hook names this point.

    SIGKILL — not an exception, not ``sys.exit`` — because the contract
    under test is recovery from a death no handler saw coming.
    """
    if os.environ.get(CRASH_ENV) == stage:
        os.kill(os.getpid(), signal.SIGKILL)
