"""Crash-safe checkpointing with a byte-identical resume contract.

A checkpoint captures the matching pipeline at its three stage
boundaries, each one an atomic artifact under
``<checkpoint-dir>/<run_key>/``:

``MANIFEST.json``
    Version, run key, attempt counter, completed stages, and the list
    of persisted per-learner score files. Rewritten atomically after
    every stage save, so the manifest never references a file that is
    not fully on disk.
``columns.json``
    The extract stage's *provenance marker*: per-tag instance counts
    (stage ``extract``). The column payload itself is deliberately not
    materialized — columns re-derive deterministically from the run's
    durable inputs (the listings file, already fingerprinted into the
    run key) in ~3 ms, while any faithful serialization of the element
    trees costs 2-4x that to write on *every* run and more to load.
    A resumed run therefore re-extracts; byte identity is unaffected
    because extraction is deterministic.
``scores_<learner>.bin``
    One flat per-learner score matrix each, persisted as each
    learner's shard gather completes — gather happens on the
    orchestrating thread for every backend, so the persisted bytes are
    identical for serial and process execution (stage
    ``predict``). The format is one JSON header line (learner name,
    shape, dtype) followed by the raw C-order array bytes: the shard
    is self-describing, so resume recovers shards by directory scan
    and the hot path never rewrites the manifest, and snapshotting
    costs the pipeline one memcpy instead of an ``np.save``
    serialization.
``incumbent.json``
    The constraint search's best-so-far ``(cost, path, assignment)``
    leaf, snapshotted every :data:`SNAPSHOT_EVERY` expansions. A
    resumed search pre-offers it to the fresh incumbent — equivalent
    to that leaf being explored first, so the final mapping (the
    lexicographically first minimum-cost assignment) is unchanged.
``mapping.json``
    The final mapping (stage ``constrain``).

The *run key* fingerprints everything that determines pipeline output:
the dataset fingerprint, feedback constraints, and the
output-affecting settings. Resuming under a different key
starts fresh instead of serving stale state — worker counts and
backends are deliberately *not* part of the key, because the pipeline
is byte-identical across them.

Every write goes through :mod:`repro.observability.artifacts`
(temp file + rename), so a run SIGKILLed at any instant leaves either
the previous complete snapshot or the new complete snapshot, never a
torn file. The fsync layer is deliberately skipped
(``durable=False``): the threat model is *process death* — SIGKILL,
OOM kill, a watchdog kill — where everything the rename published
survives in the page cache, and an fsync per artifact costs more than
every other checkpoint operation combined (~1.4 ms each on the bench
filesystem, ~36 ms per run). Against the rarer power-loss crash the
contract degrades gracefully rather than breaking: every load
re-validates (manifest JSON parse, shard header + shape check,
incumbent parse) and a torn artifact just means that stage is redone.
Write failures (including the injected ``artifact.write`` fault) are
absorbed into the degradation report: the run keeps its results and
simply loses that checkpoint.

With ``background=True`` (the CLI's mode) file writes and stage
commits all run on one dedicated writer thread, draining an ordered
queue — the pipeline pays only for a cheap main-thread snapshot per
save, which together with the fsync-free write path is how an armed
checkpoint stays within a few percent of an uncheckpointed run (the
``ckpt`` bench gate). Ordering
through a single queue preserves the commit protocol: a stage is
committed only after its payload is durable. A crash with writes still
queued simply leaves that stage uncommitted — the resume redoes it.
``flush()`` blocks until the queue is drained; ``close()`` flushes and
stops the thread (the CLI closes before it writes the run report, so
absorbed losses land in the degradation account).

The ``LSD_CHECKPOINT_CRASH`` environment hook SIGKILLs the process
immediately after the named stage's checkpoint is committed — the CI
``crash-resume`` job uses it to prove the kill-then-resume contract at
every stage boundary deterministically.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import re
import signal
import threading
from pathlib import Path

import numpy as np

from ..observability.artifacts import atomic_write_bytes, atomic_write_text
from ..resilience.faults import FaultInjected

CHECKPOINT_VERSION = 1
CHECKPOINT_KIND = "lsd-checkpoint"
MANIFEST_NAME = "MANIFEST.json"

STAGE_EXTRACT = "extract"
STAGE_PREDICT = "predict"
STAGE_CONSTRAIN = "constrain"
STAGES = (STAGE_EXTRACT, STAGE_PREDICT, STAGE_CONSTRAIN)

#: Expansion interval between incumbent snapshots during the search.
SNAPSHOT_EVERY = 4096

#: Environment hook: SIGKILL the process right after the named stage's
#: checkpoint commit. Purely a test/CI device.
CRASH_ENV = "LSD_CHECKPOINT_CRASH"

#: Module-level mutable state on the match path that the checkpoint
#: API deliberately does *not* capture, with the reason it is safe to
#: lose. The ``checkpoint-unregistered-state`` lsd-lint flow rule
#: flags any match-path write to module state missing from this
#: registry — growing the pipeline cannot silently add state a resumed
#: run would need but not have.
REGISTERED_MUTABLE_STATE = {
    "repro.core.featurize._text_cache":
        "derived cache; rebuilt on demand after resume",
    "repro.core.featurize.stats":
        "telemetry counters; never pipeline output",
    "repro.core.parallel.SHARD_SCALE":
        "pressure-tier shard grain; output-invariant by the row-wise "
        "learner contract",
}


def run_key(fingerprint: str, *, feedback: tuple | list = (),
            settings: dict | None = None) -> str:
    """The checkpoint cache key for one logical run.

    Hashes the dataset fingerprint with every knob that can change
    pipeline *output* (feedback constraints, handler and extraction
    settings). Worker count and backend are excluded:
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


def _safe_name(name: str) -> str:
    """A filesystem-safe spelling of a learner name."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


class Checkpointer:
    """Stage snapshots for one run, under ``directory/key/``.

    ``plan`` arms the ``artifact.write`` fault site on every
    checkpoint write; ``report`` (a
    :class:`~repro.resilience.DegradationReport`) receives absorbed
    write failures. Both default to inert.

    Thread safety: every save is called on the orchestrating thread;
    :meth:`save_incumbent` still serialises on an internal lock so its
    dedup state and queue order stay consistent with the writer.

    ``background=True`` moves serialization, fsync and stage commits
    onto a dedicated writer thread (ordered queue, one writer). The
    save methods then return ``True`` meaning *scheduled*; durability
    is reached in queue order and :meth:`flush`/:meth:`close` wait for
    it. Loads always happen on the caller's thread — a resume reads
    before any write of the new attempt is queued.
    """

    def __init__(self, directory: str | Path, key: str, *,
                 plan=None, report=None,
                 background: bool = False) -> None:
        self.dir = Path(directory) / key
        self.key = key
        self.plan = plan
        self.report = report
        self._lock = threading.Lock()
        self._last_incumbent = None
        self.manifest: dict = self._fresh_manifest(attempt=1)
        self.resumed_from: str | None = None
        self._queue: queue.SimpleQueue | None = None
        self._writer: threading.Thread | None = None
        if background:
            self._queue = queue.SimpleQueue()
            self._writer = threading.Thread(
                target=self._drain, name="lsd-checkpoint-writer",
                daemon=True)
            self._writer.start()

    # ------------------------------------------------------------------
    # writer thread
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        assert self._queue is not None
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                job()
            except Exception as exc:  # lsd: ignore[blind-except]
                # A job that slips past the guarded-write absorption
                # must not kill the writer; record and keep draining.
                self._lost("writer", exc)

    def _submit(self, job) -> bool:
        """Run ``job`` now (sync mode, returning its success) or queue
        it in order behind every earlier save (background mode)."""
        if self._queue is None:
            # Closed-over save closures defined in this module; every
            # one writes through the guarded atomic artifact layer and
            # touches no pipeline state.
            return bool(job())  # lsd: ignore[flow-unresolved-hot-call]
        self._queue.put(job)
        return True

    def flush(self, timeout: float | None = None) -> bool:
        """Block until every queued write has drained (no-op in sync
        mode). Returns False only on timeout."""
        if self._queue is None or self._writer is None \
                or not self._writer.is_alive():
            return True
        drained = threading.Event()
        self._queue.put(drained.set)
        return drained.wait(timeout)

    def close(self) -> None:
        """Flush and stop the writer thread. Idempotent."""
        if self._queue is not None and self._writer is not None \
                and self._writer.is_alive():
            self._queue.put(None)
            self._writer.join()
        self._writer = None

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
            "scores": {},
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
        self._submit(self._write_manifest)

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

    def _commit_stage(self, stage: str) -> None:
        if stage not in self.manifest["stages"]:
            self.manifest["stages"].append(stage)
        self._write_manifest()
        maybe_crash(stage)

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

    def _write_bytes(self, name: str, data: bytes) -> bool:
        try:
            atomic_write_bytes(self.dir / name, data, plan=self.plan,
                               durable=False)
        except (FaultInjected, OSError) as exc:
            self._lost(name, exc)
            return False
        return True

    def _lost(self, name: str, exc: Exception) -> None:
        """A checkpoint write failed; the run continues, the stage is
        simply not marked durable (a resume will redo it)."""
        if self.report is not None:
            self.report.artifact_failed(f"checkpoint:{name}", str(exc))

    # ------------------------------------------------------------------
    # stage: extract
    # ------------------------------------------------------------------
    def save_columns(self, columns: dict) -> bool:
        """Commit the extract stage via its provenance marker.

        Records per-tag instance counts, not the column payload: the
        columns re-derive deterministically from the run's durable
        inputs faster than any serialized form loads (module
        docstring), so a resumed run re-extracts. No-op (``False``)
        when the stage is already committed from a prior attempt.
        """
        if self.has(STAGE_EXTRACT):
            return False
        counts = {tag: len(column)
                  for tag, column in sorted(columns.items())}
        text = json.dumps({"instances": counts}, sort_keys=True) + "\n"

        def job() -> bool:
            if self._write_text("columns.json", text):
                self._commit_stage(STAGE_EXTRACT)
                return True
            return False

        return self._submit(job)

    # ------------------------------------------------------------------
    # stage: predict
    # ------------------------------------------------------------------
    def save_learner_scores(self, name: str,
                            scores: np.ndarray) -> bool:
        """Persist one learner's flat score matrix as its gather
        completes, so a crash later in the predict stage resumes with
        this learner done.

        The shard is self-describing — one JSON header line, then the
        raw C-order bytes — which keeps the save off every slow path:
        the caller pays one memcpy (``tobytes`` snapshots the matrix
        before later passes rescale it), the write job is almost
        entirely GIL-releasing syscalls, and the manifest's ``scores``
        entry is bookkeeping that rides along until the next stage
        commit instead of forcing a manifest rewrite per learner.
        """
        header = json.dumps({"learner": name,
                             "shape": list(scores.shape),
                             "dtype": scores.dtype.str},
                            sort_keys=True).encode()
        payload = header + b"\n" + scores.tobytes()
        filename = f"scores_{_safe_name(name)}.bin"

        def job() -> bool:
            if self._write_bytes(filename, payload):
                self.manifest["scores"][name] = filename
                return True
            return False

        return self._submit(job)

    def commit_predict(self) -> None:
        """All learners persisted: mark the predict stage complete."""
        self._submit(lambda: self._commit_stage(STAGE_PREDICT))

    def load_scores(self, n_rows: int) -> dict[str, np.ndarray]:
        """Every persisted per-learner matrix whose shape still fits
        the current batch — recovered by directory scan of the
        self-describing shards, so learners saved before a crash count
        even when neither the predict commit nor any manifest update
        reached disk (that is the point of per-learner saves). A torn
        or foreign file fails header parsing or the shape check and
        that learner is simply re-predicted. Loads copy out of the
        file buffer: structure passes rescale score rows in place."""
        loaded: dict[str, np.ndarray] = {}
        for path in sorted(self.dir.glob("scores_*.bin")):
            try:
                head, _, body = path.read_bytes().partition(b"\n")
                meta = json.loads(head)
                scores = np.frombuffer(
                    body, dtype=np.dtype(meta["dtype"])
                ).reshape([int(n) for n in meta["shape"]]).copy()
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if scores.ndim == 2 and scores.shape[0] == n_rows:
                loaded[str(meta["learner"])] = scores
        return loaded

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
            # Serialize and enqueue under the lock (the assignment
            # dict is live search state, and submit order must match
            # incumbent order); the fsync'd write rides the queue.
            text = json.dumps({
                "cost": cost, "path": list(path),
                "assignment": assignment}, sort_keys=True) + "\n"
            self._submit(
                lambda: self._write_text("incumbent.json", text))

    def load_incumbent(self) -> tuple | None:
        try:
            raw = json.loads((self.dir / "incumbent.json").read_text())
            return (float(raw["cost"]), tuple(raw["path"]),
                    dict(raw["assignment"]))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # ------------------------------------------------------------------
    # stage: constrain
    # ------------------------------------------------------------------
    def save_mapping(self, mapping: dict[str, str]) -> bool:
        text = json.dumps(dict(sorted(mapping.items())),
                          sort_keys=True) + "\n"

        def job() -> bool:
            if self._write_text("mapping.json", text):
                self._commit_stage(STAGE_CONSTRAIN)
                return True
            return False

        return self._submit(job)

    def load_mapping(self) -> dict[str, str] | None:
        if not self.has(STAGE_CONSTRAIN):
            return None
        try:
            return dict(json.loads(
                (self.dir / "mapping.json").read_text()))
        except (OSError, ValueError):
            return None


def maybe_crash(stage: str) -> None:
    """SIGKILL ourselves if the crash hook names this stage.

    SIGKILL — not an exception, not ``sys.exit`` — because the contract
    under test is recovery from a death no handler saw coming.
    """
    if os.environ.get(CRASH_ENV) == stage:
        os.kill(os.getpid(), signal.SIGKILL)
