"""Run-level resilience policy and degradation accounting.

:class:`ResiliencePolicy` bundles the operator-facing knobs (ingestion
mode, retry budget, deadline, learner timeout, fault plan) and owns the
:class:`DegradationReport` that every layer appends to — ingestion
salvage counts, learner quarantines, executor retries and pool
failures, anytime search exits. The report feeds the ``degradation``
section of the run report, so a degraded run is always *visible*, never
silent.

The default policy (no retries, no deadline, no plan, strict mode) is
inert: every hook is a cheap no-op and pipeline output is byte-identical
to a build without this package.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .faults import FaultPlan
from ..xmlio.recovery import INGEST_MODES, RecoveryLog


class LearnerTimeout(RuntimeError):
    """A base-learner call exceeded the policy's per-call timeout."""


def call_with_timeout(fn, args=(), timeout: float | None = None):
    """Run ``fn(*args)``, raising :class:`LearnerTimeout` after ``timeout``.

    With ``timeout=None`` the call is direct (zero overhead). Otherwise
    the call runs on a daemon thread that is *abandoned* on timeout —
    Python cannot safely kill arbitrary code, so the caller must treat
    a timeout as grounds for quarantining whatever ``fn`` belongs to.
    """
    if timeout is None:
        return fn(*args)
    outcome: dict = {}

    def runner() -> None:
        # The closure writes below are a confined single-producer
        # handoff: ``outcome`` is fresh per call and only read after
        # join() on the caller's thread.
        try:
            outcome["value"] = fn(*args)  # lsd: ignore[flow-worker-shared-write]
        except BaseException as exc:  # lsd: ignore[blind-except]
            # Transported across the thread boundary and re-raised on
            # the caller's thread below — nothing is swallowed.
            outcome["error"] = exc  # lsd: ignore[flow-worker-shared-write]

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise LearnerTimeout(
            f"call did not finish within {timeout:g}s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class Deadline:
    """A wall-clock budget shared across pipeline stages.

    ``Deadline(None)`` never expires and costs one attribute read per
    check. Time is read through ``time.monotonic`` — the deadline is a
    *robustness* device, so chaos determinism tests only combine it
    with raise-style faults, never with timing-sensitive assertions.

    :meth:`trip` expires the deadline immediately from another thread —
    the runtime watchdog and memory-pressure guardrails use it to force
    long-running stages (the constraint search) onto their anytime
    best-so-far exits. A tripped deadline counts as active even when it
    carries no time budget.
    """

    __slots__ = ("seconds", "_start", "_tripped")

    def __init__(self, seconds: float | None = None) -> None:
        self.seconds = seconds
        self._tripped = False
        self._start = None if seconds is None else \
            time.monotonic()  # lsd: ignore[wallclock]

    @property
    def active(self) -> bool:
        return self.seconds is not None or self._tripped

    def trip(self) -> None:
        """Expire immediately (idempotent, thread-safe: one boolean
        store, read at the consumers' amortized poll points)."""
        self._tripped = True

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` for an inert deadline."""
        if self._tripped:
            return 0.0
        if self._start is None:
            return None
        elapsed = time.monotonic() - self._start  # lsd: ignore[wallclock]
        return self.seconds - elapsed

    def expired(self) -> bool:
        if self._tripped:
            return True
        if self._start is None:
            return False
        remaining = self.remaining()
        return remaining is not None and remaining <= 0


@dataclass(frozen=True)
class QuarantineEvent:
    """One base learner removed from the ensemble mid-run."""

    learner: str
    stage: str  # "fit" | "predict"
    cause: str
    error_type: str

    def as_dict(self) -> dict:
        return {"learner": self.learner, "stage": self.stage,
                "cause": self.cause, "error_type": self.error_type}


class DegradationReport:
    """Everything that went wrong — and was absorbed — during a run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.quarantines: list[QuarantineEvent] = []
        self.retries: list[dict] = []
        self.pool_failures: list[str] = []
        self.anytime = False
        self.recovery: RecoveryLog | None = None
        self.fired_faults: list[dict] = []
        #: Run artifacts (report/trace/ledger/telemetry) whose write
        #: failed and was absorbed instead of crashing the run.
        self.artifact_failures: list[dict] = []
        #: Worker deaths absorbed mid-map by re-dispatching the lost
        #: shard to a surviving worker (watchdog kills land here).
        self.worker_deaths: list[dict] = []
        #: Watchdog escalations: hung-worker kills and pipeline stalls.
        self.watchdog: list[dict] = []
        #: Memory-pressure tier actions (cache shed, shard re-grain,
        #: checkpoint-and-degrade), in the order they fired.
        self.pressure_events: list[dict] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def quarantine(self, learner: str, stage: str, cause: str,
                   error_type: str) -> None:
        with self._lock:
            self.quarantines.append(
                QuarantineEvent(learner, stage, cause, error_type))

    def retried(self, stage: str, task: int, attempts: int,
                recovered: bool) -> None:
        with self._lock:
            self.retries.append({"stage": stage, "task": task,
                                 "attempts": attempts,
                                 "recovered": recovered})

    def pool_failed(self, stage: str) -> None:
        with self._lock:
            self.pool_failures.append(stage)

    def artifact_failed(self, artifact: str, cause: str) -> None:
        """An observability artifact could not be written; the run
        keeps its results and records the loss instead of crashing."""
        with self._lock:
            self.artifact_failures.append(
                {"artifact": artifact, "cause": cause})

    def worker_died(self, stage: str, worker: int, task: int) -> None:
        """A pool worker died mid-map and its shard was re-dispatched
        to a survivor — degradation (lost latency), not data loss."""
        with self._lock:
            self.worker_deaths.append(
                {"stage": stage, "worker": worker, "task": task})

    def watchdog_event(self, kind: str, detail: str) -> None:
        """A supervisor escalation: ``worker_killed`` or ``stall``."""
        with self._lock:
            self.watchdog.append({"kind": kind, "detail": detail})

    def pressure(self, tier: int, action: str) -> None:
        """A memory-pressure tier fired (see
        :mod:`repro.runtime.pressure`)."""
        with self._lock:
            self.pressure_events.append(
                {"tier": tier, "action": action})

    def mark_anytime(self) -> None:
        self.anytime = True

    def attach_recovery(self, log: RecoveryLog) -> None:
        self.recovery = log

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def quarantined_learners(self) -> list[str]:
        """Names of quarantined learners, deduplicated, first-event order."""
        seen: list[str] = []
        for event in self.quarantines:
            if event.learner not in seen:
                seen.append(event.learner)
        return seen

    @property
    def degraded(self) -> bool:
        return bool(self.quarantines or self.retries
                    or self.pool_failures or self.anytime
                    or self.fired_faults or self.artifact_failures
                    or self.worker_deaths or self.watchdog
                    or self.pressure_events
                    or (self.recovery is not None
                        and not self.recovery.ok))

    def as_dict(self) -> dict:
        """JSON form for the run report; only non-empty parts appear."""
        out: dict = {}
        if self.quarantines:
            out["quarantined"] = [event.as_dict()
                                  for event in self.quarantines]
        if self.retries:
            # Worker threads append in scheduling order; sort so the
            # report is byte-identical at any --workers count.
            out["retries"] = sorted(
                self.retries,
                key=lambda r: (r["stage"], r["task"], r["attempts"]))
        if self.pool_failures:
            out["pool_failures"] = sorted(self.pool_failures)
        if self.anytime:
            out["anytime"] = True
        if self.recovery is not None and not self.recovery.ok:
            out["ingestion"] = self.recovery.as_dict()
        if self.fired_faults:
            out["fired_faults"] = list(self.fired_faults)
        if self.artifact_failures:
            out["artifact_failures"] = sorted(
                self.artifact_failures,
                key=lambda f: (f["artifact"], f["cause"]))
        if self.worker_deaths:
            # Deaths are timing-dependent by nature; sorting keeps the
            # report stable for a given set of absorbed deaths.
            out["worker_deaths"] = sorted(
                self.worker_deaths,
                key=lambda d: (d["stage"], d["task"], d["worker"]))
        if self.watchdog:
            out["watchdog"] = list(self.watchdog)
        if self.pressure_events:
            out["pressure"] = list(self.pressure_events)
        return out


@dataclass
class ResiliencePolicy:
    """Operator knobs for fault tolerance, plus the run's degradation log.

    The default instance is inert — strict ingestion, no retries, no
    deadline, no timeouts, no fault plan — and keeps the pipeline
    byte-identical to a policy-free build.
    """

    input_mode: str = "strict"
    retries: int = 0
    backoff: float = 0.05
    backoff_seed: int = 0
    deadline: float | None = None
    learner_timeout: float | None = None
    fault_plan: FaultPlan | None = None
    report: DegradationReport = field(default_factory=DegradationReport)
    #: The most recent :meth:`start_deadline` product — the handle the
    #: runtime watchdog and pressure monitor trip from their threads.
    _active_deadline: Deadline | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.input_mode not in INGEST_MODES:
            raise ValueError(
                f"unknown input mode {self.input_mode!r}; expected one "
                f"of {', '.join(INGEST_MODES)}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    def start_deadline(self) -> Deadline:
        """A fresh :class:`Deadline` for one pipeline run."""
        deadline = Deadline(self.deadline)
        self._active_deadline = deadline
        return deadline

    def trip_deadline(self) -> None:
        """Expire the current run's deadline from another thread (the
        watchdog/pressure escalation path); no-op before the first
        :meth:`start_deadline`."""
        deadline = self._active_deadline
        if deadline is not None:
            deadline.trip()

    def fire(self, site: str, key: str = "") -> None:
        """Hit a fault site if a plan is armed; no-op otherwise."""
        if self.fault_plan is not None:
            self.fault_plan.fire(site, key)

    def finalize(self) -> DegradationReport:
        """Fold fired-fault records into the report and return it."""
        if self.fault_plan is not None:
            self.report.fired_faults = self.fault_plan.records()
        return self.report
