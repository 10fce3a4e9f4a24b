"""Run-level resilience policy and degradation accounting.

:class:`ResiliencePolicy` bundles the operator-facing knobs (ingestion
mode, retry budget, deadline, learner timeout, fault plan, RSS limit,
watchdog) and owns the :class:`DegradationReport` that every layer
appends to — ingestion salvage counts, learner quarantines, executor
retries and pool failures, anytime search exits, guardrail actions. The report feeds the ``degradation``
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
from ..observability.resources import read_rss_bytes
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
            outcome["value"] = fn(*args)
        except BaseException as exc:  # lsd: ignore[blind-except]
            # Transported across the thread boundary and re-raised on
            # the caller's thread below — nothing is swallowed.
            outcome["error"] = exc

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

    ``guard`` (the policy's :meth:`ResiliencePolicy.guard_breached`
    when a memory limit or watchdog is set) is consulted on every
    :meth:`expired` check: the run guardrails act exactly where the
    deadline is read — the constraint search's amortized poll — so no
    monitor thread is needed. A breach, like :meth:`trip`, expires the
    deadline for good and forces the search onto its anytime
    best-so-far exit. A tripped or guarded deadline counts as active
    even when it carries no time budget.
    """

    __slots__ = ("seconds", "_start", "_tripped", "_guard")

    def __init__(self, seconds: float | None = None,
                 guard=None) -> None:
        self.seconds = seconds
        self._tripped = False
        self._guard = guard
        self._start = None if seconds is None else \
            time.monotonic()

    @property
    def active(self) -> bool:
        return (self.seconds is not None or self._tripped
                or self._guard is not None)

    def trip(self) -> None:
        """Expire immediately (idempotent; safe from a signal handler:
        one boolean store, read at the consumers' amortized poll
        points)."""
        self._tripped = True

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` for an inert deadline."""
        if self._tripped:
            return 0.0
        if self._start is None:
            return None
        elapsed = time.monotonic() - self._start
        return self.seconds - elapsed

    def expired(self) -> bool:
        if self._tripped:
            return True
        if self._guard is not None and self._guard():
            self._tripped = True
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
        #: Watchdog escalations (hung-worker kills, pipeline stalls)
        #: and shutdown signals, in the order they happened.
        self.watchdog: list[dict] = []
        #: Memory-guardrail actions (shard re-grain, checkpoint-and-
        #: degrade), in the order they fired.
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
        """A watchdog escalation (``worker_killed``, ``stall``) or a
        ``shutdown`` signal."""
        with self._lock:
            self.watchdog.append({"kind": kind, "detail": detail})

    def pressure(self, tier: int, action: str) -> None:
        """A memory-guardrail tier fired (see
        :meth:`ResiliencePolicy.memory_pressed`)."""
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
            # The process map records retries in completion order;
            # sort so the report is byte-identical at any --workers
            # count.
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


#: Memory-guardrail tiers: ``(tier, watermark as a fraction of the RSS
#: limit, action recorded in the degradation report)``.
HALVE_SHARD_GRAIN = (2, 0.90, "halve_shard_grain")
CHECKPOINT_AND_DEGRADE = (3, 0.97, "checkpoint_and_degrade")


@dataclass
class ResiliencePolicy:
    """Operator knobs for fault tolerance, plus the run's degradation log.

    The default instance is inert — strict ingestion, no retries, no
    deadline, no timeouts, no fault plan, no guardrails — and keeps the
    pipeline byte-identical to a policy-free build.

    Two run guardrails are checked where they take effect, never by a
    monitor thread:

    * ``rss_limit`` (bytes) — a prediction map planned with RSS at or
      above 90% of the limit runs at half the shard grain
      (:meth:`memory_pressed`), and the run deadline expires once RSS
      reaches 97%, so the search exits on its anytime path;
    * ``watchdog`` (seconds) — the process-pool map engine kills a
      worker whose task outlives it and re-dispatches the shard, and
      the run deadline expires once no :meth:`heartbeat` arrived for
      that long (a stall; heartbeats come from the progress-event
      stream, so without one there is no stall check).
    """

    input_mode: str = "strict"
    retries: int = 0
    backoff: float = 0.05
    backoff_seed: int = 0
    deadline: float | None = None
    learner_timeout: float | None = None
    fault_plan: FaultPlan | None = None
    rss_limit: int | None = None
    watchdog: float | None = None
    report: DegradationReport = field(default_factory=DegradationReport)
    #: The most recent :meth:`start_deadline` product — the handle the
    #: signal handler trips.
    _active_deadline: Deadline | None = field(
        default=None, init=False, repr=False, compare=False)
    #: Set by :meth:`trip_deadline`; every later deadline starts expired.
    _tripped: bool = field(default=False, init=False, repr=False,
                           compare=False)
    #: Monotonic stamp of the last :meth:`heartbeat` (``None``: never).
    _last_beat: float | None = field(default=None, init=False,
                                     repr=False, compare=False)
    #: The current silent period was already recorded as a stall.
    _stalled: bool = field(default=False, init=False, repr=False,
                           compare=False)

    def __post_init__(self) -> None:
        if self.input_mode not in INGEST_MODES:
            raise ValueError(
                f"unknown input mode {self.input_mode!r}; expected one "
                f"of {', '.join(INGEST_MODES)}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.rss_limit is not None and self.rss_limit <= 0:
            raise ValueError("rss limit must be positive")
        if self.watchdog is not None and self.watchdog <= 0:
            raise ValueError("watchdog deadline must be positive")

    def start_deadline(self) -> Deadline:
        """A fresh :class:`Deadline` for one pipeline run, guarded by
        the RSS limit and the stall watchdog when either is set."""
        guarded = self.rss_limit is not None or self.watchdog is not None
        deadline = Deadline(self.deadline,
                            self.guard_breached if guarded else None)
        if self._tripped:
            deadline.trip()
        self._active_deadline = deadline
        return deadline

    def trip_deadline(self) -> None:
        """Expire the current run's deadline and every later one (the
        SIGTERM/SIGINT path). A trip before :meth:`start_deadline` — a
        signal during model load or ingest — carries into it."""
        self._tripped = True
        if self._active_deadline is not None:
            self._active_deadline.trip()

    def heartbeat(self, kind: str = "", event: dict | None = None) -> None:
        """Progress-event listener (``EventStream.listener``): any
        emitted event proves the pipeline is alive and opens a new
        silent period for the stall check."""
        self._last_beat = time.monotonic()
        self._stalled = False

    def memory_pressed(self, tier: tuple[int, float, str]) -> bool:
        """True when RSS is at or above ``tier``'s watermark of
        :attr:`rss_limit`; the tier's action is recorded the first
        time it fires."""
        level, watermark, action = tier
        if self.rss_limit is None \
                or read_rss_bytes() < watermark * self.rss_limit:
            return False
        if all(event["action"] != action
               for event in self.report.pressure_events):
            self.report.pressure(level, action)
        return True

    def guard_breached(self) -> bool:
        """The run deadline's guard: RSS at the degrade watermark, or
        no heartbeat for longer than :attr:`watchdog` (recorded once
        per silent period)."""
        if self.memory_pressed(CHECKPOINT_AND_DEGRADE):
            return True
        beat = self._last_beat
        if self.watchdog is None or beat is None or self._stalled:
            return False
        silent = time.monotonic() - beat
        if silent <= self.watchdog:
            return False
        self._stalled = True
        self.report.watchdog_event(
            "stall", f"no progress event for {silent:.1f}s "
            f"(deadline {self.watchdog:g}s)")
        return True

    def fire(self, site: str, key: str = "") -> None:
        """Hit a fault site if a plan is armed; no-op otherwise."""
        if self.fault_plan is not None:
            self.fault_plan.fire(site, key)

    def finalize(self) -> DegradationReport:
        """Fold fired-fault records into the report and return it."""
        if self.fault_plan is not None:
            self.report.fired_faults = self.fault_plan.records()
        return self.report
