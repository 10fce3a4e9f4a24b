"""Watchdog supervision: kill hung workers, surface pipeline stalls.

A :class:`Supervisor` is one daemon thread with two signals:

* **dispatch ages** — the process pool records a monotonic stamp per
  in-flight task (:meth:`~repro.core.procpool.WorkerPool.
  dispatch_ages`); a worker whose task outlives the deadline is
  SIGKILLed parent-side. Its death wakes the map engine through the
  process sentinel, which re-dispatches the lost shard to a surviving
  worker (bounded by the engine's death budget, then the serial
  fallback) — so a wedged worker costs one shard's latency, not the
  run.
* **heartbeat events** — the progress-event stream (stage and
  shard-complete events) feeds :meth:`note_event`; when the whole
  pipeline goes silent past the deadline the supervisor records a
  stall and trips the policy deadline, forcing the constraint search
  onto its anytime best-so-far exit instead of hanging forever. This
  is the only lever that works on a serial run, where there is no
  separate process to kill.

Every escalation lands in the run's
:class:`~repro.resilience.policy.DegradationReport` — a supervised run
that needed intervention is visible, never silent. Wall-clock reads
here are a robustness device (like :class:`~repro.resilience.policy.
Deadline`), never pipeline output.
"""

from __future__ import annotations

import threading
import time

from ..observability.metrics import M_WATCHDOG_KILLS, M_WATCHDOG_STALLS


class Supervisor:
    """Monitor thread enforcing a liveness deadline on a run.

    ``pool_provider`` returns the live
    :class:`~repro.core.procpool.WorkerPool` (or ``None``) on each
    poll — pools are built lazily and rebuilt across runs, so the
    supervisor must never hold one directly. ``policy`` supplies the
    degradation report and the trippable deadline; ``registry`` the
    metrics registry (both optional and inert by default).
    """

    def __init__(self, deadline: float, *, poll: float | None = None,
                 pool_provider=None, policy=None,
                 registry=None) -> None:
        if deadline <= 0:
            raise ValueError("watchdog deadline must be positive")
        self.deadline = float(deadline)
        self.poll = poll if poll is not None \
            else max(0.05, min(1.0, self.deadline / 4))
        self._pool_provider = pool_provider
        self._policy = policy
        self._registry = registry
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._last_beat: float | None = None
        self._stalled = False
        #: Worker ids this supervisor killed (testing/diagnostics).
        self.kills: list[int] = []

    # ------------------------------------------------------------------
    # heartbeat intake
    # ------------------------------------------------------------------
    def note_event(self, kind: str, payload: dict) -> None:
        """Progress-event listener hook (see ``EventStream.listener``):
        any emitted event counts as a heartbeat."""
        with self._lock:
            self._last_beat = time.monotonic()  # lsd: ignore[wallclock]
            self._stalled = False

    # ------------------------------------------------------------------
    # the check (one poll tick; also the unit-test entry point)
    # ------------------------------------------------------------------
    def check_once(self, now: float | None = None) -> list[int]:
        """Run one supervision pass; returns worker ids killed."""
        if now is None:
            now = time.monotonic()  # lsd: ignore[wallclock]
        killed: list[int] = []
        pool = self._pool_provider() if self._pool_provider else None
        if pool is not None and not pool.broken:
            for worker_id, age in sorted(pool.dispatch_ages().items()):
                if age <= self.deadline:
                    continue
                pool.kill_worker(worker_id)
                killed.append(worker_id)
                self.kills.append(worker_id)
                self._record_kill(worker_id, age)
        with self._lock:
            beat, stalled = self._last_beat, self._stalled
        if beat is not None and not stalled \
                and now - beat > self.deadline:
            with self._lock:
                self._stalled = True
            self._record_stall(now - beat)
        return killed

    def _record_kill(self, worker_id: int, age: float) -> None:
        policy = self._policy
        if policy is not None:
            policy.report.watchdog_event(
                "worker_killed", f"worker {worker_id} silent for "
                f"{age:.1f}s (deadline {self.deadline:g}s)")
        if self._registry is not None:
            self._registry.counter(M_WATCHDOG_KILLS).inc()

    def _record_stall(self, silent_for: float) -> None:
        """The whole pipeline went quiet: record it and force the
        search onto its anytime exit so the run completes degraded
        instead of hanging."""
        policy = self._policy
        if policy is not None:
            policy.report.watchdog_event(
                "stall", f"no progress event for {silent_for:.1f}s "
                f"(deadline {self.deadline:g}s)")
            policy.trip_deadline()
        if self._registry is not None:
            self._registry.counter(M_WATCHDOG_STALLS).inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="lsd-supervisor", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.poll):
            self.check_once()

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
