"""Process execution backend: persistent workers over the trained model.

The hot score kernels (scipy sparse products, ``np.partition``) hold
the GIL, so only worker *processes* can run them side by side. This
module runs them there, built so the rest of the pipeline does not
notice the boundary:

* a :class:`WorkerPool` forks its workers **once** and keeps them for
  the system's lifetime; each worker inherits the parent's trained
  learners as they are and keeps its own featurize caches warm across
  tasks;
* per fan-out, the featurized shard batch is pickled **once** and
  broadcast to every worker; the per-task messages then carry only a
  batch token plus ``[start, stop)`` row bounds, so IPC stays
  sub-dominant no matter how many (learner × shard) tasks a map holds;
* :func:`run_process_map` — the engine behind
  ``ParallelExecutor(backend="process")`` — preserves every contract
  of the serial path: results in submission order, worker-measured
  spans replayed in submission order through
  :meth:`~repro.observability.trace.TraceCollector.emit` so the trace
  tree (and every timing derived from it) is structurally
  byte-identical at any worker count, the
  ``executor.task`` / ``executor.pool`` / ``learner.predict`` fault
  sites fired with the same logical hit counts (parent-side, where the
  plan lives), per-task retries with the same seeded backoff, and a
  serial fallback when the pool is broken.

Division of labour: only base-learner scoring crosses the process
boundary — that is where the GIL-bound kernels live. The meta-learner
combination (one einsum) and the prediction converter (one grouped
reduceat) stay parent-side: they are cheap, and keeping them out of the
workers means quarantine renormalization and score conversion behave
identically across backends. Generic closures handed to
``ParallelExecutor.map`` (cross-validation folds) run serially on the
orchestrating thread — they capture live object graphs that have no
business being pickled per call.

Worker-side failure semantics mirror the serial path exactly: with an
armed policy a learner exception becomes a :class:`TaskFailure` carried
back as a *value* (quarantine, not crash); without one the original
exception object is shipped home when picklable (re-raised verbatim)
and summarised as a :class:`RemoteTaskError` when not.

Chaos: the ``worker.process`` fault site hard-kills one worker
(``os._exit``, skipping every ``finally``) before a map dispatches —
the genuine crash path. The pool marks itself broken, the interrupted
map falls back to serial, the pool is retired, and subsequent maps run
serially until the system rebuilds the pool on its next access.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable
import weakref

from ..observability.metrics import (BYTE_BUCKETS, CPU_BUCKETS,
                                     M_POOL_QUEUE_DEPTH,
                                     M_POOL_QUEUE_WAIT,
                                     M_POOL_SHIP_SKIPS, M_POOL_TASKS,
                                     M_POOL_WORKER_CPU,
                                     M_POOL_WORKER_RSS,
                                     M_POOL_WORKERS)
from ..observability.resources import ProcSample, read_proc_self
from ..resilience.faults import FaultInjected
from ..resilience.policy import call_with_timeout
from ..resilience.sites import SITE_EXECUTOR_TASK, SITE_WORKER_PROCESS

#: Batches a worker keeps resident. Every map ships its batches
#: immediately before its tasks, and maps never interleave on one pool,
#: so a small window is always enough; the bound keeps a long match
#: session's memory flat.
_BATCH_WINDOW = 4

#: Worker deaths one map absorbs by re-dispatching the lost shard to a
#: surviving worker — the watchdog-kill recovery path. Beyond this the
#: map raises :class:`PoolBrokenError` and completes serially, exactly
#: like the legacy single-death behaviour.
_REDISPATCH_BUDGET = 2


class PoolBrokenError(RuntimeError):
    """A worker process died (or its pipe broke) mid-conversation."""


class RemoteTaskError(RuntimeError):
    """A worker-side exception whose original object could not be
    pickled home; carries the type name and message instead."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}" if message
                         else error_type)
        self.error_type = error_type


class TaskFailure:
    """A caught learner failure carried back through the map as a value.

    The process-boundary twin of the serial path's caught-exception
    sentinel: only the two strings the quarantine record needs cross
    the pipe, so the parent writes byte-identical
    :class:`~repro.resilience.policy.QuarantineEvent` entries no matter
    which backend (or which side of a fork) the failure happened on.
    """

    __slots__ = ("error_type", "message")

    def __init__(self, error_type: str, message: str) -> None:
        self.error_type = error_type
        self.message = message

    @classmethod
    def from_exception(cls, error: BaseException) -> "TaskFailure":
        return cls(type(error).__name__, str(error))

    @property
    def cause(self) -> str:
        """The quarantine-record cause string (message, else type)."""
        return self.message or self.error_type


@dataclass
class ProcessTask:
    """One unit of a process-backend map: a picklable task descriptor
    plus the parent-side context the executor needs around it.

    ``fallback()`` runs the identical computation locally — the serial
    path and the pool-death path both use it, which is what keeps both
    backends byte-identical.
    """

    #: Picklable message for the worker's task-handler registry; must
    #: carry ``kind`` and row bounds, never model state.
    payload: dict
    #: The shard batch this task slices; shipped to workers once per
    #: map (shared by identity across the map's tasks).
    batch: list
    #: Local re-execution (serial fallback); opens its span inline.
    fallback: Callable[[], object]
    #: Replayed trace span for the worker-side execution.
    span_name: str = ""
    span_parent: str | None = None
    #: Rows this task scores (the span's ``instances`` attribute).
    rows: int = 0
    #: Optional ``(site, key)`` fault gate fired parent-side before
    #: dispatch — the process twin of the serial path's in-task fire.
    fire: tuple[str, str] | None = None


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: ``kind -> handler(state, task)``. Handlers run inside
#: worker processes: module-level writes there never reach the parent.
#: ``tests/test_observability_pipeline.py::TestOneInstrumentationSpine::
#: test_serial_and_process_views_agree`` fails on a count kept that way,
#: because the process run's counters stop matching the serial run's.
_TASK_HANDLERS: dict[str, Callable] = {}


def task_handler(kind: str):
    """Register a worker-side handler for one task ``kind``.

    A handler returns ``("value", result)`` or — under an armed
    policy — ``("failure", error_type, message)`` for a caught learner
    exception.
    """
    def decorate(fn: Callable) -> Callable:
        _TASK_HANDLERS[kind] = fn
        return fn
    return decorate


@dataclass
class _WorkerState:
    """Everything one worker keeps alive between tasks."""

    learners: dict[str, object]
    #: token -> shipped batch, newest last (bounded by _BATCH_WINDOW).
    batches: dict[int, list] = field(default_factory=dict)


@task_handler("predict")
def _predict_task(state: _WorkerState, task: dict):
    """Score one ``[start, stop)`` shard with one learner.

    Mirrors the serial path's ``predict_with`` body: an armed policy
    (``task["catch"]``) turns any exception into a failure outcome.
    """
    batch = state.batches[task["batch"]][task["start"]:task["stop"]]
    learner = state.learners[task["learner"]]
    if not task.get("catch"):
        return ("value", learner.predict_scores(batch))
    try:
        return ("value", call_with_timeout(
            learner.predict_scores, (batch,), task.get("timeout")))
    except Exception as exc:  # lsd: ignore[blind-except]
        # Quarantine boundary — identical to the serial path: the
        # failure travels as a value, never an exception.
        return ("failure", type(exc).__name__, str(exc))


def _run_task(state: _WorkerState, task_id: int, task: dict) -> tuple:
    """Execute one task message; always answers, never raises.

    Replies (all carrying a ``(start, elapsed)`` timing pair for span
    replay):

    * ``("ok", id, value, timing)``
    * ``("failure", id, error_type, message, timing)`` — caught learner
      failure under an armed policy;
    * ``("error", id, exc_or_None, error_type, message, timing)`` —
      anything uncaught; the original exception object rides along
      when picklable so the parent re-raises it verbatim.

    When the task carries ``"sample": True`` a ``/proc/self`` resource
    snapshot dict is appended as one extra trailing element on every
    reply shape — consumers that unpack positionally keep working, and
    the parent surfaces the snapshots as ``pool.*`` metrics.
    """
    start = time.time()
    t0 = time.perf_counter()
    try:
        handler = _TASK_HANDLERS[task["kind"]]
        outcome = handler(state, task)
    except Exception as exc:  # lsd: ignore[blind-except]
        # The catch-all that keeps the worker loop alive: the parent
        # decides (retry budget, submission-order raise) — a worker
        # only reports.
        timing = (start, time.perf_counter() - t0)
        try:
            pickle.dumps(exc)
            shipped: BaseException | None = exc
        except Exception:  # lsd: ignore[blind-except]
            shipped = None
        reply = ("error", task_id, shipped, type(exc).__name__,
                 str(exc), timing)
        return reply + ((read_proc_self().as_dict(),)
                        if task.get("sample") else ())
    timing = (start, time.perf_counter() - t0)
    if outcome[0] == "failure":
        reply = ("failure", task_id, outcome[1], outcome[2], timing)
    else:
        reply = ("ok", task_id, outcome[1], timing)
    return reply + ((read_proc_self().as_dict(),)
                    if task.get("sample") else ())


def _worker_main(conn, learners: list, inherited: tuple = ()) -> None:
    """One worker process: serve tasks until told to stop.

    ``learners`` is the parent's fitted list — inherited as is under
    fork, unpickled once under spawn. The loop is: receive a broadcast
    batch or a task, answer on the same pipe. ``die`` hard-exits without
    cleanup (the chaos crash path); a vanished parent (EOF on the pipe)
    ends the loop too, so orphaned workers never linger — which needs
    every copy of the parent's pipe end closed: a forked worker closes
    the ones it ``inherited``, and drops the parent's SIGTERM/SIGINT
    handlers.
    """
    for parent_end in inherited:
        parent_end.close()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    state = _WorkerState(
        learners={learner.name: learner for learner in learners})
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "stop":
                break
            if kind == "die":
                os._exit(1)  # chaos: crash without any cleanup
            if kind == "batch":
                _token, blob = message[1], message[2]
                state.batches[_token] = pickle.loads(blob)
                while len(state.batches) > _BATCH_WINDOW:
                    state.batches.pop(next(iter(state.batches)))
                continue
            try:
                conn.send(_run_task(state, message[1], message[2]))
            except OSError:
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# parent side: the pool
# ---------------------------------------------------------------------------

class _WorkerHandle:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


def _release(workers: dict) -> None:
    """Idempotent pool teardown (also the ``weakref.finalize`` target):
    stop or terminate every worker and close the pipes. Safe against
    workers that already crashed."""
    for handle in workers.values():
        if handle.process.is_alive():
            try:
                handle.conn.send(("stop",))
            except OSError:
                pass
    for handle in workers.values():
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=2.0)
        try:
            handle.conn.close()
        except OSError:
            pass


def default_start_method() -> str:
    """``fork`` where available (cheap start, the trained model
    inherited in place), ``spawn`` otherwise — everything handed to
    workers is picklable, so both behave identically apart from
    start-up cost."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class WorkerPool:
    """A persistent pool of worker processes over one trained model.

    Construction starts the workers once per trained system; each one
    holds the learners from then on, so every map after that only moves
    batches and row bounds. :meth:`shutdown` (or the garbage-collection
    finalizer) stops them, and the lifecycle tests pin that no worker
    survives normal exit, worker crashes, or abandonment.
    """

    def __init__(self, learners, workers: int) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.size = int(workers)
        learners = list(learners)
        self._workers: dict[int, _WorkerHandle] = {}
        self.broken = False
        self._batch_tokens = itertools.count()
        #: blob digest -> shipped token; the parent-side mirror of the
        #: workers' batch windows (see :meth:`ship_batch`).
        self._shipped: dict[bytes, int] = {}
        #: Broadcasts skipped by the content-addressed ship cache over
        #: the pool's lifetime (the ``pool.batch_ship_skips`` metric).
        self.ship_skips = 0
        #: worker_id -> monotonic stamp of its in-flight task; set on
        #: dispatch, cleared when the worker answers, dies or is
        #: killed. Read by the map engine's watchdog check through
        #: :meth:`dispatch_ages`.
        self._dispatched: dict[int, float] = {}
        try:
            ctx = multiprocessing.get_context(default_start_method())
            forked = ctx.get_start_method() == "fork"
            for worker_id in range(self.size):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                # A forked child inherits the parent ends opened so far
                # (a spawned one none; pickling would duplicate them).
                inherited = (
                    (*(handle.conn for handle in self._workers.values()),
                     parent_conn) if forked else ())
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, learners, inherited),
                    name=f"lsd-worker-{worker_id}", daemon=True)
                process.start()
                child_conn.close()
                self._workers[worker_id] = _WorkerHandle(process,
                                                         parent_conn)
        except BaseException:
            _release(self._workers)
            raise
        # Safety net for abandoned pools: runs at GC or interpreter
        # exit if nobody called shutdown(). Captures the workers dict,
        # never self.
        self._finalizer = weakref.finalize(
            self, _release, dict(self._workers))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Usable for dispatch: unbroken and every worker breathing."""
        return (not self.broken and bool(self._workers)
                and all(handle.process.is_alive()
                        for handle in self._workers.values()))

    def worker_ids(self) -> list[int]:
        return [worker_id
                for worker_id, handle in self._workers.items()
                if handle.process.is_alive()]

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def ship_batch(self, batch: list) -> int:
        """Broadcast one batch to every worker; returns its token.

        The pickle happens once here, not once per worker and never
        per task — the amortisation that keeps IPC sub-dominant. Ships
        are also content-addressed: re-matching a source re-extracts
        instances that pickle to the same bytes, so a digest hit
        returns the token already resident in every worker and skips
        the broadcast (and each worker's re-unpickling) entirely. The
        parent mirrors the workers' FIFO eviction window exactly —
        same insertion order, same bound — so a hit can never name an
        evicted batch.
        """
        blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.blake2b(blob, digest_size=16).digest()
        cached = self._shipped.get(digest)
        if cached is not None:
            self.ship_skips += 1
            return cached
        token = next(self._batch_tokens)
        try:
            for handle in self._workers.values():
                handle.conn.send(("batch", token, blob))
        except OSError as exc:
            self.broken = True
            raise PoolBrokenError(f"batch broadcast failed: {exc}") \
                from exc
        self._shipped[digest] = token
        while len(self._shipped) > _BATCH_WINDOW:
            self._shipped.pop(next(iter(self._shipped)))
        return token

    def submit(self, worker_id: int, task_id: int,
               payload: dict) -> None:
        try:
            self._workers[worker_id].conn.send(
                ("task", task_id, payload))
        except OSError as exc:
            self.broken = True
            raise PoolBrokenError(f"task dispatch failed: {exc}") \
                from exc
        # Watchdog telemetry (liveness deadline), never pipeline output.
        self._dispatched[worker_id] = \
            time.monotonic()

    def wait(self, timeout: float | None = None) -> list[tuple]:
        """Block until something happens; one event per entry.

        ``("result", worker_id, reply)`` for an answered task,
        ``("died", worker_id, None)`` for a worker whose process exited
        or whose pipe broke. Waits on the pipes *and* the process
        sentinels so a crashed worker (which answers nothing, ever)
        still wakes the parent immediately. Returns ``[]`` when
        ``timeout`` seconds pass first.
        """
        channels: dict = {}
        for worker_id, handle in self._workers.items():
            channels[handle.conn] = ("conn", worker_id)
            channels[handle.process.sentinel] = ("sentinel", worker_id)
        ready = connection.wait(list(channels), timeout)
        events: list[tuple] = []
        answered: set[int] = set()
        dead: set[int] = set()
        for obj in ready:
            kind, worker_id = channels[obj]
            if kind != "conn":
                continue
            try:
                reply = self._workers[worker_id].conn.recv()
            except (EOFError, OSError):
                dead.add(worker_id)
            else:
                events.append(("result", worker_id, reply))
                answered.add(worker_id)
        for obj in ready:
            kind, worker_id = channels[obj]
            if (kind == "sentinel" and worker_id not in answered
                    and worker_id not in dead):
                dead.add(worker_id)
        events.extend(("died", worker_id, None)
                      for worker_id in sorted(dead))
        for worker_id in (*answered, *dead):
            self._dispatched.pop(worker_id, None)
        return events

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def dispatch_ages(self) -> dict[int, float]:
        """Seconds each in-flight task has been outstanding, by worker.

        Workers with no dispatched task are absent. The map engine's
        watchdog check compares these against its deadline; pure
        telemetry, never pipeline output.
        """
        now = time.monotonic()
        return {worker_id: now - stamp
                for worker_id, stamp in list(self._dispatched.items())}

    def kill_worker(self, worker_id: int) -> None:
        """Watchdog escalation: SIGKILL one hung worker parent-side.

        Unlike :meth:`crash_worker` this does **not** mark the pool
        broken — the dead worker's sentinel wakes the map engine, which
        discards it and re-dispatches the lost shard to a survivor
        (bounded; see :func:`run_process_map`). SIGKILL because a hung
        worker may never read another pipe message. The task's dispatch
        stamp goes with it, so one hang is killed (and recorded) once.
        """
        self._dispatched.pop(worker_id, None)
        handle = self._workers.get(worker_id)
        if handle is None or not handle.process.is_alive():
            return
        pid = handle.process.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass

    def discard_worker(self, worker_id: int) -> None:
        """Remove one dead worker from the rotation without breaking
        the pool: join it, close its pipe, shrink :attr:`size` so the
        system rebuilds a full-width pool on its next access."""
        handle = self._workers.pop(worker_id, None)
        self._dispatched.pop(worker_id, None)
        if handle is None:
            return
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():  # pragma: no cover - stuck
            handle.process.terminate()
            handle.process.join(timeout=2.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        self.size = max(1, len(self._workers))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def crash_worker(self, worker_id: int) -> None:
        """Chaos hook: hard-kill one worker (``os._exit`` child-side,
        skipping its cleanup) and mark the pool broken."""
        handle = self._workers.get(worker_id)
        if handle is None:
            return
        if handle.process.is_alive():
            try:
                handle.conn.send(("die",))
            except OSError:
                pass
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        self.broken = True

    def retire(self) -> None:
        """Break-and-stop: the mid-map crash response. The surviving
        workers do not wait for anyone to remember ``shutdown``."""
        self.broken = True
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the workers and close their pipes (idempotent)."""
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "broken" if self.broken else "alive"
        return f"<WorkerPool {state} size={self.size}>"


# ---------------------------------------------------------------------------
# parent side: the map engine
# ---------------------------------------------------------------------------

def _kill_overdue(pool: WorkerPool, watchdog: float, report) -> float:
    """The watchdog check: SIGKILL every worker whose task has been
    outstanding longer than ``watchdog`` seconds and record it in
    ``report``. Returns the seconds until the next in-flight task
    would be overdue — the map engine's next wait timeout. A killed
    worker's sentinel then wakes the engine, which re-dispatches its
    shard."""
    ages = pool.dispatch_ages()
    for worker_id, age in sorted(ages.items()):
        if age > watchdog:
            pool.kill_worker(worker_id)
            report.watchdog_event(
                "worker_killed", f"worker {worker_id} silent for "
                f"{age:.1f}s (deadline {watchdog:g}s)")
    return watchdog - max((age for age in ages.values()
                           if age <= watchdog), default=0.0)


def run_process_map(executor, tasks: list[ProcessTask], label: str,
                    observer=None) -> list:
    """Order-preserving map of :class:`ProcessTask` items over a pool.

    Called by ``ParallelExecutor.map_profiled`` when the process
    backend is live. Replicates the serial path's observable behaviour
    point for point — see the module docstring for the full contract —
    and self-schedules: each worker gets one task up front and the next
    one the moment it answers, so an expensive learner cannot strand
    the other workers idle behind a static partition. Under a policy
    ``watchdog`` the engine waits with a timeout and kills a worker
    whose task outlives it (:func:`_kill_overdue`); the shard is then
    re-dispatched like any other worker death.
    """
    pool = executor.pool
    policy = executor.policy
    plan = policy.fault_plan if policy is not None else None
    retries = policy.retries if policy is not None else 0
    trace = observer.trace if observer is not None else None
    metrics = observer.metrics if observer is not None else None

    def run_serial(skip_done=None) -> list:
        """The local path: the executor's own task runner, opening
        spans inline."""
        out = skip_done if skip_done is not None else [None] * len(tasks)
        for index, item in enumerate(tasks):
            if skip_done is None or not finished[index]:
                out[index] = executor._run_task(
                    lambda task: task.fallback(), item, index, label)
        return out

    # Fired first, exactly like the serial path, so the pool site's
    # logical hit count is identical across backends and worker counts.
    if executor._force_serial(label):
        finished = [False] * len(tasks)
        return run_serial()

    # Chaos: hard-kill a worker before anything is dispatched. Nothing
    # is in flight yet, so the whole map runs serially — byte-identical
    # at any worker count by construction.
    if plan is not None and not pool.broken:
        try:
            plan.fire(SITE_WORKER_PROCESS, label)
        except FaultInjected:
            pool.crash_worker(0)

    n = len(tasks)
    finished = [False] * n
    results: list = [None] * n
    failures = [0] * n
    errors: dict[int, BaseException] = {}
    span_events: list[tuple] = []   # (index, attempt_seq, timing, err)

    if not pool.alive:
        executor._note_pool_failure(label)
        return run_serial()

    def note_failure(index: int, error: BaseException) -> bool:
        """Retry bookkeeping for one failed attempt; True = try again."""
        failures[index] += 1
        if failures[index] > retries:
            if policy is not None and retries:
                policy.report.retried(label, index, failures[index],
                                      False)
            errors[index] = error
            finished[index] = True
            return False
        executor._backoff(label, index, failures[index] - 1)
        return True

    def complete(index: int, value) -> None:
        results[index] = value
        finished[index] = True
        if policy is not None and failures[index]:
            policy.report.retried(label, index, failures[index] + 1,
                                  True)

    def gate(index: int) -> bool:
        """Parent-side fault gates for one attempt, in the serial
        path's order: the task site first (retryable), then the task's
        own fire (a caught failure value). True = dispatch."""
        while True:
            if plan is not None:
                try:
                    plan.fire(SITE_EXECUTOR_TASK, str(index))
                except FaultInjected as exc:
                    if note_failure(index, exc):
                        continue
                    return False
            task = tasks[index]
            if task.fire is not None and plan is not None:
                try:
                    plan.fire(*task.fire)
                except FaultInjected as exc:
                    # Gated before dispatch: an empty span, stamped now.
                    stamp = time.time()
                    span_events.append(
                        (index, failures[index], (stamp, 0.0),
                         type(exc).__name__))
                    complete(index, TaskFailure.from_exception(exc))
                    return False
            return True

    # Dispatch wide tasks first (stable on ties): a whole-batch learner
    # handed out last would run alone after every narrow shard drained,
    # stretching the makespan. Scheduling order is free to vary —
    # results and span replay are both keyed by submission index,
    # never by completion order.
    pending = deque(sorted(range(n), key=lambda i: -tasks[i].rows))
    outstanding: dict[int, int] = {}
    # Telemetry only, never pipeline output: enqueue stamps feed the
    # queue-wait histogram, last-seen worker snapshots the pool gauges.
    queued_at = {index: time.perf_counter()
                 for index in pending}
    worker_resources: dict[int, dict] = {}

    def feed(worker_id: int) -> None:
        while pending:
            index = pending.popleft()
            if not gate(index):
                continue
            payload = dict(tasks[index].payload)
            payload["batch"] = batch_tokens[id(tasks[index].batch)]
            if metrics is not None:
                payload["sample"] = True
                metrics.counter(M_POOL_TASKS).inc()
                metrics.histogram(M_POOL_QUEUE_WAIT).observe(
                    time.perf_counter()
                    - queued_at[index])
            pool.submit(worker_id, index, payload)
            outstanding[worker_id] = index
            return

    try:
        # One pickle per distinct batch, broadcast before any dispatch.
        batch_tokens: dict[int, int] = {}
        skips_before = pool.ship_skips
        for task in tasks:
            key = id(task.batch)
            if key not in batch_tokens:
                batch_tokens[key] = pool.ship_batch(task.batch)
        if metrics is not None and pool.ship_skips > skips_before:
            metrics.counter(M_POOL_SHIP_SKIPS).inc(
                pool.ship_skips - skips_before)

        for worker_id in pool.worker_ids():
            feed(worker_id)
        if metrics is not None:
            metrics.gauge(M_POOL_QUEUE_DEPTH).set(float(len(pending)))
        deaths = 0
        watchdog = policy.watchdog if policy is not None else None
        timeout = watchdog
        while outstanding:
            events = pool.wait(timeout)
            if watchdog is not None:
                timeout = _kill_overdue(pool, watchdog, policy.report)
            for event in events:
                if event[0] == "died":
                    # A deliberately crashed pool (chaos, broken pipe)
                    # keeps the legacy contract: serial completion.
                    # Otherwise — a watchdog kill or a spontaneous
                    # death — re-dispatch the lost shard to a survivor,
                    # within the death budget.
                    dead_id = event[1]
                    lost = outstanding.pop(dead_id, None)
                    pool.discard_worker(dead_id)
                    deaths += 1
                    if pool.broken or deaths > _REDISPATCH_BUDGET \
                            or not pool.worker_ids():
                        raise PoolBrokenError(
                            f"worker {dead_id} died during {label!r}")
                    if lost is not None:
                        if policy is not None:
                            policy.report.worker_died(label, dead_id,
                                                      lost)
                        pending.appendleft(lost)
                        queued_at[lost] = \
                            time.perf_counter()
                    for idle_id in pool.worker_ids():
                        if idle_id not in outstanding:
                            feed(idle_id)
                    continue
                worker_id, reply = event[1], event[2]
                index = outstanding.pop(worker_id)
                if metrics is not None:
                    # Sampling was requested on dispatch, so the reply
                    # carries a trailing resource snapshot; keep the
                    # worker's most recent one for the pool gauges.
                    worker_resources[worker_id] = reply[-1]
                    reply = reply[:-1]
                kind = reply[0]
                if kind == "ok":
                    _, _tid, value, timing = reply
                    span_events.append((index, failures[index], timing,
                                        None))
                    complete(index, value)
                elif kind == "failure":
                    _, _tid, error_type, message, timing = reply
                    span_events.append((index, failures[index], timing,
                                        error_type))
                    complete(index, TaskFailure(error_type, message))
                else:  # "error": uncaught worker-side exception
                    _, _tid, shipped, error_type, message, timing = reply
                    span_events.append((index, failures[index], timing,
                                        error_type))
                    error = shipped if shipped is not None else \
                        RemoteTaskError(error_type, message)
                    if note_failure(index, error):
                        pending.append(index)
                        queued_at[index] = \
                            time.perf_counter()
                feed(worker_id)
    except PoolBrokenError:
        # A genuine crash: stop the survivors immediately, record the
        # degradation, finish every unfinished task locally. Maps after
        # this one see a dead pool and run serially.
        pool.retire()
        executor._note_pool_failure(label)
        run_serial(skip_done=results)

    # Deterministic observability replay, in submission order. Spans
    # always replay (workers record theirs regardless of later
    # failures); a failed attempt's span carries ``error=<type>``, as
    # the serial path marks its own.
    if trace is not None:
        for index, _seq, timing, error_type in sorted(
                span_events, key=lambda event: event[:2]):
            task = tasks[index]
            attributes = {"instances": task.rows}
            if error_type is not None:
                attributes["error"] = error_type
            start, elapsed = timing
            trace.emit(task.span_name, parent=task.span_parent,
                       start=start, elapsed=elapsed,
                       attributes=attributes)
    if metrics is not None:
        if not pool.broken:
            metrics.gauge(M_POOL_WORKERS).set(
                float(len(pool.worker_ids())))
        rss_hist = metrics.histogram(M_POOL_WORKER_RSS, BYTE_BUCKETS)
        cpu_hist = metrics.histogram(M_POOL_WORKER_CPU, CPU_BUCKETS)
        for worker_id in sorted(worker_resources):
            sample = ProcSample.from_dict(worker_resources[worker_id])
            rss_hist.observe(float(sample.rss_bytes))
            cpu_hist.observe(sample.cpu_seconds)
    for index in range(n):
        if index in errors:
            raise errors[index]
    return results
