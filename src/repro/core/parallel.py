"""Deterministic fan-out for learner prediction and cross-validation.

:class:`ParallelExecutor` is the one concurrency seam the pipelines
use: an order-preserving ``map``. Results always come back in
submission order, so a pipeline wired through an executor produces
byte-identical output at any worker count *and either backend* — the
determinism tests pin this.

Two backends:

* ``serial`` — in-process, in-order; the reference semantics.
* ``process`` (default) — a persistent :class:`~repro.core.procpool.
  WorkerPool` whose workers hold the trained model reconstructed once
  around a shared-memory segment (:mod:`repro.core.shared_arrays`). The
  hot score kernels (scipy sparse products, ``np.partition``) hold the
  GIL, so worker processes are the only way to run them side by side.
  Only :class:`~repro.core.procpool.ProcessTask` descriptors handed to
  :meth:`ParallelExecutor.map_profiled` reach the pool; every other map
  (generic closures such as cross-validation folds) runs serially on
  the orchestrating thread, and so does every map once the pool has
  died. Each descriptor carries a local ``fallback`` closure running
  the identical computation, which is how one code path serves serial
  execution and pool-death recovery. A task's span (opened inline or
  replayed from the worker) is its only timing record.

``workers <= 1`` never builds a pool. The pool is expensive to build
and cheap to keep, so it lives on the system (see
``LSDSystem.close_pool``) and is merely borrowed here.

Resilience: an executor built with a :class:`~repro.resilience.policy.
ResiliencePolicy` retries failing tasks with seeded exponential backoff,
falls back to serial execution when the worker pool cannot be used, and
hits the ``executor.task`` / ``executor.pool`` fault sites (plus
``worker.process`` on the process backend) so the chaos suite can
exercise every path deterministically. The default (no policy) executor
behaves exactly as before.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Iterable, TypeVar

from ..resilience.faults import FaultInjected
from ..resilience.sites import SITE_EXECUTOR_POOL, SITE_EXECUTOR_TASK
from .procpool import ProcessTask, run_process_map

T = TypeVar("T")
R = TypeVar("R")

#: Ceiling on a single backoff sleep, seconds.
_MAX_BACKOFF = 5.0

#: The legal ``backend=`` values.
BACKENDS = ("serial", "process")


class ParallelExecutor:
    """Order-preserving ``map`` over a worker-process pool or serially."""

    def __init__(self, workers: int = 1, policy=None,
                 backend: str = "process", pool=None) -> None:
        """``workers <= 1`` selects the deterministic serial path.

        ``policy`` (a :class:`repro.resilience.ResiliencePolicy`) arms
        per-task retries and the executor fault sites; ``None`` keeps
        the executor inert. ``backend`` picks the execution substrate
        (see the module docstring); ``backend="process"`` additionally
        needs a live :class:`~repro.core.procpool.WorkerPool` passed as
        ``pool`` — without one (or once it breaks) every map runs
        serially.
        """
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                f"{', '.join(BACKENDS)}")
        self.workers = max(1, int(workers))
        self.policy = policy
        self.backend = backend
        self.pool = pool

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1 and self.backend != "serial"

    @property
    def wants_process_tasks(self) -> bool:
        """True when a map should be expressed as
        :class:`~repro.core.procpool.ProcessTask` descriptors — the
        process backend is selected and its pool is usable."""
        return (self.is_parallel and self.pool is not None
                and self.pool.alive)

    def map(self, fn: Callable[[T], R], items: Iterable[T],
            label: str = "map") -> list[R]:
        """Apply ``fn`` to every item, serially, in submission order.

        Generic closures never cross the process boundary (they capture
        live object graphs), so this is the serial path at any worker
        count — with the policy's fault sites and retries around each
        item. The first failing item raises once its retry budget (if
        any) is exhausted.
        """
        # Already serial; fired anyway so the pool site's hit count is
        # the same whether or not a process map would have run.
        self._force_serial(label)
        return [self._run_task(fn, item, index, label)
                for index, item in enumerate(items)]

    def map_profiled(self, fn: Callable[[T], R], items: Iterable[T],
                     label: str = "map", observer=None) -> list[R]:
        """``map`` that may run on the worker pool.

        When the process backend is live and every item is a
        :class:`~repro.core.procpool.ProcessTask`, the map runs on the
        pool (``fn`` is bypassed; each task's payload is dispatched and
        its ``fallback`` serves any serial rerun). ``observer`` carries
        the run's trace collector so worker-measured spans replay into
        the same tree; the serial path opens its spans inline and
        ignores it.
        """
        items = list(items)
        if self.wants_process_tasks and len(items) > 1 and all(
                isinstance(item, ProcessTask) for item in items):
            return run_process_map(self, items, label, observer)
        return self.map(fn, items, label)

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def _force_serial(self, label: str) -> bool:
        """Hit the pool fault site; True = run this call serially.

        Fired before the workers/size shortcut so the hit count — and
        therefore the recorded degradation — is identical at any
        ``--workers`` setting.
        """
        policy = self.policy
        if policy is None or policy.fault_plan is None:
            return False
        try:
            policy.fault_plan.fire(SITE_EXECUTOR_POOL, label)
        except FaultInjected:
            self._note_pool_failure(label)
            return True
        return False

    def _note_pool_failure(self, label: str) -> None:
        if self.policy is not None:
            self.policy.report.pool_failed(label)

    def _run_task(self, fn: Callable[[T], R], item: T, index: int,
                  label: str) -> R:
        """``fn(item)`` behind the ``executor.task`` fault site, retried
        up to the policy's budget with seeded backoff."""
        policy = self.policy
        plan = policy.fault_plan if policy is not None else None
        retries = policy.retries if policy is not None else 0
        for attempt in range(retries + 1):
            try:
                if plan is not None:
                    plan.fire(SITE_EXECUTOR_TASK, str(index))
                result = fn(item)
            except Exception:
                if attempt >= retries:
                    if retries:
                        policy.report.retried(
                            label, index, attempt + 1, False)
                    raise
                self._backoff(label, index, attempt)
                continue
            if attempt:
                policy.report.retried(label, index, attempt + 1, True)
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    def _backoff(self, label: str, index: int, attempt: int) -> None:
        """Sleep before a retry: seeded exponential backoff with jitter."""
        policy = self.policy
        base = 0.0 if policy is None else policy.backoff
        if base <= 0:
            return
        rng = random.Random(
            f"{policy.backoff_seed}|{label}|{index}|{attempt}")
        time.sleep(min(base * (2 ** attempt) * (0.5 + rng.random()),
                       _MAX_BACKOFF))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "parallel" if self.is_parallel else "serial"
        return f"<ParallelExecutor {mode} workers={self.workers}>"


#: Default target rows per prediction shard; see :func:`shard_bounds`.
#: Sized so small batches stay single-shard — per-shard spans and the
#: split's dedup bookkeeping only amortize on genuinely large
#: columns. Learners whose prediction cost is per-row (no per-call
#: amortized work) override
#: :attr:`repro.learners.base.BaseLearner.shard_rows` with a finer
#: grain so a parallel map can split them instead of letting one
#: whole-batch task bound the makespan.
SHARD_TARGET_ROWS = 2048
#: Ceiling on prediction shards per batch.
MAX_SHARDS = 8


class ShardScale:
    """Memory-pressure shard-grain scale (thread-safe).

    The pressure monitor (:mod:`repro.runtime.pressure`) halves the
    effective shard grain — doubling this factor — so per-task peak
    memory shrinks under RSS pressure. Learner scoring is row-wise by
    the :class:`~repro.learners.base.BaseLearner` contract, so a finer
    shard plan changes concatenation boundaries and trace shape only,
    never pipeline output, so a resumed run safely starts back at
    factor 1.
    """

    __slots__ = ("_factor", "_lock")

    _MAX_FACTOR = 16

    def __init__(self) -> None:
        self._factor = 1
        self._lock = threading.Lock()

    @property
    def factor(self) -> int:
        return self._factor

    def halve(self) -> int:
        """Halve the shard grain once more; returns the new factor."""
        with self._lock:
            self._factor = min(self._factor * 2, self._MAX_FACTOR)
            return self._factor

    def reset(self) -> None:
        with self._lock:
            self._factor = 1


#: The process-wide shard-grain scale; factor 1 (the default) keeps
#: :func:`shard_bounds` the documented pure function of the batch size.
SHARD_SCALE = ShardScale()


def shard_bounds(n: int, target: int = SHARD_TARGET_ROWS,
                 max_shards: int = MAX_SHARDS) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shards covering an ``n``-row batch.

    The plan is a pure function of ``n`` — never of the worker count —
    so a sharded fan-out stays byte-identical at any parallelism (the
    determinism sanitizer diffs workers 1 vs N, including the trace
    shape). Shards are near-equal, earlier shards taking the remainder,
    and an empty batch yields the single empty shard ``[(0, 0)]`` so
    callers still fan out one task per unit of work.

    Exception to purity: under memory pressure :data:`SHARD_SCALE`
    tightens the grain (see :class:`ShardScale`) — outputs stay
    byte-identical, only task granularity and trace shape change.
    """
    if n <= 0:
        return [(0, 0)]
    scale = SHARD_SCALE.factor
    if scale > 1:
        target = max(1, target // scale)
        max_shards = max_shards * scale
    shards = min(max_shards, max(1, -(-n // target)))
    base, remainder = divmod(n, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


#: The shared serial executor — the default everywhere an executor is
#: optional, so existing call sites keep their exact behaviour.
SERIAL = ParallelExecutor(1)


def resolve(executor: ParallelExecutor | None) -> ParallelExecutor:
    """``executor`` or the serial default."""
    return executor if executor is not None else SERIAL
