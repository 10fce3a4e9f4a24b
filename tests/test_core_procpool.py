"""Tests for the process execution backend.

Two layers, bottom up: the persistent :class:`WorkerPool` (batch
broadcast, the wire protocol's ok/failure/error replies) and
:func:`run_process_map`'s crash handling. Byte-identity of full matches
across backends lives in ``test_golden_equivalence.py``; pool hygiene —
no worker left running after normal shutdown, worker crashes,
abandonment, or a killed parent — is pinned here.
"""

import gc
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.instance import ElementInstance
from repro.core.parallel import ParallelExecutor
from repro.core.procpool import (ProcessTask, RemoteTaskError, TaskFailure,
                                 WorkerPool, run_process_map)
from repro.learners import NameMatcher

from .helpers import (make_instance, running, space_of, training_set,
                      worker_pids)

def _fitted_name_matcher() -> NameMatcher:
    pairs = [(make_instance("price", "$ 100"), "PRICE"),
             (make_instance("cost", "$ 200"), "PRICE"),
             (make_instance("location", "Miami, FL"), "ADDRESS"),
             (make_instance("address", "Kent, WA"), "ADDRESS"),
             (make_instance("phone", "(206) 555 0100"), "PHONE")]
    learner = NameMatcher()
    instances, labels = training_set(pairs)
    learner.fit(instances, labels, space_of("PRICE", "ADDRESS", "PHONE"))
    return learner


def _query_instances() -> list[ElementInstance]:
    return [make_instance("price", "$ 42"),
            make_instance("location", "Boston, MA"),
            make_instance("phone", "(617) 555 0123"),
            make_instance("listing", "misc")]


class _SuicideLearner:
    """Hard-exits the worker mid-predict — the genuine crash path."""

    name = "suicide"

    def predict_scores(self, instances):
        import os
        os._exit(1)


class TestWorkerPool:
    @pytest.fixture()
    def pool(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=2)
        yield pool
        pool.shutdown()

    def test_workers_answer_predict_tasks(self, pool):
        learner = _fitted_name_matcher()
        batch = _query_instances()
        expected = learner.predict_scores(batch)
        token = pool.ship_batch(batch)
        worker_id = pool.worker_ids()[0]
        pool.submit(worker_id, 0,
                    {"kind": "predict", "learner": "name_matcher",
                     "batch": token, "start": 0, "stop": len(batch)})
        events = pool.wait()
        assert events and events[0][0] == "result"
        reply = events[0][2]
        assert reply[0] == "ok" and reply[1] == 0
        assert np.array_equal(reply[2], expected)
        # The reply ends in the (start, elapsed) span timing; it
        # carries no profile.
        assert len(reply) == 4
        start, elapsed = reply[3]
        assert start > 0 and elapsed >= 0

    def test_armed_failure_travels_as_value(self, pool):
        token = pool.ship_batch(_query_instances())
        worker_id = pool.worker_ids()[0]
        pool.submit(worker_id, 1,
                    {"kind": "predict", "learner": "missing_learner",
                     "batch": token, "start": 0, "stop": 1,
                     "catch": True})
        reply = pool.wait()[0][2]
        # The lookup happens before the catch boundary, so this is an
        # uncaught worker-side error with the original KeyError shipped
        # home (picklable), never a crash.
        assert reply[0] == "error" and reply[1] == 1
        assert isinstance(reply[2], KeyError)
        assert reply[3] == "KeyError"

    def test_normal_shutdown_stops_the_workers(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=2)
        pids = worker_pids(pool)
        assert len(pids) == 2 and all(running(pid) for pid in pids)
        pool.shutdown()
        assert not any(running(pid) for pid in pids)
        assert not pool.alive

    def test_shutdown_is_idempotent(self, pool):
        pids = worker_pids(pool)
        pool.shutdown()
        pool.shutdown()
        assert not any(running(pid) for pid in pids)

    def test_crash_then_retire_stops_the_workers(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=2)
        pids = worker_pids(pool)
        pool.crash_worker(0)
        assert pool.broken and not pool.alive
        assert pool.worker_ids() == [1]
        pool.retire()
        assert not any(running(pid) for pid in pids)

    def test_abandoned_pool_is_finalized(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=1)
        pids = worker_pids(pool)
        del pool
        gc.collect()
        assert not any(running(pid) for pid in pids)


#: Starts a 2-worker pool, reports its worker pids, then waits to be
#: killed.
_ORPHANING_PARENT = """
import time
from repro.core.procpool import WorkerPool
from tests.helpers import worker_pids
from tests.test_core_procpool import _fitted_name_matcher
pool = WorkerPool([_fitted_name_matcher()], workers=2)
print(*worker_pids(pool), flush=True)
time.sleep(60)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_parent_is_killed(self):
        """A SIGKILLed parent runs no cleanup: its workers must notice
        the dead pipe on their own (every copy of the parent end is
        closed), not linger forever — and nothing of the run is left
        in shared memory."""
        root = Path(__file__).resolve().parents[1]
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(src), str(root)]))
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHANING_PARENT], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            pids = parent.stdout.readline().split()
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        workers = [int(pid) for pid in pids]
        assert len(workers) == 2
        alive = workers
        for _ in range(100):  # 5 s
            alive = [pid for pid in alive if running(pid)]
            if not alive:
                break
            time.sleep(0.05)
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert not alive, f"workers outlived their parent: {alive}"
        assert not list(Path("/dev/shm").glob(f"lsd_{parent.pid}_*"))


class TestRunProcessMap:
    @staticmethod
    def _tasks(batch, learner_name="name_matcher", fallbacks=None):
        tasks = []
        for index in range(len(batch)):
            value = None if fallbacks is None else fallbacks[index]
            tasks.append(ProcessTask(
                payload={"kind": "predict", "learner": learner_name,
                         "start": index, "stop": index + 1},
                batch=batch,
                fallback=(lambda v=value, i=index:
                          f"fallback-{i}" if v is None else v)))
        return tasks

    def test_dead_pool_falls_back_to_serial(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=1)
        try:
            pool.crash_worker(0)
            executor = ParallelExecutor(workers=2, backend="process",
                                        pool=pool)
            batch = _query_instances()
            results = run_process_map(executor, self._tasks(batch),
                                      "predict")
            assert results == [f"fallback-{i}" for i in range(len(batch))]
        finally:
            pool.shutdown()

    def test_mid_map_worker_death_retires_pool_and_finishes_serially(self):
        """A worker dying with tasks in flight: the map raises
        ``PoolBrokenError`` internally, retires the pool (workers stopped
        immediately — hygiene never waits for the system), and finishes
        every unfinished task through its local fallback."""
        pool = WorkerPool([_fitted_name_matcher(), _SuicideLearner()],
                          workers=1)
        pids = worker_pids(pool)
        try:
            executor = ParallelExecutor(workers=2, backend="process",
                                        pool=pool)
            batch = _query_instances()
            results = run_process_map(
                executor, self._tasks(batch, learner_name="suicide"),
                "predict")
            assert results == [f"fallback-{i}" for i in range(len(batch))]
            assert pool.broken
            assert not any(running(pid) for pid in pids)
        finally:
            pool.shutdown()


class TestTaskFailure:
    def test_from_exception_keeps_both_strings(self):
        failure = TaskFailure.from_exception(ValueError("bad rows"))
        assert failure.error_type == "ValueError"
        assert failure.message == "bad rows"
        assert failure.cause == "bad rows"

    def test_cause_falls_back_to_type_on_empty_message(self):
        assert TaskFailure("TimeoutError", "").cause == "TimeoutError"

    def test_remote_task_error_message(self):
        error = RemoteTaskError("WeirdError", "unpicklable state")
        assert "WeirdError" in str(error)
        assert "unpicklable state" in str(error)
        assert RemoteTaskError("Bare", "").args[0] == "Bare"
