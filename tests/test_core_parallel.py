"""Tests for the deterministic parallel executor."""

import pytest

from repro.core.parallel import SERIAL, ParallelExecutor, resolve


class TestMap:
    def test_serial_preserves_order(self):
        executor = ParallelExecutor(1)
        assert executor.map(lambda x: x * 2, range(10)) == \
            [x * 2 for x in range(10)]

    def test_parallel_preserves_order(self):
        executor = ParallelExecutor(4)
        items = list(range(200))
        assert executor.map(lambda x: x * x, items) == \
            [x * x for x in items]

    def test_parallel_matches_serial_exactly(self):
        items = [[i, i + 1] for i in range(50)]
        fn = lambda pair: sum(pair) / 7.0  # noqa: E731
        assert ParallelExecutor(4).map(fn, items) == \
            ParallelExecutor(1).map(fn, items)

    def test_single_item_skips_pool(self):
        # len(items) <= 1 takes the serial path even when parallel.
        assert ParallelExecutor(8).map(lambda x: x + 1, [41]) == [42]

    def test_empty_items(self):
        assert ParallelExecutor(4).map(lambda x: x, []) == []

    def test_exception_propagates_serial(self):
        def boom(x):
            raise ValueError(f"bad item {x}")
        with pytest.raises(ValueError, match="bad item 0"):
            ParallelExecutor(1).map(boom, [0, 1])

    def test_exception_propagates_parallel(self):
        def boom(x):
            if x == 3:
                raise ValueError("bad item 3")
            return x
        with pytest.raises(ValueError, match="bad item 3"):
            ParallelExecutor(4).map(boom, range(8))

    def test_first_failure_in_submission_order_wins(self):
        """When several items fail, the earliest *submitted* failure
        raises."""
        def boom(x):
            if x == 0:
                raise KeyError("submitted first")
            if x == 5:
                raise IndexError("submitted later")
            return x

        with pytest.raises(KeyError, match="submitted first"):
            ParallelExecutor(8).map(boom, range(8))


class TestMapProfiled:
    @staticmethod
    def _traced(trace):
        def task(x):
            with trace.span(f"task.{x % 2}"):
                return x * 2
        return task

    def test_parallel_matches_serial(self):
        # Plain items never reach a pool: any worker count maps in
        # order and records the same spans.
        from repro.observability import TraceCollector
        serial, parallel = TraceCollector(), TraceCollector()
        a = ParallelExecutor(1).map_profiled(self._traced(serial),
                                             range(10))
        b = ParallelExecutor(4).map_profiled(self._traced(parallel),
                                             range(10))
        assert a == b == [2 * x for x in range(10)]
        assert [span.span_id for span in serial.spans] == \
            [span.span_id for span in parallel.spans]


class TestConstruction:
    def test_workers_floor_is_one(self):
        assert ParallelExecutor(0).workers == 1
        assert ParallelExecutor(-3).workers == 1

    def test_is_parallel(self):
        assert not ParallelExecutor(1).is_parallel
        assert ParallelExecutor(2).is_parallel

    def test_backends_are_serial_and_process(self):
        assert ParallelExecutor(2).backend == "process"
        assert not ParallelExecutor(2, backend="serial").is_parallel
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelExecutor(2, backend="thread")

    def test_process_backend_without_pool_maps_serially(self):
        executor = ParallelExecutor(4)
        assert not executor.wants_process_tasks
        assert executor.map(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]

    def test_resolve_defaults_to_serial(self):
        assert resolve(None) is SERIAL
        custom = ParallelExecutor(3)
        assert resolve(custom) is custom
        assert not SERIAL.is_parallel
