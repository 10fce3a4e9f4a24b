"""Tests for the hierarchical trace collector."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.observability import (NULL_TRACE, Span, TraceCollector,
                                 iter_tree, read_jsonl)


class TestSpanIds:
    def test_root_and_nested_ids_are_paths(self):
        trace = TraceCollector()
        with trace.span("match"):
            with trace.span("predict"):
                with trace.span("combine"):
                    pass
        ids = [span.span_id for span in trace.spans]
        assert ids == ["match", "match/predict",
                       "match/predict/combine"]

    def test_repeated_names_get_suffixes(self):
        trace = TraceCollector()
        with trace.span("root"):
            with trace.span("pass"):
                pass
            with trace.span("pass"):
                pass
        ids = [span.span_id for span in trace.spans]
        assert "root/pass" in ids and "root/pass#1" in ids

    def test_sibling_trees_are_independent(self):
        trace = TraceCollector()
        with trace.span("a"):
            with trace.span("x"):
                pass
        with trace.span("b"):
            with trace.span("x"):
                pass
        ids = {span.span_id for span in trace.spans}
        assert {"a", "a/x", "b", "b/x"} <= ids

    def test_reserved_characters_rejected(self):
        trace = TraceCollector()
        with pytest.raises(ValueError):
            trace.span("has/slash")  # lsd: ignore[span-unclosed]
        with pytest.raises(ValueError):
            trace.span("has#hash")  # lsd: ignore[span-unclosed]

    def test_ids_are_structure_deterministic(self):
        def build() -> list[str]:
            trace = TraceCollector()
            with trace.span("run"):
                for name in ("alpha", "beta"):
                    with trace.span(name):
                        pass
            return [span.span_id for span in trace.spans]

        assert build() == build()


class TestSpanRecords:
    def test_attributes_and_set_attribute(self):
        trace = TraceCollector()
        with trace.span("work", items=3) as span:
            span.set_attribute("result", "ok")
        recorded = trace.spans[0]
        assert recorded.attributes == {"items": 3, "result": "ok"}

    def test_exception_marks_error(self):
        trace = TraceCollector()
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("nope")
        assert trace.spans[0].attributes["error"] == "RuntimeError"

    def test_timestamps_and_elapsed(self):
        trace = TraceCollector()
        with trace.span("work"):
            sum(range(1000))
        span = trace.spans[0]
        assert span.start > 0.0
        assert span.elapsed >= 0.0
        assert span.end == pytest.approx(span.start + span.elapsed)

    def test_child_elapsed_within_parent(self):
        trace = TraceCollector()
        with trace.span("parent"):
            with trace.span("child"):
                sum(range(1000))
        by_name = {span.name: span for span in trace.spans}
        assert by_name["child"].elapsed <= by_name["parent"].elapsed


class TestConcurrentWorkers:
    def test_worker_spans_join_one_tree(self):
        """Spans opened on worker threads with an explicit parent merge
        into the main tree with intact parent/child links."""
        trace = TraceCollector()
        with trace.span("run") as root:

            def work(i: int) -> None:
                with trace.span(f"task.{i}", parent=root.span_id):
                    with trace.span("inner"):
                        pass

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(work, range(8)))

        spans = trace.spans
        ids = {span.span_id for span in spans}
        assert len(ids) == len(spans) == 1 + 8 * 2
        # Every parent link resolves to a recorded span.
        for span in spans:
            assert span.parent_id is None or span.parent_id in ids
        assert {f"run/task.{i}" for i in range(8)} <= ids
        assert {f"run/task.{i}/inner" for i in range(8)} <= ids

    def test_same_id_set_at_any_worker_count(self):
        def run(workers: int) -> set:
            trace = TraceCollector()
            with trace.span("run") as root:

                def work(i: int) -> None:
                    with trace.span(f"task.{i}",
                                    parent=root.span_id):
                        pass

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    list(pool.map(work, range(6)))
            return {span.span_id for span in trace.spans}

        assert run(1) == run(4)


class TestReading:
    def _tree(self) -> TraceCollector:
        trace = TraceCollector()
        with trace.span("run"):
            with trace.span("load"):
                pass
            with trace.span("match"):
                with trace.span("predict"):
                    pass
        return trace

    def test_roots_and_children(self):
        trace = self._tree()
        assert [span.span_id for span in trace.roots()] == ["run"]
        children = [span.span_id for span in trace.children_of("run")]
        assert children == ["run/load", "run/match"]

    def test_iter_tree_covers_subtree(self):
        trace = self._tree()
        root = trace.roots()[0]
        names = {span.span_id
                 for span in iter_tree(trace.spans, root)}
        assert names == {"run", "run/load", "run/match",
                         "run/match/predict"}

    def test_jsonl_round_trip(self, tmp_path):
        trace = self._tree()
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        loaded = read_jsonl(path)
        assert [span.as_dict() for span in loaded] == \
            [span.as_dict() for span in trace.spans]

    def test_empty_collector_writes_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        TraceCollector().write_jsonl(path)
        assert path.read_text() == ""
        assert read_jsonl(path) == []


class TestNullCollector:
    def test_disabled_and_inert(self):
        assert not NULL_TRACE.enabled
        with NULL_TRACE.span("anything", parent="x", attr=1) as span:
            span.set_attribute("k", "v")
            assert span.span_id is None
        assert len(NULL_TRACE) == 0
        assert NULL_TRACE.spans == []

    def test_span_dataclass_dict(self):
        span = Span("n", "p/n", "p", start=1.0, elapsed=0.5,
                    attributes={"a": 1})
        data = span.as_dict()
        assert data["end"] == 1.5
        assert data["attributes"] == {"a": 1}
