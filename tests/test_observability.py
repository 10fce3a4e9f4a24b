"""Tests for the stage profile: the view derived from a span subtree."""

import json
import pickle

from repro.observability import (StageProfile, TraceCollector,
                                 format_profile_table)
from repro.observability import timers
from repro.observability.trace import Span

from .helpers import LegacyStageProfile


def _span(span_id: str, elapsed: float = 0.0, **attributes) -> Span:
    parent, _, name = span_id.rpartition("/")
    return Span(name.partition("#")[0], span_id, parent or None,
                elapsed=elapsed, attributes=attributes)


class TestStageProfile:
    def test_stage_records_elapsed_time(self):
        trace = TraceCollector()
        with trace.span("match") as root:
            with trace.span("extract"):
                sum(range(1000))
        profile = StageProfile.from_spans(trace.spans, root.span_id)
        assert profile.seconds("extract") > 0.0
        assert "match" not in profile.timings  # the root is the frame

    def test_timings_accumulate_per_path(self):
        # Repeat occurrences (#n) and prediction shards (.s<k>) fold
        # into one stage path.
        spans = [_span("match"),
                 _span("match/predict", 2.0),
                 _span("match/predict/learner.whirl.s0", 0.25),
                 _span("match/predict/learner.whirl.s1", 0.5),
                 _span("match/predict/learner.whirl#1", 0.125),
                 _span("match/predict/combine", 0.5),
                 _span("match/predict/combine#1", 0.25)]
        profile = StageProfile.from_spans(spans, "match")
        assert profile.timings == {"predict": 2.0,
                                   "predict.learner.whirl": 0.875,
                                   "predict.combine": 0.75}

    def test_unknown_path_is_zero(self):
        assert StageProfile().seconds("nope") == 0.0

    def test_counters(self):
        # Counters come from span attributes; repeated spans sum, and a
        # structure pass counts only when it re-predicted something.
        spans = [_span("match", tags=3, instances=10, cache_hits=4,
                       cache_misses=6, ignored=99),
                 _span("match/predict"),
                 _span("match/predict/structure_pass", repredicted=5),
                 _span("match/predict/structure_pass#1", repredicted=2),
                 _span("match/predict/structure_pass#2"),
                 _span("match/constrain/search", nodes_expanded=7,
                       prune_bound=1, prune_hard=0, prune_soft_bound=2,
                       leaf_hard_rejects=0, anytime=0, best_cost=1.5)]
        assert StageProfile.from_spans(spans, "match").counters == {
            "tags": 3, "instances": 10, "cache_hits": 4,
            "cache_misses": 6, "structure_repredicted": 7,
            "structure_passes": 2, "constraint_nodes_expanded": 7,
            "constraint_prune_bound": 1, "constraint_prune_hard": 0,
            "constraint_prune_soft_bound": 2,
            "constraint_leaf_hard_rejects": 0}

    def test_view_is_one_subtree(self):
        # A caller's collector holds other runs; only the root's own
        # subtree counts.
        spans = [_span("run/match", instances=4),
                 _span("run/match/extract", 1.0),
                 _span("run/match#1", instances=8),
                 _span("run/match#1/extract", 2.0),
                 _span("run/load_model", 3.0)]
        profile = StageProfile.from_spans(spans, "run/match#1")
        assert profile.timings == {"extract": 2.0}
        assert profile.counters == {"instances": 8}

    def test_top_level_total_ignores_nested_paths(self):
        profile = StageProfile({"predict": 2.0,
                                "predict.learner.whirl": 1.5,
                                "extract": 1.0})
        assert profile.top_level_total() == 3.0

    def test_as_dict_and_json(self):
        profile = StageProfile({"extract": 0.5}, {"tags": 3})
        data = json.loads(json.dumps(profile.as_dict()))
        assert data["timings"]["extract"] == 0.5
        assert data["counters"]["tags"] == 3

    def test_top_level_total_with_only_dotted_paths(self):
        # A chain timed only at the leaf rolls all the way up.
        profile = StageProfile({"predict.learner.whirl": 1.0,
                                "predict.learner.bayes": 0.5})
        assert profile.top_level_total() == 1.5

    def test_pickle_round_trip(self):
        profile = StageProfile({"extract": 0.5}, {"tags": 3})
        clone = pickle.loads(pickle.dumps(profile))
        assert clone == profile

    def test_legacy_recorder_state_unpickles(self, monkeypatch):
        # Old model files pickled the locked recorder as its class plus
        # a {"timings", "counters"} state dict; the dataclass takes that
        # state as its fields, with no unpickling hook.
        with monkeypatch.context() as patch:
            patch.setattr(timers, "StageProfile", LegacyStageProfile)
            blob = pickle.dumps(LegacyStageProfile({"fit": 1.0},
                                                   {"tags": 2}))
        assert pickle.loads(blob) == StageProfile({"fit": 1.0},
                                                  {"tags": 2})


class TestProfileTable:
    def _profile(self) -> StageProfile:
        spans = [_span("match", instances=100),
                 _span("match/predict", 2.0),
                 _span("match/predict/learner.whirl", 1.2),
                 _span("match/predict/learner.bayes", 0.4),
                 _span("match/extract", 0.5)]
        return StageProfile.from_spans(spans, "match")

    def test_contains_all_stages_and_counters(self):
        table = format_profile_table(self._profile())
        for fragment in ("predict", "whirl", "bayes", "extract",
                         "instances", "100"):
            assert fragment in table

    def test_children_indented_under_parent(self):
        lines = format_profile_table(self._profile()).splitlines()
        names = [line.split()[0] for line in lines[2:] if line.strip()]
        # predict first (slowest top-level), its children right after.
        assert names[0] == "predict"
        assert set(names[1:3]) == {"learner", "whirl"} or \
            "learner" in names[1]

    def test_implicit_parent_sums_children(self):
        table = format_profile_table(self._profile())
        # 'predict.learner' was never timed itself; its implicit row
        # shows the children's sum (1.2 + 0.4).
        learner_line = next(line for line in table.splitlines()
                            if line.strip().startswith("learner"))
        assert "1.6000s" in learner_line

    def test_share_column_sums_against_top_level(self):
        table = format_profile_table(self._profile())
        extract_line = next(line for line in table.splitlines()
                            if line.strip().startswith("extract"))
        assert "20.0%" in extract_line  # 0.5 of 2.5 top-level seconds

    def test_empty_profile_renders(self):
        table = format_profile_table(StageProfile())
        assert "stage" in table

    def test_shares_render_with_only_dotted_paths(self):
        # Before the implicit-chain fix, a profile holding only deep
        # dotted paths produced a zero denominator and dash shares.
        profile = StageProfile.from_spans(
            [_span("match/predict/learner.whirl", 1.0)], "match")
        table = format_profile_table(profile)
        assert "100.0%" in table
        assert "    -" not in table
