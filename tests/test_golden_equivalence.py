"""Golden equivalence: the vectorized batch path vs the per-instance path.

The throughput work rewrote every learner's ``predict_scores`` around
distinct-key dedup and batched matrix kernels, rewrote the converter as
one grouped reduction, and re-pointed parallelism at contiguous shards.
All of that is only legal because learner scoring is row-wise pure — so
this suite pins the strongest possible contract: the batch path is
**byte-identical** (``np.array_equal``, never ``allclose``) to scoring
each instance alone, for every learner, all three converter strategies,
structure re-passes, and ``--workers 1`` vs ``4`` including a forced
multi-shard plan.

It also carries the regression tests for the three NaN/zero-row fixes
that rode along: the statistics learner's empty-fit NaN rows, the
converter's non-finite-total propagation, and the meta-learner's
all-zero weight rows (healthy and quarantined paths).
"""

import numpy as np
import pytest

from repro.core import featurize
from repro.core.converter import PredictionConverter
from repro.core.labels import LabelSpace
from repro.learners import (ContentMatcher, EditDistanceNameMatcher,
                            FormatLearner, GazetteerRecognizer,
                            MetadataLearner, NaiveBayesLearner,
                            NameMatcher, NumericLearner, RegexRecognizer,
                            StackingMetaLearner, StatisticsLearner,
                            XMLLearner)

from .helpers import make_instance, space_of, training_set

SPACE = space_of("ADDRESS", "PRICE", "PHONE", "DESCRIPTION")

CITIES = ["Miami, FL", "Boston, MA", "Seattle, WA", "Kent, WA"]
PRICES = ["$ 250,000", "$ 520,000", "$ 99,500", "$ 1,200,000"]
PHONES = ["(206) 555 0100", "(305) 555 0199", "(617) 555 0123"]
BLURBS = ["Fantastic house with great location",
          "Great yard, close to the river",
          "Beautiful view, spacious rooms"]


def _training_pairs():
    pairs = []
    for text in CITIES:
        pairs.append((make_instance("location", text,
                                    path=("house", "location")),
                      "ADDRESS"))
    for text in PRICES:
        pairs.append((make_instance("listed-price", text,
                                    path=("house", "listed-price")),
                      "PRICE"))
    for text in PHONES:
        pairs.append((make_instance("phone", text,
                                    path=("house", "contact", "phone")),
                      "PHONE"))
    for text in BLURBS:
        pairs.append((make_instance("comments", text,
                                    path=("house", "comments")),
                      "DESCRIPTION"))
    return pairs


def _query_batch():
    """A duplicate-heavy mixed batch: repeated values exercise the
    distinct-key broadcast, the empty text exercises degenerate rows,
    and the structured instance exercises child-label features."""
    batch = []
    for text in ["Miami, FL", "Miami, FL", "$ 250,000", "(206) 555 0100",
                 "Great yard, close to the river", "Miami, FL", "",
                 "$ 99,500", "$ 99,500"]:
        batch.append(make_instance("area", text, path=("home", "area")))
    batch.append(make_instance(
        "person", path=("home", "person"),
        children=[("agent-name", "Kate Richardson"),
                  ("work-phone", "(206) 555 0100")],
        child_labels={"agent-name": "OTHER", "work-phone": "PHONE"}))
    batch.append(make_instance("amount", "$ 250,000",
                               path=("home", "amount")))
    return batch


LEARNER_FACTORIES = {
    "name_matcher": NameMatcher,
    "edit_distance": EditDistanceNameMatcher,
    "content_matcher": ContentMatcher,
    "naive_bayes": NaiveBayesLearner,
    "xml": XMLLearner,
    "metadata": MetadataLearner,
    "numeric": NumericLearner,
    "statistics": StatisticsLearner,
    "format": FormatLearner,
    "gazetteer": lambda: GazetteerRecognizer("ADDRESS", CITIES),
    "regex": lambda: RegexRecognizer(
        "PHONE", r"\(\d{3}\) \d{3} \d{4}"),
}


def _fitted(factory):
    learner = factory()
    instances, labels = training_set(_training_pairs())
    learner.fit(instances, labels, SPACE)
    return learner


class TestLearnerBatchEquivalence:
    """``predict_scores(batch)`` == vstack of single-instance calls."""

    @pytest.mark.parametrize("name", sorted(LEARNER_FACTORIES))
    def test_batch_matches_per_instance(self, name):
        learner = _fitted(LEARNER_FACTORIES[name])
        batch = _query_batch()
        batched = learner.predict_scores(batch)
        reference = np.vstack([learner.predict_scores([instance])
                               for instance in batch])
        assert batched.shape == (len(batch), len(SPACE))
        assert np.array_equal(batched, reference), \
            f"{name} batch path diverged from per-instance path"

    @pytest.mark.parametrize("name", sorted(LEARNER_FACTORIES))
    def test_dedup_matches_uncached_path(self, name):
        """The distinct-key dedup rides the featurize switch; turning
        memoisation off must not change a bit, only the work done."""
        learner = _fitted(LEARNER_FACTORIES[name])
        batch = _query_batch()
        batched = learner.predict_scores(batch)
        fresh = _query_batch()  # cold feature caches
        with featurize.cache_disabled():
            naive = learner.predict_scores(fresh)
        assert np.array_equal(batched, naive), \
            f"{name} dedup path diverged from the uncached path"

    def test_xml_learner_structure_repass_equivalence(self):
        """The second structure pass scores instances whose
        ``child_labels`` changed; the skeleton-key dedup must remain
        byte-identical to per-instance scoring on the relabelled batch."""
        learner = _fitted(XMLLearner)
        batch = _query_batch()
        for instance in batch:
            if instance.child_labels:
                instance.child_labels["agent-name"] = "PHONE"
        batched = learner.predict_scores(batch)
        reference = np.vstack([learner.predict_scores([instance])
                               for instance in batch])
        assert np.array_equal(batched, reference)

    def test_empty_batch_is_empty_matrix(self):
        for name, factory in LEARNER_FACTORIES.items():
            scores = _fitted(factory).predict_scores([])
            assert scores.shape == (0, len(SPACE)), name


class TestConverterEquivalence:
    """``convert_slices`` is bitwise ``convert`` per slice."""

    @staticmethod
    def _matrix():
        rng = np.random.default_rng(7)
        matrix = rng.random((12, 5))
        return matrix / matrix.sum(axis=1, keepdims=True)

    SLICES = {"a": slice(0, 4), "empty": slice(4, 4), "b": slice(4, 5),
              "c": slice(5, 12)}

    @pytest.mark.parametrize("strategy", ["mean", "median", "max"])
    def test_grouped_matches_per_tag(self, strategy):
        converter = PredictionConverter(strategy)
        matrix = self._matrix()
        grouped = converter.convert_slices(matrix, self.SLICES)
        for tag, slc in self.SLICES.items():
            assert np.array_equal(grouped[tag],
                                  converter.convert(matrix[slc])), \
                f"{strategy} diverged on {tag!r}"

    @pytest.mark.parametrize("strategy", ["mean", "median", "max"])
    def test_gap_and_overlap_layouts_agree(self, strategy):
        """Non-contiguous and overlapping slices force the per-segment
        fallback; it must agree bitwise with the batched reduceat."""
        converter = PredictionConverter(strategy)
        matrix = self._matrix()
        layouts = [
            {"x": slice(2, 6), "y": slice(8, 12)},       # gap
            {"x": slice(0, 8), "y": slice(4, 12)},       # overlap
        ]
        for slices in layouts:
            grouped = converter.convert_slices(matrix, slices)
            for tag, slc in slices.items():
                assert np.array_equal(grouped[tag],
                                      converter.convert(matrix[slc]))


class TestWorkerCountEquivalence:
    """Workers 1 vs 4, single-shard and forced multi-shard, are
    byte-identical end to end."""

    @pytest.fixture(scope="class")
    def system(self):
        from .test_core_system import trained_system
        return trained_system()

    @pytest.fixture(scope="class")
    def serial_result(self, system):
        from .test_core_system import (GREATHOMES_LISTINGS,
                                       GREATHOMES_SCHEMA)
        system.workers = 1
        return system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)

    @staticmethod
    def _assert_identical(result, reference):
        assert set(result.tag_scores) == set(reference.tag_scores)
        for tag, scores in reference.tag_scores.items():
            assert np.array_equal(result.tag_scores[tag], scores), \
                f"tag_scores diverged on {tag!r}"
        assert dict(result.mapping.items()) == \
            dict(reference.mapping.items())

    def test_par4_matches_serial(self, system, serial_result):
        from .test_core_system import (GREATHOMES_LISTINGS,
                                       GREATHOMES_SCHEMA)
        system.workers = 4
        try:
            result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)
        finally:
            system.workers = 1
        self._assert_identical(result, serial_result)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_forced_multi_shard_matches_single_shard(
            self, system, serial_result, workers, monkeypatch):
        """Default ``SHARD_TARGET_ROWS`` keeps test-sized batches on a
        single shard, so force a tiny shard target: the sharded plan
        (and its duplicate-clustering permutation) must be
        output-invisible at any worker count."""
        from repro.core import matching
        from repro.core.parallel import shard_bounds

        monkeypatch.setattr(
            matching, "shard_bounds",
            lambda n, **kwargs: shard_bounds(n, target=8, max_shards=4))
        from .test_core_system import (GREATHOMES_LISTINGS,
                                       GREATHOMES_SCHEMA)
        system.workers = workers
        try:
            result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS)
        finally:
            system.workers = 1
        self._assert_identical(result, serial_result)


class TestProcessBackendEquivalence:
    """The process backend is byte-identical to serial: mappings, tag
    score rows, quality records, and trace span structure at any
    ``--workers``.  Worker processes score shards against shared-memory
    model views, so any drift here would mean the exported arrays (or
    the span/quality plumbing back across the pipe) are unfaithful."""

    @pytest.fixture(scope="class")
    def system(self):
        from .test_core_system import trained_system
        return trained_system()

    @staticmethod
    def _run(system, workers, backend):
        from repro.observability import Observer
        from .test_core_system import (GREATHOMES_LISTINGS,
                                       GREATHOMES_SCHEMA)
        observer = Observer.full()
        system.workers = workers
        system.backend = backend
        try:
            result = system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                                  observer=observer)
        finally:
            system.workers = 1
            system.backend = "process"
            system.close_pool()
        return result, observer

    @staticmethod
    def _assert_identical(run, reference):
        result, observer = run
        ref_result, ref_observer = reference
        assert set(result.tag_scores) == set(ref_result.tag_scores)
        for tag, scores in ref_result.tag_scores.items():
            assert np.array_equal(result.tag_scores[tag], scores), \
                f"tag_scores diverged on {tag!r}"
        assert dict(result.mapping.items()) == \
            dict(ref_result.mapping.items())
        assert [record.as_dict() for record in result.quality] == \
            [record.as_dict() for record in ref_result.quality]
        assert [(span.span_id, span.parent_id)
                for span in observer.trace.spans] == \
            [(span.span_id, span.parent_id)
             for span in ref_observer.trace.spans]

    @pytest.mark.parametrize(
        "workers,max_expansions",
        [(1, 100_000), (4, 100_000), (4, 3)],
        ids=["1", "4", "4-budget3"])
    def test_process_matches_serial(self, system, workers,
                                    max_expansions):
        """Also with a node budget so small that the constraint search
        stops early and returns its best-so-far mapping: the search is
        serial on either backend, so it stops at the same node."""
        from repro.constraints import ConstraintHandler
        handler = system.handler
        system.handler = ConstraintHandler(handler.constraints,
                                           max_expansions=max_expansions)
        try:
            reference = self._run(system, workers=1, backend="serial")
            run = self._run(system, workers=workers, backend="process")
            assert system.handler.last_stats["anytime"] == \
                (max_expansions == 3)
        finally:
            system.handler = handler
        self._assert_identical(run, reference)

    def test_process_multi_shard_matches_serial(self, system, monkeypatch):
        """A forced multi-shard plan on the process backend — every
        (learner, shard) task crosses the pipe separately and the score
        blocks are reassembled parent-side — must be output-invisible.
        The serial reference runs under the same shard plan, since the
        per-shard spans (``learner.<name>.s<k>``) are part of the traced
        structure by design."""
        from repro.core import matching
        from repro.core.parallel import shard_bounds

        monkeypatch.setattr(
            matching, "shard_bounds",
            lambda n, **kwargs: shard_bounds(n, target=8, max_shards=4))
        reference = self._run(system, workers=1, backend="serial")
        run = self._run(system, workers=4, backend="process")
        self._assert_identical(run, reference)

    def test_no_segment_leak_after_runs(self, system):
        """``close_pool`` must release every shared-memory segment the
        pool exported (guaranteed ordering: this class's tests run the
        pool above; pytest executes methods in definition order)."""
        from repro.core.shared_arrays import segment_exists

        pool = getattr(system, "_procpool", None)
        if pool is not None:
            name = pool.segment_name
            system.close_pool()
            assert name is None or not segment_exists(name)
        assert getattr(system, "_procpool", None) is None


class TestStatisticsEmptyFit:
    """Regression: fitting on zero examples used to predict all-NaN
    rows (every centroid column masked to ``-inf``; the softmax shift
    then computed ``-inf - -inf``)."""

    def test_empty_fit_predicts_uniform(self):
        learner = StatisticsLearner()
        learner.fit([], [], SPACE)
        scores = learner.predict_scores(_query_batch())
        assert np.isfinite(scores).all()
        assert np.array_equal(scores,
                              np.full_like(scores, 1.0 / len(SPACE)))

    def test_empty_fit_empty_batch(self):
        learner = StatisticsLearner()
        learner.fit([], [], SPACE)
        assert learner.predict_scores([]).shape == (0, len(SPACE))


class TestConverterNaNGuard:
    """Regression: ``total <= 0.0`` is False for NaN, so a non-finite
    instance row used to sail through normalisation into ``tag_scores``."""

    @pytest.mark.parametrize("strategy", ["mean", "median", "max"])
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_fall_back_to_uniform(self, strategy, poison):
        converter = PredictionConverter(strategy)
        matrix = np.full((3, 4), 0.25)
        matrix[1, 2] = poison
        row = converter.convert(matrix)
        assert np.array_equal(row, np.full(4, 0.25))

    @pytest.mark.parametrize("strategy", ["mean", "median", "max"])
    def test_poisoned_slice_stays_contained(self, strategy):
        """The NaN fallback is per tag: a poisoned column goes uniform
        while its healthy neighbours keep their exact scores."""
        converter = PredictionConverter(strategy)
        matrix = np.vstack([np.full((2, 4), 0.25),
                            [[np.nan, 0.5, 0.25, 0.25]],
                            [[0.7, 0.1, 0.1, 0.1]]])
        grouped = converter.convert_slices(
            matrix, {"ok": slice(0, 2), "bad": slice(2, 3),
                     "tail": slice(3, 4)})
        assert np.array_equal(grouped["bad"], np.full(4, 0.25))
        assert np.array_equal(grouped["ok"], np.full(4, 0.25))
        assert np.array_equal(grouped["tail"],
                              converter.convert(matrix[3:4]))

    def test_zero_total_falls_back_to_uniform(self):
        row = PredictionConverter("mean").convert(np.zeros((3, 4)))
        assert np.array_equal(row, np.full(4, 0.25))


class TestMetaZeroWeightRows:
    """Regression: clipping an all-negative ridge solution left a label
    with zero weight everywhere — no learner could vote for it, and on
    the quarantined path the renormalisation divided mass into nothing."""

    @staticmethod
    def _space():
        return LabelSpace(["A", "B"])

    def test_fit_clip_fallback_is_uniform(self):
        """Both learners score label A only when the truth is B, so the
        unregularised least-squares weight for A clips to zero; the fit
        must fall back to uniform averaging instead."""
        space = self._space()
        labels = ["B", "B", "B", "B"]
        cv = {
            "one": np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1],
                             [0.5, 0.4, 0.1], [0.3, 0.6, 0.1]]),
            "two": np.array([[0.2, 0.7, 0.1], [0.8, 0.1, 0.1],
                             [0.4, 0.5, 0.1], [0.6, 0.3, 0.1]]),
        }
        meta = StackingMetaLearner(regularization=0.0)
        meta.fit(cv, labels, space)
        row = meta.weights[space.index_of("A")]
        assert np.array_equal(row, np.full(2, 0.5))
        combined = meta.combine(
            {"one": np.array([[1.0, 0.0, 0.0]]),
             "two": np.array([[1.0, 0.0, 0.0]])})
        assert combined[0, space.index_of("A")] > 0.0

    def test_quarantine_renormalization_dead_row(self):
        """A label whose surviving weights are all zero gets uniform
        weighting over the survivors, not a dead column."""
        space = self._space()
        meta = StackingMetaLearner()
        meta.fit_uniform(["one", "two"], space)
        meta.weights = np.array([[1.0, 0.0],   # A: only learner one
                                 [0.5, 0.5],   # B
                                 [0.5, 0.5]])  # OTHER
        scores = np.array([[0.6, 0.3, 0.1]])
        combined = meta.combine({"two": scores}, missing_ok=True)
        assert np.isfinite(combined).all()
        # Label A's row fell back to the survivor with full mass, so
        # the combined matrix is learner two's scores, renormalised.
        assert np.array_equal(
            combined, scores / scores.sum(axis=1, keepdims=True))

    def test_healthy_path_ignores_missing_ok(self):
        """With every learner present, ``missing_ok=True`` must not
        perturb a bit (the renormalisation short-circuits)."""
        space = self._space()
        meta = StackingMetaLearner()
        meta.fit_uniform(["one", "two"], space)
        meta.weights = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        scores = {
            "one": np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]),
            "two": np.array([[0.3, 0.3, 0.4], [0.25, 0.5, 0.25]]),
        }
        assert np.array_equal(meta.combine(scores),
                              meta.combine(scores, missing_ok=True))

    def test_combine_batch_matches_per_row(self):
        """The einsum combination is row-wise: combining a matrix equals
        stacking single-row combinations bitwise."""
        space = self._space()
        meta = StackingMetaLearner()
        meta.fit_uniform(["one", "two"], space)
        meta.weights = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        rng = np.random.default_rng(3)
        one, two = rng.random((2, 6, 3))
        batched = meta.combine({"one": one, "two": two})
        reference = np.vstack([
            meta.combine({"one": one[i:i + 1], "two": two[i:i + 1]})
            for i in range(6)])
        assert np.array_equal(batched, reference)
