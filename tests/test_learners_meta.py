"""Tests for cross-validation and the stacking meta-learner."""

import numpy as np
import pytest

from repro.learners import (NaiveBayesLearner, NameMatcher,
                            StackingMetaLearner, cross_validate)

from .helpers import make_instance, space_of, training_set

SPACE = space_of("ADDRESS", "DESCRIPTION")

TRAINING = [
    (make_instance("location", "Miami, FL"), "ADDRESS"),
    (make_instance("location", "Boston, MA"), "ADDRESS"),
    (make_instance("location", "Austin, TX"), "ADDRESS"),
    (make_instance("addr", "Denver, CO"), "ADDRESS"),
    (make_instance("addr", "Salem, OR"), "ADDRESS"),
    (make_instance("comments", "great house"), "DESCRIPTION"),
    (make_instance("comments", "fantastic yard"), "DESCRIPTION"),
    (make_instance("comments", "close to river"), "DESCRIPTION"),
    (make_instance("desc", "beautiful view"), "DESCRIPTION"),
    (make_instance("desc", "great location"), "DESCRIPTION"),
]


class TestCrossValidate:
    def test_shape_and_normalisation(self):
        instances, labels = training_set(TRAINING)
        scores = cross_validate(NaiveBayesLearner(), instances, labels,
                                SPACE, folds=5, seed=0)
        assert scores.shape == (len(instances), len(SPACE))
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_no_in_sample_bias(self):
        """CV scores must differ from in-sample scores: each example is
        predicted by a model that never saw it."""
        instances, labels = training_set(TRAINING)
        learner = NaiveBayesLearner()
        cv = cross_validate(learner, instances, labels, SPACE, folds=5,
                            seed=0)
        learner.fit(instances, labels, SPACE)
        in_sample = learner.predict_scores(instances)
        assert not np.allclose(cv, in_sample)
        # In-sample predictions should look better on average.
        truth_cols = [SPACE.index_of(l) for l in labels]
        rows = np.arange(len(labels))
        assert in_sample[rows, truth_cols].mean() >= \
            cv[rows, truth_cols].mean()

    def test_deterministic_given_seed(self):
        instances, labels = training_set(TRAINING)
        a = cross_validate(NaiveBayesLearner(), instances, labels, SPACE,
                           seed=7)
        b = cross_validate(NaiveBayesLearner(), instances, labels, SPACE,
                           seed=7)
        assert a.tobytes() == b.tobytes()

    def test_handles_fewer_examples_than_folds(self):
        instances, labels = training_set(TRAINING[:3])
        scores = cross_validate(NaiveBayesLearner(), instances, labels,
                                SPACE, folds=5)
        assert scores.shape == (3, len(SPACE))

    def test_empty_input(self):
        scores = cross_validate(NaiveBayesLearner(), [], [], SPACE)
        assert scores.shape == (0, len(SPACE))

    def test_single_example_gets_uniform_scores(self):
        """Regression: with n=1 the old code still ran 2 folds, handing
        WHIRL an empty training split and crashing the training phase.
        A single example cannot be held out of its own training set, so
        it gets uniform scores instead."""
        instances, labels = training_set(TRAINING[:1])
        scores = cross_validate(NameMatcher(), instances, labels, SPACE,
                                folds=5)
        assert scores.shape == (1, len(SPACE))
        assert np.allclose(scores, 1.0 / len(SPACE))

    def test_two_examples_cap_folds_without_empty_splits(self):
        """n=2 with folds=5 must cap to 2 folds (train on one, predict
        the other) rather than produce empty splits."""
        instances, labels = training_set(TRAINING[:2])
        scores = cross_validate(NameMatcher(), instances, labels, SPACE,
                                folds=5)
        assert scores.shape == (2, len(SPACE))
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_untrainable_fold_falls_back_to_uniform(self):
        """A clone that cannot fit on some split (here: WHIRL on empty
        token lists) yields uniform scores for that fold instead of
        aborting cross-validation."""
        instances, labels = training_set([
            (make_instance("a", ""), "ADDRESS"),
            (make_instance("b", ""), "DESCRIPTION"),
        ])
        scores = cross_validate(NaiveBayesLearner(), instances, labels,
                                SPACE, folds=2)
        assert scores.shape == (2, len(SPACE))
        assert np.all(np.isfinite(scores))

    def test_parallel_executor_matches_serial(self):
        from repro.core.parallel import ParallelExecutor
        instances, labels = training_set(TRAINING)
        serial = cross_validate(NaiveBayesLearner(), instances, labels,
                                SPACE, folds=5, seed=0)
        parallel = cross_validate(NaiveBayesLearner(), instances, labels,
                                  SPACE, folds=5, seed=0,
                                  executor=ParallelExecutor(4))
        assert np.array_equal(serial, parallel)


class TestStackingMetaLearner:
    def _cv_scores(self):
        instances, labels = training_set(TRAINING)
        return {
            "name_matcher": cross_validate(
                NameMatcher(), instances, labels, SPACE, seed=0),
            "naive_bayes": cross_validate(
                NaiveBayesLearner(), instances, labels, SPACE, seed=0),
        }, labels

    def test_fit_produces_weights(self):
        cv_scores, labels = self._cv_scores()
        meta = StackingMetaLearner()
        meta.fit(cv_scores, labels, SPACE)
        assert meta.weights.shape == (len(SPACE), 2)

    def test_good_learner_gets_higher_weight(self):
        """A learner that predicts the truth perfectly must outweigh one
        that outputs noise."""
        rng = np.random.default_rng(0)
        labels = ["ADDRESS"] * 20 + ["DESCRIPTION"] * 20
        perfect = np.zeros((40, len(SPACE)))
        for i, label in enumerate(labels):
            perfect[i, SPACE.index_of(label)] = 1.0
        noise = rng.dirichlet(np.ones(len(SPACE)), size=40)
        meta = StackingMetaLearner()
        meta.fit({"perfect": perfect, "noise": noise}, labels, SPACE)
        for label in ("ADDRESS", "DESCRIPTION"):
            assert meta.weight_of(label, "perfect") > \
                meta.weight_of(label, "noise")

    def test_weights_can_differ_per_label(self):
        """Figure 5(i): weights are per-(label, learner), reflecting that
        different learners excel on different labels."""
        rng = np.random.default_rng(3)
        labels = ["ADDRESS"] * 30 + ["DESCRIPTION"] * 30
        # Each "expert" scores its own label correctly (high on its rows,
        # low elsewhere) and emits pure noise in its other columns, so one
        # learner's expertise cannot leak into the other label by
        # exclusion.
        a_expert = rng.dirichlet(np.ones(len(SPACE)), size=60)
        d_expert = rng.dirichlet(np.ones(len(SPACE)), size=60)
        a_col = SPACE.index_of("ADDRESS")
        d_col = SPACE.index_of("DESCRIPTION")
        for i, label in enumerate(labels):
            a_expert[i, a_col] = 0.9 if label == "ADDRESS" else 0.05
            d_expert[i, d_col] = 0.9 if label == "DESCRIPTION" else 0.05
        meta = StackingMetaLearner()
        meta.fit({"a": a_expert, "d": d_expert}, labels, SPACE)
        assert meta.weight_of("ADDRESS", "a") > meta.weight_of("ADDRESS",
                                                               "d")
        assert meta.weight_of("DESCRIPTION", "d") > \
            meta.weight_of("DESCRIPTION", "a")

    def test_combine_normalises(self):
        cv_scores, labels = self._cv_scores()
        meta = StackingMetaLearner()
        meta.fit(cv_scores, labels, SPACE)
        combined = meta.combine(cv_scores)
        assert combined.shape == cv_scores["naive_bayes"].shape
        assert np.allclose(combined.sum(axis=1), 1.0)
        assert np.all(combined >= 0)

    def test_combine_improves_over_noise_learner(self):
        rng = np.random.default_rng(1)
        labels = (["ADDRESS"] * 25) + (["DESCRIPTION"] * 25)
        truth_cols = np.array([SPACE.index_of(l) for l in labels])
        good = np.full((50, len(SPACE)), 0.1)
        good[np.arange(50), truth_cols] = 0.8
        noise = rng.dirichlet(np.ones(len(SPACE)), size=50)
        meta = StackingMetaLearner()
        meta.fit({"good": good, "noise": noise}, labels, SPACE)
        combined = meta.combine({"good": good, "noise": noise})
        predicted = combined.argmax(axis=1)
        accuracy = (predicted == truth_cols).mean()
        noise_accuracy = (noise.argmax(axis=1) == truth_cols).mean()
        assert accuracy > noise_accuracy
        assert accuracy >= 0.9

    def test_uniform_fallback(self):
        meta = StackingMetaLearner()
        meta.fit_uniform(["a", "b"], SPACE)
        scores = {"a": np.array([[0.7, 0.2, 0.1]]),
                  "b": np.array([[0.1, 0.8, 0.1]])}
        combined = meta.combine(scores)
        assert np.allclose(combined, [[0.4, 0.5, 0.1]])

    def test_combine_missing_learner_raises(self):
        meta = StackingMetaLearner()
        meta.fit_uniform(["a", "b"], SPACE)
        with pytest.raises(ValueError):
            meta.combine({"a": np.ones((1, len(SPACE)))})

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StackingMetaLearner().combine({})

    def test_weight_table(self):
        meta = StackingMetaLearner()
        meta.fit_uniform(["a", "b"], SPACE)
        table = meta.weight_table()
        assert table["ADDRESS"]["a"] == pytest.approx(0.5)

    def test_empty_learner_dict_raises(self):
        with pytest.raises(ValueError):
            StackingMetaLearner().fit({}, [], SPACE)
