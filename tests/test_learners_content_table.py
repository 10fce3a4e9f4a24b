"""The content matcher's table path against the per-instance fit it
replaced.

:class:`tests.content_reference.ReferenceContentMatcher` fits by walking
its instances and scores from token lists. The content matcher fits
from the shared example table (document ids, a rank-based per-label cap,
a TF-IDF space built from token ids) and scores held-out folds from the
same ids. Both must give the same fitted bits and the same score bytes:
on the first three sources of every domain, with the memo on and off,
on every cross-validation fold, with the cap hit, on texts that tokenize
equal, on empty documents, and on folds that cannot be fitted.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import featurize
from repro.core.instance import extract_columns
from repro.core.training import build_training_set
from repro.datasets import DOMAIN_NAMES, load_domain
from repro.evaluation import SystemConfig, build_system
from repro.learners import ContentMatcher, cross_validate
from repro.learners.batching import StreamTables, content_table
from repro.learners.meta import _fold_splits

from .content_reference import ReferenceContentMatcher
from .helpers import make_instance, space_of

LISTINGS = 40
SOURCES = 3
FOLDS = 5
SEED = 0
MEMO = pytest.mark.parametrize("memo", [True, False],
                               ids=["memo", "no-memo"])


def fitted_state(learner) -> tuple:
    index = learner._index
    space = index._space
    return (list(space.vocabulary.items()), space.idf.tobytes(),
            space.matrix.shape, space.matrix.data.tobytes(),
            space.matrix.indices.tobytes(), space.matrix.indptr.tobytes(),
            index._label_matrix.tobytes())


def memo_context(memo: bool):
    return nullcontext() if memo else featurize.cache_disabled()


def check_folds(instances, labels, space, cap):
    """Every fold: the clone fitted on a fold of the shared table has the
    reference clone's state, and scores the held-out fold's bytes."""
    tables = StreamTables(instances, labels, space)
    n = len(instances)
    for held_out in _fold_splits(n, FOLDS, SEED):
        train_idx = np.setdiff1d(np.arange(n), held_out)
        learner = ContentMatcher(max_examples_per_label=cap)
        learner.fit(tables.fold(content_table, train_idx),
                    [labels[i] for i in train_idx], space)
        reference = ReferenceContentMatcher(max_examples_per_label=cap)
        reference.fit([instances[i] for i in train_idx],
                      [labels[i] for i in train_idx], space)
        assert fitted_state(learner) == fitted_state(reference)
        scores = learner.predict_scores(tables.fold(content_table,
                                                    held_out))
        expected = reference.predict_scores(
            [instances[i] for i in held_out])
        assert scores.tobytes() == expected.tobytes()


@pytest.fixture(scope="module", params=DOMAIN_NAMES)
def domain_stream(request):
    domain = load_domain(request.param)
    system = build_system(domain, SystemConfig("complete"))
    for source in domain.sources[:SOURCES]:
        system.add_training_source(
            source.schema, source.listings(LISTINGS, sample_seed=0),
            source.mapping)
    instances, labels = build_training_set(
        system.training_sources, system.space,
        system.max_instances_per_tag)
    return domain, system.space, instances, labels


@MEMO
@pytest.mark.parametrize("cap", [400, 3])
def test_full_fit_is_the_reference_fit(domain_stream, memo, cap):
    domain, space, instances, labels = domain_stream
    with memo_context(memo):
        listed = ContentMatcher(max_examples_per_label=cap)
        listed.fit(instances, labels, space)
        shared = ContentMatcher(max_examples_per_label=cap)
        shared.fit(StreamTables(instances, labels, space).fold(
            content_table, np.arange(len(instances))), labels, space)
        reference = ReferenceContentMatcher(max_examples_per_label=cap)
        reference.fit(instances, labels, space)
        assert fitted_state(listed) == fitted_state(reference)
        assert fitted_state(shared) == fitted_state(reference)
        for source in domain.sources[:SOURCES]:
            queries = [instance for column in extract_columns(
                           source.schema,
                           source.listings(LISTINGS, sample_seed=1)
                       ).values() for instance in column.instances]
            assert listed.predict_scores(queries).tobytes() == \
                reference.predict_scores(queries).tobytes()


@MEMO
@pytest.mark.parametrize("cap", [400, 3])
def test_every_fold_is_the_reference_fold(domain_stream, memo, cap):
    _, space, instances, labels = domain_stream
    with memo_context(memo):
        check_folds(instances, labels, space, cap)


@MEMO
def test_cross_validation_is_the_reference(domain_stream, memo):
    _, space, instances, labels = domain_stream
    with memo_context(memo):
        scores = cross_validate(ContentMatcher(), instances, labels, space,
                                folds=FOLDS, seed=SEED)
        expected = np.zeros_like(scores)
        n = len(instances)
        for held_out in _fold_splits(n, FOLDS, SEED):
            train_idx = np.setdiff1d(np.arange(n), held_out)
            reference = ReferenceContentMatcher()
            reference.fit([instances[i] for i in train_idx],
                          [labels[i] for i in train_idx], space)
            expected[held_out] = reference.predict_scores(
                [instances[i] for i in held_out])
    assert scores.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# hand-made streams
# ---------------------------------------------------------------------------

SPACE = space_of("ADDRESS", "DESCRIPTION")


def hand_stream(texts_and_labels):
    instances = [make_instance("t", text) for text, _ in texts_and_labels]
    labels = [label for _, label in texts_and_labels]
    return instances, labels


@MEMO
def test_texts_that_tokenize_equal_are_one_document(memo):
    """Two distinct texts with one token sequence under one label are
    one stored document, as the reference's dedup by tokens has it."""
    pairs = [("Great houses", "DESCRIPTION"), ("great house", "DESCRIPTION"),
             ("Miami FL", "ADDRESS"), ("great house", "ADDRESS"),
             ("GREAT HOUSES!", "DESCRIPTION"), ("Kent WA", "ADDRESS"),
             ("nice view", "DESCRIPTION"), ("Miami FL", "ADDRESS")]
    instances, labels = hand_stream(pairs)
    with memo_context(memo):
        tokens = [featurize.content_tokens(i) for i in instances[:2]]
        assert tokens[0] == tokens[1]
        learner = ContentMatcher()
        learner.fit(instances, labels, SPACE)
        reference = ReferenceContentMatcher()
        reference.fit(instances, labels, SPACE)
        assert fitted_state(learner) == fitted_state(reference)
        # great-house DESCRIPTION, Miami, great-house ADDRESS, Kent, view
        assert learner._index._label_matrix.shape[0] == 5
        table = content_table(instances, labels, SPACE)
        assert len(set(table.document_ids().tolist())) \
            < len(table.documents)
        check_folds(instances, labels, SPACE, cap=400)


@MEMO
def test_empty_documents(memo):
    pairs = [("", "ADDRESS"), ("the of and", "DESCRIPTION"),
             ("Miami FL", "ADDRESS"), ("", "DESCRIPTION"),
             ("nice view", "DESCRIPTION"), ("a", "ADDRESS")]
    instances, labels = hand_stream(pairs)
    with memo_context(memo):
        learner = ContentMatcher()
        learner.fit(instances, labels, SPACE)
        reference = ReferenceContentMatcher()
        reference.fit(instances, labels, SPACE)
        assert fitted_state(learner) == fitted_state(reference)
        check_folds(instances, labels, SPACE, cap=400)
        # Nothing but empty documents: an empty vocabulary.
        empty, empty_labels = hand_stream([("", "ADDRESS"),
                                           ("the", "DESCRIPTION")])
        learner.fit(empty, empty_labels, SPACE)
        reference.fit(empty, empty_labels, SPACE)
        assert learner._index.vocabulary == {}
        assert fitted_state(learner) == fitted_state(reference)
        assert learner.predict_scores(instances).tobytes() == \
            reference.predict_scores(instances).tobytes()


def test_cap_keeps_the_first_positions_of_each_label():
    pairs = [(f"street {i}", "ADDRESS") for i in range(6)] \
        + [(f"view {i}", "DESCRIPTION") for i in range(2)] \
        + [(f"road {i}", "ADDRESS") for i in range(3)]
    instances, labels = hand_stream(pairs)
    learner = ContentMatcher(max_examples_per_label=3)
    learner.fit(instances, labels, SPACE)
    reference = ReferenceContentMatcher(max_examples_per_label=3)
    reference.fit(instances, labels, SPACE)
    assert fitted_state(learner) == fitted_state(reference)
    # Three ADDRESS and both DESCRIPTION rows; no "road" made the cut.
    assert learner._index._label_matrix.shape[0] == 5
    assert not any("road" in token for token in learner._index.vocabulary)


def test_unfittable_folds_score_uniformly(domain_stream):
    """A cap of zero leaves no document to fit in any fold, so every
    held-out row falls back to uniform scores, as the reference's do."""
    _, space, instances, labels = domain_stream
    scores = cross_validate(ContentMatcher(max_examples_per_label=0),
                            instances, labels, space, folds=FOLDS,
                            seed=SEED)
    expected = cross_validate(
        ReferenceContentMatcher(max_examples_per_label=0), instances,
        labels, space, folds=FOLDS, seed=SEED)
    assert scores.tobytes() == expected.tobytes()
    assert np.all(scores == 1.0 / len(space))
    with pytest.raises(ValueError):
        ContentMatcher().fit([], [], space)
