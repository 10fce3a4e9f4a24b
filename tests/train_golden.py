"""Golden training fixture: what a small seeded training run fits.

``tests/data/train_golden.json`` records, for a small training run on
each of the four domains, sha256 digests of:

* every default learner's fitted state — the Naive Bayes and XML
  learners' vocabulary items (in column order), ``_log_prior`` and
  ``_log_likelihood`` bytes; the name and content matchers' WHIRL
  vocabulary items, ``idf`` and TF-IDF ``matrix`` bytes;
* the out-of-fold score matrix of every learner, as
  :func:`~repro.learners.meta.cross_validate_many` returned it;
* the stacking meta-learner's weights;
* a content matcher capped at :data:`CAPPED_EXAMPLES` examples per
  label, fitted on the same training stream, so the cap is exercised.

``tests/test_train_golden.py`` retrains and demands the same digests,
so a change to how the learners fit (grouping, counting, vocabulary
order) cannot change one bit of a fitted model without failing.

Regenerate the fixture only when a change of output is intended::

    PYTHONPATH=src python -m tests.train_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core import training
from repro.core.training import build_training_set
from repro.datasets import DOMAIN_NAMES, load_domain
from repro.evaluation import SystemConfig, build_system
from repro.learners import ContentMatcher, NaiveBayesLearner, NameMatcher

FIXTURE = Path(__file__).parent / "data" / "train_golden.json"

#: Listings per training source (the first three sources of a domain).
TRAIN_LISTINGS = 10
TRAIN_SOURCES = 3
SAMPLE_SEED = 0
#: ``max_examples_per_label`` of the extra, capped content matcher.
CAPPED_EXAMPLES = 7


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _array_digest(array: np.ndarray) -> str:
    array = np.asarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return _digest(header + np.ascontiguousarray(array).tobytes())


def _items_digest(vocabulary: dict[str, int]) -> str:
    return _digest(json.dumps(list(vocabulary.items())).encode())


def learner_state(learner) -> dict[str, str] | None:
    """Digests of one learner's fitted state; ``None`` for learners the
    fixture does not pin (recognizers carry no fitted counts)."""
    if isinstance(learner, NaiveBayesLearner):  # XMLLearner included
        return {"vocabulary": _items_digest(learner.vocabulary),
                "log_prior": _array_digest(learner._log_prior),
                "log_likelihood": _array_digest(learner._log_likelihood)}
    if isinstance(learner, (NameMatcher, ContentMatcher)):
        space = learner._index._space
        return {"vocabulary": _items_digest(space.vocabulary),
                "idf": _array_digest(space.idf),
                "matrix_data": _array_digest(space.matrix.data),
                "matrix_indices": _array_digest(space.matrix.indices),
                "matrix_indptr": _array_digest(space.matrix.indptr),
                "labels": _array_digest(learner._index._label_matrix)}
    return None


def train_domain(name: str) -> dict:
    """Train the complete system on a small sample of ``name`` and
    digest what it fitted."""
    domain = load_domain(name)
    system = build_system(domain, SystemConfig("complete"))
    for source in domain.sources[:TRAIN_SOURCES]:
        system.add_training_source(
            source.schema,
            source.listings(TRAIN_LISTINGS, sample_seed=SAMPLE_SEED),
            source.mapping)

    captured: list[list[np.ndarray]] = []
    cross_validate_many = training.cross_validate_many

    def capture(*args, **kwargs):
        matrices = cross_validate_many(*args, **kwargs)
        captured.append(matrices)
        return matrices

    training.cross_validate_many = capture
    try:
        system.train()
    finally:
        training.cross_validate_many = cross_validate_many
    assert len(captured) == 1, "one training run cross-validates once"

    learners = {}
    for learner in system.active_learners:
        state = learner_state(learner)
        if state is not None:
            learners[learner.name] = state
    cv = {learner.name: _array_digest(matrix)
          for learner, matrix in zip(system.active_learners, captured[0])}
    instances, labels = build_training_set(
        system.training_sources, system.space,
        system.max_instances_per_tag)
    capped = ContentMatcher(max_examples_per_label=CAPPED_EXAMPLES)
    capped.fit(instances, labels, system.space)
    learners["content_matcher_capped"] = learner_state(capped)
    return {"domain": name, "learners": learners, "cv": cv,
            "meta_weights": _array_digest(system.meta.weights)}


def build_fixture() -> dict:
    return {"train_listings": TRAIN_LISTINGS,
            "domains": [train_domain(name) for name in DOMAIN_NAMES]}


def main() -> None:
    fixture = build_fixture()
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}: {len(fixture['domains'])} domains")


if __name__ == "__main__":
    main()
