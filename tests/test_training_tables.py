"""One example table per builder per training run, released with it.

``LSDSystem.train`` builds each grouping learner's
:class:`~repro.learners.batching.ExampleTable` once: Naive Bayes and the
content matcher share the text table, and the name matcher and the XML
learner have one each. The full fit and every cross-validation fold read
those objects, and none of them outlives ``train()``.
"""

from __future__ import annotations

import gc
import weakref

from repro.datasets import load_domain
from repro.evaluation import SystemConfig, build_system
from repro.learners import NameMatcher, XMLLearner
from repro.learners.batching import ExampleTable, Fold, content_table

FOLDS = 5


def untrained_system():
    domain = load_domain("time_schedule")
    system = build_system(domain, SystemConfig("complete"))
    for source in domain.sources[:3]:
        system.add_training_source(
            source.schema, source.listings(10, sample_seed=0),
            source.mapping)
    return system


def test_each_builder_builds_once_and_every_fit_reads_it(monkeypatch):
    built: list[ExampleTable] = []
    reads: list[tuple[int, object]] = []
    build_table = ExampleTable.__init__
    make_fold = Fold.__init__

    def counting(self, *args, **kwargs):
        build_table(self, *args, **kwargs)
        built.append(self)

    def recording(self, instances, positions, build):
        make_fold(self, instances, positions, build)
        reads.append((len(positions), build))

    monkeypatch.setattr(ExampleTable, "__init__", counting)
    monkeypatch.setattr(Fold, "__init__", recording)
    system = untrained_system()
    system.train()

    assert len(built) == 3
    builds = {build for _, build in reads}
    builders = {build.__wrapped__.func for build in builds}
    name_matcher, xml_learner = (
        next(learner for learner in system.learners if type(learner) is kind)
        for kind in (NameMatcher, XMLLearner))
    assert builders == {content_table, name_matcher.example_table,
                        xml_learner.example_table}
    assert {id(build()) for build in builds} == {id(table)
                                                 for table in built}
    # Per grouping learner (name matcher, content matcher, Naive Bayes,
    # XML learner): one full fit, then a fit and a held-out fold per
    # cross-validation fold.
    n = len(built[0].example_of)
    assert sum(1 for size, _ in reads if size == n) == 4
    assert len(reads) == 4 * (1 + 2 * FOLDS)


def test_no_table_outlives_train(monkeypatch):
    alive: list[weakref.ref] = []
    build_table = ExampleTable.__init__

    def tracking(self, *args, **kwargs):
        build_table(self, *args, **kwargs)
        alive.append(weakref.ref(self))

    monkeypatch.setattr(ExampleTable, "__init__", tracking)
    system = untrained_system()
    gc.disable()
    try:
        system.train()
        assert len(alive) == 3
        # Dropped by reference counting alone, without a collection.
        assert [ref() for ref in alive] == [None, None, None]
    finally:
        gc.enable()
    assert system.is_trained
