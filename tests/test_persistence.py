"""Tests for saving and loading trained LSD systems."""

import gzip
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TrainingSource, training
from repro.core.persistence import (FORMAT_VERSION, ModelFormatError,
                                    load_system, save_system)
from repro.datasets import DOMAIN_NAMES, load_domain
from repro.evaluation import SystemConfig, build_system
from repro.learners import ContentMatcher, NameMatcher
from repro.resilience.faults import CORRUPTION_STYLES, corrupt_text
from repro.xmlio.recovery import read_fragments

from .test_xmlio_recovery import written_listings
from .test_xmlio_writer import elements, trees_equal


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    domain = load_domain("real_estate_1", seed=0)
    system = build_system(domain, SystemConfig("complete"),
                          max_instances_per_tag=20)
    for source in domain.sources[:3]:
        system.add_training_source(source.schema, source.listings(20),
                                   source.mapping)
    system.train()
    return domain, system


class TestRoundTrip:
    def test_save_and_load(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path)
        loaded = load_system(path)
        assert loaded.is_trained
        assert loaded.learner_names() == system.learner_names()

    def test_loaded_system_matches_identically(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path)
        loaded = load_system(path)

        test = domain.sources[4]
        listings = test.listings(20)
        original = system.match(test.schema, listings)
        reloaded = loaded.match(test.schema, listings)
        assert original.mapping == reloaded.mapping

    def test_loaded_system_can_keep_learning(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path)
        loaded = load_system(path)
        fourth = domain.sources[3]
        loaded.confirm_and_learn(fourth.schema, fourth.listings(15),
                                 fourth.mapping)
        assert len(loaded.training_sources) == 4

    def test_weight_tables_survive(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path)
        loaded = load_system(path)
        assert loaded.weight_table() == system.weight_table()


def assert_round_trips(listings):
    """A pickle round trip of a training source gives back its
    listings."""
    mapped = load_domain("real_estate_1").sources[0]
    source = TrainingSource(mapped.schema, listings, mapped.mapping)
    back = pickle.loads(pickle.dumps(source)).listings
    assert len(back) == len(listings)
    assert all(map(trees_equal, back, listings))


def train_on(domain, sources):
    system = build_system(domain, SystemConfig("complete"),
                          max_instances_per_tag=20)
    for source in sources:
        system.add_training_source(source.schema, source.listings(20),
                                   source.mapping)
    system.train()
    return system


class TestListingsAsText:
    """A saved training source holds its listings as XML text, parsed
    back only when read, into the trees it was given."""

    @pytest.mark.parametrize("name", DOMAIN_NAMES)
    def test_every_source_round_trips(self, name):
        for source in load_domain(name, seed=0).sources:
            assert_round_trips(source.listings(60))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(DOMAIN_NAMES), st.integers(0, 9),
           st.sampled_from(CORRUPTION_STYLES), st.integers(0, 2 ** 16))
    def test_leniently_repaired_listings_round_trip(self, domain, first,
                                                    style, seed):
        listings = written_listings(domain)[first:first + 3]
        damaged = corrupt_text(listings[0], style, random.Random(seed))
        roots, _ = read_fragments("\n".join([damaged, *listings[1:]]),
                                  "lenient")
        assert_round_trips(roots)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(elements(), min_size=1, max_size=4))
    def test_whitespace_cr_and_non_ascii_text_round_trip(self, trees):
        assert_round_trips(trees)

    def test_no_listings_round_trip(self):
        assert_round_trips([])

    def test_load_and_match_parse_no_listing(self, trained, tmp_path,
                                             monkeypatch):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path)
        parses = []
        real_parse = training.parse_fragments
        monkeypatch.setattr(training, "parse_fragments",
                            lambda *args, **kwargs: parses.append(1)
                            or real_parse(*args, **kwargs))
        loaded = load_system(path)
        test = domain.sources[4]
        loaded.match(test.schema, test.listings(20))
        save_system(loaded, tmp_path / "again.lsd")
        assert parses == []
        assert len(loaded.training_sources[0].listings) == 20
        assert parses == [1]

    def test_retraining_after_load_is_identical(self, tmp_path):
        """``confirm_and_learn`` on a loaded model gives the meta
        weights, mapping and scores of a model that was never saved."""
        domain = load_domain("real_estate_1", seed=0)
        fresh = train_on(domain, domain.sources[:3])
        path = tmp_path / "model.lsd"
        save_system(train_on(domain, domain.sources[:3]), path)
        loaded = load_system(path)
        fourth, test = domain.sources[3], domain.sources[4]
        for system in (fresh, loaded):
            system.confirm_and_learn(fourth.schema, fourth.listings(20),
                                     fourth.mapping)
        assert pickle.dumps(loaded.meta) == pickle.dumps(fresh.meta)
        listings = test.listings(20)
        reference = fresh.match(test.schema, listings)
        result = loaded.match(test.schema, listings)
        assert dict(result.mapping.items()) == \
            dict(reference.mapping.items())
        assert set(result.tag_scores) == set(reference.tag_scores)
        for tag, scores in reference.tag_scores.items():
            assert np.array_equal(result.tag_scores[tag], scores), tag


#: A version-2 model file written before the vector spaces kept their
#: postings: :func:`train_matchers` saved by commit 088d39e under
#: ``PYTHONHASHSEED=0``, gzipped.
OLD_MODEL = Path(__file__).parent / "data" / "model_v2_matchers.lsd.gz"


def train_matchers():
    """The small name-and-content-matcher system ``OLD_MODEL`` holds."""
    domain = load_domain("real_estate_1", seed=0)
    system = build_system(
        domain, SystemConfig("matchers",
                             learners=("name_matcher", "content_matcher"),
                             use_xml=False),
        max_instances_per_tag=10)
    for source in domain.sources[:3]:
        system.add_training_source(
            source.schema, source.listings(3, sample_seed=0),
            source.mapping)
    system.train()
    return domain, system


def vector_spaces(system):
    return [learner._index._space for learner in system.learners
            if isinstance(learner, (NameMatcher, ContentMatcher))]


class TestVectorSpacePostings:
    """A vector space keeps its postings (the transposed stored matrix)
    in memory only: rebuilt on load, never written to a model file."""

    def assert_postings(self, space):
        expected = space.matrix.T.tocsr()
        for name in ("indptr", "indices", "data"):
            array = getattr(space.postings, name)
            assert array.tobytes() == getattr(expected, name).tobytes()
            assert array.dtype == getattr(expected, name).dtype
            assert not array.flags.writeable

    def test_fitted_and_loaded_spaces_hold_postings(self, trained,
                                                    tmp_path):
        _, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path)
        loaded = load_system(path)
        spaces = vector_spaces(system)
        assert len(spaces) == 2
        for space in spaces + vector_spaces(loaded):
            self.assert_postings(space)
            assert "postings" not in space.__getstate__()

    def test_model_file_from_before_the_postings_loads_and_matches(
            self, tmp_path):
        path = tmp_path / "old.lsd"
        path.write_bytes(gzip.decompress(OLD_MODEL.read_bytes()))
        old = load_system(path)
        domain, fresh = train_matchers()
        for space in vector_spaces(old):
            self.assert_postings(space)
        test = domain.sources[4]
        listings = test.listings(10, sample_seed=0)
        expected = fresh.match(test.schema, listings)
        result = old.match(test.schema, listings)
        assert result.mapping == expected.mapping
        assert sorted(result.tag_scores) == sorted(expected.tag_scores)
        for tag, scores in expected.tag_scores.items():
            assert result.tag_scores[tag].tobytes() == scores.tobytes()


class TestRunSettings:
    """``workers`` and ``backend`` belong to each run, never to the
    model file."""

    def test_saved_state_drops_run_settings(self, trained):
        _, system = trained
        state = system.__getstate__()
        assert "workers" not in state
        assert "backend" not in state


class TestFormatGuards:
    def test_not_a_pickle(self, tmp_path):
        path = tmp_path / "junk.lsd"
        path.write_text("this is not a model")
        with pytest.raises(ModelFormatError):
            load_system(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "other.pkl"
        with path.open("wb") as handle:
            pickle.dump({"magic": "something-else"}, handle)
        with pytest.raises(ModelFormatError):
            load_system(path)

    @pytest.mark.parametrize("version", [FORMAT_VERSION + 1, 99])
    def test_wrong_version(self, trained, tmp_path, version):
        domain, system = trained
        path = tmp_path / "future.lsd"
        with path.open("wb") as handle:
            pickle.dump({"magic": "repro-lsd", "version": version,
                         "system": system}, handle)
        with pytest.raises(ModelFormatError,
                           match=f"format version {version}, this library "
                                 f"reads version {FORMAT_VERSION}"):
            load_system(path)

    def test_version_1_file_is_refused(self, trained, tmp_path,
                                       monkeypatch):
        """A version-1 file pickled its training listings as ``Element``
        trees; loading one refuses it instead of half-reading it."""
        _, system = trained

        def version_1_state(self):
            return {"schema": self.schema, "listings": self.listings,
                    "mapping": self.mapping}

        path = tmp_path / "v1.lsd"
        with monkeypatch.context() as patch:
            patch.setattr(TrainingSource, "__getstate__", version_1_state)
            with path.open("wb") as handle:
                pickle.dump({"magic": "repro-lsd", "version": 1,
                             "system": system}, handle)
        with pytest.raises(ModelFormatError,
                           match="format version 1, this library reads "
                                 "version 2"):
            load_system(path)

    def test_wrong_payload_type(self, tmp_path):
        path = tmp_path / "odd.lsd"
        with path.open("wb") as handle:
            pickle.dump({"magic": "repro-lsd",
                         "version": FORMAT_VERSION,
                         "system": "not a system"}, handle)
        with pytest.raises(ModelFormatError):
            load_system(path)

    def test_truncated_file(self, trained, tmp_path):
        domain, system = trained
        whole = tmp_path / "whole.lsd"
        save_system(system, whole)
        path = tmp_path / "cut.lsd"
        path.write_bytes(whole.read_bytes()[:100])
        with pytest.raises(ModelFormatError):
            load_system(path)

    def test_non_format_errors_propagate(self, tmp_path):
        """Only documented unpickling failures become ModelFormatError;
        an error raised by a class's own __setstate__ is a bug in that
        class and must surface as itself, not as a corrupt-file
        report."""
        path = tmp_path / "explosive.lsd"
        with path.open("wb") as handle:
            pickle.dump({"magic": "repro-lsd",
                         "version": FORMAT_VERSION,
                         "system": _Explosive()}, handle)
        with pytest.raises(RuntimeError, match="__setstate__ bug") \
                as excinfo:
            load_system(path)
        # ModelFormatError subclasses RuntimeError, so pin the exact
        # type: the error must arrive unwrapped.
        assert type(excinfo.value) is RuntimeError


class _Explosive:
    """Pickles fine; detonates a non-format error while unpickling."""

    def __getstate__(self):
        return {"armed": True}

    def __setstate__(self, state):
        raise RuntimeError("__setstate__ bug")
