"""Tests for saving and loading trained LSD systems."""

import pickle

import numpy as np
import pytest

from repro.core import LSDSystem
from repro.core.persistence import (FORMAT_VERSION, ModelFormatError,
                                    load_system, save_system)
from repro.datasets import load_domain
from repro.evaluation import SystemConfig, build_system
from repro.observability import timers

from .helpers import LegacyStageProfile


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


class TestRunSettings:
    """``workers`` and ``backend`` belong to each run, never to the
    model file."""

    def test_saved_state_drops_run_settings(self, trained):
        _, system = trained
        state = system.__getstate__()
        assert "workers" not in state
        assert "backend" not in state

    def test_legacy_thread_backend_model_loads_and_matches_serial(
            self, trained, tmp_path, monkeypatch):
        """Model files written before the settings were dropped carry
        ``backend="thread"`` — a backend that no longer exists — and
        their worker count. Loading ignores both, and the loaded model
        matches byte-identically to the serial original."""
        domain, system = trained

        def legacy_getstate(self):
            state = dict(self.__dict__)
            state.update(policy=None, _procpool=None, backend="thread",
                         workers=4)
            return state

        path = tmp_path / "legacy.lsd"
        with monkeypatch.context() as patch:
            patch.setattr(LSDSystem, "__getstate__", legacy_getstate)
            save_system(system, path)
        loaded = load_system(path)
        assert (loaded.workers, loaded.backend) == (1, "process")

        test = domain.sources[4]
        listings = test.listings(20)
        reference = system.match(test.schema, listings)
        result = loaded.match(test.schema, listings)
        assert dict(result.mapping.items()) == \
            dict(reference.mapping.items())
        assert set(result.tag_scores) == set(reference.tag_scores)
        for tag, scores in reference.tag_scores.items():
            assert np.array_equal(result.tag_scores[tag], scores), tag


    def test_legacy_train_profile_is_dropped(self, trained, tmp_path,
                                              monkeypatch):
        """Model files written while training kept a stage profile
        carry ``train_profile``, pickled as the old locked
        ``StageProfile`` recorder. Loading drops it, and the loaded
        model matches byte-identically to the original."""
        domain, system = trained

        def legacy_getstate(self):
            state = dict(self.__dict__)
            state.update(policy=None, _procpool=None,
                         train_profile=LegacyStageProfile(
                             {"build": 0.5, "fit": 1.0, "cv": 2.0},
                             {}))
            return state

        path = tmp_path / "legacy.lsd"
        with monkeypatch.context() as patch:
            patch.setattr(LSDSystem, "__getstate__", legacy_getstate)
            patch.setattr(timers, "StageProfile", LegacyStageProfile)
            save_system(system, path)
        assert b"train_profile" in path.read_bytes()
        loaded = load_system(path)
        assert not hasattr(loaded, "train_profile")
        assert "train_profile" not in loaded.__getstate__()

        test = domain.sources[4]
        listings = test.listings(20)
        reference = system.match(test.schema, listings)
        result = loaded.match(test.schema, listings)
        assert dict(result.mapping.items()) == \
            dict(reference.mapping.items())
        assert set(result.tag_scores) == set(reference.tag_scores)
        for tag, scores in reference.tag_scores.items():
            assert np.array_equal(result.tag_scores[tag], scores), tag


class TestArrayStore:
    """The version-2 layout: hoisted arrays in a ``.arrays/`` sidecar,
    optionally spliced back in as read-only memmaps."""

    def test_save_writes_model_plus_sidecar(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path, array_store=True)
        sidecar = tmp_path / "model.lsd.arrays"
        assert sidecar.is_dir()
        assert list(sidecar.glob("*.npy")), \
            "a trained model should hoist at least one large array"

    def test_roundtrip_matches_identically(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path, array_store=True)
        loaded = load_system(path)
        test = domain.sources[4]
        listings = test.listings(20)
        assert system.match(test.schema, listings).mapping == \
            loaded.match(test.schema, listings).mapping

    def test_mmap_load_matches_identically(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path, array_store=True)
        loaded = load_system(path, mmap_arrays=True)
        test = domain.sources[4]
        listings = test.listings(20)
        assert system.match(test.schema, listings).mapping == \
            loaded.match(test.schema, listings).mapping

    def test_mmap_load_actually_maps(self, trained, tmp_path):
        """The mmap fast path must splice memmaps in, not heap copies.

        ``extract_arrays`` hoists exactly-``np.ndarray`` objects only,
        so re-extracting an mmap-loaded system finds strictly fewer
        arrays than a copy-loaded one — every sidecar slot now holds an
        ``np.memmap``."""
        from repro.core.shared_arrays import extract_arrays

        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path, array_store=True)
        copied = load_system(path, mmap_arrays=False)
        mapped = load_system(path, mmap_arrays=True)
        n_copied = len(extract_arrays(copied)[1])
        n_mapped = len(extract_arrays(mapped)[1])
        assert n_copied > 0
        assert n_mapped < n_copied

    def test_resave_clears_stale_sidecar_entries(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path, array_store=True)
        stale = tmp_path / "model.lsd.arrays" / "9999.npy"
        stale.write_bytes(b"stale")
        save_system(system, path, array_store=True)
        assert not stale.exists()
        assert load_system(path).is_trained

    def test_missing_sidecar_file_is_a_format_error(self, trained,
                                                    tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path, array_store=True)
        sidecar = tmp_path / "model.lsd.arrays"
        victim = sorted(sidecar.glob("*.npy"))[0]
        victim.unlink()
        with pytest.raises(ModelFormatError, match="sidecar"):
            load_system(path)

    def test_mmap_flag_is_ignored_for_v1_models(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "model.lsd"
        save_system(system, path)
        loaded = load_system(path, mmap_arrays=True)
        assert loaded.is_trained


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

    def test_wrong_version(self, trained, tmp_path):
        domain, system = trained
        path = tmp_path / "future.lsd"
        with path.open("wb") as handle:
            pickle.dump({"magic": "repro-lsd",
                         "version": FORMAT_VERSION + 1,
                         "system": system}, handle)
        with pytest.raises(ModelFormatError):
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
