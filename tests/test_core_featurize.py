"""Tests for the shared token/feature cache."""

import numpy as np

from repro.core import featurize
from repro.text import remove_stopwords, stem_tokens, tokenize

from .helpers import make_instance


def pipeline(text: str) -> list[str]:
    return stem_tokens(remove_stopwords(tokenize(text)))


class TestContentTokens:
    def test_matches_direct_pipeline(self):
        instance = make_instance("comments", "Beautiful houses near Kent")
        assert featurize.content_tokens(instance) == \
            pipeline(instance.text)

    def test_instance_slot_reused(self):
        instance = make_instance("comments", "unique-slot-check text")
        first = featurize.content_tokens(instance)
        before = featurize.stats.misses
        second = featurize.content_tokens(instance)
        assert second is first  # the cached list itself
        assert featurize.stats.misses == before

    def test_text_memo_shared_across_instances(self):
        a = make_instance("city", "Salem, OR shared-memo")
        b = make_instance("town", "Salem, OR shared-memo")
        tokens_a = featurize.content_tokens(a)
        before = featurize.stats.misses
        tokens_b = featurize.content_tokens(b)
        # Same raw text: the second instance reuses the memoised list.
        assert tokens_b is tokens_a
        assert featurize.stats.misses == before

    def test_invalidate_clears_slot(self):
        instance = make_instance("comments", "text to invalidate")
        featurize.content_tokens(instance)
        featurize.invalidate(instance)
        assert featurize._CONTENT not in instance.feature_cache

    def test_warm_prefills(self):
        instances = [make_instance("t", f"warm target {i}")
                     for i in range(3)]
        featurize.warm(instances)
        assert all(featurize._CONTENT in inst.feature_cache
                   for inst in instances)


class TestSwitch:
    def test_cache_disabled_bypasses_memoisation(self):
        instance = make_instance("comments", "bypass this text")
        with featurize.cache_disabled():
            assert not featurize.is_enabled()
            first = featurize.content_tokens(instance)
            second = featurize.content_tokens(instance)
            assert first == second
            assert first is not second  # recomputed, not cached
            assert instance.feature_cache == {}
        assert featurize.is_enabled()

    def test_disabled_results_identical_to_cached(self):
        instance = make_instance("comments", "identical either way")
        cached = featurize.content_tokens(instance)
        with featurize.cache_disabled():
            assert featurize.content_tokens(instance) == cached

    def test_switch_restored_on_error(self):
        try:
            with featurize.cache_disabled():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert featurize.is_enabled()


class TestStats:
    def test_hits_and_misses_counted(self):
        featurize.stats.reset()
        featurize.clear_text_cache()
        instance = make_instance("comments", "count these lookups")
        featurize.content_tokens(instance)
        featurize.content_tokens(instance)
        assert featurize.stats.misses == 1
        assert featurize.stats.hits == 1
        assert featurize.stats.hit_rate == 0.5
        assert featurize.stats.as_dict()["hits"] == 1

    def test_clear_text_cache_forces_miss(self):
        featurize.pipeline_tokens("cleared text sample")
        featurize.clear_text_cache()
        before = featurize.stats.misses
        featurize.pipeline_tokens("cleared text sample")
        assert featurize.stats.misses == before + 1

    def test_shared_lists_not_mutated_by_learners(self):
        """The cache contract: consumers treat token lists as immutable.
        A matching run over cached instances must leave them intact."""
        instance = make_instance("comments", "great view of the river")
        tokens = featurize.content_tokens(instance)
        snapshot = list(tokens)
        copy = np.array(tokens)  # consumers may vectorise freely
        assert list(copy) == snapshot
        assert featurize.content_tokens(instance) == snapshot
