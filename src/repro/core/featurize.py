"""Shared token/feature cache (the throughput tentpole).

Before this module existed, every text learner re-derived the same
features from the same data: Naive Bayes, the content matcher and the
XML learner each ran ``tokenize`` / ``remove_stopwords`` /
``stem_tokens`` over identical text, so one matching run tokenized every
instance three-plus times (and again on every structure pass). The XML
Matchers survey (Agreste et al.) calls scalability the dominant open
problem for instance-level matchers; per-column featurization cost is
exactly where that time goes.

Two cache layers make featurization happen once:

* a **text-level memo**: :func:`pipeline_tokens` memoises the full
  tokenize→stopword→stem pipeline keyed by the raw text. Real columns
  are duplicate-heavy (the same city, agent or yes/no value repeats in
  hundreds of listings), so this collapses work both across learners
  *and* across instances sharing a value;
* an **instance-level slot**: :func:`content_tokens` pins the token bag
  of an instance's full text content on
  ``ElementInstance.feature_cache``, which also avoids re-walking the
  element subtree to rebuild the text string.

The XML learner's node table (:mod:`repro.learners.node_table`)
tokenizes each distinct immediate text of a stream's elements once,
through :func:`pipeline_tokens`.

Cached token lists are shared — callers must treat them as immutable.

Plugin learners that need different features simply keep calling their
own tokenizers: the cache is opt-in by calling these functions, and
:func:`cache_disabled` turns memoisation off globally (the benchmark
harness uses it to measure the uncached baseline).

Thread-safety: concurrent callers may race to fill the same slot, but
both compute identical values from immutable inputs, so last-write-wins
is correct. The *eviction* path is the one place that needed a real
guard: clear-on-full and insert run under ``_text_cache_lock`` so a
concurrent ``clear()`` landing between a reader's miss and its insert
cannot wipe other threads' mid-flight entries unobserved — eviction is
an atomic clear-then-insert, and lock-free ``get`` reads stay correct
because they only ever see a fully-formed list or nothing. Hit/miss
counts are plain integer adds and therefore approximate under threads;
they are instrumentation, not logic. The dynamic sanitizer
(``repro.analysis.sanitizer.shake_caches``) hammers exactly these
paths.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

from ..text import remove_stopwords, stem_tokens, tokenize
from .instance import ElementInstance

#: feature_cache key of the content-token bag.
_CONTENT = "content_tokens"

#: feature_cache key of the concatenated subtree text.
_TEXT = "text"

#: Module switch consulted on every lookup; see :func:`cache_disabled`.
_enabled = True

#: Text-level memo: raw text -> token list. Cleared wholesale when it
#: outgrows the cap — the working set of one matching run (distinct
#: values of one source) is far below it, so eviction is a non-event in
#: practice while still bounding long-lived processes.
_TEXT_CACHE_MAX = 65536
_text_cache: dict[str, list[str]] = {}

#: Guards the eviction/insert path of ``_text_cache`` (reads are
#: lock-free; see the thread-safety note in the module docstring).
_text_cache_lock = threading.Lock()


class CacheStats:
    """Process-wide hit/miss counters for the featurize cache."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4)}

    def snapshot(self) -> tuple[int, int]:
        """``(hits, misses)`` at this moment — subtract two snapshots
        to attribute cache traffic to one pipeline run."""
        return (self.hits, self.misses)

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStats(hits={self.hits}, misses={self.misses})"


#: The process-wide counters (reset with ``stats.reset()``).
stats = CacheStats()


def _pipeline(text: str) -> list[str]:
    return stem_tokens(remove_stopwords(tokenize(text)))


def pipeline_tokens(text: str) -> list[str]:
    """The canonical pipeline (tokenize, drop stopwords, stem), memoised
    by the raw text. The returned list is shared — do not mutate it."""
    if not _enabled:
        return _pipeline(text)
    tokens = _text_cache.get(text)
    if tokens is None:
        stats.misses += 1
        tokens = _pipeline(text)
        # Atomic clear-then-insert: without the lock, an eviction on
        # another thread could land between this miss and the insert
        # and silently drop the entry we are about to publish.
        with _text_cache_lock:
            if len(_text_cache) >= _TEXT_CACHE_MAX:
                _text_cache.clear()
            _text_cache[text] = tokens
    else:
        stats.hits += 1
    return tokens


def instance_text(instance: ElementInstance) -> str:
    """``instance.text`` computed at most once per instance.

    ``ElementInstance.text`` walks the whole element subtree on every
    access; the vectorized learners read the same text several times per
    matching run (once per learner, again for distinct-key grouping), so
    the string is pinned on the instance's feature cache. Hit/miss
    accounting is left to the token-level caches — this slot only
    elides tree walks, it derives no features.
    """
    if not _enabled:
        return instance.text
    cache = instance.feature_cache
    text = cache.get(_TEXT)
    if text is None:
        text = cache[_TEXT] = instance.text
    return text


def content_tokens(instance: ElementInstance) -> list[str]:
    """Token bag of the instance's full text content, computed once.

    This is the shared feature the default Naive Bayes tokenizer and the
    content matcher both consume. The instance-level slot also skips
    rebuilding ``instance.text`` (a subtree walk) on repeat lookups.
    """
    if not _enabled:
        return _pipeline(instance.text)
    cache = instance.feature_cache
    tokens = cache.get(_CONTENT)
    if tokens is None:
        tokens = pipeline_tokens(instance_text(instance))
        cache[_CONTENT] = tokens
    else:
        stats.hits += 1
    return tokens


def warm(instances: Sequence[ElementInstance]) -> None:
    """Pre-fill the content-token cache for a batch of instances."""
    for instance in instances:
        content_tokens(instance)


def warm_texts(instances: Sequence[ElementInstance]) -> None:
    """Pre-fill only the subtree-text slot for a batch of instances.

    Every vectorized learner reads :func:`instance_text` to build its
    distinct-key grouping, so the tree walks are needed for the whole
    batch regardless — but token bags are only derived for the distinct
    representatives, so warming *tokens* for the full batch would do
    work the deduplicated learners never ask for.
    """
    for instance in instances:
        instance_text(instance)


def invalidate(instance: ElementInstance) -> None:
    """Drop an instance's cached features (after mutating its element)."""
    instance.feature_cache.clear()


def clear_text_cache() -> None:
    """Empty the process-wide text-level memo (tests, memory pressure)."""
    with _text_cache_lock:
        _text_cache.clear()


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Temporarily bypass memoisation (benchmark baseline; not
    thread-safe — flip it only from the orchestrating thread)."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


def is_enabled() -> bool:
    """Whether memoisation is currently active."""
    return _enabled
