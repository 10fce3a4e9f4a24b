"""Seeded, deterministic fault injection.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers armed at
the named sites of :mod:`repro.resilience.sites`. The pipeline calls
``plan.fire(site, key)`` (or ``plan.corrupt`` for text-rewriting sites)
at each boundary; the plan counts hits per ``(site, key)`` and fires
the configured action when a spec's schedule matches.

Determinism: hits are counted per logical key, never per arrival
order, and all corruption randomness derives from
``Random(f"{seed}|{site}|{key}")`` — so the same plan produces the
same faults at any worker count, which is what lets the chaos suite
assert byte-identical *degraded* output across ``--workers`` settings.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from .sites import SITE_CATALOGUE

#: The fault actions a spec may request.
ACTIONS = ("raise", "delay", "corrupt")

#: Deterministic text-corruption styles (see :func:`corrupt_text`).
CORRUPTION_STYLES = ("drop-close", "bogus-entity", "stray-markup",
                     "truncate-tail")


class FaultInjected(RuntimeError):
    """Raised by a fired ``raise``-action fault."""

    def __init__(self, site: str, key: str, message: str) -> None:
        super().__init__(message)
        self.site = site
        self.key = key


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: *where* (site/key), *when* (schedule), *what* (action).

    ``key=None`` arms the spec for every key at the site, scheduled
    against the site-wide hit counter; a concrete key schedules against
    that key's own counter. The spec fires on hit ``at_hit``, then every
    ``every`` hits after that, at most ``count`` times total.
    """

    site: str
    action: str = "raise"
    key: str | None = None
    at_hit: int = 1
    every: int = 1
    count: int = 1
    #: Sleep length for ``delay`` actions, seconds.
    delay: float = 0.0
    #: Error text for ``raise`` actions; for ``corrupt`` actions, an
    #: optional style name from :data:`CORRUPTION_STYLES`.
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITE_CATALOGUE:
            known = ", ".join(sorted(SITE_CATALOGUE))
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {known}")
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{', '.join(ACTIONS)}")
        if self.action == "corrupt" and self.message \
                and self.message not in CORRUPTION_STYLES:
            raise ValueError(
                f"unknown corruption style {self.message!r}; expected "
                f"one of {', '.join(CORRUPTION_STYLES)}")
        if self.at_hit < 1 or self.every < 1 or self.count < 1:
            raise ValueError(
                "at_hit, every and count must all be >= 1")

    def as_dict(self) -> dict:
        entry: dict = {"site": self.site, "action": self.action}
        if self.key is not None:
            entry["key"] = self.key
        if self.at_hit != 1:
            entry["at_hit"] = self.at_hit
        if self.every != 1:
            entry["every"] = self.every
        if self.count != 1:
            entry["count"] = self.count
        if self.delay:
            entry["delay"] = self.delay
        if self.message:
            entry["message"] = self.message
        return entry


@dataclass
class _FireRecord:
    """What actually fired, for the degradation report."""

    site: str
    key: str
    action: str
    hit: int
    detail: str = ""

    def as_dict(self) -> dict:
        entry = {"site": self.site, "key": self.key,
                 "action": self.action, "hit": self.hit}
        if self.detail:
            entry["detail"] = self.detail
        return entry


@dataclass
class FaultPlan:
    """A seeded set of fault specs plus thread-safe hit accounting."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    _site_hits: dict = field(default_factory=dict, repr=False,
                             compare=False)
    _key_hits: dict = field(default_factory=dict, repr=False,
                            compare=False)
    _fired: dict = field(default_factory=dict, repr=False, compare=False)
    _records: list = field(default_factory=list, repr=False,
                           compare=False)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise ValueError(
                f"unknown fault-plan keys: {', '.join(sorted(unknown))}")
        specs = []
        for index, raw in enumerate(data.get("faults", [])):
            if not isinstance(raw, dict):
                raise ValueError(f"faults[{index}] must be an object")
            try:
                specs.append(FaultSpec(**raw))
            except TypeError as exc:
                raise ValueError(f"faults[{index}]: {exc}") from exc
        return cls(specs=tuple(specs), seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") \
                from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def targets_site(self, site: str) -> bool:
        """True if any spec is armed at ``site``."""
        return any(spec.site == site for spec in self.specs)

    def records(self) -> list[dict]:
        """Every fired fault so far.

        Sorted by (site, key, hit) rather than firing order: under
        parallel execution the firing order depends on thread
        scheduling, and the degradation report must be byte-identical
        at any worker count.
        """
        with self._lock:
            entries = [record.as_dict() for record in self._records]
        return sorted(entries,
                      key=lambda r: (r["site"], r["key"], r["hit"],
                                     r["action"]))

    def as_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [spec.as_dict() for spec in self.specs]}

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def fire(self, site: str, key: str = "") -> FaultSpec | None:
        """Count a hit at ``(site, key)``; apply the matching action.

        ``raise`` faults raise :class:`FaultInjected`; ``delay`` faults
        sleep and return ``None``; ``corrupt`` faults return the fired
        spec so the caller can rewrite its payload (use
        :meth:`corrupt` for text sites).
        """
        spec, hit = self._check(site, key)
        if spec is None:
            return None
        if spec.action == "raise":
            message = spec.message or \
                f"injected fault at {site}[{key}] (hit {hit})"
            self._note(site, key, "raise", hit, message)
            raise FaultInjected(site, key, message)
        if spec.action == "delay":
            self._note(site, key, "delay", hit, f"{spec.delay}s")
            time.sleep(spec.delay)
            return None
        return spec

    def corrupt(self, site: str, key: str,
                text: str) -> tuple[str, str | None]:
        """Like :meth:`fire`, but applies ``corrupt`` actions to ``text``.

        Returns ``(possibly rewritten text, style or None)``.
        """
        spec = self.fire(site, key)
        if spec is None or spec.action != "corrupt":
            return text, None
        rng = random.Random(f"{self.seed}|{site}|{key}")
        style = spec.message or rng.choice(CORRUPTION_STYLES)
        self._note(site, key, "corrupt",
                   self._key_hits.get((site, key), 0), style)
        return corrupt_text(text, style, rng), style

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check(self, site: str,
               key: str) -> tuple[FaultSpec | None, int]:
        with self._lock:
            site_hits = self._site_hits[site] = \
                self._site_hits.get(site, 0) + 1
            key_hits = self._key_hits[(site, key)] = \
                self._key_hits.get((site, key), 0) + 1
            for index, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                if spec.key is not None and spec.key != key:
                    continue
                hits = site_hits if spec.key is None else key_hits
                if self._fired.get(index, 0) >= spec.count:
                    continue
                if hits < spec.at_hit:
                    continue
                if (hits - spec.at_hit) % spec.every:
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
                return spec, hits
            return None, key_hits

    def _note(self, site: str, key: str, action: str, hit: int,
              detail: str) -> None:
        with self._lock:
            self._records.append(
                _FireRecord(site, key, action, hit, detail))


def corrupt_text(text: str, style: str, rng: random.Random) -> str:
    """Deterministically damage an XML chunk in a recognisable way.

    The damage is always *inside* the listing (the opening start tag
    survives) so the tolerant chunker still isolates the listing and
    lenient mode has something to repair.
    """
    if style not in CORRUPTION_STYLES:
        raise ValueError(f"unknown corruption style {style!r}")
    head = text.find(">")
    if head < 0 or head + 1 >= len(text):
        return text  # nothing after the first tag worth damaging
    if style == "drop-close":
        cut = text.rfind("</")
        if cut > head:
            end = text.find(">", cut)
            tail = text[end + 1:] if end >= 0 else ""
            return text[:cut] + tail
        style = "truncate-tail"
    if style == "truncate-tail":
        span = len(text) - (head + 1)
        keep = head + 1 + max(1, int(span * rng.uniform(0.3, 0.8)))
        return text[:keep]
    at = rng.randrange(head + 1, len(text))
    if style == "bogus-entity":
        return text[:at] + "&bogus;" + text[at:]
    # stray-markup: a lone "<" mid-content
    return text[:at] + "< " + text[at:]
