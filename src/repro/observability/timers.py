"""Per-stage timings and counters, derived from one span subtree.

The span tree (:mod:`.trace`) is the one timing record of a run; a
:class:`StageProfile` is the read-only view of one ``match`` subtree
behind ``--profile``, ``MatchResult.timings`` and the report's
``stages``. Timings sum each descendant span's ``elapsed`` under its
dotted path below the root, with repeat (``#n``) and shard (``.s<k>``)
suffixes folded: ``match/predict/learner.whirl.s1#2`` counts under
``predict.learner.whirl``. Counters sum the span attributes listed in
:data:`COUNTERS`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

#: span name -> {attribute: counter}: the span attributes that are run
#: counters. Repeated spans sum.
COUNTERS: dict[str, dict[str, str]] = {
    "match": {"tags": "tags", "instances": "instances",
              "cache_hits": "cache_hits",
              "cache_misses": "cache_misses"},
    "structure_pass": {"repredicted": "structure_repredicted"},
    "search": {stat: f"constraint_{stat}" for stat in (
        "nodes_expanded", "prune_bound", "prune_hard",
        "prune_soft_bound", "leaf_hard_rejects")},
}

_SHARD_SUFFIX = re.compile(r"\.s\d+$")


@dataclass
class StageProfile:
    """Stage path -> seconds and counter -> value for one run."""

    timings: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def from_spans(spans: Iterable, root_id: str) -> "StageProfile":
        """The view of ``root_id``'s subtree; ``spans`` may hold spans
        outside it, which are ignored."""
        prefix = root_id + "/"
        timings: dict[str, float] = {}
        counters: dict[str, int] = {}
        for span in spans:
            if span.span_id != root_id:
                if not span.span_id.startswith(prefix):
                    continue
                path = ".".join(
                    _SHARD_SUFFIX.sub("", part.partition("#")[0])
                    for part in span.span_id[len(prefix):].split("/"))
                timings[path] = timings.get(path, 0.0) + span.elapsed
            attributes = span.attributes
            for attribute, counter in COUNTERS.get(span.name, {}).items():
                if attribute in attributes:
                    counters[counter] = \
                        counters.get(counter, 0) + attributes[attribute]
            if span.name == "structure_pass" and "repredicted" in attributes:
                # Passes that re-predicted something (the last one may not).
                counters["structure_passes"] = \
                    counters.get("structure_passes", 0) + 1
        return StageProfile(timings, counters)

    def seconds(self, path: str) -> float:
        """Accumulated seconds under ``path`` (0.0 if never entered)."""
        return self.timings.get(path, 0.0)

    def top_level_total(self) -> float:
        """Total seconds across the top-level stages.

        A root that was never timed itself (only dotted descendants
        exist, e.g. ``predict.learner.whirl`` alone) contributes the
        roll-up of its children — so the share column renders against a
        non-zero denominator no matter which granularity was timed."""
        full = _fill_implicit(self.timings)
        return sum(seconds for path, seconds in full.items()
                   if "." not in path)

    def as_dict(self) -> dict:
        """JSON-ready ``{"timings": ..., "counters": ...}`` copy."""
        return {"timings": dict(self.timings),
                "counters": dict(self.counters)}

    def table(self) -> str:
        """Human-readable stage table (see :func:`format_profile_table`)."""
        return format_profile_table(self)


def _fill_implicit(timings: dict[str, float]) -> dict[str, float]:
    """Timings with implicit parents filled in, deepest-first.

    A grouping path that was never timed itself (``predict.learner``
    when only ``predict.learner.whirl`` exists) gets the sum of its
    direct children — including children that are themselves implicit,
    so a chain like ``a.b.c`` rolls all the way up to ``a``.
    """
    full: dict[str, float] = dict(timings)
    for path in sorted(timings, key=lambda p: -p.count(".")):
        parts = path.split(".")
        for depth in range(len(parts) - 1, 0, -1):
            parent = ".".join(parts[:depth])
            if parent not in full:
                full[parent] = sum(
                    seconds for child, seconds in full.items()
                    if child.startswith(parent + ".")
                    and child.count(".") == depth)
    return full


def format_profile_table(profile: StageProfile) -> str:
    """Render a profile as an indented stage table with shares.

    Sub-stages are indented under their parent; the share column is the
    fraction of the top-level total, so parents and their children both
    read against the same denominator. Grouping paths that were never
    timed themselves (``predict.learner`` when only
    ``predict.learner.whirl`` exists) appear as implicit rows showing
    the sum of their children.
    """
    counters = profile.counters
    full = _fill_implicit(profile.timings)
    total = profile.top_level_total()

    def sort_key(path: str) -> tuple:
        # Keep children right after their parent, slowest parents first.
        parts = path.split(".")
        prefix_times = tuple(
            -full.get(".".join(parts[:i + 1]), 0.0)
            for i in range(len(parts)))
        return (prefix_times, parts)

    rows: list[tuple[str, str, str]] = []
    for path in sorted(full, key=sort_key):
        depth = path.count(".")
        name = "  " * depth + path.split(".")[-1]
        seconds = full[path]
        share = f"{seconds / total * 100:5.1f}%" if total > 0 else "    -"
        rows.append((name, f"{seconds:9.4f}s", share))

    width = max((len(name) for name, _, _ in rows), default=5)
    width = max(width, len("stage"))
    lines = [f"{'stage':<{width}}  {'time':>10}  {'share':>6}"]
    lines.append("-" * (width + 21))
    lines.extend(f"{name:<{width}}  {seconds:>10}  {share:>6}"
                 for name, seconds, share in rows)
    if counters:
        lines.append("")
        cwidth = max(max(len(k) for k in counters), len("counter"))
        lines.append(f"{'counter':<{cwidth}}  {'value':>10}")
        lines.append("-" * (cwidth + 12))
        lines.extend(f"{name:<{cwidth}}  {counters[name]:>10}"
                     for name in sorted(counters))
    return "\n".join(lines)
