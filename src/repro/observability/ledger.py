"""The run ledger: append-only cross-run history with regression gates.

Every instrumented run (CLI matches, benchmark configs, CI smoke jobs)
appends one JSON line to ``.lsd/ledger.jsonl``: workload fingerprint,
config, backend/CPU metadata, stage timings, headline metric counters,
and accuracy when a gold mapping was available. That file is the
trajectory the single-shot ``BENCH_*.json`` artifacts never had —
``python -m repro ledger history`` shows it, ``diff`` compares the two
most recent comparable runs, and ``check`` gates the latest run against
a trailing baseline window, exiting nonzero on a configurable slowdown
or accuracy drop so CI can fail on regressions instead of humans
eyeballing numbers.

Entries are only comparable within the same ``(label, fingerprint)``
series: a different workload or configuration starts its own history
rather than polluting a baseline.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

from .artifacts import atomic_append_jsonl

LEDGER_SCHEMA_VERSION = 1
LEDGER_KIND = "lsd-ledger-entry"

#: Default ledger location, relative to the working directory.
DEFAULT_PATH = Path(".lsd") / "ledger.jsonl"

#: Default trailing-window size for ``check``.
DEFAULT_WINDOW = 3

#: Default gate: fail when total time exceeds baseline mean by 1.5x.
DEFAULT_MAX_SLOWDOWN = 1.5

#: Default gate: fail when accuracy drops more than 2 points.
DEFAULT_MAX_ACCURACY_DROP = 0.02


def host_info(backend: str | None = None,
              workers: int | None = None) -> dict:
    """Backend/CPU metadata that contextualizes timings."""
    info = {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    if backend is not None:
        info["backend"] = backend
    if workers is not None:
        info["workers"] = workers
    return info


def build_entry(*, label: str, fingerprint: str, created: float,
                config: dict | None = None, host: dict | None = None,
                timings: dict | None = None,
                metrics: dict | None = None,
                accuracy: float | None = None,
                run_id: str | None = None,
                resumed_from: str | None = None) -> dict:
    """One ledger line. ``timings`` maps stage name to seconds and
    should include ``total``; ``metrics`` is a flat name->number dict
    (headline counters, not full summaries — the ledger is a
    trajectory, not an archive).

    ``run_id`` names the checkpointed attempt that produced the entry
    and ``resumed_from`` the prior attempt it picked up from. A
    resumed entry's search time covers only what the checkpoint left
    to do, so :func:`check_ledger` excludes it from timing comparisons.
    """
    entry = {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": LEDGER_KIND,
        "created": float(created),
        "label": label,
        "fingerprint": fingerprint,
        "config": dict(config or {}),
        "host": dict(host or host_info()),
        "timings": {name: float(value) for name, value in
                    (timings or {}).items()},
        "metrics": {name: value for name, value in
                    (metrics or {}).items()},
    }
    if accuracy is not None:
        entry["accuracy"] = float(accuracy)
    if run_id is not None:
        entry["run_id"] = run_id
    if resumed_from is not None:
        entry["resumed_from"] = resumed_from
    return entry


def append_entry(entry: dict, path: str | Path = DEFAULT_PATH,
                 plan=None) -> None:
    atomic_append_jsonl(path, json.dumps(entry, sort_keys=True),
                        plan=plan)


def read_ledger(path: str | Path = DEFAULT_PATH) -> list[dict]:
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    for i, line in enumerate(path.read_text().splitlines()):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError as exc:
            raise ValueError(
                f"{path}:{i + 1}: malformed ledger line: {exc}"
            ) from exc
    return entries


def series_of(entries: list[dict], label: str,
              fingerprint: str) -> list[dict]:
    """The comparable subsequence: same workload, same label."""
    return [entry for entry in entries
            if entry.get("label") == label
            and entry.get("fingerprint") == fingerprint]


def _total_seconds(entry: dict) -> float | None:
    timings = entry.get("timings", {})
    if "total" in timings:
        return float(timings["total"])
    if timings:
        return float(sum(timings.values()))
    return None


# ---------------------------------------------------------------------------
# history / diff / check
# ---------------------------------------------------------------------------

def render_history(entries: list[dict], limit: int = 20) -> str:
    """A terminal table of the most recent ledger entries."""
    if not entries:
        return "ledger is empty"
    lines = [f"{'#':>3} {'label':<28} {'fingerprint':<16} "
             f"{'total_s':>9} {'accuracy':>8}  backend"]
    start = max(0, len(entries) - limit)
    for i, entry in enumerate(entries[start:], start=start):
        total = _total_seconds(entry)
        accuracy = entry.get("accuracy")
        host = entry.get("host", {})
        backend = host.get("backend", "-")
        workers = host.get("workers")
        if workers is not None:
            backend = f"{backend}x{workers}"
        lines.append(
            f"{i:>3} {entry.get('label', '?'):<28} "
            f"{entry.get('fingerprint', '?'):<16} "
            f"{total if total is not None else float('nan'):>9.3f} "
            f"{'' if accuracy is None else f'{accuracy:.3f}':>8}  "
            f"{backend}")
    return "\n".join(lines)


def diff_entries(old: dict, new: dict) -> dict:
    """Timing/metric/accuracy deltas between two comparable entries."""
    result: dict = {"label": new.get("label"),
                    "fingerprint": new.get("fingerprint"),
                    "timings": {}, "metrics": {}}
    old_timings = old.get("timings", {})
    new_timings = new.get("timings", {})
    for name in sorted(set(old_timings) | set(new_timings)):
        before = old_timings.get(name)
        after = new_timings.get(name)
        entry = {"before": before, "after": after}
        if before and after is not None:
            entry["ratio"] = after / before
        result["timings"][name] = entry
    old_metrics = old.get("metrics", {})
    new_metrics = new.get("metrics", {})
    for name in sorted(set(old_metrics) | set(new_metrics)):
        before = old_metrics.get(name)
        after = new_metrics.get(name)
        if before != after:
            result["metrics"][name] = {"before": before,
                                       "after": after}
    if "accuracy" in old or "accuracy" in new:
        result["accuracy"] = {"before": old.get("accuracy"),
                              "after": new.get("accuracy")}
    return result


def render_diff(diff: dict) -> str:
    lines = [f"diff for {diff.get('label')} "
             f"@ {diff.get('fingerprint')}"]
    for name, delta in diff.get("timings", {}).items():
        ratio = delta.get("ratio")
        suffix = f"  ({ratio:.2f}x)" if ratio is not None else ""
        lines.append(f"  timing {name}: {delta.get('before')} -> "
                     f"{delta.get('after')}{suffix}")
    for name, delta in diff.get("metrics", {}).items():
        lines.append(f"  metric {name}: {delta.get('before')} -> "
                     f"{delta.get('after')}")
    accuracy = diff.get("accuracy")
    if accuracy is not None:
        lines.append(f"  accuracy: {accuracy.get('before')} -> "
                     f"{accuracy.get('after')}")
    return "\n".join(lines)


def check_entry(entry: dict, baseline: list[dict],
                max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
                max_accuracy_drop: float = DEFAULT_MAX_ACCURACY_DROP
                ) -> list[str]:
    """Regression verdicts for ``entry`` against a baseline window.

    Compares the entry's total seconds against the baseline *mean*
    (robust to one noisy baseline run) and its accuracy against the
    baseline's best. Returns human-readable failures; empty = pass.
    """
    failures: list[str] = []
    totals = [seconds for seconds in
              (_total_seconds(candidate) for candidate in baseline)
              if seconds is not None and seconds > 0]
    current = _total_seconds(entry)
    if totals and current is not None:
        mean = sum(totals) / len(totals)
        ratio = current / mean
        if ratio > max_slowdown:
            failures.append(
                f"total {current:.3f}s is {ratio:.2f}x the baseline "
                f"mean {mean:.3f}s over {len(totals)} run(s) "
                f"(max allowed {max_slowdown:.2f}x)")
    accuracies = [candidate["accuracy"] for candidate in baseline
                  if isinstance(candidate.get("accuracy"),
                                (int, float))]
    if accuracies and isinstance(entry.get("accuracy"), (int, float)):
        best = max(accuracies)
        drop = best - entry["accuracy"]
        if drop > max_accuracy_drop:
            failures.append(
                f"accuracy {entry['accuracy']:.3f} dropped "
                f"{drop:.3f} below the baseline best {best:.3f} "
                f"(max allowed drop {max_accuracy_drop:.3f})")
    return failures


def check_ledger(path: str | Path = DEFAULT_PATH,
                 label: str | None = None,
                 window: int = DEFAULT_WINDOW,
                 max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
                 max_accuracy_drop: float = DEFAULT_MAX_ACCURACY_DROP
                 ) -> tuple[bool, str]:
    """Gate the most recent run(s) against their trailing baselines.

    For each checked series the newest entry is compared against up to
    ``window`` immediately preceding entries of the same ``(label,
    fingerprint)``. With ``label=None`` every series with at least one
    baseline entry is checked. Returns ``(ok, rendered verdicts)``.

    Entries carrying ``resumed_from`` are excluded from every series:
    a resumed run reuses its checkpoint's mapping or warm-starts the
    search from its incumbent, so its totals would poison baselines
    (and a fast partial run as the newest entry would sail past a gate
    it never really ran).
    """
    entries = read_ledger(path)
    if not entries:
        return True, "ledger is empty; nothing to check"
    series_keys: list[tuple[str, str]] = []
    for entry in entries:
        key = (entry.get("label"), entry.get("fingerprint"))
        if key not in series_keys:
            series_keys.append(key)
    if label is not None:
        series_keys = [key for key in series_keys if key[0] == label]
        if not series_keys:
            return True, f"no ledger entries labelled {label!r}"
    lines: list[str] = []
    ok = True
    for key in series_keys:
        full = series_of(entries, *key)
        series = [entry for entry in full
                  if entry.get("resumed_from") is None]
        resumed = len(full) - len(series)
        if not series:
            lines.append(f"{key[0]} @ {key[1]}: only resumed partial "
                         f"run(s), nothing comparable")
            continue
        if len(series) < 2:
            lines.append(f"{key[0]} @ {key[1]}: only "
                         f"{len(series)} comparable run(s)"
                         + (f" ({resumed} resumed excluded)"
                            if resumed else "")
                         + ", no baseline yet")
            continue
        baseline = series[-1 - window:-1]
        failures = check_entry(series[-1], baseline,
                               max_slowdown=max_slowdown,
                               max_accuracy_drop=max_accuracy_drop)
        if failures:
            ok = False
            lines.append(f"{key[0]} @ {key[1]}: REGRESSION")
            lines.extend(f"  {failure}" for failure in failures)
        else:
            lines.append(f"{key[0]} @ {key[1]}: ok "
                         f"(vs {len(baseline)} baseline run(s))")
    return ok, "\n".join(lines)
