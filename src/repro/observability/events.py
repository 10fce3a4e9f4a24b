"""Structured progress events: a streaming JSONL narration of a run.

``--events-out events.jsonl`` turns this on. Where the span trace is a
post-hoc tree for profiling, the event stream is a *live* flat feed a
supervisor can tail: run start/end, stage boundaries with elapsed time
and throughput, per-shard completion heartbeats derived from the task
grid, and degradation notices when resilience machinery changes the
run's behaviour.

Events are schema-validated (``events_schema.json``, same
dependency-free validator as the run report) and named by the ``EV_*``
constants in :data:`EVENT_CATALOGUE`; the ``event-catalogue`` lint rule
keeps emissions and catalogue in two-way agreement, exactly like the
metric and fault-site catalogues.

Lines stream to ``<path>.tmp`` as they happen (so a tail sees progress
mid-run) and the finished stream lands at ``path`` via one atomic
rename on :meth:`EventStream.close` — a killed run never leaves a
truncated final artifact, and the ``.tmp`` suffix marks a partial feed
unambiguously.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .artifacts import atomic_write_text

EV_RUN_START = "run_start"
EV_RUN_END = "run_end"
EV_STAGE_START = "stage_start"
EV_STAGE_END = "stage_end"
EV_SHARD_COMPLETE = "shard_complete"
EV_DEGRADATION = "degradation"
EV_CHECKPOINT = "checkpoint"
EV_RESUME = "resume"

#: kind -> description; the documented progress-event vocabulary.
EVENT_CATALOGUE: dict[str, str] = {
    EV_RUN_START:
        "A command began; payload carries the command name and config.",
    EV_RUN_END:
        "The command finished; payload carries elapsed seconds and an "
        "ok flag.",
    EV_STAGE_START:
        "A pipeline stage (match, extract, predict, constrain, build, "
        "fit, cv...) began; payload names the stage.",
    EV_STAGE_END:
        "A pipeline stage finished; payload carries elapsed seconds "
        "and, when countable, items and items/sec.",
    EV_SHARD_COMPLETE:
        "One parallel shard of a stage finished; payload carries the "
        "shard label, index, shard count, and row count.",
    EV_DEGRADATION:
        "Resilience machinery changed the run (quarantine, pool "
        "fallback, anytime exit, salvage); payload describes how.",
    EV_CHECKPOINT:
        "A checkpoint was opened (stage 'open', payload carries the "
        "run id) or a pipeline stage's checkpoint was committed to "
        "disk; payload names the stage.",
    EV_RESUME:
        "A pipeline stage was skipped because --resume found its "
        "checkpoint; payload names the stage.",
}


class EventStream:
    """An append-only, schema-shaped progress feed.

    :meth:`emit` assigns a monotonically increasing ``seq`` and stamps
    the configured clock. With a path, each event is written and
    flushed immediately to ``<path>.tmp``; :meth:`close` renames the
    finished feed into place atomically. Without a path, events
    accumulate in memory only (:attr:`events`), which is how the
    pipelines stay observable in tests without touching disk.
    """

    enabled = True

    def __init__(self, path: str | Path | None = None,
                 clock=time.time) -> None:
        self.path = Path(path) if path is not None else None
        self.events: list[dict] = []
        self._clock = clock
        self._seq = 0
        self._handle = None
        #: Optional ``(kind, event)`` tap invoked on every emission —
        #: ``match --watchdog`` registers the policy's heartbeat here.
        self.listener = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._tmp_path, "w")

    @property
    def _tmp_path(self) -> Path:
        return self.path.with_name(self.path.name + ".tmp")

    def emit(self, kind: str, **payload) -> dict:
        if kind not in EVENT_CATALOGUE:
            raise ValueError(f"unknown event kind: {kind!r}")
        self._seq += 1
        event = {"seq": self._seq, "kind": kind,
                 "ts": float(self._clock()), **payload}
        self.events.append(event)
        if self._handle is not None:
            self._handle.write(json.dumps(event, sort_keys=True) + "\n")
            self._handle.flush()
        if self.listener is not None:
            self.listener(kind, event)
        return event

    def close(self, plan=None) -> None:
        """Finish the stream: flush, then atomically publish ``path``."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            text = self._tmp_path.read_text()
            atomic_write_text(self.path, text, plan=plan)
            self._tmp_path.unlink(missing_ok=True)

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullEventStream:
    """The disabled stream: one no-op shared everywhere."""

    enabled = False
    events: list = []
    path = None
    listener = None

    def emit(self, kind: str, **payload) -> dict:
        return {}

    def close(self, plan=None) -> None:
        pass

    def __enter__(self) -> "NullEventStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The shared disabled event stream.
NULL_EVENTS = NullEventStream()

#: Schema for one event line, enforced by ``validate_events``.
SCHEMA_PATH = Path(__file__).with_name("events_schema.json")


def load_schema() -> dict:
    return json.loads(SCHEMA_PATH.read_text())


def read_events(path: str | Path) -> list[dict]:
    """Load a finished (or still-streaming ``.tmp``) event feed."""
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def validate_events(events: list[dict]) -> list[str]:
    """Schema-check an event feed; returns problems, empty when valid.

    Beyond per-line schema validation, checks the stream invariants a
    consumer relies on: ``seq`` strictly increasing from 1 and
    timestamps non-decreasing.
    """
    from .report import _validate

    schema = load_schema()
    problems: list[str] = []
    for i, event in enumerate(events):
        errors: list[str] = []
        _validate(event, schema, f"event[{i}]", errors)
        problems.extend(errors)
    for i, event in enumerate(events):
        if event.get("seq") != i + 1:
            problems.append(
                f"event {i}: seq {event.get('seq')!r} != {i + 1}")
    timestamps = [event.get("ts") for event in events
                  if isinstance(event.get("ts"), (int, float))]
    if any(b < a for a, b in zip(timestamps, timestamps[1:])):
        problems.append("timestamps are not non-decreasing")
    return problems


def validate_file(path: str | Path) -> list[str]:
    return validate_events(read_events(path))
