"""Shared test helpers for building instances, schemas and listings."""

from __future__ import annotations

from repro.core.instance import ElementInstance
from repro.core.labels import LabelSpace
from repro.xmlio import Element


def make_instance(tag: str, text: str = "", path: tuple[str, ...] = ("root",),
                  children: list[tuple[str, str]] | None = None,
                  child_labels: dict[str, str] | None = None
                  ) -> ElementInstance:
    """Build an ElementInstance with optional (tag, text) children."""
    element = Element(tag)
    if text:
        element.append_text(text)
    for child_tag, child_text in children or []:
        element.make_child(child_tag, child_text)
    return ElementInstance(element, tag, path, dict(child_labels or {}))


def space_of(*labels: str) -> LabelSpace:
    """A label space over the given labels (OTHER appended automatically)."""
    return LabelSpace(labels)


def training_set(pairs: list[tuple[ElementInstance, str]]
                 ) -> tuple[list[ElementInstance], list[str]]:
    """Split (instance, label) pairs into parallel lists."""
    instances = [instance for instance, _ in pairs]
    labels = [label for _, label in pairs]
    return instances, labels



class LegacyStageProfile:
    """Stand-in for the old locked ``StageProfile`` recorder.

    Installed as ``repro.observability.timers.StageProfile`` while
    pickling (``monkeypatch.setattr``), it writes what the recorder
    wrote into old model files: that class name plus a
    ``{"timings", "counters"}`` state dict.
    """

    __module__ = "repro.observability.timers"
    __qualname__ = "StageProfile"

    def __init__(self, timings: dict, counters: dict) -> None:
        self.timings = dict(timings)
        self.counters = dict(counters)

    def __getstate__(self) -> dict:
        return {"timings": self.timings, "counters": self.counters}
