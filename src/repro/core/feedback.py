"""Interactive feedback sessions (§4.3, evaluated in §6.3).

A :class:`FeedbackSession` holds LSD's current mappings for one source.
The user reviews tags — in decreasing order of their structure score, the
same order the paper's experiments use — and corrects wrong labels; each
correction becomes an :class:`AssignmentConstraint` and the constraint
handler re-runs, possibly repairing further tags for free.
"""

from __future__ import annotations

from typing import Sequence

from ..constraints.base import Constraint
from ..constraints.feedback import AssignmentConstraint, ExclusionConstraint
from ..xmlio import Element
from .mapping import Mapping
from .matching import MatchResult
from .schema import SourceSchema
from .system import LSDSystem


class FeedbackSession:
    """Drives repeated matching of one source under user corrections."""

    def __init__(self, system: LSDSystem, schema: SourceSchema | str,
                 listings: Sequence[Element],
                 extra_constraints: Sequence[Constraint] = ()) -> None:
        if isinstance(schema, str):
            schema = SourceSchema(schema)
        self.system = system
        self.schema = schema
        self.listings = list(listings)
        self.base_constraints = list(extra_constraints)
        self.feedback: list[Constraint] = []
        self.corrections = 0
        self.result: MatchResult = self._rematch()

    # ------------------------------------------------------------------
    @property
    def mapping(self) -> Mapping:
        """LSD's current proposal for the source."""
        return self.result.mapping

    def review_order(self) -> list[str]:
        """Tags in the order the user should review them (§6.3): by
        decreasing number of distinct tags nestable within them, ties
        broken by prediction ambiguity (smallest margin first)."""
        return sorted(
            self.result.tag_scores,
            key=lambda tag: (
                -self.schema.descendant_count(tag),
                self.result.prediction_for(tag).margin(),
                tag))

    # ------------------------------------------------------------------
    def assert_match(self, tag: str, label: str) -> MatchResult:
        """User says: ``tag`` matches ``label``. Re-runs the handler."""
        if tag not in self.schema.tags:
            raise KeyError(f"source has no tag {tag!r}")
        if label not in self.system.space:
            raise KeyError(f"unknown label {label!r}")
        self.feedback.append(AssignmentConstraint(tag, label))
        self.corrections += 1
        self.result = self._rematch()
        return self.result

    def reject_match(self, tag: str, label: str) -> MatchResult:
        """User says: ``tag`` does NOT match ``label``."""
        if tag not in self.schema.tags:
            raise KeyError(f"source has no tag {tag!r}")
        if label not in self.system.space:
            raise KeyError(f"unknown label {label!r}")
        self.feedback.append(ExclusionConstraint(tag, label))
        self.corrections += 1
        self.result = self._rematch()
        return self.result

    # ------------------------------------------------------------------
    def _rematch(self) -> MatchResult:
        return self.system.match(
            self.schema, self.listings,
            extra_constraints=[*self.base_constraints, *self.feedback])
