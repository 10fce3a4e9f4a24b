"""Findings, severities, and the checked-in baseline file.

A :class:`Finding` is one rule violation at one source location. The
:class:`Baseline` is the repo's list of *accepted* findings: the lint
gate fails only on findings **not** in the baseline, so the checker can
land with real debt recorded instead of blocking on a flag day. Baseline
entries are keyed by ``(path, rule, message)`` — deliberately *not* by
line number, so unrelated edits that shift a finding up or down the file
do not invalidate the baseline.

The file format is plain text, one entry per line::

    # comment lines and blanks are ignored
    src/repro/foo.py | rule-id | the finding message

Duplicate lines accumulate: two identical entries accept two identical
findings (a multiset, matching how findings themselves can repeat).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

#: Rule severities, in increasing order of concern. Severity is
#: informational — the gate fails on *any* non-baselined finding — but
#: it drives display ordering and lets downstream tooling triage.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str        # posix-style, as passed to the runner
    line: int        # 1-based; 0 = whole-file finding
    rule: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def key(self) -> tuple[str, str, str]:
        """The line-number-free identity used for baseline matching."""
        return (self.path, self.rule, self.message)

    def render(self) -> str:
        """``path:line: severity rule-id: message`` (the CLI line)."""
        return (f"{self.path}:{self.line}: {self.severity} "
                f"[{self.rule}] {self.message}")

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(data["path"], data["line"], data["rule"],
                   data["message"], data.get("severity", "error"))


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable display order: path, then line, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                           f.message))


def findings_to_json(findings: list[Finding], *,
                     baselined: int = 0) -> str:
    """The JSON artifact uploaded by CI: findings plus a summary."""
    payload = {
        "findings": [f.as_dict() for f in sort_findings(findings)],
        "summary": {
            "total": len(findings),
            "baselined": baselined,
            "by_rule": dict(Counter(f.rule for f in findings)),
            "by_severity": dict(Counter(f.severity for f in findings)),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_SEPARATOR = " | "

_HEADER = """\
# lsd-lint baseline: accepted findings, one per line as
#   path | rule-id | message
# Regenerate with `lsd-lint --write-baseline <paths>`. New findings not
# listed here fail the lint gate; fix them or re-baseline deliberately.
"""


class Baseline:
    """The accepted-findings multiset backing the lint gate."""

    def __init__(self, entries: Counter | None = None) -> None:
        #: (path, rule, message) -> accepted count.
        self.entries: Counter = Counter(entries or ())

    def __len__(self) -> int:
        return sum(self.entries.values())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        baseline = cls()
        for lineno, raw in enumerate(
                Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(_SEPARATOR, 2)
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: malformed baseline entry "
                    f"(expected 'path | rule | message'): {line!r}")
            baseline.entries[tuple(part.strip() for part in parts)] += 1
        return baseline

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        baseline = cls()
        for finding in findings:
            baseline.entries[finding.key] += 1
        return baseline

    def dump(self) -> str:
        lines = [_HEADER]
        for key in sorted(self.entries):
            lines.extend([_SEPARATOR.join(key)] * self.entries[key])
        return "\n".join(lines) + ("\n" if self.entries else "")

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.dump())

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def split(self, findings: list[Finding]
              ) -> tuple[list[Finding], list[Finding]]:
        """``(new, accepted)`` — each baseline entry absorbs at most its
        accepted count of identical findings; the rest are new."""
        remaining = Counter(self.entries)
        new: list[Finding] = []
        accepted: list[Finding] = []
        for finding in sort_findings(findings):
            if remaining[finding.key] > 0:
                remaining[finding.key] -= 1
                accepted.append(finding)
            else:
                new.append(finding)
        return new, accepted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Baseline {len(self)} accepted findings>"
