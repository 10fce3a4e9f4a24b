"""The lint engine: source loading, rule registry, suppressions, runner.

Rules are small classes with a stable ``id``; each sees either one
parsed file at a time (:meth:`Rule.check_file`) or the whole analyzed
file set at once (:meth:`Rule.check_project`, for cross-file invariants
like the metric, event and fault-site catalogues). The engine parses
every ``*.py`` file once into a :class:`SourceFile` (AST + raw lines +
suppression map) and fans the rule set over them.

Suppressions are inline comments on the flagged line::

    x = list(set(y))  # lsd: ignore[set-iteration]
    y = risky()       # lsd: ignore[rule-a,rule-b]
    z = hack()        # lsd: ignore

A bare ``ignore`` suppresses every rule on that line; the bracketed form
suppresses only the listed rule ids. Findings surviving suppression are
then matched against the checked-in :class:`~.findings.Baseline`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .findings import Baseline, Finding, sort_findings

#: Matches an inline suppression comment; group 1 is the optional
#: bracketed rule list.
_SUPPRESS_RE = re.compile(
    r"#\s*lsd:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")

#: Directory names never descended into when walking a tree.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache",
              "build", "dist"}


class SourceFile:
    """One parsed Python file plus everything rules need to inspect it."""

    def __init__(self, path: Path, display: str, text: str) -> None:
        self.path = path
        #: The path string findings carry (posix, as passed/walked).
        self.display = display
        self.text = text
        self.lines = text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(text, filename=display)
        except SyntaxError as exc:
            self.parse_error = exc
        #: line number -> set of suppressed rule ids (empty set = all).
        self.suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            listed = match.group(1)
            rules = ({rule.strip() for rule in listed.split(",")
                      if rule.strip()} if listed else set())
            self.suppressions[lineno] = rules
        if self.tree is not None and self.suppressions:
            self._expand_statement_spans()

    def _expand_statement_spans(self) -> None:
        """Resolve suppressions against each statement's full line span.

        A multi-line call flags at the line its AST node starts on, but
        the natural place to write the comment is the closing-paren
        line (or a decorator line, for a decorated def). Any
        suppression comment inside a simple statement's span — or a
        compound statement's header/decorator span, its body excluded —
        covers every line of that span."""
        spans: list[tuple[int, int]] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            start = node.lineno
            end = node.end_lineno or start
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.decorator_list:
                    start = min(dec.lineno
                                for dec in node.decorator_list)
                end = node.body[0].lineno - 1 if node.body else end
            elif hasattr(node, "cases"):  # match statement header
                end = node.subject.end_lineno or start
            else:
                body = getattr(node, "body", None)
                if isinstance(body, list) and body and \
                        isinstance(body[0], ast.stmt):
                    end = body[0].lineno - 1
            if end > start:
                spans.append((start, end))
        for start, end in spans:
            covered = [self.suppressions[line]
                       for line in range(start, end + 1)
                       if line in self.suppressions]
            if not covered:
                continue
            bare = any(not rules for rules in covered)
            merged: set[str] = set() if bare else set().union(*covered)
            for line in range(start, end + 1):
                existing = self.suppressions.get(line)
                if existing is None:
                    self.suppressions[line] = set(merged)
                elif bare or not existing:
                    self.suppressions[line] = set()
                else:
                    existing.update(merged)

    def in_package(self, *parts: str) -> bool:
        """Whether any path component equals one of ``parts`` — the
        hook rules use to scope themselves (e.g. the catalogue rules
        accept scratch names inside ``tests`` and ``benchmarks``)."""
        components = set(Path(self.display).parts)
        return bool(components.intersection(parts))

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if rules is None:
            return False
        return not rules or finding.rule in rules

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "parse-error" if self.parse_error else \
            f"{len(self.lines)} lines"
        return f"<SourceFile {self.display} ({state})>"


class Rule:
    """Base class for lint rules; subclasses set the class attributes
    and override one of the two check hooks."""

    id: str = ""
    severity: str = "error"
    description: str = ""

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        """Per-file findings (the common case)."""
        return ()

    def check_project(self,
                      sources: Sequence[SourceFile]) -> Iterable[Finding]:
        """Whole-file-set findings (cross-file invariants)."""
        return ()

    def finding(self, source: SourceFile, node: ast.AST | int,
                message: str) -> Finding:
        """Build a finding at an AST node (or explicit line number)."""
        line = node if isinstance(node, int) else \
            getattr(node, "lineno", 0)
        return Finding(source.display, line, self.id, message,
                       self.severity)


#: id -> rule class, in registration order.
_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the default rule set."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    _load_rule_modules()
    return [rule_class() for rule_class in _REGISTRY.values()]


def rule_ids() -> list[str]:
    _load_rule_modules()
    return list(_REGISTRY)


def get_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """The rule set, optionally narrowed by ``select``.

    ``select`` entries are exact rule ids or glob patterns
    (``metric-*``); each entry must match at least one registered rule.
    """
    rules = all_rules()
    if select is None:
        return rules
    ids = [rule.id for rule in rules]
    wanted: set[str] = set()
    unknown: list[str] = []
    for pattern in select:
        pattern = pattern.strip()
        if not pattern:
            continue
        matches = [rule_id for rule_id in ids
                   if fnmatchcase(rule_id, pattern)]
        if matches:
            wanted.update(matches)
        else:
            unknown.append(pattern)
    if unknown:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown rule id(s)/pattern(s) {sorted(unknown)}; "
            f"known: {known}")
    return [rule for rule in rules if rule.id in wanted]


def _load_rule_modules() -> None:
    """Import the rule modules (registration happens on import)."""
    from . import (rules_collector, rules_determinism,  # noqa: F401
                   rules_exceptions, rules_observability,
                   rules_resilience)


# ---------------------------------------------------------------------------
# file discovery and the runner
# ---------------------------------------------------------------------------

def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """All ``*.py`` files under the given files/directories, sorted so
    runs are reproducible regardless of filesystem order."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                candidate for candidate in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(candidate.parts))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def load_source(path: Path) -> SourceFile:
    return SourceFile(path, path.as_posix(), path.read_text())


@dataclass
class AnalysisResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)   # new
    accepted: list[Finding] = field(default_factory=list)   # baselined
    files: int = 0
    rules: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary_line(self) -> str:
        status = "clean" if self.ok else \
            f"{len(self.findings)} finding(s)"
        accepted = f", {len(self.accepted)} baselined" if self.accepted \
            else ""
        return (f"lsd-lint: {status}{accepted} "
                f"({self.files} files, {self.rules} rules)")


def analyze_sources(sources: Sequence[SourceFile],
                    rules: Sequence[Rule] | None = None,
                    baseline: Baseline | None = None) -> AnalysisResult:
    """Run ``rules`` over parsed sources; split against ``baseline``."""
    rules = list(get_rules() if rules is None else rules)
    raw: list[Finding] = []
    for source in sources:
        if source.parse_error is not None:
            error = source.parse_error
            raw.append(Finding(
                source.display, error.lineno or 0, "parse-error",
                f"file does not parse: {error.msg}"))
            continue
        for rule in rules:
            raw.extend(rule.check_file(source))
    parsed = [source for source in sources if source.tree is not None]
    for rule in rules:
        raw.extend(rule.check_project(parsed))

    by_display = {source.display: source for source in sources}
    visible = [finding for finding in raw
               if not (finding.path in by_display
                       and by_display[finding.path].is_suppressed(
                           finding))]
    new, accepted = (baseline or Baseline()).split(visible)
    return AnalysisResult(sort_findings(new), accepted,
                          files=len(sources), rules=len(rules))


def analyze_paths(paths: Sequence[str | Path],
                  rules: Sequence[Rule] | None = None,
                  baseline: Baseline | None = None) -> AnalysisResult:
    """Load every Python file under ``paths`` and analyze it."""
    sources = [load_source(path) for path in iter_python_files(paths)]
    return analyze_sources(sources, rules, baseline)
