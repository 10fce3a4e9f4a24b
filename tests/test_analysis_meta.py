"""The meta-check: the shipped rule set over the repo's own code.

This is the lint gate as a test — the repo must stay clean (zero
non-baselined findings) under its own checker, so CI catches a new
determinism/concurrency/hygiene violation the moment it lands.
"""

from pathlib import Path

import pytest

from repro.analysis.cli import DEFAULT_BASELINE
from repro.analysis.engine import analyze_paths
from repro.analysis.findings import Baseline

REPO_ROOT = Path(__file__).resolve().parent.parent


def _baseline() -> Baseline:
    """The checked-in baseline (paths in it are repo-root relative,
    which is why every run below chdirs to the repo root first)."""
    path = REPO_ROOT / DEFAULT_BASELINE
    return Baseline.load(path) if path.exists() else Baseline()


@pytest.mark.parametrize("tree", ["src", "tests", "benchmarks"])
def test_tree_is_lint_clean(tree, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert Path(tree).is_dir(), f"expected {REPO_ROOT / tree} to exist"
    result = analyze_paths([tree], baseline=_baseline())
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok, (
        f"lsd-lint found {len(result.findings)} non-baselined "
        f"finding(s) in {tree}/:\n{rendered}")


def test_whole_repo_run_reports_file_and_rule_counts(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    result = analyze_paths(["src"], baseline=_baseline())
    assert result.files > 50
    assert result.rules == 5
    assert "clean" in result.summary_line()
