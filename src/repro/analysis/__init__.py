"""Project-specific static analysis and dynamic sanitizers.

The static half is an AST-based lint framework (:mod:`.engine`) with
rules for the invariants the test suite does not pin — set-order and
OS-entropy nondeterminism (:mod:`.rules_determinism`), the metric,
event and fault-site catalogues and unclosed spans
(:mod:`.rules_observability`, :mod:`.rules_resilience`), exception
hygiene (:mod:`.rules_exceptions`) and garbage-collector tuning
(:mod:`.rules_collector`) — plus inline ``# lsd: ignore[rule]``
suppressions and a checked-in baseline (:mod:`.findings`).

The dynamic half (:mod:`.sanitizer`) shakes the documented benign-race
caches from many threads and diffs matching output across ``--workers``
counts.

Run it as ``python -m repro.analysis`` or via the ``lsd-lint`` console
script; see :mod:`.cli` for flags.
"""

from .engine import (AnalysisResult, Rule, SourceFile, all_rules,
                     analyze_paths, analyze_sources, get_rules,
                     iter_python_files, load_source, register, rule_ids)
from .findings import (Baseline, Finding, findings_to_json,
                       sort_findings)
from .sanitizer import (SanitizerReport, diff_determinism, run_all,
                        shake_caches)

__all__ = [
    "AnalysisResult", "Baseline", "Finding", "Rule", "SanitizerReport",
    "SourceFile", "all_rules", "analyze_paths", "analyze_sources",
    "diff_determinism", "findings_to_json", "get_rules",
    "iter_python_files", "load_source", "register", "rule_ids",
    "run_all", "shake_caches", "sort_findings",
]
