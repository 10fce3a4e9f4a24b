"""``lsd-lint``: the command-line front end of :mod:`repro.analysis`.

Lint mode (the default) runs the rule set over the given paths::

    lsd-lint src tests benchmarks
    lsd-lint --write-baseline src        # accept current findings
    lsd-lint --json findings.json src    # CI artifact
    lsd-lint --select blind-except src   # one rule only
    lsd-lint --select 'metric-*' src     # glob over rule ids
    lsd-lint --list-rules

Sanitize mode runs the dynamic harnesses instead::

    lsd-lint --sanitize                  # cache shaker + determinism
    lsd-lint --sanitize --iterations 50 --workers 4

Exit codes: 0 clean, 1 findings (or sanitizer divergence), 2 usage
errors. The baseline defaults to ``analysis-baseline.txt`` when that
file exists in the working directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import all_rules, analyze_paths, get_rules
from .findings import Baseline, findings_to_json

#: The conventional checked-in baseline filename.
DEFAULT_BASELINE = "analysis-baseline.txt"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsd-lint",
        description=("Project-specific static checks and concurrency/"
                     "determinism sanitizers for the LSD codebase."))
    parser.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=f"baseline file of accepted findings (default: "
             f"{DEFAULT_BASELINE} if present)")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (report all findings)")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline file")
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write findings as a JSON artifact")
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids or glob patterns to run "
             "(e.g. 'metric-*,blind-except'; default: all rules)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule set and exit")
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run the dynamic sanitizers instead of the lint rules")
    parser.add_argument(
        "--iterations", type=int, default=50, metavar="N",
        help="cache-shaker iterations in --sanitize mode (default 50)")
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="parallel worker count diffed against serial in "
             "--sanitize mode (default 4)")
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="determinism-differ match repetitions (default 3)")
    return parser


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id:28} {rule.severity:8} {rule.description}")
    return 0


def _sanitize(args: argparse.Namespace) -> int:
    from .sanitizer import run_all

    reports = run_all(shake_iterations=args.iterations,
                      workers=args.workers, repeats=args.repeats)
    for report in reports:
        print(report.render())
    return 0 if all(report.ok for report in reports) else 1


def _resolve_baseline(args: argparse.Namespace) -> tuple[Baseline, Path]:
    path = Path(args.baseline or DEFAULT_BASELINE)
    if args.no_baseline:
        return Baseline(), path
    if path.exists():
        return Baseline.load(path), path
    if args.baseline:
        raise SystemExit(f"lsd-lint: baseline {path} does not exist")
    return Baseline(), path


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    if args.sanitize:
        return _sanitize(args)

    paths = args.paths or ["src"]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"lsd-lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    select = args.select.split(",") if args.select else None
    try:
        rules = get_rules(select)
    except ValueError as exc:
        print(f"lsd-lint: {exc}", file=sys.stderr)
        return 2
    baseline, baseline_path = _resolve_baseline(args)

    result = analyze_paths(paths, rules=rules, baseline=baseline)

    if args.write_baseline:
        accepted = Baseline.from_findings(
            result.findings + result.accepted)
        accepted.write(baseline_path)
        print(f"lsd-lint: wrote {len(accepted)} accepted finding(s) "
              f"to {baseline_path}")
        return 0

    for finding in result.findings:
        print(finding.render())
    print(result.summary_line())
    if args.json:
        Path(args.json).write_text(
            findings_to_json(result.findings,
                             baselined=len(result.accepted)))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
