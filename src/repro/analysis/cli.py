"""``lsd-lint``: the command-line front end of :mod:`repro.analysis`.

Lint mode (the default) runs the per-file rule set over the given
paths::

    lsd-lint src tests benchmarks
    lsd-lint --write-baseline src        # accept current findings
    lsd-lint --json findings.json src    # CI artifact
    lsd-lint --select blind-except src   # one rule only
    lsd-lint --select 'metric-*' src     # glob over rule ids
    lsd-lint --list-rules

Flow mode runs the interprocedural ``flow-*`` rules instead — it
builds the project call graph once, runs the determinism / worker-
purity / fault-escape lattices over it, and gates against its own
baseline (``analysis-flow-baseline.txt``)::

    lsd-lint --flow src
    lsd-lint --flow --dump-callgraph callgraph.json src
    lsd-lint --flow --dump-callgraph callgraph.dot src

Sanitize mode runs the dynamic harnesses instead::

    lsd-lint --sanitize                  # cache shaker + determinism
    lsd-lint --sanitize --iterations 50 --workers 4

Exit codes: 0 clean, 1 findings (or sanitizer divergence), 2 usage
errors. The baseline defaults to ``analysis-baseline.txt``
(``analysis-flow-baseline.txt`` under ``--flow``) when that file
exists in the working directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import (all_rules, analyze_sources, get_rules,
                     iter_python_files, load_source)
from .findings import Baseline, findings_to_json

#: The conventional checked-in baseline filename.
DEFAULT_BASELINE = "analysis-baseline.txt"

#: The separate baseline the interprocedural gate runs against.
DEFAULT_FLOW_BASELINE = "analysis-flow-baseline.txt"


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
             "(e.g. 'flow-*,metric-*'; default: all per-file rules)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule set and exit")
    parser.add_argument(
        "--flow", action="store_true",
        help="run the interprocedural flow-* rules (call-graph "
             "reachability) instead of the per-file rule set")
    parser.add_argument(
        "--dump-callgraph", metavar="FILE", default=None,
        help="write the project call graph (.dot suffix for GraphViz, "
             "anything else for JSON with resolution stats)")
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
        kind = "flow" if rule.requires_flow else "file"
        print(f"{rule.id:28} {rule.severity:8} {kind:5} "
              f"{rule.description}")
    return 0


def _sanitize(args: argparse.Namespace) -> int:
    from .sanitizer import run_all

    reports = run_all(shake_iterations=args.iterations,
                      workers=args.workers, repeats=args.repeats)
    for report in reports:
        print(report.render())
    return 0 if all(report.ok for report in reports) else 1


def _resolve_baseline(args: argparse.Namespace) -> tuple[Baseline, Path]:
    default = DEFAULT_FLOW_BASELINE if args.flow else DEFAULT_BASELINE
    path = Path(args.baseline) if args.baseline else Path(default)
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
        if args.flow:
            rules = get_rules(select or ["flow-*"])
        else:
            rules = get_rules(select)
    except ValueError as exc:
        print(f"lsd-lint: {exc}", file=sys.stderr)
        return 2
    baseline, baseline_path = _resolve_baseline(args)

    sources = [load_source(path)
               for path in iter_python_files(paths)]
    graph = None
    if args.dump_callgraph or any(rule.requires_flow
                                  for rule in rules):
        from .flow.callgraph import build_graph
        graph = build_graph([source for source in sources
                             if source.tree is not None])
    result = analyze_sources(sources, rules=rules, baseline=baseline,
                             graph=graph)

    if args.dump_callgraph:
        out = Path(args.dump_callgraph)
        assert graph is not None
        out.write_text(graph.to_dot() if out.suffix == ".dot"
                       else graph.to_json())
        stats = graph.stats()
        print(f"lsd-lint: call graph -> {out} "
              f"({stats['functions']} functions, "
              f"{stats['edges']} edges, resolution "
              f"{stats['resolution_ratio']:.1%})")

    if args.write_baseline:
        accepted = Baseline.from_findings(
            result.findings + result.accepted)
        accepted.write(baseline_path)
        print(f"lsd-lint: wrote {len(accepted)} accepted finding(s) "
              f"to {baseline_path}")
        return 0

    for finding in result.findings:
        print(finding.render())
        if finding.chain:
            print(f"    via {' -> '.join(finding.chain)}")
    print(result.summary_line())
    if args.json:
        extra = {"callgraph": graph.stats()} if graph is not None \
            else None
        Path(args.json).write_text(
            findings_to_json(result.findings,
                             baselined=len(result.accepted),
                             extra=extra))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
