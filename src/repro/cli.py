"""Command-line interface for the LSD reproduction.

Five subcommands::

    python -m repro generate --domain real_estate_1 --out data/
        Materialise a synthetic evaluation domain on disk: the mediated
        DTD, the domain constraints, and per source a schema DTD, an XML
        listings file, and the ground-truth mapping.

    python -m repro train --mediated data/mediated.dtd \\
        --train data/homeseekers.com data/yahoo-homes.com \\
        [--constraints data/constraints.txt] --model model.lsd
        Train LSD on user-mapped source directories (each containing
        schema.dtd, listings.xml, mapping.txt) and save the model.

    python -m repro match --model model.lsd --schema s.dtd \\
        --listings l.xml [--feedback tag=LABEL ...] [--out mapping.txt] \\
        [--workers N] [--profile] \\
        [--trace-out trace.jsonl] [--report-out report.json]
        Propose 1-1 mappings for a new source; feedback constraints pin
        or re-run exactly as in §4.3. ``--workers N`` with N > 1 runs
        learner prediction on a persistent pool of N forked worker
        processes that inherit the trained model (1, the default, is
        serial; identical results at any count); ``--profile`` prints
        the per-stage timing table; ``--trace-out``
        and ``--report-out`` turn on the observability layer and write
        the span trace (JSONL) and the run report (JSON).

    python -m repro evaluate --domain real_estate_1 --experiment ladder
        Run one of the paper's experiments and print its table.

    python -m repro analyze [lint-args ...]
        Run the project's static checker and sanitizers (the ``lsd-lint``
        console script) over the given paths; see
        ``python -m repro analyze --help`` for its options.

    python -m repro ledger history|diff|check [--ledger PATH ...]
        Inspect the append-only run ledger (``.lsd/ledger.jsonl``):
        ``history`` lists recent runs, ``diff`` compares the two most
        recent comparable runs, ``check`` gates the newest run of each
        series against its trailing baseline window and exits nonzero
        on a regression.

``match`` also takes ``--ledger-out``, which appends the run's summary
to the ledger. The trace, the report and the ledger are a run's whole
record: ``--profile`` and the report's stage timings and metrics are
views of the trace.

``match`` also takes durability flags (see :mod:`repro.runtime`):
``--checkpoint-dir``/``--resume`` make runs crash-safe — a killed run
restarted with ``--resume`` warm-starts the constraint search from its
saved incumbent (or reuses the committed mapping) and produces a
byte-identical mapping — while ``--watchdog SECONDS`` kills hung
worker processes and ``--rss-limit MIB`` arms the memory guardrails.
SIGTERM/SIGINT finish cleanly with best-so-far results and flushed
artifacts.

Mapping files are plain text: one ``source-tag = LABEL`` per line, ``#``
comments allowed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import signal
import sys
import time
from pathlib import Path

from .constraints import AssignmentConstraint, parse_constraints
from .core import LSDSystem, Mapping, MediatedSchema, SourceSchema
from .core.persistence import ModelFormatError, load_system, save_system
from .datasets import DOMAIN_NAMES, load_domain
from .learners import default_learners
from .observability import (Observer, build_match_report,
                            dataset_fingerprint, with_trace,
                            write_report)
from .resilience import (FaultInjected, FaultPlan, ResiliencePolicy,
                         ingest_fragments)
from .xmlio import (INGEST_MODES, parse_dtd, parse_fragments, write_dtd,
                    write_element)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "analyze":
        # Forwarded verbatim (argparse.REMAINDER cannot pass through
        # leading option-like arguments such as ``--list-rules``).
        return _cmd_analyze_argv(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; the
        # conventional quiet exit (and a detached stdout so the
        # interpreter's shutdown flush cannot raise again).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


class CliError(Exception):
    """A user-facing CLI failure (bad paths, malformed inputs)."""


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LSD schema matching (SIGMOD 2001 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="materialise a synthetic domain on disk")
    generate.add_argument("--domain", required=True,
                          choices=list(DOMAIN_NAMES))
    generate.add_argument("--out", required=True, type=Path)
    generate.add_argument("--listings", type=int, default=100,
                          help="listings per source (default 100)")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    train = commands.add_parser(
        "train", help="train LSD on mapped source directories")
    train.add_argument("--mediated", required=True, type=Path,
                       help="mediated schema DTD file")
    train.add_argument("--train", required=True, nargs="+", type=Path,
                       metavar="SOURCE_DIR",
                       help="directories with schema.dtd, listings.xml, "
                            "mapping.txt")
    train.add_argument("--constraints", type=Path,
                       help="domain constraint declarations file")
    train.add_argument("--model", required=True, type=Path,
                       help="where to save the trained model")
    train.add_argument("--max-instances", type=int, default=100,
                       help="instance cap per tag (default 100)")
    train.add_argument("--trace-out", type=Path,
                       help="write the training trace (JSONL, one span "
                            "per line) to this file")
    _add_resilience_flags(train)
    train.set_defaults(handler=_cmd_train)

    match = commands.add_parser(
        "match", help="propose mappings for a new source")
    match.add_argument("--model", required=True, type=Path)
    match.add_argument("--schema", required=True, type=Path)
    match.add_argument("--listings", required=True, type=Path)
    match.add_argument("--feedback", nargs="*", default=[],
                       metavar="TAG=LABEL",
                       help="user corrections applied as constraints")
    match.add_argument("--top", type=int, default=3,
                       help="candidates to display per tag (default 3)")
    match.add_argument("--out", type=Path,
                       help="write the mapping to this file")
    match.add_argument("--workers", type=int, default=1,
                       help="worker processes for learner prediction "
                            "(default 1 = serial, no pool; results are "
                            "identical at any worker count)")
    match.add_argument("--profile", action="store_true",
                       help="print the per-stage timing/counter table "
                            "after matching")
    match.add_argument("--trace-out", type=Path,
                       help="write the run's trace (JSONL, one span per "
                            "line) to this file")
    match.add_argument("--report-out", type=Path,
                       help="write the run report (JSON: config, dataset "
                            "fingerprint, stage timings, metrics, "
                            "quality records, mapping) to this file")
    match.add_argument("--ledger-out", type=Path, metavar="PATH",
                       help="append this run's summary (fingerprint, "
                            "config, timings, metrics) to the run "
                            "ledger at PATH (JSONL; see 'repro ledger')")
    match.add_argument("--ledger-label", default="match",
                       help="series label for the ledger entry "
                            "(default 'match'; runs are only compared "
                            "within the same label + fingerprint)")
    _add_resilience_flags(match)
    _add_durability_flags(match)
    match.set_defaults(handler=_cmd_match)

    evaluate = commands.add_parser(
        "evaluate", help="run one of the paper's experiments")
    evaluate.add_argument("--domain", required=True,
                          choices=list(DOMAIN_NAMES))
    evaluate.add_argument("--experiment", default="ladder",
                          choices=["ladder", "lesion", "information",
                                   "feedback"])
    evaluate.add_argument("--listings", type=int, default=25)
    evaluate.add_argument("--trials", type=int, default=1)
    evaluate.add_argument("--splits", type=int, default=2)
    evaluate.set_defaults(handler=_cmd_evaluate)

    # ``analyze`` is dispatched in :func:`main` before argparse runs (its
    # arguments forward verbatim to lsd-lint); it is declared here only
    # so it shows up in ``repro --help``.
    commands.add_parser(
        "analyze", add_help=False,
        help="run the static checker / sanitizers (lsd-lint)")

    ledger = commands.add_parser(
        "ledger", help="inspect the run ledger and gate regressions")
    ledger.add_argument("action",
                        choices=["history", "diff", "check"],
                        help="history: list recent runs; diff: compare "
                             "the two newest comparable runs; check: "
                             "gate the newest run of each series "
                             "against its trailing baseline (nonzero "
                             "exit on regression)")
    ledger.add_argument("--ledger", type=Path,
                        default=None, metavar="PATH",
                        help="ledger file (default .lsd/ledger.jsonl)")
    ledger.add_argument("--label",
                        help="restrict to one series label")
    ledger.add_argument("--limit", type=int, default=20,
                        help="history rows to show (default 20)")
    ledger.add_argument("--window", type=int, default=None,
                        help="baseline window size for check "
                             "(default 3)")
    ledger.add_argument("--max-slowdown", type=float, default=None,
                        help="check fails when total seconds exceed "
                             "the baseline mean by this factor "
                             "(default 1.5)")
    ledger.add_argument("--max-accuracy-drop", type=float,
                        default=None,
                        help="check fails when accuracy drops more "
                             "than this below the baseline best "
                             "(default 0.02)")
    ledger.set_defaults(handler=_cmd_ledger)

    return parser


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "resilience",
        "fault tolerance and graceful degradation (all off by default; "
        "degraded runs are reported in the run report's 'degradation' "
        "section)")
    group.add_argument("--input-mode", choices=list(INGEST_MODES),
                       default="strict",
                       help="how to ingest listings XML: 'strict' "
                            "rejects malformed input (default), "
                            "'lenient' repairs what it can, 'salvage' "
                            "keeps only well-formed listings")
    group.add_argument("--fault-plan", type=Path,
                       help="JSON fault-injection plan for chaos "
                            "testing (see repro.resilience)")
    group.add_argument("--retries", type=int, default=0,
                       help="retry budget per parallel task (default 0)")
    group.add_argument("--backoff", type=float, default=0.05,
                       help="base seconds for seeded exponential retry "
                            "backoff (default 0.05)")
    group.add_argument("--deadline", type=float,
                       help="overall seconds budget; the constraint "
                            "search returns its best-so-far mapping "
                            "when it expires")
    group.add_argument("--learner-timeout", type=float,
                       help="per-call seconds cap on base-learner "
                            "fit/predict; a learner that exceeds it is "
                            "quarantined for the run")


def _add_durability_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "durability",
        "crash-safe checkpointing, watchdog supervision, and memory "
        "guardrails (all off by default; see repro.runtime)")
    group.add_argument("--checkpoint-dir", type=Path, metavar="DIR",
                       help="persist the search incumbent and the "
                            "final mapping under DIR/<run-key>/ "
                            "(atomic, versioned); a killed run "
                            "restarted with --resume produces a "
                            "byte-identical mapping")
    group.add_argument("--resume", action="store_true",
                       help="resume from the checkpoint under "
                            "--checkpoint-dir: a committed mapping "
                            "loads from disk, otherwise the constraint "
                            "search warm-starts from its last saved "
                            "incumbent")
    group.add_argument("--watchdog", type=float, metavar="SECONDS",
                       help="supervision deadline: a worker process "
                            "holding a shard longer than this is killed "
                            "and the shard re-dispatched (requires "
                            "--workers > 1; --deadline bounds the "
                            "search)")
    group.add_argument("--rss-limit", type=float, metavar="MIB",
                       help="memory guardrail: a prediction map planned "
                            "at 90%% of this RSS budget runs at half the "
                            "shard grain, and at 97%% the search "
                            "degrades to best-so-far results instead of "
                            "being OOM-killed")


def _build_policy(args: argparse.Namespace) -> ResiliencePolicy:
    plan = None
    if args.fault_plan:
        try:
            plan = FaultPlan.from_json(_read_text(args.fault_plan))
        except ValueError as exc:
            raise CliError(f"{args.fault_plan}: {exc}") from exc
    if args.retries < 0:
        raise CliError("--retries must be >= 0")
    rss_limit = getattr(args, "rss_limit", None)
    return ResiliencePolicy(
        input_mode=args.input_mode,
        retries=args.retries,
        backoff=args.backoff,
        deadline=args.deadline,
        learner_timeout=args.learner_timeout,
        fault_plan=plan,
        rss_limit=None if rss_limit is None
        else max(1, int(rss_limit * (1 << 20))),
        watchdog=getattr(args, "watchdog", None))


def _emit_artifact(artifact: str, path, report, write) -> bool:
    """Run one observability-artifact write; absorb an injected
    artifact fault (or an OS-level write failure) as a degradation.

    The run's *results* must survive the loss of its telemetry: the
    mapping is already computed and printed by the time artifacts are
    emitted, so a crash here would throw away a successful match. The
    atomic writer guarantees the destination file is never corrupted
    (``FaultInjected`` from the ``artifact.write`` site propagates up
    to exactly this boundary); this guard turns the loss into a
    recorded degradation instead of a traceback.
    """
    try:
        write()
    except (FaultInjected, OSError) as exc:
        if report is not None:
            report.artifact_failed(artifact, str(exc))
        print(f"warning: {artifact} not written to {path}: {exc}",
              file=sys.stderr)
        return False
    return True


def _load_model(path: Path) -> LSDSystem:
    try:
        return load_system(path)
    except ModelFormatError as exc:
        raise CliError(str(exc)) from exc
    except OSError as exc:
        raise CliError(f"cannot read model {path}: {exc}") from exc


def _save_model(system: LSDSystem, path: Path) -> None:
    try:
        save_system(system, path)
    except OSError as exc:
        raise CliError(f"cannot write model {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    domain = load_domain(args.domain, seed=args.seed)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)

    (out / "mediated.dtd").write_text(write_dtd(domain.mediated_schema.dtd))
    _write_domain_constraints(domain, out / "constraints.txt")

    for source in domain.sources:
        source_dir = out / source.name
        source_dir.mkdir(exist_ok=True)
        (source_dir / "schema.dtd").write_text(write_dtd(source.schema.dtd))
        listings = source.listings(args.listings)
        body = "\n".join(write_element(l, indent=2) for l in listings)
        (source_dir / "listings.xml").write_text(body + "\n")
        (source_dir / "mapping.txt").write_text(
            _render_mapping(source.mapping))
        print(f"wrote {source_dir} ({len(listings)} listings, "
              f"{len(source.schema.tags)} tags)")
    print(f"domain {domain.title!r} written to {out}")
    return 0


def _write_domain_constraints(domain, path: Path) -> None:
    """Regenerate the domain's constraint declarations from its module."""
    from .datasets import faculty, real_estate, real_estate2, \
        time_schedule

    texts = {
        "real_estate_1": real_estate.CONSTRAINTS,
        "time_schedule": time_schedule.CONSTRAINTS,
        "faculty": faculty.CONSTRAINTS,
        "real_estate_2": real_estate2.CONSTRAINTS,
    }
    path.write_text(texts[domain.name].strip() + "\n")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _cmd_train(args: argparse.Namespace) -> int:
    # Training keeps no metrics registry: its trace is the only record
    # it writes.
    obs = with_trace(None)
    policy = _build_policy(args)
    with obs.trace.span("run", command="train"):
        mediated = MediatedSchema(_read_dtd(args.mediated))
        constraints = []
        if args.constraints:
            constraints = parse_constraints(_read_text(args.constraints))
        system = LSDSystem(mediated, default_learners(),
                           constraints=constraints,
                           max_instances_per_tag=args.max_instances,
                           policy=policy)
        for source_dir in args.train:
            schema, listings, mapping = _read_source_dir(source_dir,
                                                         policy)
            system.add_training_source(schema, listings, mapping)
            print(f"added training source {source_dir} "
                  f"({len(listings)} listings)")
        system.train(observer=obs)
        _save_model(system, args.model)
    if args.trace_out:
        if _emit_artifact(
                "trace", args.trace_out, policy.report,
                lambda: obs.trace.write_jsonl(args.trace_out,
                                              plan=policy.fault_plan)):
            print(f"trace written to {args.trace_out}")
    degradation = policy.finalize()
    if degradation.degraded:
        print("DEGRADED RUN: " + degradation.summary(), file=sys.stderr)
    quarantined = policy.report.quarantined_learners
    if quarantined:
        print("WARNING: quarantined learners (training continued "
              "without them): " + ", ".join(quarantined))
    print(f"trained on {len(args.train)} source(s); model saved to "
          f"{args.model}")
    return 0


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------

def _cmd_match(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        raise CliError("--resume requires --checkpoint-dir")
    if args.watchdog is not None and args.watchdog <= 0:
        raise CliError("--watchdog must be > 0 seconds")
    if args.watchdog is not None and args.workers <= 1:
        # The hung-worker kill lives in the process pool; a serial run
        # has no pool, so the flag would do nothing.
        raise CliError("--watchdog requires --workers > 1")
    if args.rss_limit is not None and args.rss_limit <= 0:
        raise CliError("--rss-limit must be > 0 MiB")
    policy = _build_policy(args)
    with _graceful_shutdown(policy):
        return _run_match(args, policy)


@contextlib.contextmanager
def _graceful_shutdown(policy: ResiliencePolicy):
    """SIGTERM/SIGINT land a *clean* finish instead of a traceback.

    The first signal trips the run deadline: the constraint search
    exits on its anytime path with the best-so-far mapping, and the
    run then flushes every artifact — checkpoint writes are
    synchronous, so whatever was saved is already on disk, and the
    trace/report/ledger all pass through their normal end-of-run
    writers. A second signal restores the default disposition and
    re-delivers, so a stuck run can still be force-quit. Handlers are restored on exit, keeping
    in-process use (tests, notebooks) side-effect free.
    """
    seen = {"signals": 0}

    def handler(signum, frame):
        seen["signals"] += 1
        name = signal.Signals(signum).name
        if seen["signals"] > 1:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        print(f"received {name}: finishing with best-so-far results "
              f"(repeat to force quit)", file=sys.stderr)
        policy.report.watchdog_event("shutdown", f"{name} received")
        policy.trip_deadline()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, handler)
        except ValueError:
            # Not the main thread (embedded use): signals stay with
            # whoever owns them.
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _open_checkpoint(args: argparse.Namespace,
                     policy: ResiliencePolicy, fingerprint: str):
    """Build and open the run's :class:`Checkpointer`, or ``None``
    when ``--checkpoint-dir`` is off (the default costs nothing).

    The run key covers the model file's bytes: a resume under another
    model must not serve the first model's incumbent or mapping."""
    if not args.checkpoint_dir:
        return None
    from .runtime import Checkpointer, run_key

    model_sha = hashlib.sha256(args.model.read_bytes()).hexdigest()
    key = run_key(fingerprint, feedback=args.feedback,
                  settings={"input_mode": args.input_mode,
                            "model": model_sha})
    checkpoint = Checkpointer(args.checkpoint_dir, key,
                              plan=policy.fault_plan,
                              report=policy.report)
    checkpoint.open(resume=args.resume)
    return checkpoint


def _run_match(args: argparse.Namespace,
               policy: ResiliencePolicy) -> int:
    observer = Observer.full() \
        if args.trace_out or args.report_out else None
    obs = with_trace(observer)
    # The root span covers the whole run — model load and input parsing
    # included — so trace consumers can attribute all wall time; its
    # elapsed is the run's total.
    with obs.trace.span("run", command="match") as run_span:
        with obs.trace.span("load_model"):
            system = _load_model(args.model)
        system.workers = args.workers
        system.policy = policy
        with obs.trace.span("parse_inputs"):
            schema = SourceSchema(_read_dtd(args.schema))
            listings = _read_listings(args.listings, policy)
        feedback = [
            AssignmentConstraint(*_parse_feedback(item))
            for item in args.feedback
        ]
        # The run key needs the dataset fingerprint, so it is computed
        # before matching (the report and ledger reuse it afterwards).
        fingerprint = dataset_fingerprint(
            schema.tags,
            [listing.text_content() for listing in listings])
        checkpoint = _open_checkpoint(args, policy, fingerprint)
        if checkpoint is not None:
            if checkpoint.resumed_from:
                done = ", ".join(checkpoint.manifest["stages"]) or "none"
                print(f"resuming run {checkpoint.run_id} from "
                      f"{checkpoint.resumed_from} "
                      f"(stages checkpointed: {done})")
            else:
                print(f"checkpointing run {checkpoint.run_id} under "
                      f"{checkpoint.dir}")
        try:
            result = system.match(schema, listings,
                                  extra_constraints=feedback,
                                  observer=obs,
                                  checkpoint=checkpoint)
        finally:
            # Process-backend hygiene: workers never outlive the
            # command.
            system.close_pool()
    total_seconds = run_span.span.elapsed

    degradation = result.degradation
    if degradation is not None and degradation.degraded:
        print("DEGRADED RUN: " + degradation.summary(),
              file=sys.stderr)
    print(f"proposed mappings for {args.schema.name}:")
    for tag in sorted(result.mapping.tags()):
        candidates = ", ".join(
            f"{label}:{score:.2f}"
            for label, score in result.top_candidates(tag, args.top))
        print(f"  {tag:<20} => {result.mapping[tag]:<20} [{candidates}]")
    if args.out:
        args.out.write_text(_render_mapping(result.mapping))
        print(f"mapping written to {args.out}")
    if args.profile:
        print(f"\nstage profile (workers={args.workers}):")
        print(result.profile.table())
    if args.trace_out:
        if _emit_artifact(
                "trace", args.trace_out, policy.report,
                lambda: obs.trace.write_jsonl(args.trace_out,
                                              plan=policy.fault_plan)):
            print(f"trace written to {args.trace_out}")
    if args.report_out:
        config = {"model": str(args.model),
                  "schema": str(args.schema),
                  "listings": str(args.listings),
                  "workers": args.workers,
                  "top": args.top,
                  "feedback": len(feedback)}
        # Non-default settings only: a plain strict run's report stays
        # byte-identical to builds without these flags.
        if args.input_mode != "strict":
            config["input_mode"] = args.input_mode
        if args.fault_plan:
            config["fault_plan"] = str(args.fault_plan)
        if args.retries:
            config["retries"] = args.retries
        if args.deadline is not None:
            config["deadline"] = args.deadline
        if args.learner_timeout is not None:
            config["learner_timeout"] = args.learner_timeout
        if checkpoint is not None:
            config["run_id"] = checkpoint.run_id
            if checkpoint.resumed_from:
                config["resumed_from"] = checkpoint.resumed_from
        report = build_match_report(
            config=config,
            dataset={"fingerprint": fingerprint,
                     "tags": len(schema.tags),
                     "instances": result.profile.counters["instances"],
                     "listings": len(listings)},
            result=result, observer=observer)
        if _emit_artifact(
                "report", args.report_out, policy.report,
                lambda: write_report(report, args.report_out,
                                     plan=policy.fault_plan)):
            print(f"run report written to {args.report_out}")
    if args.ledger_out:
        from .observability import ledger as run_ledger

        backend = "process" if args.workers > 1 else "serial"
        entry = run_ledger.build_entry(
            label=args.ledger_label,
            fingerprint=fingerprint,
            created=time.time(),
            config={"workers": args.workers, "backend": backend},
            host=run_ledger.host_info(backend=backend,
                                      workers=args.workers),
            timings={**result.timings, "total": total_seconds},
            metrics={"instances": result.profile.counters["instances"],
                     "tags": len(schema.tags)},
            run_id=checkpoint.run_id
            if checkpoint is not None else None,
            resumed_from=checkpoint.resumed_from
            if checkpoint is not None else None)
        if _emit_artifact(
                "ledger", args.ledger_out, policy.report,
                lambda: run_ledger.append_entry(
                    entry, args.ledger_out,
                    plan=policy.fault_plan)):
            print(f"ledger entry appended to {args.ledger_out}")
    return 0


def _parse_feedback(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise CliError(f"feedback must look like TAG=LABEL, got {item!r}")
    tag, label = item.split("=", 1)
    return tag.strip(), label.strip()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import (ExperimentSettings, feedback_table,
                             ladder_table, run_feedback_study,
                             run_information_study, run_ladder,
                             run_lesion_study, study_table)

    domain = load_domain(args.domain, seed=0)
    settings = ExperimentSettings(
        n_listings=args.listings, trials=args.trials,
        max_splits=None if args.splits >= 10 else args.splits,
        max_instances_per_tag=args.listings)

    if args.experiment == "ladder":
        print(ladder_table({domain.name: run_ladder(domain, settings)}))
    elif args.experiment == "lesion":
        print(study_table({domain.name: run_lesion_study(domain,
                                                         settings)},
                          "Lesion study"))
    elif args.experiment == "information":
        print(study_table(
            {domain.name: run_information_study(domain, settings)},
            "Schema vs data information"))
    else:
        study = run_feedback_study(domain, settings, runs=3)
        print(feedback_table([study]))
    return 0


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def _cmd_ledger(args: argparse.Namespace) -> int:
    from .observability import ledger as run_ledger

    path = args.ledger if args.ledger is not None \
        else run_ledger.DEFAULT_PATH
    try:
        entries = run_ledger.read_ledger(path)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    if args.action == "history":
        if args.label is not None:
            entries = [entry for entry in entries
                       if entry.get("label") == args.label]
        print(run_ledger.render_history(entries, limit=args.limit))
        return 0

    if args.action == "diff":
        if args.label is not None:
            candidates = [entry for entry in entries
                          if entry.get("label") == args.label]
        else:
            candidates = entries
        if not candidates:
            print("no matching ledger entries")
            return 0
        newest = candidates[-1]
        series = run_ledger.series_of(entries, newest.get("label"),
                                      newest.get("fingerprint"))
        if len(series) < 2:
            print(f"{newest.get('label')} @ "
                  f"{newest.get('fingerprint')}: only one run "
                  "recorded; nothing to diff")
            return 0
        print(run_ledger.render_diff(
            run_ledger.diff_entries(series[-2], series[-1])))
        return 0

    ok, text = run_ledger.check_ledger(
        path, label=args.label,
        window=args.window if args.window is not None
        else run_ledger.DEFAULT_WINDOW,
        max_slowdown=args.max_slowdown
        if args.max_slowdown is not None
        else run_ledger.DEFAULT_MAX_SLOWDOWN,
        max_accuracy_drop=args.max_accuracy_drop
        if args.max_accuracy_drop is not None
        else run_ledger.DEFAULT_MAX_ACCURACY_DROP)
    print(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze_argv(lint_args: list[str]) -> int:
    # Lazy import: the analysis package is tooling, not pipeline code,
    # and the other subcommands should not pay for loading it.
    from .analysis.cli import main as lint_main

    return lint_main(lint_args)


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _read_text(path: Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_dtd(path: Path):
    from .xmlio import DTDSyntaxError

    try:
        return parse_dtd(_read_text(path))
    except DTDSyntaxError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _read_listings(path: Path, policy: ResiliencePolicy | None = None):
    from .resilience import FaultInjected
    from .xmlio import XMLSyntaxError

    text = _read_text(path)
    if policy is None:
        try:
            return parse_fragments(text)
        except XMLSyntaxError as exc:
            raise CliError(f"{path}: {exc}") from exc
    try:
        listings, log = ingest_fragments(text, mode=policy.input_mode,
                                         plan=policy.fault_plan)
    except (XMLSyntaxError, FaultInjected) as exc:
        raise CliError(
            f"{path}: {exc} (rerun with --input-mode lenient to "
            f"repair, or salvage to keep only well-formed listings)"
            ) from exc
    policy.report.attach_recovery(log)
    if not listings:
        raise CliError(
            f"{path}: no listings survived {policy.input_mode} "
            f"ingestion")
    return listings


def _read_source_dir(source_dir: Path,
                     policy: ResiliencePolicy | None = None):
    source_dir = Path(source_dir)
    if not source_dir.is_dir():
        raise CliError(f"{source_dir} is not a directory")
    schema = SourceSchema(_read_dtd(source_dir / "schema.dtd"),
                          name=source_dir.name)
    listings = _read_listings(source_dir / "listings.xml", policy)
    mapping = _parse_mapping(_read_text(source_dir / "mapping.txt"),
                             source_dir / "mapping.txt")
    return schema, listings, mapping


def _render_mapping(mapping: Mapping) -> str:
    lines = [f"{tag} = {label}"
             for tag, label in sorted(mapping.items())]
    return "\n".join(lines) + "\n"


def _parse_mapping(text: str, origin: Path) -> Mapping:
    assignments: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(
                f"{origin}:{line_number}: expected 'tag = LABEL', got "
                f"{line!r}")
        tag, label = (part.strip() for part in line.split("=", 1))
        if not tag or not label:
            raise CliError(
                f"{origin}:{line_number}: empty tag or label")
        assignments[tag] = label
    return Mapping(assignments)


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
