"""LSD pipeline benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/pipeline/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--json PATH]

With ``--workload`` it runs that one workload in this process and prints
its metrics; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics, or
with ``--trace 1`` the per-layer ones. Without ``--workload`` it runs
every workload in a fresh subprocess of its own, one at a time (with
``--trace``, an untraced and a traced run of each), prints every metric
by name with its unit and the tracing overhead, and checks that the
process-backend ops are byte-identical to the serial ones. ``--smoke``
shrinks every size so the whole harness, checks included, runs in
seconds. ``--json`` writes the full result document. The exit code is
non-zero when any op fails a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
#: The run length when ``--seconds`` is not given (BENCHMARK.json's).
DEFAULT_SECONDS = 15.0
#: A workload subprocess that runs longer than this is a failure.
WORKLOAD_TIMEOUT_S = 180


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, here")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; offsets every sample seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run length; sets the op count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: check the harness in seconds")
    parser.add_argument("--json", type=Path,
                        help="write the full result document here")
    return parser.parse_args(argv)


def import_workloads():
    """The workloads module, once the LSD sources are importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no LSD sources at {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def host() -> dict:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine()}


def print_metrics(values: dict, units: dict, indent: str = "  ") -> None:
    for name, unit in units.items():
        print(f"{indent}{name:<42} {values[name]:>14.6g} {unit}")


def run_one(args: argparse.Namespace, workloads) -> int:
    import layers

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        rec = workloads.run(args.workload, args.seed, args.seconds,
                            args.smoke, bool(args.trace), Path(tmp))
    e2e = rec.end_to_end()
    extra = {
        "failed_frac": rec.failed / rec.attempted,
        "ops": rec.attempted,
        "latency_samples": sum(op.ok for op in rec.ops),
        "op_p90_ms": rec.latency_ms(90),
        "setup_wall_s": statistics.median(rec.setup_wall_s),
        "op_p50_wall_ms": rec.latency_ms(50, wall=True),
        "instances_per_s_wall": rec.instances_per_s(wall=True),
        "host_speed": statistics.median(op.speed for op in rec.ops),
        "sessions": len(rec.corrections),
        "corrections_per_source":
            sum(rec.corrections) / len(rec.corrections)
            if rec.corrections else None,
    }
    per_layer = rec.per_layer() if args.trace else {}
    op_shares = rec.tracer.op_shares() if args.trace else {}
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed}, {mode}: {rec.attempted} ops "
          f"in {workloads.ROUNDS} rounds, {rec.failed} failed")
    print_metrics(e2e, workloads.END_TO_END)
    for name, value in extra.items():
        if value is not None:
            print(f"  {name:<42} {value:>14.6g}")
    if args.trace:
        print("  per layer (per op; set-up charged to its round's ops):")
        print_metrics(per_layer, layers.PER_LAYER, indent="    ")
        print(f"    {layers.POOL_START:<42} "
              f"{per_layer[layers.POOL_START]:>14.6g} ms")
        print("  share of op wall time (self time inside ops; "
              "op = no layer):")
        for layer, share in list(op_shares.items())[:10]:
            print(f"    {layer:<42} {share:>14.2%}")
    correct = rec.failed == 0
    if args.json is not None:
        doc = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke,
            "trace": bool(args.trace), "host": host(),
            "correct": correct, "attempted": rec.attempted,
            "failed": rec.failed, "failures": rec.failures,
            "end_to_end": e2e, "extra": extra, "per_layer": per_layer,
            "op_shares": op_shares,
            "digests": rec.digests,
            "op_ms": [op.elapsed * 1e3 for op in rec.ops],
            "op_speed": [op.speed for op in rec.ops],
        }
        if args.trace:
            doc["spans"] = rec.tracer.span_dicts()
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    units = layers.PER_LAYER if args.trace else workloads.END_TO_END
    values = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


def run_workload_process(args: argparse.Namespace, name: str, trace: int,
                         out: Path) -> dict | None:
    """One workload in a fresh subprocess; its result document."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--json", str(out)]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {WORKLOAD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    # Echo the human report; the summary line is reprinted below.
    sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
    if not out.is_file():
        print(f"{name}: exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    return json.loads(out.read_text())


def run_all(args: argparse.Namespace, workloads) -> int:
    import layers

    traces = (0, 1) if args.trace else (0,)
    docs: dict[tuple[str, int], dict] = {}
    missing = 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        for name in workloads.WORKLOADS:
            for trace in traces:
                doc = run_workload_process(
                    args, name, trace, Path(tmp) / f"{name}-{trace}.json")
                if doc is None:
                    missing += 1
                else:
                    doc.pop("spans", None)
                    docs[name, trace] = doc

    # The process backend must reproduce the serial ops byte for byte.
    mismatches = 0
    serial, proc = docs.get(("bulk-re1", 0)), docs.get(("bulk-re1-proc2", 0))
    if serial is not None and proc is not None:
        expected = dict(serial["digests"])
        mismatches = sum(1 for key, value in proc["digests"]
                         if expected.get(key) != value)
    overhead = {}
    for name in workloads.WORKLOADS:
        if (name, 0) in docs and (name, 1) in docs:
            untraced = docs[name, 0]["end_to_end"]["instances_per_s"]
            traced = docs[name, 1]["end_to_end"]["instances_per_s"]
            overhead[name] = 1.0 - traced / untraced if untraced else 0.0

    print("\nsummary (seed %d, %g s per workload%s)"
          % (args.seed, args.seconds, ", smoke" if args.smoke else ""))
    metrics = {}
    for (name, trace), doc in docs.items():
        units = layers.PER_LAYER if trace else workloads.END_TO_END
        values = doc["per_layer"] if trace else doc["end_to_end"]
        print(f"{name} ({'per layer' if trace else 'end to end'}):")
        print_metrics(values, units)
        if not trace:
            extra = doc["extra"]
            print(f"  {'op_p90_ms':<42} {extra['op_p90_ms']:>14.6g} ms "
                  f"(of {extra['latency_samples']} ops)")
            print(f"  {'op_p50_wall_ms':<42} "
                  f"{extra['op_p50_wall_ms']:>14.6g} ms (host speed "
                  f"{extra['host_speed']:.3g})")
            print(f"  {'failed_frac':<42} "
                  f"{extra['failed_frac']:>14.6g} fraction")
            if extra["corrections_per_source"] is not None:
                print(f"  {'corrections_per_source':<42} "
                      f"{extra['corrections_per_source']:>14.6g} count")
        for metric, unit in units.items():
            metrics[f"{name}.{metric}"] = {"value": values[metric],
                                           "unit": unit}
    for name, value in overhead.items():
        print(f"tracing overhead on {name}: {value:.2%} of instances_per_s")
    if serial is not None and proc is not None:
        print(f"process vs serial digests: {mismatches} of "
              f"{len(proc['digests'])} ops differ")

    attempted = sum(doc["attempted"] for doc in docs.values())
    failed = sum(doc["failed"] for doc in docs.values()) + mismatches
    correct = failed == 0 and missing == 0
    if args.json is not None:
        args.json.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "host": host(), "correct": correct,
            "tracing_overhead": overhead,
            "digest_mismatches": mismatches,
            "workloads": {f"{name}/{'traced' if trace else 'untraced'}":
                          doc for (name, trace), doc in docs.items()},
        }, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if workloads is None:
        return 2
    if args.workload is None:
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
