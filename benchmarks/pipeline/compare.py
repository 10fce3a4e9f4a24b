"""Run-to-run spread of the pipeline benchmark, and parent-vs-change pairs.

    python3 benchmarks/pipeline/compare.py [--runs N] [--first-seed N]
        [--seconds S] [--workload NAME ...] [--json PATH]
        [CHECKOUT [CHECKOUT]]

With no CHECKOUT, or one, it runs each workload ``--runs`` times in that
checkout (default: this one), one seed per run counting up from
``--first-seed``, and prints for every end-to-end metric the median, the
quartiles and the spread — the distance between the quartiles as a
share of the median — next to the metric's bound in BENCHMARK.json. A
spread under a third of the bound is steady enough to gate on.

With two, parent first and change second, it runs ``--runs`` pairs with
the same seed on both sides, alternating which side runs first, and
prints each side's median and quartiles, the share of pairs the change
wins (ties count for neither) and a verdict: ``better`` when the change
wins at least nine pairs in ten and the medians differ by more than the
parent's quartile distance; ``regression`` when the change's median is
worse than the parent's by more than the bound; ``unresolved`` when the
parent's own spread is wider than the bound; otherwise ``within bound``.
Each checkout runs its own ``benchmarks/pipeline/run.py``, which must be
the same code on both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("bulk-re1", "bulk-re1-proc2", "feedback-re2", "train-ts")
RUN_TIMEOUT_S = 600


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    """One untraced run in ``checkout``: its end-to-end metric values."""
    command = [sys.executable, "benchmarks/pipeline/run.py",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """The change's win share and the verdict for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if (c - p) * sign > 0)
    p, c = summary(parent), summary(change)
    gain = (c["median"] - p["median"]) * sign
    if wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"]:
        return wins / len(parent), "better"
    if -gain > bound * abs(p["median"]):
        if p["spread"] > bound and not (
                min(change) * sign > max(parent) * sign):
            return wins / len(parent), "unresolved"
        return wins / len(parent), "regression"
    if p["spread"] > bound:
        return wins / len(parent), "unresolved"
    return wins / len(parent), "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path,
                        help="one checkout, or parent then change")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0,
                        help="confirm a claim on seeds it was not tuned on")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOADS)
    parser.add_argument("--json", type=Path,
                        help="write every measured value here")
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in args.checkouts] or [ROOT]
    if len(checkouts) > 2 or args.runs < 2:
        parser.error("give at most two checkouts and at least two runs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values: dict = {}
    for workload in args.workload or WORKLOADS:
        sides: list[list[dict]] = [[] for _ in checkouts]
        for run in range(args.runs):
            seed = args.first_seed + run
            order = list(range(len(checkouts)))
            if run % 2:
                order.reverse()
            for side in order:
                sides[side].append(
                    run_once(checkouts[side], workload, seed, seconds))
        values[workload] = sides
        print(f"\n{workload} ({args.runs} runs per side, {seconds:g} s)")
        for name, metric in metrics.items():
            series = [[run[name] for run in side] for side in sides]
            line = f"  {name:<16} {metric['unit']:<9}"
            for side in series:
                s = summary(side)
                line += (f" median {s['median']:<11.5g} q1 {s['q1']:<11.5g}"
                         f" q3 {s['q3']:<11.5g} spread {s['spread']:6.2%}")
            line += f"  bound {metric['bound']:.0%}"
            if len(series) == 2:
                share, word = verdict(series[0], series[1],
                                      metric["better"], metric["bound"])
                line += f"  change wins {share:.0%}: {word}"
            print(line)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"checkouts": [str(path) for path in checkouts],
             "seconds": seconds, "values": values}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
