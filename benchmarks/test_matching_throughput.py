"""Matching-engine throughput: the PR's engine vs the pre-PR pipeline.

Measures end-to-end matching (train once, then match every held-out
source of Real Estate I in one process) under five configurations:

``seed``
    A faithful re-implementation of the pre-PR pipeline: dense WHIRL
    scoring (``todense`` + dense top-k + dense log-sums), no featurize
    memoisation, no duplicate-row collapsing, and structure passes that
    re-predict every instance.
``cache_off``
    The new engine with memoisation switched off (still sparse scoring).
``serial``
    The new engine at ``--workers 1``.
``proc4``
    The new engine at ``--workers 4`` on the process backend (a
    persistent pool of forked workers that inherit the trained model;
    the pool is built during warm-up, so rounds time steady-state
    dispatch, not pool construction).
``ckpt``
    ``serial`` plus an armed checkpoint (``--checkpoint-dir``): the
    search incumbent and the final mapping are written synchronously and
    atomically renamed (not fsynced; see ``repro.runtime.checkpoint``)
    into a fresh checkpoint directory each round. Each source's dataset
    fingerprint (the run key's input) is computed once, before the
    rounds, so the timed rounds cost only the checkpoint writes. Gated
    to within ``CKPT_TOLERANCE`` of ``serial`` — durability must stay
    effectively free — and byte-identical to it.

Configurations are interleaved round-robin and each reports its best
round, so machine-load drift hits all of them equally. The benchmark
asserts that every new-engine configuration produces *byte-identical*
``tag_scores``, that the cached engine beats the seed pipeline by at
least 3x, that ``proc4`` beats serial by ``MIN_PROC_SPEEDUP`` when the
host actually has 4 cores (below that there is no parallelism to win
and ``proc4`` only needs to stay within ``PROC_TOLERANCE`` of serial),
and that seed-relative serial throughput has not regressed
more than 25% against the committed ``BENCH_matching.json``. That file
is the baseline and is only read: the fresh report goes to
``.lsd/bench_matching.json``, so a run never moves the floor it is
gated against. Updating the baseline is a deliberate commit of that
report over ``BENCH_matching.json``. The report records the backend and
``cpu_count`` per configuration so a committed ``proc4`` number is
never read without the core count that produced it. Each
configuration's timings are also appended to the run ledger
(``.lsd/ledger.jsonl``, one ``bench:matching:<name>`` series per
configuration) so ``python -m repro ledger check`` gates bench
regressions across runs.

The seed emulation is compared on time only: its outputs differ from the
new engine exactly where this PR fixed the WHIRL top-k tie bug (the seed
kept every neighbour tied at the k-th similarity).

Environment knobs::

    LSD_BENCH_THROUGHPUT_LISTINGS   listings per source (default 100)
    LSD_BENCH_THROUGHPUT_ROUNDS     timing rounds       (default 3)
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import featurize
from repro.core.matching import match_source
from repro.datasets import load_domain
from repro.evaluation import SystemConfig, build_system
from repro.learners.whirl import WhirlIndex
from repro.observability import Observer, dataset_fingerprint
from repro.observability import ledger as run_ledger
from repro.runtime import Checkpointer, run_key

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_matching.json"
#: Where each run writes its fresh report (never the committed file).
REPORT_PATH = BENCH_PATH.parent / ".lsd" / "bench_matching.json"
LEDGER_PATH = BENCH_PATH.parent / run_ledger.DEFAULT_PATH
N_LISTINGS = int(os.environ.get("LSD_BENCH_THROUGHPUT_LISTINGS", "100"))
ROUNDS = int(os.environ.get("LSD_BENCH_THROUGHPUT_ROUNDS", "3"))
MIN_SPEEDUP = 3.0
#: Floor on seed-relative serial throughput vs the committed bench:
#: comparing the *ratio* (not wall-clock) cancels host-speed drift
#: between the committing machine and this one.
REGRESSION_TOLERANCE = 0.75
#: What ``proc4`` must deliver over serial on a host with >= 4 cores —
#: the scaling the process backend exists for. Unverified: no host with
#: 4 or more cores has run this benchmark yet; the committed numbers
#: come from 1- and 2-CPU hosts.
MIN_PROC_SPEEDUP = 1.5
#: On hosts with fewer than 4 cores there is no parallelism to win;
#: ``proc4`` then only has to keep its IPC overhead bounded: no worse
#: than this factor over serial on best-of-rounds or total-of-rounds
#: (load spikes hit the two differently; a real regression fails both).
PROC_TOLERANCE = 2.0
#: Ceiling on checkpointed-vs-serial wall clock: stage snapshots ride
#: the atomic artifact writer (temp + rename, no fsync) and must stay
#: within a few percent of the uncheckpointed run. Same dual-metric
#: rule as ``PROC_TOLERANCE``.
CKPT_TOLERANCE = 1.03
#: Cores this run actually has; gates which ``proc4`` assertion
#: applies and is recorded in the report.
CPU_COUNT = os.cpu_count() or 1


# ---------------------------------------------------------------------------
# the pre-PR pipeline, reproduced for timing
# ---------------------------------------------------------------------------

def _seed_whirl_scores(self, queries):
    """The seed ``WhirlIndex.scores``: dense end to end, no dedup, and
    the pre-fix top-k that keeps every neighbour tied at the k-th
    similarity."""
    if self._space is None or self._label_matrix is None \
            or self._labels is None:
        raise RuntimeError("WhirlIndex is not fitted")
    if not queries:
        return np.zeros((0, len(self._labels)))
    sims = self._space.similarities(list(queries))
    sims = np.clip(sims, 0.0, 1.0 - 1e-9)
    if self.min_similarity > 0.0:
        sims[sims < self.min_similarity] = 0.0
    k = self.max_neighbors
    if k is not None and sims.shape[1] > k:
        thresholds = np.partition(sims, -k, axis=1)[:, -k][:, None]
        sims = np.where(sims >= thresholds, sims, 0.0)
    log_miss = np.log1p(-sims)
    grouped = log_miss @ self._label_matrix
    raw = 1.0 - np.exp(grouped)
    totals = raw.sum(axis=1, keepdims=True)
    uniform = np.full_like(raw, 1.0 / raw.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0.0, raw / totals, uniform)


@contextmanager
def _seed_pipeline():
    """Run matching the way the repo did before this PR."""
    original = WhirlIndex.scores
    WhirlIndex.scores = _seed_whirl_scores
    try:
        with featurize.cache_disabled():
            yield
    finally:
        WhirlIndex.scores = original


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _build_trained_system():
    domain = load_domain("real_estate_1", seed=0)
    system = build_system(domain, SystemConfig("complete"),
                          max_instances_per_tag=N_LISTINGS)
    for source in domain.sources[:3]:
        system.add_training_source(
            source.schema, source.listings(N_LISTINGS), source.mapping)
    system.train()
    targets = [(source.schema, source.listings(N_LISTINGS))
               for source in domain.sources[3:]]
    return system, targets


def _run_engine(system, targets, workers, cached, backend="serial"):
    """One engine run: match every held-out source in one process.

    The text memo starts cold (a fresh match process) and stays warm
    across the sources — the cached engine's legitimate advantage. The
    process backend's worker pool likewise persists across rounds
    (``system.close_pool()`` is never called here): its construction is
    a once-per-trained-model cost, so steady-state rounds time batch
    shipping and dispatch, which is what serving would pay.
    """
    featurize.clear_text_cache()
    system.workers = workers
    system.backend = backend
    try:
        if cached:
            return [system.match(schema, listings)
                    for schema, listings in targets]
        with featurize.cache_disabled():
            return [system.match(schema, listings)
                    for schema, listings in targets]
    finally:
        # Leave the system on the serial backend, so the other
        # configurations' workers=1 runs never close the warm pool.
        system.backend = "serial"


def _fingerprints(targets):
    """Each target's dataset fingerprint — the checkpoint run key's
    input, computed once outside the timed rounds."""
    return [dataset_fingerprint(
        schema.tags, [listing.text_content() for listing in listings])
        for schema, listings in targets]


def _run_ckpt(system, targets, fingerprints):
    """The ``serial`` run with an armed checkpoint, as the CLI arms it:
    every checkpoint write actually hits disk (serialize + rename, no
    fsync) into a fresh directory — never a resume."""
    featurize.clear_text_cache()
    system.workers = 1
    with tempfile.TemporaryDirectory(prefix="lsd-bench-ckpt") as ckdir:
        results = []
        for (schema, listings), fingerprint in zip(targets,
                                                   fingerprints):
            checkpoint = Checkpointer(ckdir, run_key(fingerprint))
            checkpoint.open(resume=False)
            results.append(system.match(schema, listings,
                                        checkpoint=checkpoint))
        return results


def _collect_histograms(system, targets):
    """One observed (untimed) serial run: per-instance prediction
    latency and column-size distributions for the bench report."""
    featurize.clear_text_cache()
    system.workers = 1
    observer = Observer.full()
    for schema, listings in targets:
        system.match(schema, listings, observer=observer)
    return observer.metrics.summary()["histograms"]


def _run_seed(system, targets):
    """One pre-PR run: dense scoring, full structure re-prediction."""
    score_filter = system.pruner.prune_scores if system.pruner else None
    with _seed_pipeline():
        return [
            match_source(schema, listings, system.learners, system.meta,
                         system.converter, system.handler, system.space,
                         max_instances_per_tag=system.max_instances_per_tag,
                         score_filter=score_filter,
                         incremental_structure=False)
            for schema, listings in targets
        ]


def test_matching_throughput():
    system, targets = _build_trained_system()
    fingerprints = _fingerprints(targets)

    configs = {
        "seed": lambda: _run_seed(system, targets),
        "cache_off": lambda: _run_engine(system, targets, 1, False),
        "serial": lambda: _run_engine(system, targets, 1, True),
        "proc4": lambda: _run_engine(system, targets, 4, True,
                                     backend="process"),
        "ckpt": lambda: _run_ckpt(system, targets, fingerprints),
    }

    try:
        for run in configs.values():  # warm-up: imports, allocator,
            run()                     # memo, and the proc4 worker pool

        best = {name: float("inf") for name in configs}
        total = {name: 0.0 for name in configs}
        results = {}
        for _ in range(ROUNDS):
            for name, run in configs.items():
                start = time.perf_counter()
                results[name] = run()
                elapsed = time.perf_counter() - start
                best[name] = min(best[name], elapsed)
                total[name] += elapsed
    finally:
        system.close_pool()

    # Determinism: every new-engine configuration is byte-identical.
    reference = results["serial"]
    for name in ("cache_off", "proc4", "ckpt"):
        for ref, res in zip(reference, results[name]):
            assert set(ref.tag_scores) == set(res.tag_scores)
            for tag in ref.tag_scores:
                assert np.array_equal(ref.tag_scores[tag],
                                      res.tag_scores[tag]), \
                    f"{name} diverged from serial on {tag!r}"
            assert dict(ref.mapping.items()) == dict(res.mapping.items())

    hits = sum(r.profile.counters.get("cache_hits", 0)
               for r in reference)
    misses = sum(r.profile.counters.get("cache_misses", 0)
                 for r in reference)
    instances = sum(r.profile.counters.get("instances", 0)
                    for r in reference)

    speedups = {
        "serial_vs_seed": best["seed"] / best["serial"],
        "proc4_vs_seed": best["seed"] / best["proc4"],
        "proc4_vs_serial": best["serial"] / best["proc4"],
        "cache_on_vs_off": best["cache_off"] / best["serial"],
        "ckpt_vs_serial": best["ckpt"] / best["serial"],
    }
    committed_ratio = None
    if BENCH_PATH.exists():
        committed = json.loads(BENCH_PATH.read_text())
        committed_ratio = committed.get("speedup", {}) \
            .get("serial_vs_seed")
    report = {
        "workload": {
            "domain": "real_estate_1",
            "train_sources": 3,
            "match_sources": len(targets),
            "listings_per_source": N_LISTINGS,
            "instances_matched": instances,
            "rounds": ROUNDS,
        },
        "environment": {
            "cpu_count": CPU_COUNT,
        },
        "configs": {
            "seed": {"workers": 1, "backend": "seed-pipeline"},
            "cache_off": {"workers": 1, "backend": "serial"},
            "serial": {"workers": 1, "backend": "serial"},
            "proc4": {"workers": 4, "backend": "process"},
            "ckpt": {"workers": 1, "backend": "serial",
                     "checkpoint": True},
        },
        "best_ms": {name: round(seconds * 1000.0, 2)
                    for name, seconds in best.items()},
        "speedup": {name: round(value, 2)
                    for name, value in speedups.items()},
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses else 0.0,
        },
        "histograms": {
            name: {key: (round(value, 9)
                         if isinstance(value, float) else value)
                   for key, value in summary.items()}
            for name, summary in
            _collect_histograms(system, targets).items()
        },
        "determinism": {"tag_scores_identical": True},
    }
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print("\n" + json.dumps(report, indent=2))

    # Every bench run also lands in the run ledger, one series per
    # configuration, so `python -m repro ledger check` can gate bench
    # regressions across runs with the same trailing-window rule the
    # CLI applies to match runs.
    fingerprint = f"real_estate_1:{N_LISTINGS}x{len(targets)}"
    for name in configs:
        entry = run_ledger.build_entry(
            label=f"bench:matching:{name}",
            fingerprint=fingerprint,
            created=time.time(),
            config=dict(report["configs"][name], rounds=ROUNDS),
            host=run_ledger.host_info(
                backend=report["configs"][name]["backend"]),
            timings={"total": best[name], "rounds_total": total[name]},
            metrics={"instances": instances})
        run_ledger.append_entry(entry, LEDGER_PATH)

    assert speedups["serial_vs_seed"] >= MIN_SPEEDUP
    # Durability must be effectively free: an armed checkpoint adds
    # rename-atomic stage writes but no extra compute, so the checkpointed
    # serial run has to land within CKPT_TOLERANCE of plain serial on
    # best-of-rounds or total-of-rounds (load spikes hit the two
    # metrics differently; a real regression fails both).
    assert (best["ckpt"] <= best["serial"] * CKPT_TOLERANCE
            or total["ckpt"] <= total["serial"] * CKPT_TOLERANCE), \
        f"checkpointing costs more than {CKPT_TOLERANCE}x on both " \
        f"best ({best['ckpt']*1000:.1f}ms vs " \
        f"{best['serial']*1000:.1f}ms) and total " \
        f"({total['ckpt']*1000:.1f}ms vs {total['serial']*1000:.1f}ms)"
    # The process backend is the one path the GIL cannot serialise: on a
    # real 4-core host it must actually scale. Anywhere narrower, the
    # win is physically unavailable and the requirement degrades to
    # bounded IPC overhead.
    if CPU_COUNT >= 4:
        assert speedups["proc4_vs_serial"] >= MIN_PROC_SPEEDUP, \
            f"proc4_vs_serial {speedups['proc4_vs_serial']:.2f} below " \
            f"{MIN_PROC_SPEEDUP} on a {CPU_COUNT}-core host"
    else:
        assert (best["proc4"] <= best["serial"] * PROC_TOLERANCE
                or total["proc4"] <= total["serial"] * PROC_TOLERANCE), \
            f"proc4 overhead beyond {PROC_TOLERANCE}x serial on a " \
            f"{CPU_COUNT}-core host: best {best['proc4']*1000:.1f}ms " \
            f"vs {best['serial']*1000:.1f}ms, total " \
            f"{total['proc4']*1000:.1f}ms vs {total['serial']*1000:.1f}ms"
    # Throughput floor vs the committed bench, in host-drift-free
    # seed-relative terms.
    if committed_ratio:
        assert speedups["serial_vs_seed"] >= \
            committed_ratio * REGRESSION_TOLERANCE, \
            f"serial_vs_seed {speedups['serial_vs_seed']:.2f} fell " \
            f"below {REGRESSION_TOLERANCE}x of committed " \
            f"{committed_ratio:.2f}"
