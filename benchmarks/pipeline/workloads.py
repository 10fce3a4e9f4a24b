"""The four workloads of the pipeline benchmark.

Every workload is a single-threaded closed loop — one client, and the
next op starts when the previous one returns — because that is how
``lsd match`` invocations and interactive feedback sessions arrive. A run
is :data:`ROUNDS` rounds, each a fresh set-up followed by its share of
the ops, so drift over a run hits every part of the workload alike.

The program only sees generated inputs, handed over as XML text the way
the CLI reads its files. The workload seed offsets the sample seed of
every op input; set-up inputs are the same for every seed. The op count
is ``--seconds`` times the workload's nominal rate (ops per second on
the reference host), so op counts, and every count metric, depend on
the arguments alone unless a slow host hits a round's time cap.

Op and set-up times are reported at the reference host's speed. A
shared host's speed swings by up to 2x within seconds, so a fixed
pure-Python probe is timed right before and right after every op and
set-up, and its wall time is scaled by the reference probe time over
the mean of the two, to the power :data:`SPEED_EXPONENT`. The probe is
benchmark code that no change to the
program can speed up, so only the program's own time moves the scaled
figures. The wall-clock figures are reported next to them.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from repro import resilience
from repro.core import featurize, persistence
from repro.core.feedback import FeedbackSession
from repro.core.instance import extract_columns
from repro.core.labels import OTHER
from repro.datasets import load_domain
from repro.evaluation import SystemConfig, build_system
from repro.observability import Observer
from repro.observability.trace import TraceCollector
from repro.xmlio.writer import write_element

import layers

ROUNDS = 3
#: Distance between the sample seeds of consecutive workload seeds, so
#: two seeds never share a sample.
SEED_STRIDE = 1000
#: Sample seed of set-up inputs. Only op inputs vary with the workload
#: seed: every seed then measures the same trained model, which on
#: feedback-re2 decides how hard every constraint search of the run is.
SETUP_SAMPLE = 0
#: Instances extracted per tag in training and matching: the CLI's
#: ``--max-instances`` default.
MAX_PER_TAG = 100
#: Oracle corrections after which a feedback session counts as failed.
MAX_CORRECTIONS = 200
#: Distinct held-out inputs the bulk workloads cycle through. Eight keeps
#: every input out of the process pool's four-batch ship cache, so no op
#: is served a batch an earlier op already shipped.
BULK_POOL = 8
COMPLETE = SystemConfig("complete")
#: Loop iterations of one host-speed probe repetition, and repetitions
#: per probe: three of about 3 ms, so one preempted repetition cannot
#: move the probe's median.
PROBE_LOOPS = 10_000
PROBE_REPEATS = 3
#: Median probe time on the reference host, in seconds: op times are
#: scaled to this speed.
REFERENCE_PROBE_S = 0.0033
#: How far the program's time follows the probe's: the program's time
#: moves as the probe time to this power. Over 20 minutes of bulk-re1
#: and train-ts ops on the reference host, 0.7 left the least spread
#: between minute-long windows on both; full scaling (1.0) would read a
#: faster host as a slower program.
SPEED_EXPONENT = 0.7

#: End-to-end metric name -> unit, in report order. These carry bounds
#: in BENCHMARK.json; ``op_p90_ms`` is only reported, because three of
#: the four workloads run too few ops for ten of them to lie beyond it.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "instances_per_s": "1/s",
    "accuracy": "fraction",
    "peak_rss_mb": "MiB",
}


# ---------------------------------------------------------------------------
# program calls, looked up through their modules so a traced run sees them
# ---------------------------------------------------------------------------

def xml_text(listings) -> str:
    """Listings as the XML text ``lsd generate`` writes."""
    return "\n".join(write_element(listing, indent=2)
                     for listing in listings)


def ingest(text: str) -> list:
    """Strict XML ingest, as ``lsd match`` reads a listings file."""
    listings, _log = resilience.ingest_fragments(text, mode="strict")
    return listings


def train_and_reload(domain, sources, listings, workdir: Path):
    """``lsd train`` then the model load of ``lsd match --model``."""
    system = build_system(domain, COMPLETE,
                          max_instances_per_tag=MAX_PER_TAG)
    for source, rows in zip(sources, listings):
        system.add_training_source(source.schema, rows, source.mapping)
    system.train()
    path = workdir / "model.lsd"
    persistence.save_system(system, path)
    return persistence.load_system(path)


def digest(result) -> str:
    """sha256 of the mapping items and the ``tag_scores`` bytes."""
    sha = hashlib.sha256(
        json.dumps(sorted(result.mapping.items())).encode())
    for tag in sorted(result.tag_scores):
        sha.update(tag.encode())
        sha.update(np.ascontiguousarray(result.tag_scores[tag],
                                        dtype=np.float64).tobytes())
    return sha.hexdigest()


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def probe_host() -> float:
    """Seconds a fixed pure-Python loop takes now (the median of
    :data:`PROBE_REPEATS` repetitions). Its work never changes, so its
    time moves with the host's speed alone."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        table: dict[int, str] = {}
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
            table[i & 1023] = str(i)
        times.append(perf_counter() - start)
    return statistics.median(times)


def host_speed(probe_before: float) -> float:
    """The host's speed for the program, relative to the reference host,
    over a span that began with a probe of ``probe_before`` seconds and
    ends now."""
    probe = (probe_before + probe_host()) / 2.0
    return (REFERENCE_PROBE_S / probe) ** SPEED_EXPONENT


# ---------------------------------------------------------------------------
# measurement and checks
# ---------------------------------------------------------------------------

class Op:
    """One timed op; ``ok`` turns False when it raises or a check fails."""

    __slots__ = ("ok", "elapsed", "speed", "instances")

    def __init__(self) -> None:
        self.ok = True
        #: Wall time, in seconds.
        self.elapsed = 0.0
        #: The host's speed around the op relative to the reference
        #: host (:func:`host_speed`).
        self.speed = 1.0
        #: Instances the op matched, plus those it trained on.
        self.instances = 0

    def seconds(self, wall: bool = False) -> float:
        """The op's time at the reference host's speed, or its wall time."""
        return self.elapsed if wall else self.elapsed * self.speed


class Recorder:
    """Times set-ups and ops, runs the per-op checks, derives metrics."""

    def __init__(self, seed: int, seconds: float, rate: float,
                 smoke: bool, trace: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.ops_per_round = 1 if smoke \
            else max(1, math.ceil(seconds * rate / ROUNDS))
        #: A round stops early once its ops have run for three times its
        #: time share, so a slow host cannot stretch a run without bound.
        #: The margin is wide because a stopped round changes which
        #: inputs the run measures, and a busy 2-CPU host has run a
        #: train-ts round at twice its share.
        self.round_cap = 3.0 * seconds / ROUNDS
        self.tracer = layers.Tracer() if trace else None
        #: Set-up times at the reference host's speed, and wall times.
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.ops: list[Op] = []
        self.accuracy: list[float] = []
        self.corrections: list[int] = []
        self.digests: list[list] = []
        self.failed = 0
        self.failures: list[str] = []
        self.lookups = [0, 0]  # featurize hits, misses during ops
        #: The run matches on the process backend: learner prediction
        #: happens in pool workers, the only children whose memory counts.
        self.process_backend = False

    def sample_seed(self, k: int) -> int:
        """Sample seed of the ``k``-th op input (``k >= 1``)."""
        return self.seed * SEED_STRIDE + k

    def ops_left(self, started: float, done: int) -> bool:
        """Whether a round that began at ``started`` and has run ``done``
        ops starts another op (or feedback session)."""
        return done < self.ops_per_round \
            and perf_counter() - started < self.round_cap

    def install_tracing(self, domain) -> None:
        if self.tracer is not None:
            classes = {type(learner) for learner in
                       build_system(domain, COMPLETE).learners}
            layers.install(self.tracer,
                           sorted(classes, key=lambda cls: cls.__name__))

    def _root(self, kind: str, op_id: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.root(kind, op_id)

    @contextmanager
    def setup(self, round_: int) -> Iterator[None]:
        featurize.clear_text_cache()  # each round starts cold
        gc.collect()
        probe = probe_host()
        start = perf_counter()
        with self._root("setup", f"setup-{round_}"):
            yield
        elapsed = perf_counter() - start
        self.setup_wall_s.append(elapsed)
        self.setup_s.append(elapsed * host_speed(probe))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @contextmanager
    def op(self) -> Iterator[Op]:
        op = Op()
        self.ops.append(op)
        # Every op starts from an empty collector, so whether a full
        # collection lands inside it depends on the op alone, not on how
        # far the ops before it pushed the collector's counters.
        gc.collect()
        probe = probe_host()
        before = featurize.stats.snapshot()
        start = perf_counter()
        try:
            with self._root("op", f"op-{len(self.ops)}"):
                yield op
        except Exception:  # lsd: ignore[blind-except]
            # The op boundary: an op that raises is a failed op, counted
            # against the attempted ones, and the loop goes on.
            self.fail(op, traceback.format_exc())
            return
        op.elapsed = perf_counter() - start
        op.speed = host_speed(probe)
        after = featurize.stats.snapshot()
        self.lookups[0] += after[0] - before[0]
        self.lookups[1] += after[1] - before[1]

    def fail(self, op: Op, message: str) -> None:
        if op.ok:
            op.ok = False
            self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)
            print(f"op failed: {message}", file=sys.stderr)

    def pipeline_observer(self) -> Observer | None:
        """An observer whose trace carries the pool workers' learner
        spans, when per-layer prediction can only be read from there."""
        if self.tracer is None or not self.process_backend:
            return None
        return Observer(trace=TraceCollector())

    def absorb(self, observer: Observer | None) -> None:
        if observer is not None:
            self.tracer.absorb(observer)

    def check(self, op: Op, system, result, source=None,
              feedback=()) -> None:
        """The per-op checks; also counts the op's instances."""
        for tag, row in result.tag_scores.items():
            if not np.all(np.isfinite(row)) \
                    or abs(float(row.sum()) - 1.0) > 1e-9:
                self.fail(op, f"scores of {tag!r} are not a distribution")
                break
        cost = system.handler.mapping_cost(
            result.mapping, result.tag_scores, system.space,
            result.context, extra_constraints=feedback)
        if not math.isfinite(cost):
            self.fail(op, "the mapping violates a hard constraint")
        for constraint in feedback:
            if result.mapping.get(constraint.tag) != constraint.label:
                self.fail(op, f"asserted tag {constraint.tag!r} lost "
                              f"its label")
        if source is not None:
            self.accuracy.append(result.mapping.accuracy_against(
                source.mapping, matchable_only=False))
        op.instances += result.profile.counters.get("instances", 0)

    # ------------------------------------------------------------------
    def latency_ms(self, percentile: float, wall: bool = False) -> float:
        """A percentile of the latency of every op that passed."""
        latencies = [op.seconds(wall) * 1e3 for op in self.ops if op.ok]
        return float(np.percentile(latencies, percentile)) \
            if latencies else 0.0

    def instances_per_s(self, wall: bool = False) -> float:
        # Over the whole run: a per-round figure rests on a third of the
        # inputs, and on feedback-re2 a few hard samples then decide it.
        done = [op for op in self.ops if op.ok]
        busy = sum(op.seconds(wall) for op in done)
        return sum(op.instances for op in done) / busy if busy else 0.0

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "op_p50_ms": self.latency_ms(50),
            "instances_per_s": self.instances_per_s(),
            "accuracy": statistics.fmean(self.accuracy)
            if self.accuracy else 0.0,
            "peak_rss_mb": max(_maxrss_mb(resource.RUSAGE_SELF),
                               self.worker_rss_mb()),
        }

    def worker_rss_mb(self) -> float:
        """Peak RSS of the pool workers, which have all been joined."""
        if not self.process_backend:
            return 0.0
        return _maxrss_mb(resource.RUSAGE_CHILDREN)

    def per_layer(self) -> dict[str, float]:
        values = self.tracer.layer_metrics(self.attempted,
                                           self.process_backend)
        hits, misses = self.lookups
        values["core.featurize.lookups"] = \
            (hits + misses) / max(self.attempted, 1)
        values["core.featurize.hit_ratio"] = \
            hits / (hits + misses) if hits + misses else 0.0
        values["core.feedback.corrections_per_source"] = \
            statistics.fmean(self.corrections) if self.corrections else 0.0
        values["core.procpool.worker_rss_mb"] = self.worker_rss_mb()
        return values


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def run_bulk(rec: Recorder, process_backend: bool) -> None:
    """Real Estate I bulk matching: each op ingests one held-out sample's
    XML and matches it against a trained, saved and reloaded model.

    Every op matches the same held-out source: two sources of different
    sizes would make the latency distribution bimodal, and its median
    would then jump between the modes from one seed to the next.
    """
    domain = load_domain("real_estate_1")
    n_listings, pool = (20, 2) if rec.smoke else (200, BULK_POOL)
    trained, source = domain.sources[:3], domain.sources[3]
    train_texts = [xml_text(train.listings(
        n_listings, sample_seed=SETUP_SAMPLE)) for train in trained]
    inputs = [xml_text(source.listings(
        n_listings, sample_seed=rec.sample_seed(1 + k)))
        for k in range(pool)]
    rec.process_backend = process_backend
    rec.install_tracing(domain)
    proc_digests: list[tuple[int, str, Op]] = []
    for round_ in range(ROUNDS):
        with rec.setup(round_):
            system = train_and_reload(
                domain, trained, [ingest(text) for text in train_texts],
                rec.workdir)
            if process_backend:
                system.workers, system.backend = 2, "process"
                system.executor  # starts the pool, as the first match would
            else:
                system.backend = "serial"
        try:
            started = perf_counter()
            for done in itertools.count():
                if not rec.ops_left(started, done):
                    break
                key = rec.attempted % pool
                observer = rec.pipeline_observer()
                with rec.op() as op:
                    result = system.match(source.schema, ingest(inputs[key]),
                                          observer=observer)
                if not op.ok:
                    continue
                rec.absorb(observer)
                rec.check(op, system, result, source)
                rec.digests.append([key, digest(result)])
                proc_digests.append((key, rec.digests[-1][1], op))
        finally:
            system.close_pool()
    if process_backend:
        # Every process-backend op must be byte-identical to the serial
        # match of the same input on the same model.
        system.backend = "serial"
        serial = [digest(system.match(source.schema, ingest(text)))
                  for text in inputs]
        for key, value, op in proc_digests:
            if value != serial[key]:
                rec.fail(op, f"process-backend digest of input {key} "
                             f"differs from the serial one")


def run_feedback(rec: Recorder) -> None:
    """Real Estate II §6.3 feedback: each op is a session's initial
    match or one oracle correction in review order.

    The sessions review ``assessor-feed.gov``. On ``dreamhomes.com``,
    the other held-out source, some samples exhaust the search's node
    budget before any mapping satisfies the feedback, and the handler's
    unconstrained fallback then drops an asserted label: a program
    defect, so no workload may rest on it.

    The model trains on 10 listings per source, which keeps predictions
    weak; each session reviews 40, which keeps the cost of a session
    from swinging with the sample. A 10-listing session spends about
    two thirds of its time in the search, against a quarter at 40, but
    its total cost varies three times as much from sample to sample,
    too much for one run's median to settle.
    """
    domain = load_domain("real_estate_2")
    trained, source = domain.sources[:3], domain.sources[3]
    train_texts = [xml_text(train.listings(
        10, sample_seed=SETUP_SAMPLE)) for train in trained]
    rec.install_tracing(domain)
    session = 0
    for round_ in range(ROUNDS):
        with rec.setup(round_):
            system = train_and_reload(
                domain, trained, [ingest(text) for text in train_texts],
                rec.workdir)
            system.backend = "serial"
        started, done = perf_counter(), 0
        while rec.ops_left(started, done):
            session += 1
            text = xml_text(source.listings(
                40, sample_seed=rec.sample_seed(session)))
            done += _feedback_session(rec, system, source, text)


def _feedback_session(rec: Recorder, system, source, text: str) -> int:
    """Drive one held-out sample to a perfect mapping; returns its ops."""
    truth = source.mapping
    with rec.op() as op:
        session = FeedbackSession(system, source.schema, ingest(text))
    if not op.ok:
        return 1
    rec.check(op, system, session.result, source)
    ops = 1
    for _ in range(MAX_CORRECTIONS):
        wrong = next((tag for tag in session.review_order()
                      if session.mapping[tag] != truth.get(tag, OTHER)),
                     None)
        if wrong is None:
            rec.corrections.append(session.corrections)
            return ops
        with rec.op() as op:
            session.assert_match(wrong, truth.get(wrong, OTHER))
        ops += 1
        if not op.ok:
            return ops
        rec.check(op, system, session.result, feedback=session.feedback)
    rec.fail(op, f"no perfect mapping after {MAX_CORRECTIONS} corrections")
    return ops


def run_train(rec: Recorder) -> None:
    """Time Schedule train-and-match: each op trains on one of the
    paper's 3-train/2-test splits, saves and reloads the model, and
    matches the two held-out sources."""
    domain = load_domain("time_schedule")
    n_listings = 20 if rec.smoke else 200
    samples = 2
    sources = domain.sources
    texts = {(i, s): xml_text(source.listings(
        n_listings, sample_seed=rec.sample_seed(1 + s)))
        for i, source in enumerate(sources) for s in range(samples)}
    splits = list(itertools.combinations(range(len(sources)), 3))
    rec.install_tracing(domain)
    extracted: dict[tuple[int, int], int] = {}
    for round_ in range(ROUNDS):
        with rec.setup(round_):
            parsed = {key: ingest(text) for key, text in texts.items()}
        started = perf_counter()
        for done in itertools.count():
            if not rec.ops_left(started, done):
                break
            index = rec.attempted
            split = splits[index % len(splits)]
            s = (index // len(splits)) % samples
            tests = [i for i in range(len(sources)) if i not in split]
            with rec.op() as op:
                system = train_and_reload(
                    domain, [sources[i] for i in split],
                    [parsed[i, s] for i in split], rec.workdir)
                system.backend = "serial"
                results = [system.match(sources[i].schema, parsed[i, s])
                           for i in tests]
            if not op.ok:
                continue
            for i, result in zip(tests, results):
                rec.check(op, system, result, sources[i])
            for i in split:
                if (i, s) not in extracted:
                    extracted[i, s] = sum(
                        len(column.instances) for column in extract_columns(
                            sources[i].schema, parsed[i, s],
                            MAX_PER_TAG).values())
                op.instances += extracted[i, s]


#: Workload name -> (ops per second on the reference host, which sets
#: the op count; the function that runs it). README.md says why each
#: workload is in the benchmark.
WORKLOADS: dict[str, tuple[float, Callable[[Recorder], None]]] = {
    "bulk-re1": (2.0, lambda rec: run_bulk(rec, process_backend=False)),
    "bulk-re1-proc2": (1.6,
                       lambda rec: run_bulk(rec, process_backend=True)),
    "feedback-re2": (8.0, run_feedback),
    "train-ts": (0.75, run_train),
}


def run(name: str, seed: int, seconds: float, smoke: bool, trace: bool,
        workdir: Path) -> Recorder:
    """Run one workload in this process and return its recorder."""
    rate, body = WORKLOADS[name]
    rec = Recorder(seed, seconds, rate, smoke, trace, workdir)
    try:
        body(rec)
    finally:
        # The process backend's shared memory starts multiprocessing's
        # resource-tracker process; stop it and wait for it, so the run
        # leaves no process of its own behind.
        resource_tracker._resource_tracker._stop()
    return rec
