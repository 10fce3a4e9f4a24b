"""Memory-pressure guardrails: degrade the run before the OOM killer.

A :class:`PressureMonitor` polls the process RSS (through the same
injectable reader :mod:`repro.observability.resources` uses) against a
``--rss-limit`` budget and responds in escalating tiers at the
:class:`PressureThresholds` watermarks:

1. **shed** (80%) — drop the shared featurize text cache: purely
   derived state, rebuilt on demand, often hundreds of MB on large
   sources.
2. **reshard** (90%) — halve the prediction shard grain
   (:data:`repro.core.parallel.SHARD_SCALE`), so per-task peak memory
   (materialised score blocks, shipped batches) shrinks. Learner
   scoring is row-wise by contract, so concatenation boundaries are
   output-invisible — only the trace shape changes, so a resumed run
   safely starts back at the default grain.
3. **checkpoint-and-degrade** (97%) — trip the policy deadline: the
   constraint search exits on its anytime best-so-far path (with a
   checkpoint armed, its incumbent is already on disk — checkpoint
   writes are synchronous), and the run finishes degraded-but-complete.

Each action is recorded in the degradation report and the
``runtime.pressure.*`` metrics. Tiers fire on upward crossings; a
ratio falling back under the shed watermark re-arms them, so a
sawtoothing RSS keeps shedding instead of acting once and never again.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..core import featurize
from ..core.parallel import SHARD_SCALE
from ..observability.metrics import (M_PRESSURE_ACTIONS,
                                     M_PRESSURE_LEVEL)
from ..observability.resources import read_proc_self


@dataclass(frozen=True)
class PressureThresholds:
    """Watermarks as fractions of the RSS limit."""

    shed: float = 0.80
    reshard: float = 0.90
    degrade: float = 0.97


#: Tier number -> action name recorded in the degradation report.
TIER_ACTIONS = {1: "shed_feature_caches", 2: "halve_shard_grain",
                3: "checkpoint_and_degrade"}


class PressureMonitor:
    """Tiered RSS-watermark responder (daemon thread or manual ticks).

    ``reader`` returns a :class:`~repro.observability.resources.
    ProcSample`; injectable so tests drive exact RSS values. ``policy``
    supplies the degradation report and the trippable deadline;
    ``registry`` the metrics registry. All optional, all inert when
    absent. :meth:`sample_once` is the unit-test entry point and
    returns the tier the sample landed in.
    """

    def __init__(self, limit_bytes: int, *, policy=None, registry=None,
                 reader=None, interval: float = 0.5,
                 thresholds: PressureThresholds | None = None
                 ) -> None:
        if limit_bytes <= 0:
            raise ValueError("rss limit must be positive")
        self.limit_bytes = int(limit_bytes)
        self.thresholds = thresholds or PressureThresholds()
        self.interval = interval
        self._policy = policy
        self._registry = registry
        self._reader = reader if reader is not None else read_proc_self
        self._tier = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Actions taken, in order (testing/diagnostics).
        self.actions: list[str] = []

    # ------------------------------------------------------------------
    # one tick
    # ------------------------------------------------------------------
    def sample_once(self, rss_bytes: int | None = None) -> int:
        """Classify one RSS sample and run any newly crossed tiers."""
        if rss_bytes is None:
            rss_bytes = self._reader().rss_bytes
        ratio = rss_bytes / self.limit_bytes
        t = self.thresholds
        tier = (3 if ratio >= t.degrade else
                2 if ratio >= t.reshard else
                1 if ratio >= t.shed else 0)
        if self._registry is not None:
            self._registry.gauge(M_PRESSURE_LEVEL).set(float(tier))
        while self._tier < tier:
            self._tier += 1
            self._escalate(self._tier)
        if tier == 0:
            self._tier = 0  # re-arm: pressure receded below the shed
            # watermark, so a later climb sheds again.
        return tier

    def _escalate(self, level: int) -> None:
        action = TIER_ACTIONS[level]
        if level == 1:
            featurize.clear_text_cache()
        elif level == 2:
            SHARD_SCALE.halve()
        elif self._policy is not None:
            self._policy.trip_deadline()
        self.actions.append(action)
        if self._policy is not None:
            self._policy.report.pressure(level, action)
        if self._registry is not None:
            self._registry.counter(M_PRESSURE_ACTIONS).inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PressureMonitor":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="lsd-pressure", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # lsd: ignore[blind-except]
                # Monitoring must never take the run down; a failed
                # sample (procfs race, teardown) skips one tick.
                time.sleep(0)  # lsd: ignore[wallclock]

    def __enter__(self) -> "PressureMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
