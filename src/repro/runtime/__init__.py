"""Durable-run machinery: checkpoints, supervision, memory guardrails.

The matching pipeline's resilience layer (:mod:`repro.resilience`)
absorbs faults *inside* a surviving process; this package covers the
failure modes where the process itself does not survive — SIGKILL,
hung workers, memory exhaustion:

* :mod:`repro.runtime.checkpoint` — the constraint search's incumbent
  and the final mapping, written synchronously and atomically, with a
  byte-identical resume contract (a resumed run re-runs ingest,
  extraction and prediction, then warm-starts the search);
* :mod:`repro.runtime.supervisor` — a watchdog thread that kills and
  recovers hung process-pool workers and detects pipeline stalls;
* :mod:`repro.runtime.pressure` — tiered RSS-watermark responses that
  degrade the run instead of letting the OOM killer end it.

Everything here is strictly additive: with no checkpoint directory, no
watchdog deadline and no RSS limit configured, none of these modules
is imported on the hot path and pipeline output is byte-identical to a
build without the package.
"""

from .checkpoint import (CHECKPOINT_VERSION, Checkpointer,
                         STAGE_CONSTRAIN, run_key)
from .pressure import PressureMonitor, PressureThresholds
from .supervisor import Supervisor

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "PressureMonitor",
    "PressureThresholds",
    "STAGE_CONSTRAIN",
    "Supervisor",
    "run_key",
]
