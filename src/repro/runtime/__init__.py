"""Durable-run machinery: crash-safe checkpoints.

The matching pipeline's resilience layer (:mod:`repro.resilience`)
absorbs faults *inside* a surviving process; this package covers the
failure mode where the process itself does not survive — SIGKILL:

* :mod:`repro.runtime.checkpoint` — the constraint search's incumbent
  and the final mapping, written synchronously and atomically, with a
  byte-identical resume contract (a resumed run re-runs ingest,
  extraction and prediction, then warm-starts the search).

The run guardrails that keep a process alive — the ``--watchdog``
hung-worker kill, the ``--rss-limit`` memory tiers —
need no thread of their own: they are policy fields
(:class:`~repro.resilience.policy.ResiliencePolicy`) checked where
they take effect, in the process-pool map engine, the shard planner
and the run deadline the constraint search polls.

Everything here is strictly additive: with no checkpoint directory
this package is not imported on the hot path and pipeline output is
byte-identical to a build without it.
"""

from .checkpoint import (CHECKPOINT_VERSION, Checkpointer,
                         STAGE_CONSTRAIN, run_key)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "STAGE_CONSTRAIN",
    "run_key",
]
