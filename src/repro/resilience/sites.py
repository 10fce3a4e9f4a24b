"""The catalogue of named fault-injection sites.

A *fault site* is a pipeline boundary where a :class:`FaultPlan` may
inject a failure (raise / delay / corrupt). Sites are addressed by the
``SITE_*`` constants below and documented in :data:`SITE_CATALOGUE`;
the ``fault-site-catalogue`` lint rule enforces two-directional
agreement between this catalogue and the sites actually armed in
source, exactly like the metric catalogue.

Each site pairs with a *key* that identifies the logical unit being
hit (not its arrival order), which is what keeps injected faults
deterministic under parallel execution.
"""

from __future__ import annotations

#: Per-listing ingestion; key = top-level listing (chunk) index as a
#: string. ``corrupt`` faults rewrite the chunk text before parsing.
SITE_INGEST_CHUNK = "ingest.chunk"

#: Base-learner training; key = learner name. A fired fault quarantines
#: the learner for the run.
SITE_LEARNER_FIT = "learner.fit"

#: Base-learner prediction; key = learner name. A fired fault
#: quarantines the learner and renormalizes the meta-learner weights.
SITE_LEARNER_PREDICT = "learner.predict"

#: One executor task; key = task index as a string. Fired faults are
#: retried per the policy's retry budget.
SITE_EXECUTOR_TASK = "executor.task"

#: The executor's worker pool as a whole; key = the map call's stage
#: label. A fired fault simulates the pool dying and forces the serial
#: fallback for that call.
SITE_EXECUTOR_POOL = "executor.pool"

#: Constraint-search root expansion; key = search label. Used to
#: exercise the anytime/best-so-far path.
SITE_SEARCH_ROOT = "constraints.search"

#: One worker of the process execution backend; key = the map call's
#: stage label. A fired fault hard-kills a live worker process
#: (``os._exit``) before any task of that map is dispatched, breaking
#: the pool and exercising the genuine crash-recovery path: serial
#: fallback for the map, pool retirement, serial maps afterwards.
#: Fires only when a process pool is actually in use — at
#: ``--workers 1`` there is no process to kill, so plans targeting it
#: leave such runs untouched.
SITE_WORKER_PROCESS = "worker.process"

#: One run-artifact write (report, trace, ledger); key = the
#: destination file name. The fault fires *between* writing the temp
#: file and the atomic rename, so an injected crash proves a killed
#: run can never leave a truncated artifact: the target either keeps
#: its previous content or receives the complete new one.
SITE_ARTIFACT_WRITE = "artifact.write"

#: Every legal fault site, with operator-facing documentation. The
#: ``fault-site-catalogue`` lint rule keeps this in sync with usage.
SITE_CATALOGUE: dict[str, str] = {
    SITE_INGEST_CHUNK:
        "Per-listing ingestion boundary; corrupt, drop or delay one "
        "top-level listing before it is parsed (key: listing index).",
    SITE_LEARNER_FIT:
        "Base-learner training; a fault here quarantines the learner "
        "before it joins the ensemble (key: learner name).",
    SITE_LEARNER_PREDICT:
        "Base-learner prediction; a fault here quarantines the learner "
        "mid-run and renormalizes meta weights (key: learner name).",
    SITE_EXECUTOR_TASK:
        "A single parallel-executor task; fired faults consume retry "
        "budget before surfacing (key: task index).",
    SITE_EXECUTOR_POOL:
        "The executor's worker pool; a fault here simulates pool death "
        "and forces the serial fallback (key: stage label).",
    SITE_SEARCH_ROOT:
        "Constraint-search root; used to exercise the anytime "
        "best-so-far path (key: search label).",
    SITE_WORKER_PROCESS:
        "One process-backend worker; a fault here hard-kills the "
        "worker before dispatch, forcing the serial fallback and the "
        "pool's retire path (key: stage label).",
    SITE_ARTIFACT_WRITE:
        "One run-artifact write; fires between the temp-file write and "
        "the atomic rename, modelling a crash mid-write (key: "
        "destination file name).",
}
