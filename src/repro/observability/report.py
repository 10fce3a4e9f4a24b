"""Run reports: one JSON artifact bundling everything about a run.

A run report answers "what happened in *this* run" after the fact: the
configuration used, a fingerprint of the input dataset, per-stage
timings and counters, metric summaries (histogram percentiles
included), the per-column quality records, and the final mapping. The
CLI writes one per ``match`` invocation via ``--report-out``; CI
validates it against the checked-in ``report_schema.json``.

The schema validator here implements the small JSON-Schema subset the
report schema uses (``type``, ``required``, ``properties``,
``additionalProperties``, ``items``, ``enum``, ``minimum``) so the
check needs no third-party dependency.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Sequence

from .artifacts import atomic_write_text

REPORT_SCHEMA_VERSION = 1
REPORT_KIND = "lsd-run-report"
SCHEMA_PATH = Path(__file__).with_name("report_schema.json")


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

def dataset_fingerprint(tags: Sequence[str],
                        texts: Sequence[str] = ()) -> str:
    """A stable hex digest of a dataset: its sorted tag set plus the
    text payload. Identical inputs fingerprint identically regardless
    of worker counts or orderings."""
    digest = hashlib.sha256()
    for tag in sorted(tags):
        digest.update(tag.encode())
        digest.update(b"\x00")
    digest.update(str(len(texts)).encode())
    for text in texts:
        digest.update(b"\x01")
        digest.update(text.encode())
    return digest.hexdigest()[:16]


def build_match_report(*, config: dict, dataset: dict, result,
                       observer=None, created: float | None = None
                       ) -> dict:
    """Assemble the report dict for one matching run.

    ``result`` is a :class:`~repro.core.matching.MatchResult` (only its
    ``profile``, ``quality``, ``mapping`` and ``degradation``
    attributes are touched, so tests can pass any stand-in).
    ``observer`` contributes the metrics summary when it keeps a
    registry. A ``degradation`` section appears only when the
    run actually degraded (quarantines, salvaged listings, retries,
    anytime exits…), so a clean run's report is byte-identical to one
    produced without any resilience policy.
    """
    metrics = {"counters": {}, "gauges": {}, "histograms": {}}
    if observer is not None and observer.metrics is not None:
        metrics = observer.metrics.summary()
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "command": "match",
        "created": time.time() if created is None else created,
        "config": dict(config),
        "dataset": dict(dataset),
        "stages": result.profile.as_dict(),
        "metrics": metrics,
        "quality": [record.as_dict() for record in result.quality],
        "mapping": {tag: label for tag, label in
                    sorted(result.mapping.items())},
    }
    degradation = getattr(result, "degradation", None)
    if degradation is not None and degradation.degraded:
        report["degradation"] = degradation.as_dict()
    return report


def write_report(report: dict, path: str | Path, plan=None) -> None:
    atomic_write_text(path,
                      json.dumps(report, indent=2, sort_keys=True)
                      + "\n", plan=plan)


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# human-readable rendering
# ---------------------------------------------------------------------------

def render_text(report: dict) -> str:
    """A terminal-friendly rendering of a run report."""
    lines = [f"run report (schema v{report['schema_version']}, "
             f"command={report['command']})"]
    dataset = report.get("dataset", {})
    lines.append(
        f"dataset {dataset.get('fingerprint', '?')}: "
        f"{dataset.get('tags', '?')} tags, "
        f"{dataset.get('instances', '?')} instances")
    config = report.get("config", {})
    if config:
        rendered = ", ".join(f"{key}={value}" for key, value in
                             sorted(config.items()))
        lines.append(f"config: {rendered}")

    degradation = report.get("degradation")
    if degradation:
        parts = []
        quarantined = degradation.get("quarantined", [])
        if quarantined:
            names = sorted({event["learner"] for event in quarantined})
            parts.append(f"quarantined learners: {', '.join(names)}")
        ingestion = degradation.get("ingestion")
        if ingestion:
            listings = ingestion.get("listings", {})
            parts.append(
                f"listings recovered={len(listings.get('recovered', []))}"
                f" dropped={len(listings.get('dropped', []))}")
        if degradation.get("retries"):
            parts.append(f"task retries: {len(degradation['retries'])}")
        if degradation.get("pool_failures"):
            parts.append("pool fell back to serial: "
                         + ", ".join(degradation["pool_failures"]))
        if degradation.get("anytime"):
            parts.append("anytime search exit")
        if degradation.get("fired_faults"):
            parts.append(
                f"injected faults: {len(degradation['fired_faults'])}")
        lines.append("DEGRADED RUN: " + "; ".join(parts))

    quality = {record["tag"]: record
               for record in report.get("quality", [])}
    lines.append("")
    lines.append(f"{'tag':<20} {'assigned':<16} {'margin':>7} "
                 f"{'agree':>6}  flags")
    for tag, label in sorted(report.get("mapping", {}).items()):
        record = quality.get(tag)
        if record is None:
            lines.append(f"{tag:<20} {label:<16}")
            continue
        flags = "OVERRIDE" if record["constraint_override"] else ""
        lines.append(
            f"{tag:<20} {label:<16} {record['margin']:>7.3f} "
            f"{record['agreement']:>6.2f}  {flags}")

    histograms = report.get("metrics", {}).get("histograms", {})
    if histograms:
        lines.append("")
        for name, summary in sorted(histograms.items()):
            lines.append(
                f"{name}: n={summary['count']} "
                f"p50={summary['p50']:.3g} p90={summary['p90']:.3g} "
                f"p99={summary['p99']:.3g}")
    timings = report.get("stages", {}).get("timings", {})
    top_level = {path: seconds for path, seconds in timings.items()
                 if "." not in path}
    if top_level:
        lines.append("")
        lines.append("stage seconds: " + ", ".join(
            f"{path}={seconds:.3f}" for path, seconds in
            sorted(top_level.items(), key=lambda kv: -kv[1])))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# schema validation (dependency-free subset of JSON Schema)
# ---------------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def load_schema() -> dict:
    return json.loads(SCHEMA_PATH.read_text())


def validate_report(report: dict, schema: dict | None = None
                    ) -> list[str]:
    """All schema violations (empty list = valid)."""
    if schema is None:
        schema = load_schema()
    errors: list[str] = []
    _validate(report, schema, "$", errors)
    return errors


def validate_file(path: str | Path) -> dict:
    """Load and validate a report file; raises ``ValueError`` listing
    every violation. Returns the report on success."""
    report = load_report(path)
    errors = validate_report(report)
    if errors:
        raise ValueError(
            f"{path}: report does not match schema:\n  "
            + "\n  ".join(errors))
    return report


def _validate(value, schema: dict, path: str,
              errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        ok = isinstance(value, python_type)
        # bool is an int subclass; keep integer/number strict.
        if ok and expected in ("integer", "number") \
                and isinstance(value, bool):
            ok = False
        if not ok:
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) \
            and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], f"{path}.{key}",
                          errors)
            elif isinstance(additional, dict):
                _validate(item, additional, f"{path}.{key}", errors)
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]", errors)
