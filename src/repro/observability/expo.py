"""OpenMetrics exposition: render, parse, and serve the metrics registry.

The module renders a
:class:`~repro.observability.metrics.MetricsRegistry` in the
OpenMetrics / Prometheus text format (``# HELP`` / ``# TYPE`` comments
from the documented :data:`~repro.observability.metrics.CATALOGUE`,
escaped label values, cumulative histogram buckets with ``_sum`` /
``_count`` samples, a terminating ``# EOF``), plus:

* :func:`parse_openmetrics` — a dependency-free parser of the same
  format, used by the test suite and CI to validate what a scrape
  actually returned (no Prometheus install required);
* :class:`TelemetryServer` — a stdlib-only threaded HTTP endpoint
  exposing ``/metrics`` and ``/healthz``, started by ``--serve-metrics
  PORT`` on the ``match`` / ``train`` commands;
* ``python -m repro.observability.expo`` — ad-hoc exposition of a
  saved run report (its metric summary reconstructed into a registry),
  either printed once or served for scraping.

Metric names are sanitized for exposition (``match.instances`` becomes
``lsd_match_instances``); the registry's dotted names remain the
canonical vocabulary everywhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .metrics import CATALOGUE, MetricsRegistry
from .resources import sample_into

#: Every exposed metric name is prefixed with this namespace.
PREFIX = "lsd"

#: The content type a compliant OpenMetrics scraper expects.
CONTENT_TYPE = ("application/openmetrics-text; version=1.0.0; "
                "charset=utf-8")

#: Sample-name suffixes that attach a sample to its metric family.
_SUFFIXES = ("_total", "_bucket", "_sum", "_count")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def exposition_name(name: str) -> str:
    """The exposed (sanitized, prefixed) form of a registry name."""
    safe = "".join(ch if ch.isascii() and (ch.isalnum() or ch in "_:")
                   else "_" for ch in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"{PREFIX}_{safe}"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def format_value(value) -> str:
    """One sample value, OpenMetrics style (``+Inf`` / ``NaN`` named)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a sample value: {value!r}")
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _render_labels(labels: dict[str, str],
                   le: str | None = None) -> str:
    pairs = [(key, labels[key]) for key in sorted(labels)]
    if le is not None:
        pairs.append(("le", le))
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(str(value))}"'
                    for key, value in pairs)
    return "{" + body + "}"


def render_openmetrics(registry, labels: dict[str, str] | None = None
                       ) -> str:
    """The registry in OpenMetrics text format.

    ``labels`` (e.g. a run fingerprint) are attached to every sample.
    Families render in sorted exposed-name order, so identical
    registries render byte-identically.
    """
    labels = dict(labels or {})
    instruments = registry.instruments()
    lines: list[str] = []

    def head(name: str, exposed: str, kind: str) -> None:
        entry = CATALOGUE.get(name)
        if entry is not None and entry[1]:
            lines.append(f"# HELP {exposed} {_escape_help(entry[1])}")
        lines.append(f"# TYPE {exposed} {kind}")

    families: list[tuple[str, str, str, object]] = []
    for name, counter in instruments["counters"].items():
        families.append((exposition_name(name), name, "counter",
                         counter))
    for name, gauge in instruments["gauges"].items():
        families.append((exposition_name(name), name, "gauge", gauge))
    for name, histogram in instruments["histograms"].items():
        families.append((exposition_name(name), name, "histogram",
                         histogram))
    for exposed, name, kind, instrument in sorted(families):
        head(name, exposed, kind)
        if kind == "counter":
            lines.append(f"{exposed}_total{_render_labels(labels)} "
                         f"{format_value(instrument.value)}")
        elif kind == "gauge":
            lines.append(f"{exposed}{_render_labels(labels)} "
                         f"{format_value(float(instrument.value))}")
        else:
            cumulative = 0
            for i, bound in enumerate(instrument.bounds):
                cumulative += instrument.counts[i]
                le = format_value(float(bound))
                lines.append(
                    f"{exposed}_bucket{_render_labels(labels, le)} "
                    f"{cumulative}")
            lines.append(
                f"{exposed}_bucket"
                f"{_render_labels(labels, '+Inf')} {instrument.total}")
            lines.append(f"{exposed}_sum{_render_labels(labels)} "
                         f"{format_value(float(instrument.sum))}")
            lines.append(f"{exposed}_count{_render_labels(labels)} "
                         f"{instrument.total}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing (dependency-free, for tests and CI scrapes)
# ---------------------------------------------------------------------------

def _parse_label_block(text: str, line: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.find("=", i)
        if eq < 0 or eq + 1 >= len(text) or text[eq + 1] != '"':
            raise ValueError(f"malformed labels in {line!r}")
        key = text[i:eq]
        i = eq + 2
        out: list[str] = []
        while True:
            if i >= len(text):
                raise ValueError(f"unterminated label in {line!r}")
            ch = text[i]
            if ch == "\\":
                if i + 1 >= len(text):
                    raise ValueError(f"dangling escape in {line!r}")
                out.append({"n": "\n", "\\": "\\", '"': '"'}.get(
                    text[i + 1], text[i + 1]))
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                out.append(ch)
                i += 1
        labels[key] = "".join(out)
        if i < len(text):
            if text[i] != ",":
                raise ValueError(f"malformed labels in {line!r}")
            i += 1
    return labels


def _parse_value(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    return float(token)


def _family_of(sample_name: str) -> str:
    for suffix in _SUFFIXES:
        if sample_name.endswith(suffix):
            return sample_name[:-len(suffix)]
    return sample_name


def parse_openmetrics(text: str) -> dict[str, dict]:
    """Parse an exposition into ``{family: {"type", "help",
    "samples"}}`` where ``samples`` is a list of ``(sample_name,
    labels, value)`` triples in document order.

    Validates the envelope a scraper relies on: well-formed sample and
    comment lines and a terminating ``# EOF``. Raises ``ValueError``
    otherwise.
    """
    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        return families.setdefault(
            name, {"type": "untyped", "help": None, "samples": []})

    saw_eof = False
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"content after # EOF: {line!r}")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE ") or line.startswith("# HELP "):
            _, keyword, rest = line.split(" ", 2)
            name, _, payload = rest.partition(" ")
            if keyword == "TYPE":
                family(name)["type"] = payload
            else:
                family(name)["help"] = (
                    payload.replace("\\n", "\n").replace("\\\\", "\\"))
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ValueError(f"malformed sample line {line!r}")
            sample_name = line[:brace]
            labels = _parse_label_block(line[brace + 1:close], line)
            value_token = line[close + 1:].strip()
        else:
            sample_name, _, value_token = line.partition(" ")
            labels = {}
            value_token = value_token.strip()
        if not sample_name or not value_token:
            raise ValueError(f"malformed sample line {line!r}")
        family(_family_of(sample_name))["samples"].append(
            (sample_name, labels, _parse_value(value_token)))
    if not saw_eof:
        raise ValueError("exposition is missing the terminating # EOF")
    return families


def samples_for(families: dict[str, dict], registry_name: str
                ) -> list[tuple[str, dict, float]]:
    """The parsed samples of one registry-named metric (convenience
    for tests comparing a scrape against ``registry.summary()``)."""
    family = families.get(exposition_name(registry_name))
    return list(family["samples"]) if family else []


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------

class _TelemetryHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    registry = None
    labels: dict[str, str] = {}
    sample_proc = False


class _TelemetryHandler(BaseHTTPRequestHandler):
    server_version = "lsd-telemetry"

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        route = self.path.split("?", 1)[0]
        if route == "/metrics":
            if self.server.sample_proc:
                sample_into(self.server.registry)
            body = render_openmetrics(self.server.registry,
                                      self.server.labels).encode()
            self._reply(200, CONTENT_TYPE, body)
        elif route == "/healthz":
            body = json.dumps({"status": "ok"}).encode()
            self._reply(200, "application/json", body)
        else:
            self._reply(404, "text/plain",
                        f"no route {route}\n".encode())

    def _reply(self, status: int, content_type: str,
               body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # scrapes must not spam the run's stderr


class TelemetryServer:
    """A background ``/metrics`` + ``/healthz`` endpoint over one
    registry.

    Stdlib-only and threaded: request handling reads the live registry
    (every instrument mutation is lock-guarded), so a scrape during a
    run sees a consistent point-in-time snapshot of each instrument.
    A run's counts land in the registry when its match or training
    run finishes (:func:`~.metrics.record_run`); until then a scrape
    shows only the pool and ``proc.*`` telemetry.
    ``port=0`` binds an ephemeral port — read :attr:`port` after
    construction. Use as a context manager or call :meth:`close`.

    With ``sample_proc`` (a live run's endpoint) the server publishes
    this process's ``proc.*`` gauges into the registry when it starts
    and again on every ``/metrics`` request, so scrapes see current
    resource figures without a sampling thread. Serving a saved
    report leaves it off: its gauges describe the recorded run.
    """

    def __init__(self, registry, host: str = "127.0.0.1",
                 port: int = 0,
                 labels: dict[str, str] | None = None,
                 sample_proc: bool = True) -> None:
        self._server = _TelemetryHTTPServer((host, port),
                                            _TelemetryHandler)
        self._server.registry = registry
        self._server.labels = dict(labels or {})
        self._server.sample_proc = sample_proc
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._thread is None:
            if self._server.sample_proc:
                sample_into(self._server.registry)
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="lsd-telemetry", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# ad-hoc exposition of saved run reports
# ---------------------------------------------------------------------------

def registry_from_summary(summary: dict) -> MetricsRegistry:
    """Reconstruct a registry from a ``MetricsRegistry.summary()``
    payload (as found under a run report's ``metrics`` key).

    Counters and gauges reconstruct exactly. Histogram summaries carry
    no per-bucket counts, so every observation lands in the bucket of
    the recorded mean; ``sum`` / ``count`` / ``min`` / ``max`` are then
    restored exactly, which keeps the headline samples faithful.
    """
    registry = MetricsRegistry()
    for name, value in summary.get("counters", {}).items():
        registry.counter(name).inc(int(value))
    for name, value in summary.get("gauges", {}).items():
        registry.gauge(name).set(float(value))
    for name, digest in summary.get("histograms", {}).items():
        histogram = registry.histogram(name)
        count = int(digest.get("count", 0))
        if not count:
            continue
        histogram.observe(float(digest.get("mean", 0.0)), count=count)
        with histogram._lock:
            histogram.sum = float(digest.get("sum", 0.0))
            histogram.min = float(digest.get("min", 0.0))
            histogram.max = float(digest.get("max", 0.0))
    return registry


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.observability.expo`` — expose a run report."""
    parser = argparse.ArgumentParser(
        prog="repro.observability.expo",
        description="OpenMetrics exposition of a saved LSD run report")
    parser.add_argument("--report", required=True, type=Path,
                        help="run report JSON (written by --report-out)")
    parser.add_argument("--once", action="store_true",
                        help="print the exposition to stdout and exit "
                             "instead of serving")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="port to serve on (default: ephemeral)")
    args = parser.parse_args(argv)

    try:
        report = json.loads(args.report.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.report}: {exc}")
        return 2
    registry = registry_from_summary(report.get("metrics", {}))
    labels = {"command": str(report.get("command", "unknown"))}
    fingerprint = report.get("dataset", {}).get("fingerprint")
    if fingerprint:
        labels["fingerprint"] = str(fingerprint)

    if args.once:
        print(render_openmetrics(registry, labels), end="")
        return 0
    with TelemetryServer(registry, host=args.host, port=args.port,
                         labels=labels, sample_proc=False) as server:
        print(f"serving {args.report} at {server.url}/metrics "
              f"(healthz at /healthz); Ctrl-C to stop")
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
