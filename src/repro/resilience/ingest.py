"""Fault-aware listing ingestion.

Bridges :mod:`repro.xmlio.recovery` and the fault injector: listings
are chunked, each chunk passes through the :data:`SITE_INGEST_CHUNK`
fault site (keyed by its listing index, so corruption is independent
of read order), and the surviving text is parsed under the policy's
ingestion mode. Without an armed ingest fault this delegates straight
to :func:`repro.xmlio.recovery.read_fragments`, keeping the no-plan
path identical to plain recovery ingestion.
"""

from __future__ import annotations

from .faults import FaultInjected, FaultPlan
from .sites import SITE_INGEST_CHUNK
from ..xmlio.errors import SourceLocation
from ..xmlio.parser import parse_fragments
from ..xmlio.recovery import (Fragment, RecoveryLog, parse_chunk,
                              read_fragments, split_fragments)
from ..xmlio.tree import Element


def ingest_fragments(text: str, mode: str = "strict",
                     plan: FaultPlan | None = None,
                     keep_whitespace: bool = False) \
        -> tuple[list[Element], RecoveryLog]:
    """Parse sibling listings under ``mode``, injecting ingest faults.

    ``strict`` mode parses the (possibly corrupted) chunks strictly —
    an injected corruption therefore raises, which is exactly the
    brittleness the lenient modes exist to fix. Each chunk's parse is
    seeded with its position in ``text``, so the error's line and
    column point into the file, as they do without a plan.
    """
    if plan is None or not plan.targets_site(SITE_INGEST_CHUNK):
        return read_fragments(text, mode, keep_whitespace)
    log = RecoveryLog()
    roots: list[Element] = []
    for index, fragment in enumerate(split_fragments(text)):
        location = SourceLocation(fragment.line, fragment.column)
        chunk_text = fragment.text
        if fragment.kind == "element":
            try:
                chunk_text, style = plan.corrupt(
                    SITE_INGEST_CHUNK, str(index), chunk_text)
            except FaultInjected as exc:
                if mode == "strict":
                    raise
                log.record("injected-fault",
                           f"listing unreadable: {exc}", location, index)
                log.dropped.append(index)
                log.record("dropped-listing",
                           "listing dropped (injected ingest fault)",
                           location, index)
                continue
            if style is not None:
                log.record("injected-fault",
                           f"listing corrupted by fault plan "
                           f"(style: {style})", location, index)
        damaged = Fragment(chunk_text, fragment.line, fragment.column,
                           fragment.kind)
        roots.extend(parse_chunk(damaged, mode, log, index,
                                 keep_whitespace=keep_whitespace))
    if not roots:
        if mode == "strict":
            # No listing chunk at all: fail as the plain parse fails.
            return parse_fragments(text, keep_whitespace=keep_whitespace), \
                log
        log.record("no-elements",
                   "no listings could be parsed from the input",
                   SourceLocation(1, 1))
    return roots, log
