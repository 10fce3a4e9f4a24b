"""Fault-aware listing ingestion.

Bridges :mod:`repro.xmlio.recovery` and the fault injector: each chunk
passes through the :data:`SITE_INGEST_CHUNK` fault site (keyed by its
listing index, so corruption is independent of read order) on its way
into :func:`repro.xmlio.recovery.read_fragments`' chunk loop, which
parses the surviving text under the policy's ingestion mode. Without an
armed ingest fault this is plain :func:`read_fragments`.
"""

from __future__ import annotations

from .faults import FaultInjected, FaultPlan
from .sites import SITE_INGEST_CHUNK
from ..xmlio.errors import SourceLocation
from ..xmlio.recovery import Fragment, RecoveryLog, read_fragments
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

    def damage(index: int, fragment: Fragment, log: RecoveryLog) \
            -> str | None:
        if fragment.kind != "element":
            return fragment.text
        location = SourceLocation(fragment.line, fragment.column)
        try:
            chunk, style = plan.corrupt(SITE_INGEST_CHUNK, str(index),
                                        fragment.text)
        except FaultInjected as exc:
            if mode == "strict":
                raise
            log.record("injected-fault", f"listing unreadable: {exc}",
                       location, index)
            log.dropped.append(index)
            log.record("dropped-listing",
                       "listing dropped (injected ingest fault)",
                       location, index)
            return None
        if style is not None:
            log.record("injected-fault", f"listing corrupted by fault plan "
                       f"(style: {style})", location, index)
        return chunk

    return read_fragments(text, mode, keep_whitespace, damage)
