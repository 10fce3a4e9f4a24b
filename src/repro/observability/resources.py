"""Process-resource sampling from ``/proc/self``.

:func:`read_proc_self` reads one point-in-time snapshot of the calling
process — resident set size, cumulative CPU time, open file
descriptors, live threads — straight from procfs with no third-party
dependencies. Workers of the process execution backend call it to ship
resource snapshots back over the pool's wire protocol.
:func:`read_rss_bytes` reads the resident set size alone — the cheap
read the memory guardrails poll.

Everything degrades to zeros on platforms without procfs, so sampling
never makes a run fail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

_PROC = "/proc/self"


@dataclass(frozen=True)
class ProcSample:
    """One point-in-time resource snapshot of a process."""

    rss_bytes: int = 0
    cpu_seconds: float = 0.0
    open_fds: int = 0
    threads: int = 0

    def as_dict(self) -> dict:
        return {"rss_bytes": self.rss_bytes,
                "cpu_seconds": self.cpu_seconds,
                "open_fds": self.open_fds,
                "threads": self.threads}

    @classmethod
    def from_dict(cls, data: dict) -> "ProcSample":
        return cls(rss_bytes=int(data.get("rss_bytes", 0)),
                   cpu_seconds=float(data.get("cpu_seconds", 0.0)),
                   open_fds=int(data.get("open_fds", 0)),
                   threads=int(data.get("threads", 0)))


def _read_status() -> tuple[int, int]:
    """(rss_bytes, threads) from ``/proc/self/status``."""
    rss = threads = 0
    with open(f"{_PROC}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                rss = int(line.split()[1]) * 1024  # reported in kB
            elif line.startswith("Threads:"):
                threads = int(line.split()[1])
    return rss, threads


def _read_cpu_seconds() -> float:
    """utime+stime from ``/proc/self/stat`` in seconds."""
    with open(f"{_PROC}/stat") as handle:
        stat = handle.read()
    # comm may contain spaces/parens; fields resume after the last ')'.
    fields = stat[stat.rfind(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def read_proc_self() -> ProcSample:
    """A snapshot of the calling process, zeros where procfs is
    unavailable."""
    try:
        rss, threads = _read_status()
    except OSError:
        rss = threads = 0
    try:
        cpu = _read_cpu_seconds()
    except (OSError, ValueError, IndexError):
        cpu = 0.0
    try:
        fds = len(os.listdir(f"{_PROC}/fd"))
    except OSError:
        fds = 0
    return ProcSample(rss_bytes=rss, cpu_seconds=cpu, open_fds=fds,
                      threads=threads)


def read_rss_bytes() -> int:
    """Resident set size of the calling process from
    ``/proc/self/statm`` (one small read, no fd listing); 0 where
    procfs is unavailable."""
    try:
        with open(f"{_PROC}/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return pages * os.sysconf("SC_PAGE_SIZE")

