"""Resource watchdog: soft ``--max-rss`` / ``--max-disk`` budgets with a
graceful degradation ladder.

Without budgets, a sweep that outgrows the machine ends at the kernel
OOM-killer's discretion (SIGKILL, no checkpoint, exit code from the
shell) or at ``ENOSPC`` somewhere inside a cache write.  The watchdog
replaces that cliff with a ladder — each rung trades throughput or
completeness for staying alive, and every rung is journaled/warned, so
it never happens silently:

=====  ==========================  ==========================================
rung   trigger (fraction of        action (wired by the engine)
       the tightest budget)
=====  ==========================  ==========================================
1      usage ≥ ``SHED_AT`` (70%)   shed parallelism: the supervisor's
                                   in-flight window halves
2      usage ≥ ``SHRINK_AT``       shrink explorer caps for every unit
       (85%)                       dispatched after it
                                   (``VerifyOptions.cap_scale``), stop new
                                   cache stores, mark the sweep degraded
3      usage ≥ ``STOP_AT``         checkpoint-and-exit 3: pending units are
       (100%)                      marked interrupted, the journal keeps
                                   every completed verdict, ``--resume``
                                   picks the sweep back up
=====  ==========================  ==========================================

The ladder is a ratchet — levels never de-escalate within a sweep;
memory freed after a breach does not un-shrink caps, because verdicts
computed under shrunk caps are already in flight.

Measurement is dependency-free: RSS is read from ``/proc/<pid>/statm``
for the sweep process and every live child (pool workers), falling back
to ``resource.getrusage`` peaks off Linux; disk usage walks the cache
directory (entries + journal + corrupt quarantine).  Sampling runs on a
daemon thread, but every decision is exposed through pull-style
callables (``throttle``/``stop_reason``) so the supervisor stays
single-threaded and tests can drive :meth:`ResourceWatchdog.sample_once`
synchronously.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Callable

from ..obs.tracer import instant as _trace_instant

#: Ladder thresholds, as fractions of the budget.
SHED_AT = 0.70
SHRINK_AT = 0.85
STOP_AT = 1.00

#: Rung names for warnings and trace instants.
LEVEL_NAMES = {0: "nominal", 1: "shed", 2: "shrink", 3: "checkpoint"}


def _page_size() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return 4096


def process_rss_bytes(pid: int | None = None) -> int | None:
    """Resident set of one process via ``/proc``; ``None`` off Linux."""
    try:
        fields = Path(f"/proc/{pid or os.getpid()}/statm").read_text().split()
        return int(fields[1]) * _page_size()
    except (OSError, ValueError, IndexError):
        return None


def _child_pids(parent: int) -> list[int]:
    """Live direct children of ``parent`` via ``/proc`` (Linux only)."""
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            # Field 4 (after the parenthesised comm, which may contain
            # spaces) is ppid.
            ppid = int(stat.rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == parent:
            pids.append(int(entry))
    return pids


def tree_rss_bytes() -> int:
    """RSS of this process plus all direct children (pool workers).

    Off Linux degrades to the ``getrusage`` self+children peaks — an
    overestimate that errs on the safe side of a soft budget.
    """
    own = process_rss_bytes()
    if own is None:  # pragma: no cover - non-Linux fallback
        import resource

        scale = 1024  # ru_maxrss is KiB on Linux, bytes on macOS
        return (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) * scale
    total = own
    for pid in _child_pids(os.getpid()):
        child = process_rss_bytes(pid)
        if child is not None:
            total += child
    return total


def dir_bytes(root: Path | str) -> int:
    """Recursive size of ``root`` (cache entries + journal + quarantine)."""
    total = 0
    root = Path(root)
    if not root.exists():
        return 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                continue
    return total


class ResourceWatchdog:
    """Samples resource usage and exposes the degradation ladder.

    ``on_level(level, reason)`` fires once per rung reached (ratchet):
    the engine hooks cap-shrinking, cache disabling and warnings there.
    ``throttle(jobs)`` and ``stop_reason()`` are the pull-side the
    supervisor consumes.
    """

    def __init__(
        self,
        *,
        max_rss_bytes: int | None = None,
        max_disk_bytes: int | None = None,
        disk_root: Path | str | None = None,
        interval: float = 0.25,
        on_level: Callable[[int, str], None] | None = None,
    ):
        self.max_rss_bytes = max_rss_bytes
        self.max_disk_bytes = max_disk_bytes
        self.disk_root = Path(disk_root) if disk_root is not None else None
        self.interval = interval
        self.on_level = on_level
        self.level = 0
        self.reason = ""
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- sampling --------------------------------------------------------------

    def _usage_fraction(self) -> tuple[float, str]:
        """The worst budget fraction and a human reason for it."""
        worst, why = 0.0, ""
        if self.max_rss_bytes:
            rss = tree_rss_bytes()
            frac = rss / self.max_rss_bytes
            if frac > worst:
                worst, why = frac, (
                    f"rss {rss / 1e6:.0f}MB of {self.max_rss_bytes / 1e6:.0f}MB budget"
                )
        if self.max_disk_bytes and self.disk_root is not None:
            used = dir_bytes(self.disk_root)
            frac = used / self.max_disk_bytes
            if frac > worst:
                worst, why = frac, (
                    f"disk {used / 1e6:.1f}MB of "
                    f"{self.max_disk_bytes / 1e6:.1f}MB budget under {self.disk_root}"
                )
        return worst, why

    def sample_once(self) -> int:
        """Take one sample, escalate the ratchet if warranted; the new
        level.  Public so tests (and the serial path) can pump the
        watchdog without the thread."""
        frac, why = self._usage_fraction()
        if frac >= STOP_AT:
            target = 3
        elif frac >= SHRINK_AT:
            target = 2
        elif frac >= SHED_AT:
            target = 1
        else:
            target = 0
        fired: list[tuple[int, str]] = []
        with self._lock:
            while self.level < target:
                self.level += 1
                self.reason = why
                fired.append((self.level, why))
        for level, reason in fired:
            _trace_instant(
                "watchdog:level", "watchdog",
                level=level, rung=LEVEL_NAMES[level], reason=reason,
            )
            if self.on_level is not None:
                try:
                    self.on_level(level, reason)
                except Exception:  # noqa: BLE001 - the ladder must not die
                    pass
        return self.level

    # -- the supervisor-facing pull side ---------------------------------------

    def throttle(self, jobs: int) -> Callable[[], int]:
        """A callable the supervisor polls for its in-flight window:
        full width at rung 0, half (min 1) from rung 1 up."""

        def _window() -> int:
            return jobs if self.level < 1 else max(1, jobs // 2)

        return _window

    def stop_reason(self) -> str | None:
        """Non-``None`` once rung 3 is reached: checkpoint and exit 3."""
        if self.level >= 3:
            return f"resource budget exhausted ({self.reason})"
        return None

    @property
    def degraded(self) -> bool:
        """Rung 2+ reached: verdicts may have run under shrunk caps."""
        return self.level >= 2

    # -- thread lifecycle ------------------------------------------------------

    def start(self) -> "ResourceWatchdog":
        if self.max_rss_bytes or self.max_disk_bytes:
            self._thread = threading.Thread(
                target=self._run, name="repro-watchdog", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()
            if self.level >= 3:
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
