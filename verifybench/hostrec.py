"""The run record: what the host was doing while a run measured.

The record is for diagnosis only and is never used to scale a metric.
It exists so that a noisy verdict can be told apart into host drift
(the fixed loop slows down, steal time rises) and program change (the
loop holds steady while the metric moves).
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any

#: Iterations of the fixed host-speed probe loop (~25 ms on a 2020s core).
PROBE_ITERATIONS = 500_000


def probe_ms() -> float:
    """Milliseconds one fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return (time.perf_counter() - started) * 1000.0


def steal_jiffies() -> int | None:
    """Total steal time of all CPUs from ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def tree_digest(root: Path) -> str:
    """Content digest of every file under ``root`` (relative paths too)."""
    digest = hashlib.sha256()
    if not root.exists():
        return "absent"
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def tree_stat(root: Path) -> list[tuple[str, int, int]]:
    """``(path, size, mtime_ns)`` of every entry under ``root``."""
    if not root.exists():
        return []
    return sorted(
        (str(p.relative_to(root)), p.stat().st_size, p.stat().st_mtime_ns)
        for p in root.rglob("*")
    )


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class RunRecord:
    """Samples plus host facts of one benchmark run."""

    def __init__(self, root: Path, args: Any) -> None:
        self.data: dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(root),
            "src_digest": tree_digest(root / "src"),
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "started": time.time(),
            "samples": [],
        }
        self._steal0 = steal_jiffies()

    def sample(self, kind: str, run: Any) -> Any:
        """Run ``run()`` as one sample, bracketed by host probes."""
        entry: dict[str, Any] = {"kind": kind, "timestamp": time.time()}
        steal = steal_jiffies()
        entry["probe_before_ms"] = probe_ms()
        value = run()
        entry["probe_after_ms"] = probe_ms()
        after = steal_jiffies()
        entry["steal_delta"] = None if steal is None or after is None else after - steal
        entry["value"] = value
        self.data["samples"].append(entry)
        return value

    def finish(self, **fields: Any) -> dict[str, Any]:
        steal = steal_jiffies()
        self.data["steal_delta"] = (
            None if steal is None or self._steal0 is None else steal - self._steal0
        )
        self.data["finished"] = time.time()
        self.data.update(fields)
        return self.data
