"""``repro watch`` — the daemon plus an edit-triggered incremental loop.

The watcher owns a running :class:`~repro.serve.server.DaemonServer`
and polls the watched files (every registry program's source modules,
plus any ``--paths`` extras) by ``(mtime_ns, size)``.  When something
changes it:

1. **reconciles** the resident process with the disk
   (:meth:`ModuleTracker.refresh` — hot-reload edited case studies,
   latch ``stale_framework`` on framework edits);
2. **diffs fingerprints**: re-computes every program's dependency-cone
   fingerprint and keeps only the programs whose fingerprint moved —
   the *stale set* (usually one program for a one-file edit);
3. **re-verifies the stale set only**, as an ordinary ``verify``
   request submitted to the daemon's session queue (so an edit storm
   and a concurrent ``repro client`` request serialize exactly like two
   clients), with ``incremental`` on — inside the stale program, only
   the obligations whose cone contains the edit re-execute;
4. prints a compact **delta report** and, with ``--report FILE``,
   appends one NDJSON record per cycle (the CI smoke asserts
   ``reverified < total`` from it).

Changes landing *during* a verify are picked up by the next poll — the
snapshot is taken before the verify starts, so nothing is lost, at
worst re-verified once more.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path
from typing import Any, Callable, TextIO

from .protocol import Request
from .server import DaemonServer, LocalConnection


def watched_files(extra_paths: list[str] | None = None) -> dict[str, tuple[int, int]]:
    """``path -> (mtime_ns, size)`` for every watched source file."""
    from ..structures.registry import registry_programs

    files: set[Path] = set()
    for info in registry_programs():
        for dotted in info.modules:
            spec = importlib.util.find_spec(dotted)
            if spec is not None and spec.origin:
                files.add(Path(spec.origin))
    for raw in extra_paths or []:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.is_file():
            files.add(path)
    snapshot: dict[str, tuple[int, int]] = {}
    for path in files:
        try:
            stat = path.stat()
        except OSError:
            continue
        snapshot[str(path)] = (stat.st_mtime_ns, stat.st_size)
    return snapshot


class Watcher:
    """The poll → reload → fingerprint-diff → incremental-verify loop."""

    def __init__(
        self,
        server: DaemonServer,
        *,
        paths: list[str] | None = None,
        interval: float = 0.5,
        report_path: str | None = None,
        out: TextIO | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.server = server
        self.session = server.session
        self.paths = list(paths or [])
        self.interval = interval
        self.report_path = report_path
        self.out = out
        self.clock = clock
        self.cycles = 0

    def _emit(self, line: str) -> None:
        if self.out is not None:
            print(line, file=self.out, flush=True)

    def _record(self, record: dict[str, Any]) -> None:
        if self.report_path is None:
            return
        with open(self.report_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    # -- one change batch ----------------------------------------------------

    def handle_change(self, changed_files: list[str]) -> int:
        """Reconcile + re-verify after an observed edit; returns the
        cycle's exit code (0 clean, 1 verdict failed, 3 infra)."""
        started = self.clock()
        self.cycles += 1
        reload_report = self.session.tracker.refresh()
        stale = self.session.refresh_fingerprints()
        record: dict[str, Any] = {
            "cycle": self.cycles,
            "changed_files": sorted(changed_files),
            "reloaded": reload_report.reloaded,
            "framework_changed": reload_report.framework_changed,
            "stale": stale,
        }
        if self.session.tracker.stale_framework:
            record.update(exit_code=3, seconds=round(self.clock() - started, 3))
            self._record(record)
            self._emit(
                "watch: framework module(s) changed "
                f"({', '.join(reload_report.framework_changed) or 'earlier edit'}) "
                "— resident daemon is stale, restart `repro watch`"
            )
            return 3
        if not stale:
            record.update(
                exit_code=0, reverified=0, total=0,
                seconds=round(self.clock() - started, 3),
            )
            self._record(record)
            self._emit(
                f"watch: {len(changed_files)} file(s) touched, "
                "no program fingerprint moved (nothing to re-verify)"
            )
            return 0
        frame = self._verify(stale)
        seconds = self.clock() - started
        exit_code = int(frame.get("exit_code", 3))
        payload = frame.get("payload", {}) if frame.get("type") == "result" else {}
        programs = payload.get("programs", [])
        total = sum(
            sum((p.get("obligations") or {}).values()) for p in programs
        )
        reverified = payload.get("reverified")
        if reverified is None:
            # No program replayed incrementally: everything stale re-ran.
            reverified = total
        record.update(
            exit_code=exit_code,
            reverified=reverified,
            total=total,
            seconds=round(seconds, 3),
        )
        self._record(record)
        names = ", ".join(stale)
        self._emit(
            f"watch: {len(stale)} stale program(s) [{names}] — "
            f"re-verified {reverified}/{total} obligation(s) "
            f"in {seconds:.2f}s [exit {exit_code}]"
        )
        if frame.get("type") == "error":
            self._emit(
                f"watch: verify failed: {frame.get('code')}: "
                f"{frame.get('message')}"
            )
        return exit_code

    def _verify(self, stale: list[str]) -> dict[str, Any]:
        """Submit the stale set to the daemon's own session queue, so
        watch cycles serialize with concurrent client requests."""
        conn = LocalConnection()
        request = Request(
            op="verify",
            id=f"watch-{self.cycles}",
            params={"programs": stale, "incremental": True},
        )
        self.server.submit(request, conn)
        return conn.wait(timeout=600.0)

    # -- the loop ------------------------------------------------------------

    def run(self, *, once: bool = False, max_cycles: int | None = None) -> int:
        """Poll until interrupted (or, with ``once``, until the first
        change batch is processed — its exit code is returned)."""
        snapshot = watched_files(self.paths)
        self.session.refresh_fingerprints()  # baseline
        self._emit(
            f"watch: {len(snapshot)} file(s) under watch, "
            f"poll every {self.interval}s (daemon on {self.server.socket_path})"
        )
        worst = 0
        try:
            while not self.server.stopped.is_set():
                time.sleep(self.interval)
                fresh = watched_files(self.paths)
                changed = [
                    path
                    for path in fresh.keys() | snapshot.keys()
                    if fresh.get(path) != snapshot.get(path)
                ]
                snapshot = fresh
                if not changed:
                    continue
                code = self.handle_change(changed)
                worst = max(worst, code)
                if once:
                    return code
                if max_cycles is not None and self.cycles >= max_cycles:
                    return worst
        except KeyboardInterrupt:
            pass
        return worst
