"""The daemon's resident verification session.

One :class:`Session` owns everything ``repro serve`` keeps resident
between requests:

* the **registry**: case-study modules stay imported (the daemon's
  process *is* the warm interpreter);
* the **import edges** of every case-study module, parsed once per
  source version (:class:`~repro.serve.reload.ModuleTracker`);
* the **dependency-cone fingerprints**: per-program fingerprints are
  kept resident and diffed on demand (the watcher's delta detector);
* the **obligation cache**: a resident handle plus the OS page cache
  over its entries; daemon verifies run ``incremental`` by default, so
  an edit re-executes only the stale cone;
* the **closure snapshots** (:class:`~repro.engine.snapshots.
  ClosureSnapshots`): one pickled protocol closure per (program, setup
  closure), so a stale slice whose closure's cone no edit touched loads
  it instead of enumerating it again.  An entry is replaced when its key
  changes, so the table does not grow per cycle.

The static pre-pass is not resident: each verify's sweep carries a
stateless :class:`~repro.analysis.prepass.StaticPrepass` in its options,
and the one fact it derives lives on the run's protocol graphs, so
nothing of it accrues across requests.

Requests are dispatched strictly one at a time — the server feeds a
single dispatcher thread through a queue — so resident state needs no
locking.  Every request runs under an optional per-request trace
session (``serve:<op>`` span + Chrome-trace export), and every response
carries the shared 0/1/2/3 exit contract.

Soundness gate: after a *framework* edit (anything outside
``repro.structures``) the resident process would execute old semantics
while fingerprints charge the new digest, so every analysis op is
refused with ``framework-changed`` until the daemon restarts — see
:mod:`repro.serve.reload`.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

from .protocol import (
    PROTOCOL_VERSION,
    Request,
    error_frame,
    progress_frame,
    result_frame,
)
from .reload import ModuleTracker

Emit = Callable[[dict[str, Any]], None]

#: Ops that execute analysis code and are therefore refused once the
#: resident framework is stale (``status``/``reload``/``shutdown`` stay
#: available — you can always ask the daemon what is wrong).
ANALYSIS_OPS = ("verify", "lint", "race", "live", "deps")


def _is_int(value: Any) -> bool:
    """A JSON integer (``true``/``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_names(value: Any) -> bool:
    """An absent list param, or a JSON list of strings."""
    return value is None or (
        isinstance(value, list) and all(isinstance(v, str) for v in value)
    )


class Session:
    """Resident state + the serialized request dispatcher."""

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        jobs: int | None = 1,
        trace_dir: str | None = None,
    ) -> None:
        from ..engine.cache import ObligationCache
        from ..engine.snapshots import ClosureSnapshots

        self.cache_dir = cache_dir
        self.jobs = jobs
        self.trace_dir = trace_dir
        self.cache = ObligationCache(cache_dir)
        self.snapshots = ClosureSnapshots()
        self.tracker = ModuleTracker()
        self.fingerprints: dict[str, str] = {}
        self.started = time.monotonic()
        self.requests: dict[str, int] = {}

    # -- resident fingerprints ----------------------------------------------

    def refresh_fingerprints(self) -> list[str]:
        """Recompute every registry program's fingerprint; return the
        names whose fingerprint changed since last computed (first call
        baselines silently)."""
        from ..engine.fingerprint import program_fingerprint
        from ..structures.registry import registry_programs

        fresh = {
            info.name: program_fingerprint(info) for info in registry_programs()
        }
        baseline = bool(self.fingerprints)
        changed = [
            name
            for name, fp in fresh.items()
            if baseline and self.fingerprints.get(name) != fp
        ]
        self.fingerprints = fresh
        # registry_programs() just imported every case-study module;
        # baseline them while memory and disk agree.
        self.tracker.observe_new()
        return changed

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, request: Request, emit: Emit) -> dict[str, Any]:
        """Run one request; stream progress through ``emit``; return the
        terminal frame.  Never raises: every failure becomes an
        ``error`` frame (the daemon must survive any request)."""
        self.requests[request.op] = self.requests.get(request.op, 0) + 1
        if request.op in ANALYSIS_OPS and self.tracker.stale_framework:
            return error_frame(
                request.id,
                "framework-changed",
                "a framework module changed on disk; the resident daemon "
                "cannot soundly hot-reload it — restart `repro serve`",
            )
        try:
            return self._traced_dispatch(request, emit)
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            return error_frame(
                request.id,
                "internal",
                f"{type(exc).__name__}: {exc}",
            )
        finally:
            # Baseline anything this request imported while memory and
            # disk still agree (see ModuleTracker.observe_new).
            self.tracker.observe_new()

    def _traced_dispatch(self, request: Request, emit: Emit) -> dict[str, Any]:
        from contextlib import nullcontext

        from ..obs import tracer

        session = (
            tracer.tracing() if self.trace_dir is not None else nullcontext(None)
        )
        with session as tr:
            with tracer.span(f"serve:{request.op}", cat="serve", id=request.id):
                frame = self._run_op(request, emit)
        if tr is not None:
            from ..obs.export import write_chrome_trace

            out = Path(self.trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            seq = sum(self.requests.values())
            path = write_chrome_trace(
                tr.records, out / f"req-{seq:04d}-{request.op}.json"
            )
            frame.setdefault("payload", {})
            if isinstance(frame.get("payload"), dict):
                frame["payload"]["trace"] = str(path)
        return frame

    def _run_op(self, request: Request, emit: Emit) -> dict[str, Any]:
        handler = getattr(self, f"_op_{request.op}")
        return handler(request, emit)

    # -- ops -----------------------------------------------------------------

    def _op_status(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..structures.registry import registry_programs

        payload = {
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "python": sys.version.split()[0],
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "cache_dir": str(self.cache.root),
            "jobs": self.jobs,
            "programs": len(registry_programs()),
            "requests": dict(self.requests),
            "stale_framework": self.tracker.stale_framework,
            "fingerprints_resident": len(self.fingerprints),
            "closure_snapshots": self.snapshots.status(),
        }
        return result_frame(request.id, "status", 0, payload)

    def _op_reload(self, request: Request, emit: Emit) -> dict[str, Any]:
        report = self.tracker.refresh()
        stale = self.refresh_fingerprints()
        payload = report.to_dict()
        payload["stale_programs"] = stale
        payload["stale_framework"] = self.tracker.stale_framework
        code = 3 if self.tracker.stale_framework else 0
        return result_frame(request.id, "reload", code, payload)

    def _op_shutdown(self, request: Request, emit: Emit) -> dict[str, Any]:
        # The server watches for this frame and stops its loops; the
        # session only records the intent.
        return result_frame(request.id, "shutdown", 0, {"pid": os.getpid()})

    def _op_verify(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..engine import run_sweep

        p = request.params
        names = p.get("programs") or None
        if not _is_names(names):
            return error_frame(
                request.id, "bad-request", "'programs' must be a list of names"
            )
        jobs = p.get("jobs", self.jobs)
        retries = p.get("retries", 1)
        timeout = p.get("timeout")
        if not (jobs is None or _is_int(jobs)) or not _is_int(retries):
            return error_frame(
                request.id, "bad-request", "'jobs' and 'retries' must be integers"
            )
        if not (timeout is None or _is_int(timeout) or isinstance(timeout, float)):
            return error_frame(
                request.id, "bad-request", "'timeout' must be a number of seconds"
            )
        cache = bool(p.get("cache", True))
        # Incremental replay needs the cache; degrade rather than refuse.
        incremental = bool(p.get("incremental", True)) and cache

        def on_lease(unit: str, attempt: int, lease: float | None) -> None:
            emit(
                progress_frame(
                    request.id, "lease", unit=unit, attempt=attempt, lease=lease
                )
            )

        def on_result(tr: Any) -> None:
            emit(
                progress_frame(
                    request.id,
                    "unit",
                    unit=tr.name,
                    status=tr.status,
                    seconds=round(tr.seconds, 4),
                    retries=tr.retries,
                )
            )

        try:
            result = run_sweep(
                names=names,
                jobs=jobs,
                cache=cache,
                cache_dir=self.cache_dir,
                liveness=bool(p.get("liveness", False)),
                timeout=timeout,
                retries=retries,
                journal=False,  # daemon sweeps are short; the cache persists
                incremental=incremental,
                on_lease=on_lease,
                on_result=on_result,
                snapshots=self.snapshots,
            )
        except KeyError as exc:
            return error_frame(request.id, "bad-request", str(exc.args[0]))
        except ValueError as exc:
            return error_frame(request.id, "bad-request", str(exc))
        self.refresh_fingerprints()
        return result_frame(
            request.id, "verify", result.exit_code(), result.to_dict()
        )

    # -- the diagnostic sweeps (lint / race / live / deps) -------------------

    def _diagnostic_sweep(
        self, request: Request, sweep: Any, tool: str
    ) -> dict[str, Any]:
        from ..analysis.diagnostics import (
            SelectorError,
            run_diagnostics,
            worst_severity,
        )

        p = request.params
        names, codes = p.get("programs") or None, p.get("select") or None
        strict = p.get("strict", False)
        if not (_is_names(names) and _is_names(codes) and isinstance(strict, bool)):
            return error_frame(
                request.id,
                "bad-request",
                "'programs' and 'select' must be lists of strings and "
                "'strict' a boolean",
            )
        try:
            kept, code = run_diagnostics(
                sweep, names=names, codes=codes, strict=strict
            )
        except (KeyError, SelectorError) as exc:
            return error_frame(request.id, "bad-request", str(exc.args[0]))
        worst = worst_severity(kept)
        payload = {
            "tool": tool,
            "count": len(kept),
            "worst": str(worst) if worst is not None else None,
            "diagnostics": [d.to_json() for d in kept],
        }
        return result_frame(request.id, request.op, code, payload)

    def _op_lint(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..analysis import lint_registry

        return self._diagnostic_sweep(request, lint_registry, "fcsl-lint")

    def _op_race(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..analysis import race_registry

        return self._diagnostic_sweep(request, race_registry, "fcsl-race")

    def _op_live(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..analysis import live_registry

        return self._diagnostic_sweep(request, live_registry, "fcsl-live")

    def _op_deps(self, request: Request, emit: Emit) -> dict[str, Any]:
        name = request.params.get("program")
        if not name:
            from ..analysis import deps_registry

            return self._diagnostic_sweep(request, deps_registry, "fcsl-deps")
        from ..analysis.diagnostics import dependency_graph
        from ..structures.registry import program

        try:
            info = program(name)
        except KeyError as exc:
            return error_frame(request.id, "bad-request", str(exc.args[0]))
        graph, diagnostics, code = dependency_graph(info)
        return result_frame(
            request.id,
            "deps",
            code,
            {
                "program": info.name,
                "graph": graph.to_dict() if graph is not None else None,
                "diagnostics": [d.to_json() for d in diagnostics],
            },
        )
