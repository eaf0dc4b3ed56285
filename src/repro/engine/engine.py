"""The parallel, cached, *supervised* verification engine behind
``repro verify``.

The registry sweep (all eleven Table 1 case studies) historically ran
strictly serially and recomputed every obligation from scratch on every
run.  The engine fixes both ends:

* **Parallelism** — pending case studies fan out across a
  ``multiprocessing`` pool, one worker per case study (capped by
  ``--jobs``).  The fcsl-lint static pre-pass rides in the sweep's
  :class:`~repro.core.verify.VerifyOptions` (``prepass=``), which the
  unit worker carries to a pool worker and installs around every unit
  in-process alike; the pre-pass holds no state, and skip attribution
  inside ``ReportBuilder`` is scoped (see
  :func:`repro.core.verify.record_prepass_skip`).
* **Caching** — verdicts persist in an on-disk
  :class:`~repro.engine.cache.ObligationCache` keyed by content
  fingerprint; unchanged case studies are verdict-replayed instantly on
  warm reruns.
* **Supervision** — dispatch goes through
  :mod:`repro.engine.supervisor`: per-program timeouts, worker-death
  detection, bounded retries with backoff, pool resurrection, and
  serial degradation when the pool cannot be built.  A program that
  still fails after retries is *quarantined* — its
  :class:`ProgramOutcome` carries ``status`` ``error``/``timeout``/
  ``crashed`` and the captured traceback — and the sweep still reports
  every requested program.  Deterministic fault injection
  (:mod:`repro.engine.faults`, ``--inject``) exists to prove all of
  this under test.

* **Durability** — every work unit's lifecycle is journaled to an
  fsync'd append-only log (:mod:`repro.engine.journal`) the moment it
  completes, so a sweep killed hard (kill -9, OOM, power loss) is
  resumable: ``sweep(resume=True)`` / ``repro verify --resume`` replays
  journaled verdicts and re-executes only the units that were pending
  or in-flight, with verdicts identical to an uninterrupted run.  Each
  program is one work unit (:mod:`repro.engine.queue`) — the whole
  program, or its incremental slice — with its own lease, retries and
  quarantine.  A resource watchdog (:mod:`repro.engine.watchdog`) enforces soft
  ``max_rss``/``max_disk`` budgets via a degradation ladder (shed
  parallelism → shrink explorer caps → checkpoint-and-exit 3) instead
  of letting the kernel OOM-killer pick the failure mode.

``--jobs 1`` runs the supervisor's in-process serial runner directly (no
pool is ever created) — the same loop a degraded sweep falls back to —
and doubles as the reference the parallel path is tested for
equivalence against.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from pathlib import Path

from ..analysis.prepass import StaticPrepass
from ..core.verify import (
    CATEGORIES,
    VerificationReport,
    VerifyOptions,
    collecting_obligations,
    options_installed,
)
from ..obs import tracer as obs_tracer
from ..structures.registry import ProgramInfo, all_programs, registry_programs
from .cache import ObligationCache, default_cache_dir
from .depgraph import DepGraph, build_depgraph
from .faults import FaultPlan, maybe_inject, plan_installed
from .fingerprint import program_fingerprint
from .journal import SweepJournal, journal_path, load_image
from .queue import UnitRecord, WorkUnit
from .supervisor import (
    INFRA_STATUSES,
    Supervisor,
    SupervisorConfig,
    TaskResult,
    announce,
    exc_payload,
)
from .watchdog import LEVEL_NAMES, ResourceWatchdog

#: Process exit code for a sweep degraded by infrastructure faults
#: (vs. 1 = a verification verdict failed, 2 = unknown program).
EXIT_INFRA = 3


@dataclass
class ProgramOutcome:
    """One case study's sweep result."""

    name: str
    #: The verification report — ``None`` when the program was
    #: quarantined (``status`` in :data:`~repro.engine.supervisor.INFRA_STATUSES`).
    report: VerificationReport | None
    fingerprint: str
    #: True iff the report was replayed from the obligation cache.
    cached: bool
    #: Wall time this run spent obtaining the report (verification wall
    #: time on a miss, replay time on a hit) — distinct from
    #: ``report.seconds``, the summed per-obligation checking time.
    seconds: float
    #: ``ok`` | ``failed`` (verdicts) or ``error`` | ``timeout`` |
    #: ``crashed`` | ``interrupted`` (quarantined: no verdict exists).
    status: str = "ok"
    #: Fault-triggered re-dispatches that preceded this outcome.
    retries: int = 0
    #: Structured ``{type, message, traceback}`` for error-class statuses.
    error: dict[str, Any] | None = None
    #: Units whose verdict was replayed from the sweep journal instead
    #: of re-executed (``--resume`` after a crash).
    replayed_units: int = 0
    #: Incremental mode (fcsl-deps): how many obligations this run
    #: actually re-executed (the rest replayed from per-obligation
    #: fingerprints).  ``None`` = the program did not verify
    #: incrementally (full run, cache hit, or quarantine).
    reverified: int | None = None

    @classmethod
    def from_record(cls, record: UnitRecord, fingerprint: str) -> "ProgramOutcome":
        """A program's outcome from its one unit's terminal record: a
        verdict payload makes it ``ok`` or ``failed``; any other status
        quarantines the program (no report: a verifier that did not
        finish has no verdict)."""
        program = record.unit.program
        report = None
        status = record.status
        if status == "report":
            # Reported under the registry name, whatever the verifier
            # called its report.
            shipped = VerificationReport.from_dict(record.payload["report"])
            report = VerificationReport(program, shipped.obligations)
            status = "ok" if report.ok else "failed"
        return cls(
            program,
            report,
            fingerprint,
            False,
            record.seconds,
            status=status,
            retries=record.retries,
            error=None if report is not None else record.error,
            replayed_units=int(record.replayed),
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def replayed(self) -> bool:
        """Any part of this outcome came from the sweep journal."""
        return self.replayed_units > 0

    @property
    def quarantined(self) -> bool:
        """No verdict exists for this program (infrastructure fault)."""
        return self.status in INFRA_STATUSES

    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.name,
            "ok": self.ok,
            "status": self.status,
            "retries": self.retries,
            "cached": self.cached,
            "fingerprint": self.fingerprint,
            "seconds": self.seconds,
            "report_seconds": self.report.seconds if self.report else 0.0,
            "obligations": (
                self.report.counts_by_category() if self.report else {}
            ),
            "prepass_skips": self.report.prepass_skips if self.report else 0,
            "failures": (
                [o.to_dict() for o in self.report.failures()] if self.report else []
            ),
            "error": self.error,
            "replayed_units": self.replayed_units,
            "reverified": self.reverified,
        }


@dataclass
class _IncrementalPlan:
    """Parent-side bookkeeping for one incrementally-verified program:
    the dependency graph, the plan-ordered obligation names, the stale
    subset that must re-execute, and the cached results the fresh rest
    replays from."""

    graph: DepGraph
    order: list[str]
    stale: set[str]
    cached: dict[str, Any]


@dataclass
class SweepResult:
    """The whole sweep: per-program outcomes plus run metadata."""

    outcomes: list[ProgramOutcome] = field(default_factory=list)
    jobs: int = 1
    seconds: float = 0.0
    cache_dir: str | None = None
    #: True when the worker pool could not be (re)built and the sweep
    #: fell back to serial in-process execution.
    degraded: bool = False
    #: True when a KeyboardInterrupt (or a watchdog checkpoint) cut the
    #: sweep short (the result is partial: completed + cached outcomes,
    #: the rest ``interrupted`` — and journaled, so resumable).
    interrupted: bool = False
    warnings: list[str] = field(default_factory=list)
    #: Where the durable sweep journal lives (``None`` = journaling off).
    journal_path: str | None = None

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def replayed(self) -> int:
        """Total units replayed from the journal instead of re-executed."""
        return sum(o.replayed_units for o in self.outcomes)

    @property
    def reverified(self) -> int | None:
        """Total obligations re-executed across incrementally-verified
        programs (``None`` when no program verified incrementally)."""
        counts = [o.reverified for o in self.outcomes if o.reverified is not None]
        return sum(counts) if counts else None

    def quarantined(self) -> list[ProgramOutcome]:
        """Outcomes with no verdict (crashed/timed out/raised/interrupted)."""
        return [o for o in self.outcomes if o.quarantined]

    def exit_code(self) -> int:
        """CLI exit convention: ``0`` all verified, ``1`` a verification
        verdict failed, ``3`` infrastructure fault/degraded (no trustable
        complete answer — takes precedence over ``1``)."""
        if self.degraded or self.interrupted or self.quarantined():
            return EXIT_INFRA
        return 0 if self.ok else 1

    def outcome(self, name: str) -> ProgramOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(f"no outcome for program {name!r}")

    def reports(self) -> dict[str, VerificationReport]:
        """Per-program reports, for the programs that produced one."""
        return {o.name: o.report for o in self.outcomes if o.report is not None}

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "exit_code": self.exit_code(),
            "jobs": self.jobs,
            "seconds": self.seconds,
            "cache_dir": self.cache_dir,
            "cache_hits": self.hits,
            "degraded": self.degraded,
            "interrupted": self.interrupted,
            "warnings": list(self.warnings),
            "journal": self.journal_path,
            "replayed_units": self.replayed,
            "reverified": self.reverified,
            "programs": [o.to_dict() for o in self.outcomes],
        }

    def render(self) -> str:
        header = (
            f"{'Program':<15} {'status':>7} "
            + " ".join(f"{c:>5}" for c in CATEGORIES)
            + f" {'Wall':>8} {'Cache':>6} {'Retry':>5}"
        )
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            counts = o.report.counts_by_category() if o.report else {}
            source = "hit" if o.cached else ("jrnl" if o.replayed else "miss")
            if o.reverified is not None and not o.cached:
                source = "inc"
            lines.append(
                f"{o.name:<15} {o.status:>7} "
                + " ".join(f"{counts.get(c, 0):>5}" for c in CATEGORIES)
                + f" {o.seconds:>7.2f}s {source:>6}"
                + (f" {o.retries:>5}" if o.retries else f" {'':>5}")
            )
        summary = (
            f"{len(self.outcomes)} program(s), {self.hits} cache hit(s), "
            f"jobs={self.jobs}, wall {self.seconds:.2f}s"
        )
        if self.replayed:
            summary += f", {self.replayed} unit(s) replayed from journal"
        if self.reverified is not None:
            summary += f", {self.reverified} obligation(s) re-verified"
        lines.append(summary)
        for o in self.outcomes:
            if o.report is not None:
                for failure in o.report.failures():
                    lines.append(f"  FAILED {o.name} :: {failure}")
            elif o.error is not None:
                lines.append(
                    f"  {o.status.upper()} {o.name} :: "
                    f"{o.error.get('type')}: {o.error.get('message')}"
                )
            else:
                lines.append(f"  {o.status.upper()} {o.name}")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        if self.degraded:
            lines.append("  DEGRADED: worker pool unavailable, ran serially")
        if self.interrupted:
            lines.append("  INTERRUPTED: partial sweep (completed verdicts kept)")
        return "\n".join(lines)


def resolve_programs(names: Iterable[str] | None = None) -> tuple[ProgramInfo, ...]:
    """Registry rows for ``names`` (default: all), in registry order.

    The default sweep covers exactly the paper's eleven case studies;
    the ``demo=True`` rows (deliberately defective fcsl-live positive
    cases) are reachable only by explicit name — a default
    ``repro verify`` must stay green.

    Unknown names raise ``KeyError`` with the known names listed, exactly
    like the lint runner — the CLI maps this to a stderr message and
    exit code 2.
    """
    if names is None:
        return all_programs()
    programs = registry_programs()
    wanted = tuple(names)
    known = {info.name for info in programs}
    unknown = sorted(set(wanted) - known)
    if unknown:
        raise KeyError(
            f"unknown registry program(s) {unknown}; known: {sorted(known)}"
        )
    return tuple(info for info in programs if info.name in set(wanted))


# -- worker-side pieces (module-level: they must survive pickling) -------------


class _UnitWorker:
    """The callable every dispatch path runs a work unit with.

    It carries the sweep-level :class:`~repro.core.verify.VerifyOptions`
    (liveness, explorer cap scale, static pre-pass); an incremental unit
    adds its obligation-name filter (``WorkUnit.names``).  A pool pickles the
    callable with every dispatch, so the watchdog's rung-2 shrink —
    which replaces ``options`` — reaches every unit dispatched after it,
    in a pool worker and in-process alike.
    """

    def __init__(self, options: VerifyOptions):
        self.options = options

    def __call__(self, unit: WorkUnit, attempt: int = 1) -> dict[str, Any]:
        """Run one work unit's verifier; returns a picklable payload.

        The payload is structured even on failure: a verifier that
        raises yields ``{"status": "error", "error": {type, message,
        traceback}}`` rather than a pickled exception, so the serial and
        parallel paths report verifier bugs identically.  Injected faults
        fire *before* the capture — a ``raise`` fault models a harness
        bug escaping the worker, which the supervisor (not this method)
        must absorb.  Program-named fault specs fire for every unit of
        the program; an incremental unit also answers to its unit id.
        """
        announce(unit.name)
        maybe_inject(unit.program, attempt)
        if unit.names is not None:
            maybe_inject(unit.name, attempt)
        options = replace(self.options, names=unit.names)
        if obs_tracer.local_session_needed():
            # Pool worker under a tracing parent: collect a local trace and
            # ship its (picklable) records home in the payload for ingestion.
            with obs_tracer.tracing(mirror_env=False) as local:
                payload = _verify_payload(unit, options)
            payload["trace"] = list(local.records)
            return payload
        return _verify_payload(unit, options)


def _verify_payload(unit: WorkUnit, options: VerifyOptions) -> dict[str, Any]:
    info = unit.info
    started = time.perf_counter()
    collected: list | None = None
    try:
        # An incremental unit (fcsl-deps) executes (and records) only
        # its stale obligations — the fresh rest replay from their
        # cached per-obligation fingerprints in the parent's merge.
        with options_installed(options):
            if unit.collect_deps:
                # Cold incremental entry: record the obligation plan while
                # the verifier runs for real, then walk the dependency
                # cones right here — one setup pays for both the verdicts
                # and the per-obligation fingerprint map the next run
                # diffs against.
                with collecting_obligations(execute=True) as collector:
                    report = info.run_verifier()
                collected = list(collector)
            else:
                report = info.run_verifier()
    except Exception as exc:  # noqa: BLE001 - structured, not pickled
        payload: dict[str, Any] = {
            "status": "error",
            "seconds": time.perf_counter() - started,
            "error": exc_payload(exc, tb=traceback.format_exc()),
        }
    else:
        payload = {
            "status": "report",
            "seconds": time.perf_counter() - started,
            "report": report.to_dict(),
        }
        if unit.collect_deps:
            # Best-effort: a failed walk must never cost the verdict —
            # the entry is then stored without a map and the next
            # incremental run backfills it on the cache hit.
            try:
                graph = build_depgraph(info, plan=collected)
            except Exception:  # noqa: BLE001 - analysis trouble only
                graph = None
            if graph is not None:
                payload["obligations"] = graph.fingerprints
            payload["seconds"] = time.perf_counter() - started
    tr = obs_tracer.current()
    if tr is not None:
        tr.span(
            f"verify:{unit.name}",
            "verify",
            started * 1e6,
            (started + payload["seconds"]) * 1e6,
            status=payload["status"],
        )
    return payload


def default_jobs(pending: int) -> int:
    """One worker per pending case study, capped by the CPU count."""
    return max(1, min(pending, os.cpu_count() or 1))


# -- the phases of one sweep ---------------------------------------------------


@dataclass
class _SweepState:
    """What the phases of one :func:`sweep` share.

    Each phase reads the fixed inputs and settles a program into
    ``outcomes`` (a finished program) or its unit into ``unit_records``
    (terminal unit state, journal-replayed or live); a program settled
    by one phase is skipped by the later ones.
    """

    programs: Sequence[ProgramInfo]
    fingerprints: dict[str, str]
    #: program -> its work unit (incremental planning may replace it)
    program_units: dict[str, WorkUnit]
    store: ObligationCache | None
    journal: SweepJournal | None
    incremental: bool
    tr: Any
    #: program -> its unit's terminal record
    unit_records: dict[str, UnitRecord] = field(default_factory=dict)
    outcomes: dict[str, ProgramOutcome] = field(default_factory=dict)
    inc_plans: dict[str, _IncrementalPlan] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    #: Set by the watchdog's shrink rung: nothing more is cached.
    stop_caching: bool = False

    def replayed(self, info: ProgramInfo) -> bool:
        """Whether the journal replayed ``info``'s unit."""
        return info.name in self.unit_records

    def store_report(
        self,
        name: str,
        report: VerificationReport,
        meta: dict[str, Any],
        obligations: dict[str, str] | None,
    ) -> None:
        """Cache ``report`` under the program's fingerprint; a failed
        store is a warning, never sweep loss."""
        if self.store is None or self.stop_caching:
            return
        try:
            self.store.store(
                name,
                self.fingerprints[name],
                report,
                meta=meta,
                obligations=obligations,
            )
        except Exception as exc:  # noqa: BLE001 - not sweep loss
            self.warnings.append(
                f"cache store failed for {name!r}: {type(exc).__name__}: {exc}"
            )


def _replay_journal(
    state: _SweepState, jpath: Path, *, resume: bool, liveness: bool
) -> None:
    """On ``resume``, replay the verdict-bearing unit records of the
    journal at ``jpath`` into ``state.unit_records`` — fingerprint-gated,
    so an edited program re-runs fresh — then open the journal for this
    run."""
    image = load_image(jpath) if resume else None
    if image is not None and not image.exists:
        state.warnings.append(
            f"resume requested but no usable journal at {jpath}; "
            "running the full sweep"
        )
        image = None
    if image is not None:
        for info in state.programs:
            unit = state.program_units[info.name]
            rec = image.replayable(
                unit.name, info.name, state.fingerprints[info.name]
            )
            payload = rec.get("payload") if rec is not None else None
            if not isinstance(payload, dict) or "report" not in payload:
                continue
            state.unit_records[info.name] = UnitRecord(
                unit,
                "report",
                payload=payload,
                retries=int(rec.get("retries") or 0),
                seconds=float(rec.get("seconds") or 0.0),
                replayed=True,
            )
            if state.tr is not None:
                state.tr.instant("journal:replay", "journal", unit=unit.name)
    if state.journal is not None:
        state.journal.begin(
            state.fingerprints,
            [unit.name for unit in state.program_units.values()],
            resume=image is not None,
            flags={"liveness": liveness},
        )


def _replay_cache(state: _SweepState) -> None:
    """Replay every program the journal did not cover whose whole-program
    fingerprint hits the obligation cache."""
    store, tr, sj = state.store, state.tr, state.journal
    for info in state.programs:
        if store is None or state.replayed(info):
            continue
        fingerprint = state.fingerprints[info.name]
        t0 = time.perf_counter()
        hit, cache_warning = store.load_verified(info.name, fingerprint)
        if cache_warning:
            state.warnings.append(cache_warning)
        if hit is None:
            if tr is not None:
                tr.instant("cache:miss", "cache", program=info.name)
            continue
        if tr is not None:
            tr.instant("cache:hit", "cache", program=info.name)
        elapsed = time.perf_counter() - t0
        state.outcomes[info.name] = ProgramOutcome(
            info.name,
            hit,
            fingerprint,
            True,
            elapsed,
            status="ok" if hit.ok else "failed",
        )
        if sj is not None:
            # Journal the replayed verdict too: resume must not depend on
            # the cache entry still being intact.
            sj.unit_done(
                info.name, info.name, "report",
                payload={"report": hit.to_dict()},
                seconds=elapsed, via="cache",
            )
        if state.incremental and store.load_incremental(info.name) is None:
            # The hit entry predates per-obligation fingerprints (stored
            # by a non-incremental sweep): backfill the map now —
            # analysis only, no re-verification — so the *next* edit
            # re-verifies incrementally.
            try:
                graph = build_depgraph(info)
            except Exception:  # noqa: BLE001 - best-effort backfill
                graph = None
            if graph is not None:
                state.store_report(
                    info.name,
                    hit,
                    {"seconds": elapsed, "incremental": True},
                    graph.fingerprints,
                )


def _plan_incremental(state: _SweepState) -> None:
    """fcsl-deps: for each program still pending with a *prior*
    incremental entry, build its dependency graph and compare
    per-obligation fingerprints — fresh obligations replay, stale ones
    become one incremental work unit.  Cold entries skip parent-side
    analysis entirely: their work unit collects the plan while it
    verifies and ships the fingerprint map home in its payload, so a
    cold incremental sweep costs one verifier setup, not two."""
    tr = state.tr
    for info in state.programs:
        if info.name in state.outcomes or state.replayed(info):
            continue
        entry = state.store.load_incremental(info.name)
        if entry is None:
            # Cold entry: full verify, the unit walks the cones.
            state.program_units[info.name] = WorkUnit(info, collect_deps=True)
            continue
        t0 = time.perf_counter()
        try:
            graph = build_depgraph(info)
        except Exception as exc:  # noqa: BLE001 - analysis trouble
            # must never cost a verdict: fall back to full verify.
            state.warnings.append(
                f"dependency analysis failed for {info.name!r} "
                f"({type(exc).__name__}: {exc}); verifying fully"
            )
            state.program_units[info.name] = WorkUnit(info, collect_deps=True)
            continue
        if graph is None:
            state.warnings.append(
                f"per-obligation fingerprints unusable for "
                f"{info.name!r} (see `repro deps`); verifying fully"
            )
            continue
        cached_report, cached_fps = entry
        cached_results = {o.name: o for o in cached_report.obligations}
        order = [dep.name for dep in graph.analysis.obligations]
        stale = graph.stale_obligations(cached_fps)
        # A fresh fingerprint without a cached result to replay (e.g. a
        # previously-filtered sweep) must still re-run.
        stale.update(
            name for name in order
            if name not in stale and name not in cached_results
        )
        if tr is not None:
            tr.instant(
                "deps:plan", "deps", program=info.name,
                stale=len(stale), total=len(order),
            )
        if stale:
            state.inc_plans[info.name] = _IncrementalPlan(
                graph=graph, order=order, stale=stale, cached=cached_results
            )
            state.program_units[info.name] = WorkUnit(
                info, names=frozenset(stale)
            )
            continue
        merged = VerificationReport(info.name)
        merged.obligations.extend(cached_results[name] for name in order)
        elapsed = time.perf_counter() - t0
        state.outcomes[info.name] = ProgramOutcome(
            info.name,
            merged,
            state.fingerprints[info.name],
            True,
            elapsed,
            status="ok" if merged.ok else "failed",
            reverified=0,
        )
        # Refresh the entry under the new program fingerprint so the
        # next run is a plain hit.
        state.store_report(
            info.name,
            merged,
            {"seconds": elapsed, "incremental": True},
            graph.fingerprints,
        )
        if state.journal is not None:
            state.journal.unit_done(
                info.name, info.name, "report",
                payload={"report": merged.to_dict()},
                seconds=elapsed, via="incremental",
            )


def _watchdog(
    state: _SweepState,
    worker: _UnitWorker,
    max_rss_mb: float | None,
    max_disk_mb: float | None,
    disk_root: Path,
) -> ResourceWatchdog | None:
    """The resource watchdog for the given budgets (``None`` = none).
    Its shrink rung halves the explorer caps of every unit dispatched
    after it and stops cache stores."""
    if not (max_rss_mb or max_disk_mb):
        return None

    def on_level(level: int, reason: str) -> None:
        state.warnings.append(
            f"watchdog rung {level} ({LEVEL_NAMES[level]}): {reason}"
        )
        if level >= 2:
            state.stop_caching = True
            worker.options = replace(worker.options, cap_scale=0.5)

    return ResourceWatchdog(
        max_rss_bytes=int(max_rss_mb * 2**20) if max_rss_mb else None,
        max_disk_bytes=int(max_disk_mb * 2**20) if max_disk_mb else None,
        disk_root=disk_root,
        on_level=on_level,
    )


def _execute(
    state: _SweepState,
    worker: _UnitWorker,
    *,
    jobs: int | None,
    timeout: float | None,
    retries: int,
    backoff: float,
    watchdog: ResourceWatchdog | None,
    on_lease: Any,
    on_result: Any,
) -> tuple[int, bool, bool]:
    """Dispatch the unit of every program no earlier phase settled and
    record each one's terminal state, journaling it the moment it
    completes.  ``jobs == 1`` runs the supervisor's serial runner
    directly; wider sweeps use its pool.  Returns ``(jobs, degraded,
    interrupted)``."""
    pending_units = [
        state.program_units[info.name]
        for info in state.programs
        if info.name not in state.outcomes and info.name not in state.unit_records
    ]
    units_by_name = {u.name: u for u in pending_units}
    sj = state.journal

    jobs = default_jobs(len(pending_units)) if jobs is None else max(1, jobs)
    jobs = min(jobs, len(pending_units)) if pending_units else 1
    if not pending_units:
        return jobs, False, False

    def _journal_lease(name: str, attempt: int, lease: float | None) -> None:
        unit = units_by_name.get(name)
        if sj is not None and unit is not None:
            sj.unit_leased(
                name, unit.program, attempt=attempt, lease_seconds=lease
            )
        if on_lease is not None:
            try:
                on_lease(name, attempt, lease)
            except Exception:  # noqa: BLE001 - progress taps never stall units
                pass

    def _journal_result(result: TaskResult) -> None:
        if on_result is not None:
            try:
                on_result(result)
            except Exception:  # noqa: BLE001 - progress taps never stall units
                pass
        unit = units_by_name.get(result.name)
        if sj is None or unit is None:
            return
        payload = None
        if result.status == "report" and result.payload is not None:
            payload = {"report": result.payload.get("report")}
            shipped = result.payload.get("obligations")
            if shipped is not None:
                # Collect-while-verifying units journal their
                # fingerprint map too, so --resume stores it.
                payload["obligations"] = shipped
        sj.unit_done(
            result.name, unit.program, result.status,
            payload=payload, error=result.error, retries=result.retries,
            seconds=(result.payload or {}).get("seconds", result.seconds),
        )

    supervisor = Supervisor(
        pending_units,
        worker=worker,
        config=SupervisorConfig(
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            throttle=watchdog.throttle(jobs) if watchdog is not None else None,
            should_stop=watchdog.stop_reason if watchdog is not None else None,
        ),
        on_lease=_journal_lease,
        on_result=_journal_result,
    )
    try:
        if watchdog is not None:
            watchdog.start()
        outcome = supervisor.run() if jobs > 1 else supervisor.run_serial()
    finally:
        if watchdog is not None:
            watchdog.stop()
    state.warnings.extend(outcome.warnings)
    for unit in pending_units:
        result = outcome.results.get(unit.name)
        if result is None:  # defensive: everyone gets an answer
            state.unit_records[unit.program] = UnitRecord(unit, "crashed")
            continue
        if state.tr is not None and result.payload:
            # A pool worker's locally-collected trace rides home in the
            # payload; in-process runs traced directly.
            state.tr.ingest(result.payload.get("trace") or [])
        state.unit_records[unit.program] = UnitRecord(
            unit,
            result.status,
            payload=result.payload,
            error=result.error,
            retries=result.retries,
            seconds=(result.payload or {}).get("seconds", result.seconds),
        )
    degraded, interrupted = outcome.degraded, outcome.interrupted
    if watchdog is not None:
        degraded = degraded or watchdog.degraded
        interrupted = interrupted or watchdog.stop_reason() is not None
    return jobs, degraded, interrupted


def _splice_incremental(
    info: ProgramInfo, record: UnitRecord, plan: _IncrementalPlan
) -> tuple[UnitRecord, int | None]:
    """Splice an incremental unit's fresh verdicts and the entry's cached
    verdicts back into plan order; returns the whole-program record and
    how many obligations were re-verified.  A stale obligation the unit
    did not report (the plan drifted between analysis and execution)
    voids the splice — an infra quarantine, never a partial verdict."""
    partial = VerificationReport.from_dict(record.payload["report"])
    fresh_results = {o.name: o for o in partial.obligations}
    missing = [name for name in plan.stale if name not in fresh_results]
    if missing:
        error = {
            "type": "IncrementalMergeError",
            "message": (
                "incremental unit produced no verdict for "
                f"stale obligation(s) {sorted(missing)}"
            ),
            "traceback": "",
        }
        return UnitRecord(
            record.unit, "error", error=error,
            retries=record.retries, seconds=record.seconds,
        ), None
    merged = VerificationReport(info.name)
    merged.obligations.extend(
        fresh_results[name] if name in plan.stale else plan.cached[name]
        for name in plan.order
    )
    return UnitRecord(
        record.unit,
        "report",
        payload={"report": merged.to_dict()},
        retries=record.retries,
        seconds=record.seconds,
        replayed=record.replayed,
    ), len(plan.stale)


def _merge(state: _SweepState, jobs: int) -> None:
    """Turn every unsettled program's unit record into its outcome, and
    cache each verdict that came out."""
    for info in state.programs:
        if info.name in state.outcomes:
            continue
        record = state.unit_records.get(info.name) or UnitRecord(
            state.program_units[info.name], "crashed"
        )
        inc_plan = state.inc_plans.get(info.name)
        reverified: int | None = None
        if inc_plan is not None and record.status == "report":
            record, reverified = _splice_incremental(info, record, inc_plan)
        outcome = state.outcomes[info.name] = ProgramOutcome.from_record(
            record, state.fingerprints[info.name]
        )
        if outcome.report is None:
            continue
        outcome.reverified = reverified
        if state.store is None or state.stop_caching:
            continue
        obligation_fps = inc_plan.graph.fingerprints if inc_plan else None
        if obligation_fps is None and state.incremental:
            # Cold-entry full run: the collect-while-verifying unit
            # walked the cones in the worker and shipped the fingerprint
            # map home in its payload.
            shipped = (record.payload or {}).get("obligations")
            if shipped:
                obligation_fps = dict(shipped)
        if state.incremental and reverified is None:
            # Full run under --incremental: every obligation executed
            # (and the stored map, when the walk succeeded, arms the
            # next run's incremental replay).
            outcome.reverified = len(outcome.report.obligations)
        state.store_report(
            info.name,
            outcome.report,
            {
                "seconds": record.seconds,
                "jobs": jobs,
                "retries": record.retries,
                # Entries keep their layout: one unit per program.
                "units": 1,
            },
            obligation_fps,
        )


def sweep(
    programs: Sequence[ProgramInfo],
    *,
    jobs: int | None = None,
    cache: bool = True,
    cache_dir: str | os.PathLike | None = None,
    prepass: bool = True,
    liveness: bool = False,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.25,
    faults: FaultPlan | str | None = None,
    journal: bool = True,
    resume: bool = False,
    incremental: bool = False,
    max_rss_mb: float | None = None,
    max_disk_mb: float | None = None,
    on_lease: Any = None,
    on_result: Any = None,
) -> SweepResult:
    """Verify ``programs``, replaying cached verdicts and fanning the rest
    out over ``jobs`` supervised worker processes (``None`` = one per
    case study, capped by CPU count; ``1`` = serial in-process, no pool).
    The phases, in order: journal replay, cache replay, incremental
    planning, execute, merge.

    ``prepass`` (default on) hands every unit a
    :class:`~repro.analysis.prepass.StaticPrepass`; off, none is
    consulted, whatever the caller has installed.  ``liveness`` arms the
    bounded livelock detector in every unit.  Both travel with the
    worker callable (see :class:`_UnitWorker`): lassos become
    witnesses, never issues, so verdicts and cached reports are
    unaffected.  ``timeout`` bounds each unit's wall clock per attempt
    (pool path only); ``retries`` re-dispatches crashed/timed-out/raised
    units with exponential ``backoff``.  ``faults`` installs a
    deterministic :class:`~repro.engine.faults.FaultPlan` (or its string
    spec) for the sweep — the chaos harness.

    ``journal`` (default on) records every unit's lifecycle in the
    durable sweep journal; ``resume=True`` first replays verdict-bearing
    unit records from it — fingerprint-gated, so an edited program
    re-runs fresh.

    ``incremental`` (fcsl-deps, ``repro verify --incremental``) keys
    replay per *obligation*: a program whose whole-program fingerprint
    misses has its dependency graph compared against the per-obligation
    fingerprints of its cache entry, and only obligations whose cone
    contains the edit re-execute.  Every fall-back degrades to the full
    verification; tests/test_incremental.py gates equality with a cold
    run.  It needs the cache.

    ``max_rss_mb``/``max_disk_mb`` arm the resource watchdog (soft
    budgets, MiB): at 70% parallelism is shed; at 85% explorer caps
    shrink for every unit dispatched after it, cache stores stop and the
    sweep is marked degraded; at 100% the sweep checkpoints — pending
    units are ``interrupted``, exit code 3, resumable.

    ``on_lease(unit_name, attempt, lease_seconds)`` and
    ``on_result(TaskResult)`` are best-effort progress taps (the serve
    daemon streams them to its clients).  Every requested program gets
    an outcome: infrastructure faults quarantine a program instead of
    killing the run.
    """
    started = time.perf_counter()
    tr = obs_tracer.current()
    plan = FaultPlan.parse(faults) if isinstance(faults, str) else faults
    store = ObligationCache(cache_dir) if cache else None
    cache_root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if incremental and store is None:
        raise ValueError(
            "incremental re-verification needs the obligation cache "
            "(it replays fresh obligations from it); drop --no-cache"
        )
    jpath = journal_path(cache_root)
    state = _SweepState(
        programs=programs,
        fingerprints={info.name: program_fingerprint(info) for info in programs},
        program_units={info.name: WorkUnit(info) for info in programs},
        store=store,
        journal=SweepJournal(jpath) if journal else None,
        incremental=incremental,
        tr=tr,
    )
    sj = state.journal
    worker = _UnitWorker(
        VerifyOptions(liveness=liveness, prepass=StaticPrepass() if prepass else None)
    )

    # The plan stays installed for the whole body: cache stores, journal
    # appends and the workers all have injectable fault sites.
    with plan_installed(plan):
        _replay_journal(state, jpath, resume=resume, liveness=liveness)
        _replay_cache(state)
        if incremental:
            _plan_incremental(state)
        jobs, degraded, interrupted = _execute(
            state,
            worker,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            watchdog=_watchdog(state, worker, max_rss_mb, max_disk_mb, cache_root),
            on_lease=on_lease,
            on_result=on_result,
        )
        _merge(state, jobs)

        result = SweepResult(
            outcomes=[state.outcomes[info.name] for info in programs],
            jobs=jobs,
            seconds=time.perf_counter() - started,
            cache_dir=str(store.root) if store is not None else None,
            degraded=degraded,
            interrupted=interrupted,
            warnings=state.warnings,
            journal_path=str(jpath) if sj is not None else None,
        )
        if sj is not None:
            sj.finish(result.exit_code(), interrupted=interrupted)
            if sj.broken is not None:
                result.warnings.append(
                    f"journal disabled ({sj.broken}); this sweep is not resumable"
                )
    if tr is not None:
        tr.span(
            "sweep", "engine", started * 1e6, time.perf_counter() * 1e6,
            programs=len(result.outcomes), jobs=jobs, cache_hits=result.hits,
            replayed_units=result.replayed, degraded=degraded,
            interrupted=interrupted,
        )
    return result


def run_sweep(names: Iterable[str] | None = None, **kwargs: Any) -> SweepResult:
    """Name-based front door: resolve registry rows, then :func:`sweep`
    with the same keywords."""
    return sweep(resolve_programs(names), **kwargs)
