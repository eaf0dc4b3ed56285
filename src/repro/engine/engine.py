"""The parallel, cached, *supervised* verification engine behind
``repro verify``.

The registry sweep (all eleven Table 1 case studies) historically ran
strictly serially and recomputed every obligation from scratch on every
run.  The engine fixes both ends:

* **Parallelism** — pending case studies fan out across a
  ``multiprocessing`` pool, one worker per case study (capped by
  ``--jobs``).  The fcsl-lint static pre-pass is installed *per worker
  process* by the pool initializer: the ``repro.core.verify`` pre-pass
  hook is process-global, so each worker owns a private
  :class:`~repro.analysis.prepass.StaticPrepass`, and skip attribution
  inside ``ReportBuilder`` is scoped (see
  :func:`repro.core.verify.record_prepass_skip`) rather than derived
  from global counter deltas.
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
  or in-flight, with verdicts identical to an uninterrupted run.  The
  unit granularity is the work queue's (:mod:`repro.engine.queue`):
  whole programs by default, (program, obligation-group) slices under
  ``split_obligations`` — per-unit leases, retries and quarantine.  A
  resource watchdog (:mod:`repro.engine.watchdog`) enforces soft
  ``max_rss``/``max_disk`` budgets via a degradation ladder (shed
  parallelism → shrink explorer caps → checkpoint-and-exit 3) instead
  of letting the kernel OOM-killer pick the failure mode.

``--jobs 1`` degenerates to the fully serial in-process path (no pool is
ever created), which doubles as the reference the parallel path is
tested for equivalence against.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from pathlib import Path

from ..core.verify import (
    CATEGORIES,
    VerificationReport,
    collecting_obligations,
    get_prepass,
    liveness_default,
    set_explore_cap_scale,
    set_liveness_default,
    set_obligation_filter,
    set_obligation_name_filter,
    set_prepass,
)
from ..obs import tracer as obs_tracer
from ..structures.registry import ProgramInfo, all_programs, registry_programs
from .cache import ObligationCache, default_cache_dir
from .depgraph import DepGraph, build_depgraph
from .faults import FaultPlan, maybe_inject, plan_installed
from .fingerprint import program_fingerprint
from .journal import SweepJournal, journal_path, load_image
from .queue import UnitRecord, WorkUnit, decompose, merge_program, unit_mode, units_for
from .supervisor import (
    INFRA_STATUSES,
    SupervisorConfig,
    TaskResult,
    announce,
    exc_payload,
    supervise,
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
    #: Work units this program decomposed into (1 = whole-program unit).
    units: int = 1
    #: Units whose verdict was replayed from the sweep journal instead
    #: of re-executed (``--resume`` after a crash).
    replayed_units: int = 0
    #: Incremental mode (fcsl-deps): how many obligations this run
    #: actually re-executed (the rest replayed from per-obligation
    #: fingerprints).  ``None`` = the program did not verify
    #: incrementally (full run, cache hit, or quarantine).
    reverified: int | None = None

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
            "units": self.units,
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


def _install_worker_prepass() -> None:
    """Pool initializer: give this worker process its own static pre-pass.

    The pre-pass hook and its fact store are process-global, so sharing
    one across workers is impossible (and the point: each worker amortizes
    model sweeps over the obligations *it* runs, with no cross-process
    races on the ``skipped`` list)."""
    from ..analysis.prepass import StaticPrepass

    set_prepass(StaticPrepass())


def _uninstall_worker_prepass() -> None:
    """Pool initializer for ``prepass=False``: under a ``fork`` start
    method a worker inherits whatever pre-pass the parent had installed —
    clear it so "no pre-pass" means what it says."""
    set_prepass(None)


@contextmanager
def _liveness_installed(flag: bool):
    """Make ``flag`` the process liveness default for a sweep's duration.

    ``set_liveness_default`` mirrors the flag into ``REPRO_LIVENESS``, so
    pool workers pick it up under *any* multiprocessing start method:
    fork children inherit the module global directly, spawn children
    re-read the environment.  The previous default is restored on exit
    so sweeps never leak their setting into the caller's process."""
    previous = liveness_default()
    set_liveness_default(flag)
    try:
        yield
    finally:
        set_liveness_default(previous)


def _verify_one(task: Any, attempt: int = 1) -> dict[str, Any]:
    """Run one work unit's verifier; returns a picklable payload.

    ``task`` is a :class:`~repro.engine.queue.WorkUnit` (or, for
    back-compat, a bare ``ProgramInfo``, treated as a whole-program
    unit).  The payload is structured even on failure: a verifier that
    raises yields ``{"status": "error", "error": {type, message,
    traceback}}`` rather than a pickled exception, so the serial and
    parallel paths report verifier bugs identically.  Injected faults
    fire *before* the capture — a ``raise`` fault models a harness bug
    escaping the worker, which the supervisor (not this function) must
    absorb.  Program-named fault specs fire for every unit of the
    program; unit-id-named specs (``Program::Group:kind``) target one
    obligation group alone.
    """
    unit = task if isinstance(task, WorkUnit) else WorkUnit(task)
    announce(unit.name)
    maybe_inject(unit.program, attempt)
    if unit.group is not None or unit.names is not None:
        maybe_inject(unit.name, attempt)
    if obs_tracer.local_session_needed():
        # Pool worker under a tracing parent: collect a local trace and
        # ship its (picklable) records home in the payload for ingestion.
        with obs_tracer.tracing(mirror_env=False) as local:
            payload = _verify_payload(unit)
        payload["trace"] = list(local.records)
        return payload
    return _verify_payload(unit)


def _verify_payload(unit: WorkUnit) -> dict[str, Any]:
    info = unit.info
    started = time.perf_counter()
    collected: list | None = None
    try:
        if unit.group is not None:
            # Obligation-group unit: the verifier runs with the
            # process-global filter restricted to this group, so only
            # its obligations execute (and are recorded).  Always
            # restored — pool workers are reused across units.
            set_obligation_filter((unit.group,))
            try:
                report = info.run_verifier()
            finally:
                set_obligation_filter(None)
        elif unit.names is not None:
            # Incremental unit (fcsl-deps): only the stale obligations
            # execute; the fresh ones replay from their cached
            # per-obligation fingerprints in the parent's merge.
            set_obligation_name_filter(unit.names)
            try:
                report = info.run_verifier()
            finally:
                set_obligation_name_filter(None)
        elif unit.collect_deps:
            # Cold incremental entry: record the obligation plan while
            # the verifier runs for real, then walk the dependency cones
            # right here — one setup pays for both the verdicts and the
            # per-obligation fingerprint map the next run diffs against.
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
    payload["group"] = unit.group
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


def _verify_one_prepassed(task: Any, attempt: int = 1) -> dict[str, Any]:
    """Degraded-serial worker: per-call pre-pass installation (the pool
    initializer that normally does this never ran)."""
    from ..analysis.prepass import static_prepass

    with static_prepass():
        return _verify_one(task, attempt)


def default_jobs(pending: int) -> int:
    """One worker per pending case study, capped by the CPU count."""
    return max(1, min(pending, os.cpu_count() or 1))


def _serial_results(
    pending: Sequence[WorkUnit],
    *,
    prepass: bool,
    resident_prepass: Any = None,
    on_lease: Any = None,
    on_result: Any = None,
    should_stop: Any = None,
) -> tuple[dict[str, TaskResult], bool]:
    """The ``--jobs 1`` path: in-process, no pool, no supervision.

    Per-unit timeouts and crash isolation need a process boundary and do
    not apply here; verifier exceptions are still captured as structured
    ``error`` outcomes, and a ``KeyboardInterrupt`` (or a watchdog
    ``should_stop`` checkpoint) returns the completed prefix with the
    rest marked ``interrupted`` — every completed unit was already
    delivered through ``on_result``, so the journal holds its verdict.

    ``resident_prepass`` is a caller-owned
    :class:`~repro.analysis.prepass.StaticPrepass` installed for the
    duration instead of a throwaway one: the serve daemon passes its
    resident one here so its skip counters span requests (a sweep
    verdict is still shared only by the obligations of one run, see
    :class:`~repro.analysis.prepass.StaticPrepass`).  ``prepass=False``
    installs none, even over one the caller had installed.  The caller's
    pre-pass is restored on return either way.
    """
    results: dict[str, TaskResult] = {}
    interrupted = False

    def emit(result: TaskResult) -> None:
        results[result.name] = result
        if on_result is not None:
            try:
                on_result(result)
            except Exception:  # noqa: BLE001 - journaling must not kill units
                pass

    def run_all() -> None:
        nonlocal interrupted
        for unit in pending:
            if not interrupted and should_stop is not None:
                try:
                    interrupted = should_stop() is not None
                except Exception:  # noqa: BLE001 - a sick callback never stalls
                    pass
            if interrupted:
                emit(TaskResult(unit.name, "interrupted"))
                continue
            started = time.perf_counter()
            if on_lease is not None:
                try:
                    on_lease(unit.name, 1, None)
                except Exception:  # noqa: BLE001
                    pass
            try:
                payload = _verify_one(unit)
            except KeyboardInterrupt:
                interrupted = True
                emit(
                    TaskResult(
                        unit.name, "interrupted",
                        seconds=time.perf_counter() - started,
                    )
                )
                continue
            except Exception as exc:  # noqa: BLE001 - e.g. injected 'raise'
                emit(
                    TaskResult(
                        unit.name, "error",
                        error=exc_payload(exc),
                        seconds=time.perf_counter() - started,
                    )
                )
                continue
            emit(
                TaskResult(
                    unit.name,
                    payload.get("status", "report"),
                    payload=payload,
                    error=payload.get("error"),
                    seconds=time.perf_counter() - started,
                )
            )

    if not prepass:
        installed = None
    elif resident_prepass is not None:
        installed = resident_prepass
    else:
        from ..analysis.prepass import StaticPrepass

        installed = StaticPrepass()
    previous = get_prepass()
    set_prepass(installed)
    try:
        run_all()
    finally:
        set_prepass(previous)
    return results, interrupted


def _pool_map_results(
    pending: Sequence[WorkUnit], *, jobs: int, prepass: bool
) -> dict[str, TaskResult]:
    """The unsupervised PR-2 path: a bare ``pool.map``.

    Kept as the baseline the supervised path is benchmarked against
    (``bench_parallel_sweep`` asserts < 10% clean-path overhead) — it
    dies wholesale on any worker fault and should not be used outside
    that comparison."""
    with multiprocessing.Pool(
        processes=jobs,
        initializer=(
            _install_worker_prepass if prepass else _uninstall_worker_prepass
        ),
    ) as pool:
        payloads = pool.map(_verify_one, pending)
    return {
        unit.name: TaskResult(
            unit.name,
            payload.get("status", "report"),
            payload=payload,
            error=payload.get("error"),
            seconds=payload.get("seconds", 0.0),
        )
        for unit, payload in zip(pending, payloads)
    }


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
    supervised: bool = True,
    journal: bool = True,
    resume: bool = False,
    split_obligations: bool = False,
    incremental: bool = False,
    max_rss_mb: float | None = None,
    max_disk_mb: float | None = None,
    on_lease: Any = None,
    on_result: Any = None,
    resident_prepass: Any = None,
) -> SweepResult:
    """Verify ``programs``, replaying cached verdicts and fanning the rest
    out over ``jobs`` supervised worker processes (``None`` = one per
    case study, capped by CPU count; ``1`` = serial in-process, no pool).

    ``liveness`` installs the bounded livelock detector as the process
    default for the sweep (pool workers inherit it): progress-free
    lassos are recorded as witnesses on the obligations that found them,
    but never become issues, so verdicts (and cached reports) are
    unaffected.

    ``timeout`` bounds each program's wall clock per attempt (pool path
    only); ``retries`` re-dispatches crashed/timed-out/raised programs
    with exponential ``backoff``.  ``faults`` installs a deterministic
    :class:`~repro.engine.faults.FaultPlan` (or its string spec) for the
    duration of the sweep — the chaos harness.  ``supervised=False``
    selects the bare ``pool.map`` baseline (benchmarking only).

    ``journal`` (default on) records every unit's lifecycle in the
    durable sweep journal; ``resume=True`` first replays verdict-bearing
    unit records from that journal — fingerprint-gated, so an edited
    program re-runs fresh — and executes only what remains.
    ``split_obligations`` decomposes each program into per-obligation-
    category work units (see :mod:`repro.engine.queue`): timeout/retry/
    quarantine and journal replay then apply per group, and the partial
    reports are merged back per program.

    ``incremental`` (fcsl-deps, ``repro verify --incremental``) keys
    replay per *obligation*: a program whose whole-program fingerprint
    misses has its dependency graph built
    (:func:`repro.engine.depgraph.build_depgraph`) and compared against
    the per-obligation fingerprints stored in its cache entry — only
    obligations whose dependency cone contains the edit re-execute, the
    rest replay from the entry.  Every fall-back (no entry, unusable
    analysis, pre-v4 entry) degrades to the full verification the flag
    would have run anyway; verdicts are gated for equality with a cold
    run by tests/test_incremental.py.  Requires the cache and is
    mutually exclusive with ``split_obligations``.  ``max_rss_mb``/``max_disk_mb``
    arm the resource watchdog (soft budgets, MiB): at 70% parallelism is
    shed, at 85% explorer caps shrink (new cache stores stop, the sweep
    is marked degraded), at 100% the sweep checkpoints — pending units
    are marked ``interrupted``, exit code 3, resumable.  The cap shrink
    is process-global and env-mirrored; already-forked pool workers keep
    their caps, so it is best-effort for work already in flight.

    ``on_lease(unit_name, attempt, lease_seconds)`` and
    ``on_result(TaskResult)`` are caller-side progress taps layered on
    top of the journaling callbacks (best-effort: a raising callback is
    swallowed, never the sweep) — the serve daemon streams them to its
    clients as progress events.  ``resident_prepass`` installs a
    caller-owned prepass on the ``jobs == 1`` path so static facts stay
    warm across sweeps (see :func:`_serial_results`); it is ignored on
    the pool path, where each worker owns its own prepass.

    The sweep always returns an outcome for every requested program:
    infrastructure faults quarantine a program (``status`` records what
    happened) instead of killing the run.
    """
    started = time.perf_counter()
    tr = obs_tracer.current()
    plan = FaultPlan.parse(faults) if isinstance(faults, str) else faults
    store = ObligationCache(cache_dir) if cache else None
    cache_root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    split = bool(split_obligations)
    if incremental and split:
        raise ValueError(
            "incremental and split_obligations are mutually exclusive: "
            "incremental units are already per-obligation slices"
        )
    if incremental and store is None:
        raise ValueError(
            "incremental re-verification needs the obligation cache "
            "(it replays fresh obligations from it); drop --no-cache"
        )
    program_units = {info.name: units_for(info, split=split) for info in programs}

    outcomes: dict[str, ProgramOutcome] = {}
    fingerprints: dict[str, str] = {
        info.name: program_fingerprint(info) for info in programs
    }
    # Terminal per-unit state, keyed by unit id (journal replay + live).
    unit_records: dict[str, UnitRecord] = {}
    degraded = False
    interrupted = False
    stop_caching = False
    warnings: list[str] = []
    jpath = journal_path(cache_root)

    def _on_level(level: int, reason: str) -> None:
        nonlocal stop_caching
        warnings.append(f"watchdog rung {level} ({LEVEL_NAMES[level]}): {reason}")
        if level >= 2:
            stop_caching = True
            set_explore_cap_scale(0.5)

    watchdog: ResourceWatchdog | None = None
    if max_rss_mb or max_disk_mb:
        watchdog = ResourceWatchdog(
            max_rss_bytes=int(max_rss_mb * 2**20) if max_rss_mb else None,
            max_disk_bytes=int(max_disk_mb * 2**20) if max_disk_mb else None,
            disk_root=cache_root,
            on_level=_on_level,
        )

    # The plan stays installed for the whole body: cache stores, journal
    # appends and the workers all have injectable fault sites.
    with plan_installed(plan):
        sj = SweepJournal(jpath) if journal else None

        # -- phase 1: journal replay (resume) ----------------------------------
        image = None
        if resume:
            image = load_image(jpath)
            if not image.exists:
                warnings.append(
                    f"resume requested but no usable journal at {jpath}; "
                    "running the full sweep"
                )
                image = None
        if image is not None:
            for info in programs:
                fingerprint = fingerprints[info.name]
                whole = image.replayable(info.name, info.name, fingerprint)
                candidates: list[tuple[WorkUnit, dict[str, Any]]] = []
                if whole is not None:
                    candidates.append((WorkUnit(info), whole))
                elif split:
                    for unit in program_units[info.name]:
                        rec = image.replayable(unit.name, info.name, fingerprint)
                        if rec is not None:
                            candidates.append((unit, rec))
                for unit, rec in candidates:
                    payload = rec.get("payload")
                    if not isinstance(payload, dict) or "report" not in payload:
                        continue
                    unit_records[unit.name] = UnitRecord(
                        unit,
                        "report",
                        payload=payload,
                        retries=int(rec.get("retries") or 0),
                        seconds=float(rec.get("seconds") or 0.0),
                        replayed=True,
                    )
                    if tr is not None:
                        tr.instant("journal:replay", "journal", unit=unit.name)

        # -- phase 2: open the journal for this run ----------------------------
        if sj is not None:
            sj.begin(
                fingerprints,
                [u.name for units in program_units.values() for u in units],
                mode=unit_mode(split),
                resume=image is not None,
                flags={"split": split, "liveness": liveness},
            )

        # -- phase 3: obligation-cache replay ----------------------------------
        for info in programs:
            covered = info.name in unit_records or any(
                u.name in unit_records for u in program_units[info.name]
            )
            if covered or store is None:
                continue
            fingerprint = fingerprints[info.name]
            t0 = time.perf_counter()
            hit, cache_warning = store.load_verified(info.name, fingerprint)
            if cache_warning:
                warnings.append(cache_warning)
            if hit is not None:
                if tr is not None:
                    tr.instant("cache:hit", "cache", program=info.name)
                elapsed = time.perf_counter() - t0
                outcomes[info.name] = ProgramOutcome(
                    info.name,
                    hit,
                    fingerprint,
                    True,
                    elapsed,
                    status="ok" if hit.ok else "failed",
                    units=len(program_units[info.name]),
                )
                if sj is not None:
                    # Journal the replayed verdict too: resume must not
                    # depend on the cache entry still being intact.
                    sj.unit_done(
                        info.name, info.name, None, "report",
                        payload={"report": hit.to_dict()},
                        seconds=elapsed, via="cache",
                    )
                if incremental and store.load_incremental(info.name) is None:
                    # The hit entry predates per-obligation fingerprints
                    # (stored by a non-incremental sweep): backfill the
                    # map now — analysis only, no re-verification — so
                    # the *next* edit re-verifies incrementally.
                    try:
                        graph = build_depgraph(info)
                    except Exception:  # noqa: BLE001 - best-effort backfill
                        graph = None
                    if graph is not None:
                        try:
                            store.store(
                                info.name,
                                fingerprint,
                                hit,
                                meta={"seconds": elapsed, "incremental": True},
                                obligations=graph.fingerprints,
                            )
                        except Exception as exc:  # noqa: BLE001
                            warnings.append(
                                f"cache store failed for {info.name!r}: "
                                f"{type(exc).__name__}: {exc}"
                            )
                continue
            if tr is not None:
                tr.instant("cache:miss", "cache", program=info.name)

        # -- phase 3b: incremental planning (fcsl-deps) ------------------------
        # For each program still pending with a *prior* incremental
        # entry, build its dependency graph and compare per-obligation
        # fingerprints: fresh obligations replay, stale ones become one
        # incremental work unit.  Cold entries skip parent-side analysis
        # entirely — their work unit collects the plan while it
        # verifies and ships the fingerprint map home in its payload,
        # so a cold incremental sweep costs one verifier setup, not two.
        inc_graphs: dict[str, DepGraph] = {}
        inc_plans: dict[str, _IncrementalPlan] = {}
        if incremental:
            for info in programs:
                if info.name in outcomes:
                    continue
                if info.name in unit_records or any(
                    u.name in unit_records for u in program_units[info.name]
                ):
                    continue
                entry = store.load_incremental(info.name)
                if entry is None:
                    # Cold entry: full verify, the unit walks the cones.
                    program_units[info.name] = [
                        WorkUnit(info, collect_deps=True)
                    ]
                    continue
                t0 = time.perf_counter()
                try:
                    graph = build_depgraph(info)
                except Exception as exc:  # noqa: BLE001 - analysis trouble
                    # must never cost a verdict: fall back to full verify.
                    warnings.append(
                        f"dependency analysis failed for {info.name!r} "
                        f"({type(exc).__name__}: {exc}); verifying fully"
                    )
                    program_units[info.name] = [
                        WorkUnit(info, collect_deps=True)
                    ]
                    continue
                if graph is None:
                    warnings.append(
                        f"per-obligation fingerprints unusable for "
                        f"{info.name!r} (see `repro deps`); verifying fully"
                    )
                    continue
                inc_graphs[info.name] = graph
                cached_report, cached_fps = entry
                cached_results = {o.name: o for o in cached_report.obligations}
                order = [dep.name for dep in graph.analysis.obligations]
                stale = graph.stale_obligations(cached_fps)
                # A fresh fingerprint without a cached result to replay
                # (e.g. a previously-filtered sweep) must still re-run.
                stale.update(
                    name for name in order
                    if name not in stale and name not in cached_results
                )
                if tr is not None:
                    tr.instant(
                        "deps:plan", "deps", program=info.name,
                        stale=len(stale), total=len(order),
                    )
                if not stale:
                    merged = VerificationReport(info.name)
                    merged.obligations.extend(
                        cached_results[name] for name in order
                    )
                    elapsed = time.perf_counter() - t0
                    outcomes[info.name] = ProgramOutcome(
                        info.name,
                        merged,
                        fingerprints[info.name],
                        True,
                        elapsed,
                        status="ok" if merged.ok else "failed",
                        units=len(program_units[info.name]),
                        reverified=0,
                    )
                    if store is not None and not stop_caching:
                        try:
                            # Refresh the entry under the new program
                            # fingerprint so the next run is a plain hit.
                            store.store(
                                info.name,
                                fingerprints[info.name],
                                merged,
                                meta={"seconds": elapsed, "incremental": True},
                                obligations=graph.fingerprints,
                            )
                        except Exception as exc:  # noqa: BLE001
                            warnings.append(
                                f"cache store failed for {info.name!r}: "
                                f"{type(exc).__name__}: {exc}"
                            )
                    if sj is not None:
                        sj.unit_done(
                            info.name, info.name, None, "report",
                            payload={"report": merged.to_dict()},
                            seconds=elapsed, via="incremental",
                        )
                    continue
                inc_plans[info.name] = _IncrementalPlan(
                    graph=graph,
                    order=order,
                    stale=stale,
                    cached=cached_results,
                )
                program_units[info.name] = [
                    WorkUnit(info, names=frozenset(stale))
                ]

        # -- phase 4: dispatch what remains ------------------------------------
        pending_units: list[WorkUnit] = []
        for info in programs:
            if info.name in outcomes or info.name in unit_records:
                continue
            pending_units.extend(
                u for u in program_units[info.name]
                if u.name not in unit_records
            )
        units_by_name = {u.name: u for u in pending_units}

        jobs = default_jobs(len(pending_units)) if jobs is None else max(1, jobs)
        jobs = min(jobs, len(pending_units)) if pending_units else 1

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
                result.name, unit.program, unit.group, result.status,
                payload=payload, error=result.error, retries=result.retries,
                seconds=(result.payload or {}).get("seconds", result.seconds),
            )

        journaled_live = supervised or jobs == 1
        try:
            if pending_units:
                if watchdog is not None:
                    watchdog.start()
                with _liveness_installed(liveness):
                    if jobs == 1:
                        results, interrupted = _serial_results(
                            pending_units,
                            prepass=prepass,
                            resident_prepass=resident_prepass,
                            on_lease=_journal_lease,
                            on_result=_journal_result,
                            should_stop=(
                                watchdog.stop_reason
                                if watchdog is not None else None
                            ),
                        )
                    elif not supervised:
                        results = _pool_map_results(
                            pending_units, jobs=jobs, prepass=prepass
                        )
                    else:
                        outcome = supervise(
                            pending_units,
                            worker=_verify_one,
                            config=SupervisorConfig(
                                jobs=jobs,
                                timeout=timeout,
                                retries=retries,
                                backoff=backoff,
                                throttle=(
                                    watchdog.throttle(jobs)
                                    if watchdog is not None else None
                                ),
                                should_stop=(
                                    watchdog.stop_reason
                                    if watchdog is not None else None
                                ),
                            ),
                            initializer=(
                                _install_worker_prepass
                                if prepass
                                else _uninstall_worker_prepass
                            ),
                            serial_worker=(
                                _verify_one_prepassed if prepass else _verify_one
                            ),
                            on_lease=_journal_lease,
                            on_result=_journal_result,
                        )
                        results = outcome.results
                        degraded = outcome.degraded
                        interrupted = outcome.interrupted
                        warnings.extend(outcome.warnings)

                    for unit in pending_units:
                        result = results.get(unit.name)
                        if result is None:  # defensive: everyone gets an answer
                            unit_records[unit.name] = UnitRecord(unit, "crashed")
                            continue
                        if tr is not None and result.payload:
                            # A pool worker's locally-collected trace rides
                            # home in the payload; in-process runs traced
                            # directly already.
                            tr.ingest(result.payload.get("trace") or [])
                        if not journaled_live:
                            _journal_result(result)
                        unit_records[unit.name] = UnitRecord(
                            unit,
                            result.status,
                            payload=result.payload,
                            error=result.error,
                            retries=result.retries,
                            seconds=(result.payload or {}).get(
                                "seconds", result.seconds
                            ),
                        )
        finally:
            if watchdog is not None:
                watchdog.stop()
                set_explore_cap_scale(None)
        if watchdog is not None:
            degraded = degraded or watchdog.degraded
            interrupted = interrupted or watchdog.stop_reason() is not None

        # -- phase 5: merge units back into per-program outcomes ---------------
        for info in programs:
            if info.name in outcomes:
                continue
            fingerprint = fingerprints[info.name]
            inc_plan = inc_plans.get(info.name)
            reverified: int | None = None
            whole = unit_records.get(info.name)
            if whole is not None and whole.unit.group is None:
                records = [whole]
            else:
                records = [
                    unit_records.get(u.name) or UnitRecord(u, "crashed")
                    for u in program_units[info.name]
                ]
            if inc_plan is not None and records[0].status == "report":
                # Incremental merge: splice the unit's fresh verdicts and
                # the entry's cached verdicts back into plan order.  A
                # stale obligation the unit did not report (the plan
                # drifted between analysis and execution) voids the
                # splice — fall back to infra quarantine, never to a
                # partial verdict.
                record = records[0]
                partial = VerificationReport.from_dict(
                    record.payload["report"]
                )
                fresh_results = {o.name: o for o in partial.obligations}
                missing = [
                    name for name in inc_plan.stale
                    if name not in fresh_results
                ]
                if missing:
                    record = UnitRecord(
                        record.unit,
                        "error",
                        error={
                            "type": "IncrementalMergeError",
                            "message": (
                                "incremental unit produced no verdict for "
                                f"stale obligation(s) {sorted(missing)}"
                            ),
                            "traceback": "",
                        },
                        retries=record.retries,
                        seconds=record.seconds,
                    )
                    records = [record]
                else:
                    merged_report = VerificationReport(info.name)
                    merged_report.obligations.extend(
                        fresh_results[name]
                        if name in inc_plan.stale
                        else inc_plan.cached[name]
                        for name in inc_plan.order
                    )
                    records = [
                        UnitRecord(
                            record.unit,
                            "report",
                            payload={"report": merged_report.to_dict()},
                            retries=record.retries,
                            seconds=record.seconds,
                            replayed=record.replayed,
                        )
                    ]
                    reverified = len(inc_plan.stale)
            merge = merge_program(info, records)
            outcomes[info.name] = ProgramOutcome(
                info.name,
                merge.report,
                fingerprint,
                False,
                merge.seconds,
                status=merge.status,
                retries=merge.retries,
                error=merge.error,
                units=merge.units,
                replayed_units=merge.replayed_units,
                reverified=reverified if merge.report is not None else None,
            )
            if merge.report is not None and store is not None and not stop_caching:
                inc_graph = inc_graphs.get(info.name)
                obligation_fps = (
                    inc_graph.fingerprints if inc_graph is not None else None
                )
                if obligation_fps is None and incremental:
                    # Cold-entry full run: the collect-while-verifying
                    # unit walked the cones in the worker and shipped
                    # the fingerprint map home in its payload.
                    for record in records:
                        shipped = (record.payload or {}).get("obligations")
                        if shipped:
                            obligation_fps = dict(shipped)
                            break
                if incremental and reverified is None:
                    # Full run under --incremental: every obligation
                    # executed (and the stored map, when the walk
                    # succeeded, arms the next run's incremental replay).
                    outcomes[info.name].reverified = len(
                        merge.report.obligations
                    )
                try:
                    store.store(
                        info.name,
                        fingerprint,
                        merge.report,
                        meta={
                            "seconds": merge.seconds,
                            "jobs": jobs,
                            "retries": merge.retries,
                            "units": merge.units,
                        },
                        obligations=obligation_fps,
                    )
                except Exception as exc:  # noqa: BLE001 - not sweep loss
                    warnings.append(
                        f"cache store failed for {info.name!r}: "
                        f"{type(exc).__name__}: {exc}"
                    )

        result = SweepResult(
            outcomes=[outcomes[info.name] for info in programs],
            jobs=jobs,
            seconds=time.perf_counter() - started,
            cache_dir=str(store.root) if store is not None else None,
            degraded=degraded,
            interrupted=interrupted,
            warnings=warnings,
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
            "sweep",
            "engine",
            started * 1e6,
            time.perf_counter() * 1e6,
            programs=len(result.outcomes),
            jobs=jobs,
            cache_hits=result.hits,
            replayed_units=result.replayed,
            degraded=degraded,
            interrupted=interrupted,
        )
    return result


def run_sweep(
    names: Iterable[str] | None = None,
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
    supervised: bool = True,
    journal: bool = True,
    resume: bool = False,
    split_obligations: bool = False,
    incremental: bool = False,
    max_rss_mb: float | None = None,
    max_disk_mb: float | None = None,
    on_lease: Any = None,
    on_result: Any = None,
    resident_prepass: Any = None,
) -> SweepResult:
    """Name-based front door: resolve registry rows, then :func:`sweep`."""
    return sweep(
        resolve_programs(names),
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        prepass=prepass,
        liveness=liveness,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        faults=faults,
        supervised=supervised,
        journal=journal,
        resume=resume,
        split_obligations=split_obligations,
        incremental=incremental,
        max_rss_mb=max_rss_mb,
        max_disk_mb=max_disk_mb,
        on_lease=on_lease,
        on_result=on_result,
        resident_prepass=resident_prepass,
    )
