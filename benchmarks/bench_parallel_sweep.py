"""Engine benchmark — serial vs parallel vs warm-cache registry sweeps.

Runs a subset of Table 1 through :func:`repro.engine.run_sweep` four
ways — serial, parallel (``jobs=2``), cold-cache and warm-cache — and
records the wall times as both a text table and a JSON artifact
(``benchmarks/out/parallel_sweep.json``, uploaded by CI).  Asserts the
engine's two contracts: parallel verdicts are bit-for-bit identical to
serial, and a warm-cache rerun is at least 5x faster than the cold run
that populated the cache.

On a single-core host the parallel row can be no faster than serial
(the pool only helps when case studies genuinely overlap); the warm
speedup is hardware-independent and is what the bench enforces.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import time

from repro.core.verify import VerificationReport, VerifyOptions
from repro.engine import (
    ObligationCache,
    WorkUnit,
    program_fingerprint,
    resolve_programs,
    run_sweep,
)
from repro.engine.engine import _install_worker_prepass, _UnitWorker

from conftest import emit

#: The fast half of the registry — the bench must not rerun the whole of
#: Table 1 (the flat combiner alone dominates it by a minute).
PROGRAMS = (
    "CAS-lock",
    "Ticketed lock",
    "CG increment",
    "CG allocator",
    "Pair snapshot",
    "Spanning tree",
)

JOBS = 2

#: The warm rerun must beat the cold run at least this much (ISSUE 2).
MIN_WARM_SPEEDUP = 5.0

#: Supervision (apply_async + polling + retries bookkeeping) must cost
#: under 10% over a bare ``pool.map`` on the clean path.
MAX_SUPERVISION_OVERHEAD = 0.10

#: Absolute grace on the overhead comparison: scheduler noise between
#: two multi-second sweeps, not supervision cost.
OVERHEAD_SLACK_SECONDS = 1.0


def _verdicts(reports):
    return {
        name: (
            report.ok,
            {
                ob.name: (ob.ok, tuple(ob.issues))
                for ob in report.obligations
            },
            report.counts_by_category(),
        )
        for name, report in reports.items()
    }


def _timed(**kwargs):
    started = time.perf_counter()
    result = run_sweep(names=list(PROGRAMS), **kwargs)
    return result, time.perf_counter() - started


def _timed_pool_map():
    """The unsupervised baseline: the sweep's own work units, unit worker
    and pool initializer under a bare ``pool.map``, which dies wholesale
    on any worker fault.  Programs are fingerprinted first, as a sweep
    does, so the gap is supervision alone."""
    started = time.perf_counter()
    programs = resolve_programs(PROGRAMS)
    for info in programs:
        program_fingerprint(info)
    units = [WorkUnit(info) for info in programs]
    with multiprocessing.Pool(
        processes=JOBS, initializer=_install_worker_prepass
    ) as pool:
        payloads = pool.map(_UnitWorker(VerifyOptions()), units)
    reports = {
        unit.program: VerificationReport.from_dict(payload["report"])
        for unit, payload in zip(units, payloads)
    }
    return reports, time.perf_counter() - started


def test_parallel_cached_sweep(out_dir):
    cache_dir = out_dir / "parallel-sweep-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)

    serial, serial_secs = _timed(jobs=1, cache=False)
    legacy, legacy_secs = _timed_pool_map()
    parallel, parallel_secs = _timed(jobs=JOBS, cache=False)
    cold, cold_secs = _timed(jobs=JOBS, cache_dir=cache_dir)
    warm, warm_secs = _timed(jobs=JOBS, cache_dir=cache_dir)

    # Contract 1: fanning out changes nothing but the wall clock —
    # supervised or not.
    expected = _verdicts(serial.reports())
    assert expected == _verdicts(parallel.reports())
    assert expected == _verdicts(legacy)
    assert expected == _verdicts(cold.reports()) == _verdicts(warm.reports())
    assert serial.ok

    # Contract 3: supervision is nearly free on the clean path.
    overhead = (parallel_secs - legacy_secs) / legacy_secs
    assert parallel_secs <= legacy_secs * (1 + MAX_SUPERVISION_OVERHEAD) + (
        OVERHEAD_SLACK_SECONDS
    ), (
        f"supervised sweep {parallel_secs:.3f}s vs bare pool.map "
        f"{legacy_secs:.3f}s: {overhead:+.1%} overhead "
        f"(required <= {MAX_SUPERVISION_OVERHEAD:.0%})"
    )

    # Contract 2: a warm cache replays every verdict, >= 5x faster.
    assert cold.hits == 0
    assert warm.hits == len(PROGRAMS)
    speedup = cold_secs / warm_secs
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm rerun only {speedup:.1f}x faster than cold "
        f"({warm_secs:.3f}s vs {cold_secs:.3f}s)"
    )

    payload = {
        "programs": list(PROGRAMS),
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "seconds": {
            "serial": serial_secs,
            "pool_map": legacy_secs,
            "parallel": parallel_secs,
            "cold_cache": cold_secs,
            "warm_cache": warm_secs,
        },
        "warm_speedup": speedup,
        "supervision_overhead": overhead,
        "cache_hits_warm": warm.hits,
        "per_program_serial": {
            o.name: o.seconds for o in serial.outcomes
        },
    }
    (out_dir / "parallel_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        "parallel cached sweep (engine)",
        f"{len(PROGRAMS)} programs, jobs={JOBS}, cpus={os.cpu_count()}",
        f"{'mode':<12} {'wall (s)':>9}",
        f"{'serial':<12} {serial_secs:>9.3f}",
        f"{'pool.map':<12} {legacy_secs:>9.3f}",
        f"{'supervised':<12} {parallel_secs:>9.3f}",
        f"{'cold cache':<12} {cold_secs:>9.3f}",
        f"{'warm cache':<12} {warm_secs:>9.3f}",
        f"warm speedup over cold: {speedup:.1f}x "
        f"(required >= {MIN_WARM_SPEEDUP:.0f}x)",
        f"supervision overhead over pool.map: {overhead:+.1%} "
        f"(required <= {MAX_SUPERVISION_OVERHEAD:.0%})",
    ]
    emit(out_dir, "parallel_sweep.txt", "\n".join(lines))

    shutil.rmtree(cache_dir, ignore_errors=True)


def test_cache_entries_are_wellformed(out_dir):
    cache_dir = out_dir / "parallel-sweep-cache-shape"
    shutil.rmtree(cache_dir, ignore_errors=True)
    run_sweep(names=["CG increment"], jobs=1, cache_dir=cache_dir)
    path = ObligationCache(cache_dir).path_for("CG increment")
    data = json.loads(path.read_text())
    assert data["program"] == "CG increment"
    assert set(data) >= {"schema", "fingerprint", "created", "report"}
    shutil.rmtree(cache_dir, ignore_errors=True)
