"""Tracing-off overhead — the obs subsystem's "free when off" contract.

Every instrumentation site in the verifier guards on one context-var
read (``tracer.current() is None``), and the explorer hoists that read
out of its hot loop entirely.  This bench enforces ISSUE 5's bound —
tracing off must cost **under 5%** of sweep wall time — two ways:

* **Analytic bound (the assert).**  Measure the guard primitive's
  per-call cost, count how many instrumentation sites a representative
  workload actually reaches (the records a traced run emits, one per
  activated site), and bound the off-path tax as
  ``activations x guard_cost x safety`` against the untraced wall time.
  This is deliberately pessimistic: when tracing is off most sites are
  never even reached (the explorer checks once per ``explore()``, not
  per config), and the safety factor covers argument evaluation around
  the guard.

* **Empirical wall clock (informational).**  The same workload timed
  with tracing off and on.  On-vs-off is *not* asserted — tracing on is
  allowed to cost real time (it buys a Perfetto timeline); the contract
  is only about the off path — but the numbers land in the artifact so
  a regression is visible in CI.

Workload: every representative registry Main scenario
(:data:`repro.analysis.scenarios.MAIN_SCENARIOS`) — a pure explorer
workload, which is where the hottest instrumentation lives.  Artifact: ``benchmarks/out/obs_overhead.json``.
"""

from __future__ import annotations

import json
import time

from repro.analysis.scenarios import main_scenarios, run_scenario
from repro.obs import tracer

from conftest import emit

#: The acceptance bound: tracing off costs < 5% of sweep wall time.
MAX_OFF_OVERHEAD = 0.05

#: Multiplier on the analytic estimate covering per-site work around the
#: guard itself (attribute loads, argument tuples that are never built).
SAFETY_FACTOR = 4.0

#: Workload repetitions (each full pass is ~0.3s of pure exploration).
REPEATS = 3


def _workload() -> int:
    """One pass over every representative scenario; returns configs."""
    total = 0
    for scenario in main_scenarios():
        total += run_scenario(scenario).explored
    return total


def _time_workload() -> tuple[float, int]:
    best, configs = float("inf"), 0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        configs = _workload()
        best = min(best, time.perf_counter() - t0)
    return best, configs


def _guard_cost_ns(iters: int = 500_000) -> float:
    """Per-call cost of the off-path guard: one context-var read + an
    identity check — exactly what every instrumentation site pays when
    tracing is off."""
    current = tracer.current
    t0 = time.perf_counter()
    for _ in range(iters):
        if current() is not None:  # pragma: no cover - tracing is off here
            raise AssertionError("tracing must be off during the guard bench")
    return (time.perf_counter() - t0) / iters * 1e9


def test_tracing_off_overhead_under_bound(out_dir):
    assert tracer.current() is None, "bench must start with tracing off"

    guard_ns = _guard_cost_ns()
    off_seconds, configs = _time_workload()

    # Count activated instrumentation sites: a traced run emits one
    # record per site execution, so the record count bounds how many
    # guard reads the identical untraced run performed.
    with tracer.tracing() as tr:
        t0 = time.perf_counter()
        _workload()
        on_seconds = time.perf_counter() - t0
    activations = len(tr.records)
    assert activations > 0, "the workload must reach instrumentation sites"

    analytic_seconds = activations * guard_ns * 1e-9 * SAFETY_FACTOR
    overhead = analytic_seconds / off_seconds

    rows = {
        "guard_cost_ns": guard_ns,
        "activations": activations,
        "configs_explored": configs,
        "off_wall_seconds": off_seconds,
        "on_wall_seconds": on_seconds,
        "analytic_off_overhead_seconds": analytic_seconds,
        "analytic_off_overhead_fraction": overhead,
        "safety_factor": SAFETY_FACTOR,
        "bound": MAX_OFF_OVERHEAD,
        "on_vs_off_informational": (
            (on_seconds - off_seconds) / off_seconds if off_seconds else 0.0
        ),
    }
    lines = [
        "obs tracing-off overhead (analytic bound, pessimistic by construction)",
        f"  guard primitive:        {guard_ns:8.1f} ns/call",
        f"  activated sites:        {activations:8d} record(s) in a traced run",
        f"  untraced workload wall: {off_seconds:8.3f} s ({configs} configs)",
        f"  traced workload wall:   {on_seconds:8.3f} s (informational)",
        f"  bounded off-path tax:   {analytic_seconds * 1e6:8.1f} us "
        f"(x{SAFETY_FACTOR:.0f} safety)",
        f"  off overhead fraction:  {overhead:8.2%}  (bound: {MAX_OFF_OVERHEAD:.0%})",
    ]
    emit(out_dir, "obs_overhead.txt", "\n".join(lines))
    (out_dir / "obs_overhead.json").write_text(json.dumps(rows, indent=2) + "\n")

    assert overhead < MAX_OFF_OVERHEAD, (
        f"tracing-off overhead bound {overhead:.2%} exceeds "
        f"{MAX_OFF_OVERHEAD:.0%} — a guard left inside a hot loop?"
    )
