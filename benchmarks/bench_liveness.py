"""Liveness overhead benchmark — fcsl-live vs plain fcsl-race.

Two overhead bounds back ``repro live``'s claim to be a cheap
ride-along analysis, recorded as a text table and a JSON artifact
(``benchmarks/out/liveness.json``, uploaded by CI):

* **Static** — deriving the lock-order graph (classification, edges,
  cycles, progress rules) for a lock-bearing target costs the same
  order as the fcsl-race interference pass over it, because both reuse
  the same concolic footprint collection.  Bound: the summed lockorder
  wall time stays under ``STATIC_OVERHEAD`` × the race wall time.

* **Dynamic** — arming the explorer's lasso detector must not blow up
  a plain search: it piggybacks on the existing position-dedup lookup,
  so configs explored are *identical* (asserted row by row) and wall
  time stays under ``DYNAMIC_OVERHEAD`` × the detector-off run.
"""

from __future__ import annotations

import json
import time

from repro.analysis.lockorder import lockorder_target
from repro.analysis.race import race_target
from repro.analysis.scenarios import main_scenarios, run_scenario
from repro.analysis.targets import target_for

from conftest import emit

#: Lock-bearing registry rows for the static head-to-head.
STATIC_PROGRAMS = ("CAS-lock", "Ticketed lock", "Flat combiner")

#: Fast representative scenarios for the dynamic A/B (the slow rows are
#: covered functionally by tests/test_liveness_equiv.py).
DYNAMIC_PROGRAMS = ("CAS-lock", "Ticketed lock", "Pair snapshot")

#: Summed lockorder wall time may cost at most this multiple of the
#: summed race wall time (measured ~0.5-1.6x per row; 3x is headroom,
#: not a target).
STATIC_OVERHEAD = 3.0

#: Summed liveness-on exploration wall time vs liveness-off (measured
#: ~0.9-1.1x; the detector adds one prefix comparison per revisit).
DYNAMIC_OVERHEAD = 1.5


def test_liveness_overhead(out_dir):
    static_rows = []
    for name in STATIC_PROGRAMS:
        target = target_for(name)
        t0 = time.perf_counter()
        race_target(target)
        t1 = time.perf_counter()
        graph, __ = lockorder_target(target)
        t2 = time.perf_counter()
        static_rows.append(
            {
                "program": name,
                "seconds_race": t1 - t0,
                "seconds_lockorder": t2 - t1,
                "nodes": len(graph.nodes),
                "edges": len(graph.edges),
                "cycles": len(graph.cycles()),
            }
        )
    race_total = sum(r["seconds_race"] for r in static_rows)
    live_total = sum(r["seconds_lockorder"] for r in static_rows)
    assert live_total <= STATIC_OVERHEAD * race_total, (
        f"lockorder pass cost {live_total:.3f}s vs race {race_total:.3f}s "
        f"(> {STATIC_OVERHEAD}x)"
    )

    dynamic_rows = []
    for scenario in main_scenarios(DYNAMIC_PROGRAMS):
        t0 = time.perf_counter()
        base = run_scenario(scenario)
        t1 = time.perf_counter()
        live = run_scenario(scenario, liveness=True)
        t2 = time.perf_counter()
        # The detector observes the same search: identical frontier.
        assert base.explored == live.explored, scenario.key
        dynamic_rows.append(
            {
                "scenario": scenario.key,
                "configs": base.explored,
                "cycles": len(live.cycles),
                "seconds_off": t1 - t0,
                "seconds_on": t2 - t1,
            }
        )
    off_total = sum(r["seconds_off"] for r in dynamic_rows)
    on_total = sum(r["seconds_on"] for r in dynamic_rows)
    assert on_total <= DYNAMIC_OVERHEAD * off_total, (
        f"liveness-on exploration cost {on_total:.3f}s vs {off_total:.3f}s "
        f"(> {DYNAMIC_OVERHEAD}x)"
    )

    payload = {
        "static": {
            "rows": static_rows,
            "seconds_race": race_total,
            "seconds_lockorder": live_total,
            "bound": STATIC_OVERHEAD,
        },
        "dynamic": {
            "rows": dynamic_rows,
            "seconds_off": off_total,
            "seconds_on": on_total,
            "bound": DYNAMIC_OVERHEAD,
        },
    }
    (out_dir / "liveness.json").write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        "fcsl-live overhead (static lockorder vs race; lasso detector on vs off)",
        f"{'program':<28} {'race':>7} {'lockorder':>10} {'nodes':>5} {'edges':>5}",
    ]
    for r in static_rows:
        lines.append(
            f"{r['program']:<28} {r['seconds_race']:>6.3f}s "
            f"{r['seconds_lockorder']:>9.3f}s {r['nodes']:>5} {r['edges']:>5}"
        )
    lines.append(
        f"static total: {live_total:.3f}s vs race {race_total:.3f}s "
        f"(bound {STATIC_OVERHEAD}x)"
    )
    lines.append("")
    lines.append(
        f"{'scenario':<28} {'configs':>8} {'off':>7} {'on':>7} {'cycles':>6}"
    )
    for r in dynamic_rows:
        lines.append(
            f"{r['scenario']:<28} {r['configs']:>8} {r['seconds_off']:>6.3f}s "
            f"{r['seconds_on']:>6.3f}s {r['cycles']:>6}"
        )
    lines.append(
        f"dynamic total: {on_total:.3f}s vs {off_total:.3f}s "
        f"(bound {DYNAMIC_OVERHEAD}x)"
    )
    emit(out_dir, "liveness.txt", "\n".join(lines))
