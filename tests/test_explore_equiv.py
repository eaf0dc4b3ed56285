"""Scenario coverage for the exploration gates.

Every registry program, *including the demo rows*, must have a
representative scenario in :mod:`repro.analysis.scenarios`: the
liveness gate and the explorer benchmarks run on that list, so a
program without one would go unexplored by them.
"""

from __future__ import annotations

from repro.analysis.scenarios import DEMO_SCENARIOS, MAIN_SCENARIOS


def test_every_registry_program_has_a_scenario():
    """Adding a case study or demo row must force a gate scenario for it."""
    from repro.structures.registry import all_programs, demo_programs

    covered = {s.program for s in MAIN_SCENARIOS + DEMO_SCENARIOS}
    rows = list(all_programs()) + list(demo_programs())
    missing = [info.name for info in rows if info.name not in covered]
    assert not missing, f"registry programs without an explore gate scenario: {missing}"
