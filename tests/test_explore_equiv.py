"""Scenario coverage for the exploration gates.

Every registry program, *including the demo rows*, must have a
representative scenario in :mod:`repro.analysis.scenarios`: the
liveness gate and the explorer benchmarks run on that list, so a
program without one would go unexplored by them.
"""

from __future__ import annotations

from repro.analysis.scenarios import DEMO_SCENARIOS, MAIN_SCENARIOS


def test_every_registry_program_has_a_scenario():
    """Adding a case study or demo row must force a gate scenario for it;
    a case study's must be a Main scenario (the list the liveness gate
    and the explorer benchmarks run on), not a demo one."""
    from repro.structures.registry import all_programs, demo_programs

    main = {s.program for s in MAIN_SCENARIOS}
    missing = [info.name for info in all_programs() if info.name not in main]
    assert not missing, f"registry programs without a Main scenario: {missing}"
    covered = main | {s.program for s in DEMO_SCENARIOS}
    missing = [info.name for info in demo_programs() if info.name not in covered]
    assert not missing, f"demo rows without an explore gate scenario: {missing}"
