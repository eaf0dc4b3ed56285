"""Scenario coverage for the case studies.

Every case study in the registry must have a representative Main
scenario (:data:`repro.analysis.scenarios.MAIN_SCENARIOS`), the list
the liveness gate and the explorer benchmarks run on.
"""

from __future__ import annotations

from repro.analysis.scenarios import MAIN_SCENARIOS


def test_every_registry_program_has_a_scenario():
    """Adding a 12th case study must force a Main scenario for it."""
    from repro.structures.registry import all_programs

    covered = {s.program for s in MAIN_SCENARIOS}
    missing = [info.name for info in all_programs() if info.name not in covered]
    assert not missing, f"registry programs without a Main scenario: {missing}"
