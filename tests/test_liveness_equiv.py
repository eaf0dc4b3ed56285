"""The liveness observationality gate: detector on ≡ detector off.

The bounded livelock detector may only *observe* — for every
representative Main scenario of every registry program, exploring with
``liveness=True`` must produce the same verdict, the same terminal set,
and the same configuration count as the plain search.  Lassos land in
``ExplorationResult.cycles`` and nowhere else; ``repro verify
--liveness`` therefore can never change which obligations pass
(tests here drive the check_triple path through a real verifier too).
"""

from __future__ import annotations

import pytest

from repro.analysis.scenarios import (
    DEMO_SCENARIOS,
    MAIN_SCENARIOS,
    run_scenario,
    terminal_signature,
)

SCENARIOS = MAIN_SCENARIOS + DEMO_SCENARIOS


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.key for s in SCENARIOS])
def test_liveness_preserves_verdict_and_terminals(scenario):
    base = run_scenario(scenario)
    live = run_scenario(scenario, liveness=True)

    # Same verdict, same truncation, same search: the detector hooks the
    # dedupe site *before* pruning and never redirects the frontier.
    assert [str(v) for v in base.violations] == [str(v) for v in live.violations]
    assert bool(base.truncated) == bool(live.truncated)
    assert base.explored == live.explored
    assert base.deduped == live.deduped
    assert terminal_signature(base) == terminal_signature(live)

    # And the flag is what arms it.
    assert base.cycles == []


def test_verifier_verdict_unchanged_under_liveness_default():
    """The check_triple path: a full real verification run with the
    process liveness default installed is obligation-for-obligation
    identical to the plain run."""
    from repro.core.verify import set_liveness_default
    from repro.structures.locks.verify import verify_cas_lock

    base = verify_cas_lock()
    set_liveness_default(True)
    try:
        live = verify_cas_lock()
    finally:
        set_liveness_default(None)
    assert live.ok == base.ok
    assert [
        (o.name, o.category, o.ok, tuple(o.issues)) for o in live.obligations
    ] == [
        (o.name, o.category, o.ok, tuple(o.issues)) for o in base.obligations
    ]


def test_sweep_liveness_flag_is_restored():
    """run_sweep(liveness=True) must not leak the default into the
    caller's process."""
    from repro.core.verify import liveness_default
    from repro.engine import run_sweep

    assert not liveness_default()
    result = run_sweep(["CAS-lock"], jobs=1, cache=False, liveness=True)
    assert result.ok
    assert not liveness_default()


@pytest.mark.parametrize("program", ["Ticketed lock", "Unfair lock demo"])
def test_cache_replay_under_liveness_matches_cold_liveness(program, tmp_path):
    """The cache key ignores ``liveness``, so an entry stored without the
    detector is replayed under ``--liveness``; the replayed report (every
    obligation, witnesses included, timings stripped) must equal a cold
    ``--liveness`` run's."""
    from repro.engine import run_sweep

    def obligations(result):
        report = result.outcome(program).report
        return [
            {k: v for k, v in o.to_dict().items() if k != "seconds"}
            for o in report.obligations
        ]

    run_sweep([program], jobs=1, cache_dir=tmp_path, journal=False)
    replayed = run_sweep(
        [program], jobs=1, cache_dir=tmp_path, journal=False, liveness=True
    )
    cold = run_sweep([program], jobs=1, cache=False, journal=False, liveness=True)
    assert replayed.hits == 1
    assert obligations(replayed) == obligations(cold)
    assert replayed.exit_code() == cold.exit_code()
