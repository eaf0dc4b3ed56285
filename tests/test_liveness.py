"""The dynamic liveness layer: lassos, fairness claims, witnesses.

The flagship pair: the paper's ticketed lock *mechanically confirms* its
FIFO fairness claim within bounds (monotone owner/next tickets leave no
schedule revisiting a configuration without the claimant progressing),
while the deliberately unfair demo spinlock is *refuted* — the explorer
finds a lasso in which the environment cycles the lock through
take/work/release while the claimant's try-acquire keeps failing, and
that lasso replays and delta-debugs exactly like a safety
counterexample.
"""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import Diagnostic, select
from repro.analysis.liveness import (
    FAIRNESS_CLAIMS,
    check_fairness,
    fairness_issues,
    find_live_cycles,
)


def _unfair():
    return FAIRNESS_CLAIMS["Unfair lock demo"]


# -- who claims fairness ------------------------------------------------------------------


def test_fairness_claims_cover_the_expected_programs():
    """The CAS spinlock is *correctly* unfair: it must make no claim.
    The ticketed lock and the unfair demo are the two claimants."""
    assert set(FAIRNESS_CLAIMS) == {"Ticketed lock", "Unfair lock demo"}


# -- lasso detection ----------------------------------------------------------------------


def test_cas_lock_spin_has_no_lasso():
    """The registry CAS lock's spin is silent: its monotone client aux
    means no schedule ever revisits a configuration."""
    from repro.core.prog import par
    from repro.structures.locks.verify import (
        bump_client,
        lock_initial_state,
        lock_world,
        make_counter_cas_lock,
    )

    lock = make_counter_cas_lock()
    result = find_live_cycles(
        lock_world(lock),
        lock_initial_state(lock, 0, 0),
        par(bump_client(lock), bump_client(lock)),
        env_budget=2,
    )
    assert result.cycles == []


def test_unfair_lock_lasso_detected():
    claim = _unfair()
    world, init, prog = claim.build()
    result = find_live_cycles(
        world, init, prog, env_budget=claim.env_budget, max_steps=claim.max_steps
    )
    assert len(result.cycles) >= 1
    lasso = result.cycles[0]
    assert lasso.kind == "livelock"
    assert "without progressing" in lasso.message
    assert lasso.trace is not None


def test_detector_is_observational_on_the_unfair_model():
    """Same safety answer with the detector armed or not — only
    ``cycles`` differs."""
    claim = _unfair()
    world, init, prog = claim.build()
    from repro.semantics.explore import explore
    from repro.semantics.interp import initial_config

    def run(liveness):
        return explore(
            initial_config(world, init, prog),
            max_steps=claim.max_steps,
            env_budget=claim.env_budget,
            liveness=liveness,
        )

    off, on = run(False), run(True)
    assert off.cycles == []
    assert on.cycles != []
    assert off.explored == on.explored
    assert len(off.terminals) == len(on.terminals)
    assert [str(v) for v in off.violations] == [str(v) for v in on.violations]


# -- fairness claims, checked -------------------------------------------------------------


def test_ticketed_fairness_confirmed():
    diags, witnesses = check_fairness("Ticketed lock")
    assert [d.code for d in diags] == ["FCSL059"]
    assert "confirmed" in diags[0].message
    assert witnesses == []


def test_unfair_fairness_refuted_with_witnesses():
    diags, witnesses = check_fairness("Unfair lock demo")
    assert [d.code for d in diags] == ["FCSL055", "FCSL056"]
    assert "refuted" in diags[1].message
    assert witnesses
    for w in witnesses:
        assert w.kind == "livelock"
        assert w.replayable
        assert w.meta.get("replay") == "confirmed"


def test_unfair_witness_replays_and_minimizes():
    from repro.obs.minimize import minimize_witness
    from repro.obs.replay import replay_schedule

    __, witnesses = check_fairness("Unfair lock demo")
    w = witnesses[0]
    outcome = replay_schedule(w)
    assert outcome.reproduced
    assert outcome.kind == "livelock"
    small = minimize_witness(w)
    assert small.minimized is True
    assert len(small.steps) <= len(w.steps)
    # The shrunken schedule still replays to the same lasso.
    assert replay_schedule(small).reproduced


def test_fairness_issues_feeds_the_verifier_and_the_capture_scope():
    from repro.obs.witness import capturing

    claim = _unfair()
    world, init, prog = claim.build()
    with capturing() as sink:
        issues = fairness_issues(
            "unfair: fifo-fairness",
            world,
            init,
            prog,
            env_budget=claim.env_budget,
            max_steps=claim.max_steps,
        )
    assert issues
    assert sink
    assert all(w.kind == "livelock" for w in sink)


def test_unfair_demo_verifier_fails_only_on_fairness():
    """The demo lock is a perfectly *safe* CAS lock — every safety
    obligation holds; exactly the planted fifo-fairness claim fails."""
    from repro.structures.locks.demo import verify_unfair_lock

    report = verify_unfair_lock()
    assert not report.ok
    failed = report.failures()
    assert [o.name for o in failed] == ["fifo-fairness"]
    assert failed[0].witnesses  # replayable through verify --witness-dir


def test_two_lock_demo_verifies_sequentially():
    """Each ladder alone is correct (the deadlock needs both orders in
    parallel, which fcsl-live flags statically instead)."""
    from repro.structures.locks.demo import verify_two_lock_demo

    assert verify_two_lock_demo().ok


# -- registry shape -----------------------------------------------------------------------


def test_demo_rows_extend_but_do_not_pollute_the_registry():
    from repro.structures.registry import (
        all_programs,
        demo_programs,
        program,
        registry_programs,
    )

    assert len(all_programs()) == 11
    assert [info.name for info in demo_programs()] == [
        "Two-lock demo",
        "Unfair lock demo",
    ]
    assert len(registry_programs()) == 13
    assert all(info.demo for info in demo_programs())
    assert not any(info.demo for info in all_programs())
    assert program("Two-lock demo").demo


def test_default_verify_sweep_excludes_demos():
    """`repro verify` with no names must stay green: the deliberately
    failing demo rows are reachable by explicit name only."""
    from repro.engine.engine import resolve_programs

    default = resolve_programs()
    assert len(default) == 11
    assert not any(info.demo for info in default)
    named = resolve_programs(["Unfair lock demo"])
    assert [info.name for info in named] == ["Unfair lock demo"]


# -- the FCSL05x selector works identically across tools ---------------------------------


@pytest.mark.parametrize(
    "selector",
    ["FCSL05", "FCSL05x", "FCSL050-059", "FCSL050-FCSL059"],
)
def test_liveness_band_selectors_are_equivalent(selector):
    diags = [
        Diagnostic("FCSL045", "race", subject="s", obj="o"),
        Diagnostic("FCSL050", "cycle", subject="s", obj="o"),
        Diagnostic("FCSL056", "unfair", subject="s", obj="o"),
        Diagnostic("FCSL059", "fair", subject="s", obj="o"),
    ]
    picked = select(diags, codes=[selector])
    assert [d.code for d in picked] == ["FCSL050", "FCSL056", "FCSL059"]


@pytest.mark.parametrize("cmd", ["lint", "race", "live"])
def test_select_flag_is_uniform_across_clis(cmd, monkeypatch, capsys):
    """`--select FCSL05x` means the same thing to every subcommand."""
    from repro.__main__ import main

    registry = {
        "lint": "lint_registry",
        "race": "race_registry",
        "live": "live_registry",
    }[cmd]
    monkeypatch.setattr(
        f"repro.analysis.{registry}",
        lambda names=None: [
            Diagnostic("FCSL045", "race", subject="s", obj="o"),
            Diagnostic("FCSL059", "fair", subject="s", obj="o"),
        ],
    )
    assert main([cmd, "--select", "FCSL05x"]) == 0
    out = capsys.readouterr().out
    assert "FCSL059" in out
    assert "FCSL045" not in out
