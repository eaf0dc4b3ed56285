"""fcsl-live: liveness diagnostics — lock order, deadlock, fairness.

The static half lives in :mod:`repro.analysis.lockorder`: acquire/release
classification, the lock-order graph, cycle detection, and the FCSL050-054
rules.  This module adds the *dynamic* half and the entry points:

* **bounded livelock detection** — :func:`find_live_cycles` runs the
  explorer with ``liveness=True``; a schedule that revisits a position
  while threads step and the environment interferes (a lasso) is a
  livelock/starvation candidate, reported in
  ``ExplorationResult.cycles`` without touching the safety verdict;

* **fairness claims** — :data:`FAIRNESS_CLAIMS` records which programs
  *claim* a FIFO fairness property (the paper's ticketed lock does; the
  deliberately unfair demo lock claims it falsely).  A claim is checked
  by bounded livelock detection on the claimant's bump client: a lasso
  in which the claimant keeps retrying while the environment cycles
  through the lock refutes bounded bypass (FCSL055 + FCSL056); an
  exhausted search with no lasso confirms the claim within bounds
  (FCSL059).  Refutations are recorded as replayable
  :class:`repro.obs.witness.Witness` objects, so ``repro explain``
  replays and ddmin-minimizes them exactly like safety counterexamples;

* **the sweep** — :func:`live_registry` (the ``python -m repro live``
  CLI) runs lock-order + fairness over every registered program,
  including the ``demo=True`` rows that exist to keep the positive
  cases in-tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .diagnostics import Diagnostic, diag
from .lockorder import LockOrderGraph, lockorder_target
from .targets import LintTarget, target_for

#: Default bounds for fairness exploration.  The env budget leaves the
#: ticketed model's ticket queue unexhausted (drawing more tickets than
#: ``max_queue`` makes the claimant's own draw unsafe — a model-bound
#: artifact, not unfairness).
FAIRNESS_ENV_BUDGET = 2
FAIRNESS_MAX_STEPS = 30


@dataclass(frozen=True)
class FairnessClaim:
    """A program's declared FIFO fairness property, operationalised."""

    program: str
    #: Lazily builds ``(world, init, prog)`` — the claimant scenario.
    build: Callable[[], tuple[Any, Any, Any]]
    env_budget: int = FAIRNESS_ENV_BUDGET
    max_steps: int = FAIRNESS_MAX_STEPS


def _ticketed_scenario() -> tuple[Any, Any, Any]:
    from ..structures.locks.verify import (
        bump_client,
        lock_initial_state,
        lock_world,
        make_counter_ticketed_lock,
    )

    lock = make_counter_ticketed_lock()
    return lock_world(lock), lock_initial_state(lock, 0, 0), bump_client(lock)


def _unfair_scenario() -> tuple[Any, Any, Any]:
    from ..structures.locks.demo import make_unfair_lock
    from ..structures.locks.verify import (
        bump_client,
        lock_initial_state,
        lock_world,
    )

    lock = make_unfair_lock()
    return lock_world(lock), lock_initial_state(lock, 0, 0), bump_client(lock)


#: program name -> its FIFO fairness claim.  Programs absent here make no
#: fairness claim and are never flagged for lacking one (the CAS spinlock
#: is *correctly* unfair).  The unfair demo's larger env budget admits
#: the lock-take / work / restore environment cycle a lasso needs.
FAIRNESS_CLAIMS: dict[str, FairnessClaim] = {
    "Ticketed lock": FairnessClaim("Ticketed lock", _ticketed_scenario),
    "Unfair lock demo": FairnessClaim(
        "Unfair lock demo", _unfair_scenario, env_budget=3
    ),
}


def find_live_cycles(
    world: Any,
    init: Any,
    prog: Any,
    *,
    env_budget: int,
    max_steps: int = FAIRNESS_MAX_STEPS,
    max_configs: int = 200_000,
):
    """Exhaustively explore with the livelock detector on.

    Returns the full :class:`~repro.semantics.explore.ExplorationResult`;
    lassos are in ``.cycles``, and the safety-relevant fields are
    byte-identical to a ``liveness=False`` run.
    """
    from ..semantics.explore import explore
    from ..semantics.interp import initial_config

    config = initial_config(world, init, prog)
    return explore(
        config,
        max_steps=max_steps,
        env_budget=env_budget,
        max_configs=max_configs,
        liveness=True,
    )


def _lasso_witnesses(
    cycles: Iterable[Any],
    *,
    scenario_label: str,
    world: Any,
    init: Any,
    prog: Any,
    max_steps: int,
) -> list[Any]:
    """Replay-confirmed witnesses for livelock lassos (capped)."""
    from ..core.verify import WITNESS_CAP
    from ..obs import witness as obs_witness

    out = []
    for violation in list(cycles)[:WITNESS_CAP]:
        w = obs_witness.from_violation(
            violation,
            scenario_label=scenario_label,
            world=world,
            init=init,
            prog=prog,
        )
        w.meta.setdefault("max_steps", max_steps)
        out.append(w)
    return out


def check_fairness(name: str) -> tuple[list[Diagnostic], list[Any]]:
    """Check one program's FIFO fairness claim by bounded exploration.

    Returns ``(diagnostics, witnesses)``.  A refuted claim yields
    FCSL055 (the lasso itself) and FCSL056 (the broken claim) plus
    replayable witnesses; an exhausted lasso-free search yields the
    FCSL059 confirmation.  Witnesses are also handed to the active
    :func:`repro.obs.witness.capturing` scope, if any.
    """
    from ..obs.witness import record

    claim = FAIRNESS_CLAIMS[name]
    world, init, prog = claim.build()
    result = find_live_cycles(
        world,
        init,
        prog,
        env_budget=claim.env_budget,
        max_steps=claim.max_steps,
    )
    bounds = f"env_budget={claim.env_budget}, max_steps={claim.max_steps}"
    if not result.cycles:
        return (
            [
                diag(
                    "FCSL059",
                    f"FIFO fairness claim confirmed within bounds ({bounds}): "
                    f"no schedule revisits a configuration without the "
                    f"claimant progressing ({result.explored} configurations)",
                    subject=name,
                    obj="fifo-fairness",
                )
            ],
            [],
        )
    witnesses = _lasso_witnesses(
        result.cycles,
        scenario_label=f"{name}: fifo-fairness",
        world=world,
        init=init,
        prog=prog,
        max_steps=claim.max_steps,
    )
    for w in witnesses:
        record(w)
    first = result.cycles[0]
    diags = [
        diag(
            "FCSL055",
            f"livelock lasso found ({bounds}): {first.message}",
            subject=name,
            obj="fifo-fairness",
        ),
        diag(
            "FCSL056",
            f"claimed FIFO fairness refuted: {len(result.cycles)} "
            f"schedule(s) cycle while the claimant's acquire is bypassed; "
            f"replay with `repro explain {name!r}`",
            subject=name,
            obj="fifo-fairness",
        ),
    ]
    return diags, witnesses


def fairness_issues(
    scenario_label: str,
    world: Any,
    init: Any,
    prog: Any,
    *,
    env_budget: int,
    max_steps: int = FAIRNESS_MAX_STEPS,
) -> list[str]:
    """Fairness as a verifier obligation: issue strings for every lasso.

    Used by verifiers whose structure claims FIFO fairness (the unfair
    demo lock): each lasso becomes an obligation issue, its witness is
    recorded to the active capture scope (``repro explain``) *and*
    attached to the innermost obligation (``repro verify`` reports and
    witness dumps) — the exact plumbing safety counterexamples use.
    """
    from ..core.verify import record_witness
    from ..obs.witness import record

    result = find_live_cycles(
        world, init, prog, env_budget=env_budget, max_steps=max_steps
    )
    if not result.cycles:
        return []
    witnesses = _lasso_witnesses(
        result.cycles,
        scenario_label=scenario_label,
        world=world,
        init=init,
        prog=prog,
        max_steps=max_steps,
    )
    issues = []
    for w, violation in zip(witnesses, result.cycles):
        record(w)
        record_witness(w.to_dict())
        issues.append(str(violation))
    return issues


# -- entry points -------------------------------------------------------------------------


def live_target(target: LintTarget) -> tuple[LockOrderGraph, list[Diagnostic]]:
    """Every liveness rule over one lint target.

    Static lock-order analysis (FCSL050-054, FCSL057) always runs; the
    dynamic fairness check (FCSL055/056/059) runs iff the program
    declares a claim in :data:`FAIRNESS_CLAIMS`.
    """
    graph, diags = lockorder_target(target)
    if target.program in FAIRNESS_CLAIMS:
        fairness_diags, __ = check_fairness(target.program)
        diags = list(diags) + fairness_diags
    return graph, list(diags)


def live_registry(names: Iterable[str] | None = None) -> list[Diagnostic]:
    """Liveness sweep over the selected (default: all) registered programs.

    Unlike the lint/race sweeps this includes the ``demo=True`` rows —
    they exist precisely so the FCSL05x positive cases live in-tree, so a
    full sweep exits 1 *by design* (the two-lock demo's FCSL050)."""
    from ..structures.registry import registry_programs

    infos = registry_programs()
    known = {info.name for info in infos}
    wanted = tuple(names) if names is not None else None
    if wanted is not None:
        unknown = sorted(set(wanted) - known)
        if unknown:
            raise KeyError(
                f"unknown registry program(s) {unknown}; known: {sorted(known)}"
            )
    out: list[Diagnostic] = []
    for info in infos:
        if wanted is not None and info.name not in wanted:
            continue
        __, diags = live_target(target_for(info.name))
        out.extend(diags)
    return out
