"""Verification of the flat combiner (Table 1 row "Flat combiner" — the
largest and slowest row in the paper, and here too).

The distinctive obligations:

* ``Stab`` — the *helping* stability facts: once I have registered, my
  slot holds either my request or a response to it (the environment may
  flip req→resp by helping me, but can never steal or corrupt my slot);
  collected receipts persist.
* ``Main`` — ``flat_combine`` satisfies its spec **with interference
  enabled**, which includes schedules where the environment takes the
  combiner lock and executes my request: the result is still ascribed to
  me.  A dedicated obligation asserts that at least one explored terminal
  was actually helped (the combiner-side worked, not just the self-serve
  path).  The higher-order reuse is witnessed by running the same
  verification over a second sequential structure (a counter).
"""

from __future__ import annotations

from typing import Any

from ..core.action import check_action
from ..core.concurroid import check_concurroid, protocol_closure
from ..core.prog import par
from ..core.spec import Scenario, Spec
from ..core.stability import check_stability
from ..core.state import State
from ..core.verify import ReportBuilder, VerificationReport, check_triple, triple_issues
from ..core.world import World
from ..heap import ptr
from ..pcm.histories import hist
from ..pcm.laws import check_all_laws
from ..semantics.interp import initial_config
from .flat_combiner import (
    FlatCombiner,
    FlatCombinerConcurroid,
    flat_combine_spec,
    initial_state,
    seq_counter,
    seq_stack,
)

SLOT_A = ptr(72)
SLOT_B = ptr(73)


def model_concurroid() -> FlatCombinerConcurroid:
    return FlatCombinerConcurroid(
        seq_stack(), slots=(SLOT_A, SLOT_B), max_ops=2, arg_domain=(1,)
    )


def scenario_concurroid(max_ops: int = 3) -> FlatCombinerConcurroid:
    return FlatCombinerConcurroid(
        seq_stack(), slots=(SLOT_A, SLOT_B), max_ops=max_ops, arg_domain=(0, 1)
    )


def verify_flat_combiner(*, env_budget: int = 2) -> VerificationReport:
    """Discharge every obligation for the flat combiner."""
    builder = ReportBuilder("Flat combiner")

    mconc = model_concurroid()
    mfc = FlatCombiner(mconc)

    builder.obligation(
        "fc-pcm-laws",
        "Libs",
        lambda: check_all_laws(mconc.pcms()[mconc.label]),
    )

    def seq_sanity() -> list[str]:
        issues = []
        st = seq_stack()
        if st.run("push", (), 1) != (None, (1,)):
            issues.append("seq stack push broken")
        if st.run("pop", (1, 0), None) != (1, (0,)):
            issues.append("seq stack pop broken")
        if st.run("pop", (), None) != (None, ()):
            issues.append("seq stack pop-empty broken")
        return issues

    builder.obligation("sequential-structure-lemmas", "Libs", seq_sanity)

    states = protocol_closure(mconc, [initial_state(mconc)], max_states=120_000)

    builder.obligation(
        "flatcombine-metatheory", "Conc", lambda: check_concurroid(mconc, states)
    )

    slot_args = [(SLOT_A,), (SLOT_B,)]
    for action, args in (
        (mfc.try_acquire_slot, slot_args),
        (mfc.register, [(SLOT_A, "push", 1), (SLOT_A, "pop", None)]),
        (mfc.read_slot, slot_args),
        (mfc.try_combine_lock, [()]),
        (mfc.help, slot_args),
        (mfc.combine_unlock, [()]),
        (mfc.collect, slot_args),
        (mfc.release_slot, slot_args),
    ):
        builder.obligation(
            f"action-{action.name}",
            "Acts",
            lambda action=action, args=args: check_action(action, states, args),
        )

    # Stab: the helping facts.
    def my_request_served(s: State) -> bool:
        comp = s[mconc.label]
        if SLOT_A not in mconc.slots_of(comp.self_):
            return True  # vacuous before registration
        cell = comp.joint[SLOT_A]
        return cell[0] in ("idle", "req", "resp")

    builder.obligation(
        "my-slot-only-progresses",
        "Stab",
        lambda: check_stability(
            my_request_served, "own slot req/resp", mconc, states
        ),
    )
    builder.obligation(
        "slot-ownership-stable",
        "Stab",
        lambda: check_stability(
            lambda s: SLOT_A in mconc.slots_of(s[mconc.label].self_),
            "slot is mine",
            mconc,
            states,
        ),
    )
    builder.obligation(
        "collected-receipt-persists",
        "Stab",
        lambda: check_stability(
            lambda s: 1 in mconc.my_contrib(s),
            "receipt@1 is mine",
            mconc,
            states,
        ),
    )

    # Main: the flat_combine triple, with the environment allowed to help.
    conc = scenario_concurroid()
    fc = FlatCombiner(conc)
    world = World((conc,))

    builder.obligation(
        "flat_combine-push-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                flat_combine_spec(conc, "push", 1),
                [Scenario(initial_state(conc), fc.flat_combine(SLOT_A, "push", 1), label="fc push")],
                max_steps=40,
                env_budget=env_budget,
            )
        ),
    )
    builder.obligation(
        "flat_combine-pop-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                flat_combine_spec(conc, "pop", None),
                [
                    Scenario(
                        initial_state(conc),
                        fc.flat_combine(SLOT_A, "pop", None),
                        label="fc pop empty",
                    ),
                    Scenario(
                        initial_state(conc, other_hist=hist((1, (), (1,)))),
                        fc.flat_combine(SLOT_A, "pop", None),
                        label="fc pop nonempty",
                    ),
                ],
                max_steps=40,
                env_budget=env_budget,
            )
        ),
    )

    def par_post(r: Any, s2: State, s1: State) -> bool:
        __, popped = r
        h2 = conc.my_contrib(s2)
        pushes = [e for ___, e in h2.items() if len(e.after) > len(e.before)]
        pops = [e for ___, e in h2.items() if len(e.after) < len(e.before)]
        if len(pushes) != 1:
            return False
        if popped is None:
            return not pops  # pop on empty is receipt-free
        return len(pops) == 1 and pops[0].before[0] == popped

    # The wait loop alternates two actions (read_slot, try_combine_lock),
    # which the single-action stutter pruning cannot collapse, so the
    # exhaustive sweep is depth-bounded (all schedules up to 36 visible
    # steps — terminating two-thread runs need ~20) and complemented by a
    # broad randomized sweep below.
    builder.obligation(
        "par-flat_combine-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                Spec("fc push || fc pop", lambda s: True, par_post),
                [
                    Scenario(
                        initial_state(conc),
                        par(
                            fc.flat_combine(SLOT_A, "push", 1),
                            fc.flat_combine(SLOT_B, "pop", None),
                        ),
                        label="fc push || fc pop",
                    )
                ],
                max_steps=36,
                env_budget=0,
                max_configs=300_000,
            )
        ),
    )

    def randomized_and_helping() -> list[str]:
        """Randomized schedule sweep for push‖pop: every run must satisfy
        the pairwise post, and at least one run must be *genuinely helped*
        — a ``help`` action executed by a thread on the other thread's
        slot (detected from the trace)."""
        import random

        from ..semantics.explore import run_random

        rng = random.Random(2015)
        helped = False
        for run in range(150):
            config = initial_config(
                world,
                initial_state(conc),
                par(
                    fc.flat_combine(SLOT_A, "push", 1),
                    fc.flat_combine(SLOT_B, "pop", None),
                ),
            )
            final, violations = run_random(config, rng, max_steps=500)
            if violations:
                return [str(v) for v in violations[:3]]
            if final is None:
                return [f"randomized run {run} did not terminate"]
            if not par_post(final.result, final.view_for(0), initial_state(conc)):
                return [f"randomized run {run} violates the pairwise post"]
            slot_owner: dict = {}
            for event in final.trace:
                if event.kind != "act":
                    continue
                if event.detail.endswith("try_acquire_slot") and event.result:
                    slot_owner[event.args[0]] = event.tid
                if event.detail.endswith(".help"):
                    owner = slot_owner.get(event.args[0])
                    if owner is not None and owner != event.tid:
                        helped = True
        if not helped:
            return ["no randomized schedule exercised helping"]
        return []

    builder.obligation("randomized-sweep-and-helping", "Main", randomized_and_helping)

    # Higher-order reuse: the same construction over a different
    # sequential structure verifies with zero new obligations.
    counter_conc = FlatCombinerConcurroid(
        seq_counter(), slots=(SLOT_A,), max_ops=2, arg_domain=(1,)
    )
    counter_fc = FlatCombiner(counter_conc)
    builder.obligation(
        "fc-counter-instance-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                World((counter_conc,)),
                flat_combine_spec(counter_conc, "add", 1),
                [
                    Scenario(
                        initial_state(counter_conc),
                        counter_fc.flat_combine(SLOT_A, "add", 1),
                        label="fc-counter add",
                    )
                ],
                max_steps=40,
                env_budget=1,
            )
        ),
    )

    return builder.build()
