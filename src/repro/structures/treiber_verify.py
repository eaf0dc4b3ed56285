"""Verification of the Treiber stack (Table 1 row "Treiber stack").

This structure introduces a new concurroid, so — matching the paper's
Table 1 row, where Conc/Acts/Stab dominate — every obligation category is
populated:

* ``Libs`` — history-PCM laws and the stack-replay agreement lemma;
* ``Conc`` — metatheory of the three-way entanglement Priv ⋈ ALock ⋈
  Treiber (including the push connector);
* ``Acts`` — the four stack actions plus node preparation;
* ``Stab`` — the history facts client reasoning rests on: one's own
  entries are immutable, timestamps only grow, witnessed entries persist;
* ``Main`` — push/pop triples under adversarial interference, and the
  parallel compositions (push‖push, push‖pop, pop‖pop).
"""

from __future__ import annotations

from typing import Any

from ..core.action import check_action
from ..core.concurroid import ProtocolGraph, check_concurroid, protocol_closure, state_graph
from ..core.prog import par
from ..core.spec import Scenario, Spec
from ..core.stability import check_stability
from ..core.state import State
from ..core.verify import ReportBuilder, VerificationReport, check_triple, triple_issues
from ..core.world import World
from ..heap import NULL, ptr
from ..pcm.histories import HistEntry, HistoryPCM, hist
from ..pcm.laws import check_all_laws
from .treiber import (
    TB_LABEL,
    TreiberStructure,
    pop_spec,
    push_spec,
    stack_states_since,
)


def small_structure(max_ops: int = 3) -> TreiberStructure:
    return TreiberStructure(max_ops=max_ops, pool=(101, 102))


def model_structure() -> TreiberStructure:
    """A deliberately tiny instance for the state-family obligations
    (the closure of the full scenario instance is ~100x larger with no
    new protocol behaviour — only more values and addresses)."""
    return TreiberStructure(max_ops=2, pool=(101,), value_domain=(1,))


def model_states(structure: TreiberStructure, max_states: int = 60_000) -> ProtocolGraph:
    initials = [
        structure.initial_state(),
        structure.initial_state(stack_nodes=[(60, 1)], other_hist=hist((1, (), (1,)))),
        structure.initial_state(
            stack_nodes=[(60, 0), (61, 1)],
            self_hist=hist((2, (1,), (0, 1))),
            other_hist=hist((1, (), (1,))),
        ),
    ]
    return protocol_closure(structure.concurroid, initials, max_states=max_states)


def _replay_agreement(states: ProtocolGraph, structure: TreiberStructure) -> list[str]:
    """Lemma: on every coherent model state the concrete chain from TOP
    equals the history replay (the linearizability anchor)."""
    issues = []
    conc = structure.treiber
    graph = state_graph(structure.concurroid, states)
    for s in graph:
        if not graph.coherent(s):
            continue
        if conc.total_history(s).final_state(()) != conc.stack(s):
            issues.append(f"replay disagrees with heap at {s!r}")
            if len(issues) >= 3:
                break
    return issues


def verify_treiber_stack(
    *,
    env_budget: int = 1,
    max_ops: int = 3,
) -> VerificationReport:
    """Discharge every obligation for the Treiber stack."""
    structure = small_structure(max_ops=max_ops)
    conc = structure.treiber
    builder = ReportBuilder("Treiber stack")

    builder.obligation("history-pcm-laws", "Libs", lambda: check_all_laws(HistoryPCM()))

    model = model_structure()
    states = model_states(model)
    builder.obligation(
        "replay-agreement-lemma", "Libs", lambda: _replay_agreement(states, model)
    )

    builder.obligation(
        "entangled-treiber-metatheory",
        "Conc",
        lambda: check_concurroid(model.concurroid, states),
    )

    node_args = [(ptr(60),), (ptr(101),)]
    cas_args = [
        (NULL, ptr(101)),
        (ptr(60), ptr(101)),
        (ptr(60), NULL),
        (ptr(61), ptr(60)),
    ]
    for action, args in (
        (model.read_top, [()]),
        (model.read_node, node_args),
        (model.cas_push, cas_args),
        (model.cas_pop, cas_args),
        (model.prep_node, [(ptr(101), (1, NULL))]),
    ):
        builder.obligation(
            f"action-{action.name}",
            "Acts",
            lambda action=action, args=args: check_action(action, states, args),
        )

    # Stab: the facts history-based client reasoning rests on.
    mconc = model.treiber
    builder.obligation(
        "own-history-immutable",
        "Stab",
        lambda: check_stability(
            lambda s: s.self_of(TB_LABEL) == hist((2, (1,), (0, 1))),
            "self history fixed",
            model.concurroid,
            states,
        ),
    )
    builder.obligation(
        "witnessed-entry-persists",
        "Stab",
        lambda: check_stability(
            lambda s: mconc.total_history(s).get(1) == HistEntry((), (1,)),
            "entry@1 = () ==> (1,)",
            model.concurroid,
            states,
        ),
    )
    builder.obligation(
        "timestamps-grow",
        "Stab",
        lambda: check_stability(
            lambda s: mconc.total_history(s).last_timestamp() >= 1,
            "last ts >= 1",
            model.concurroid,
            states,
        ),
    )

    # Main: the triples.
    world = World((structure.concurroid,))

    def fresh() -> TreiberStructure:
        return structure

    builder.obligation(
        "push-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                push_spec(conc, 1),
                [
                    Scenario(structure.initial_state(), structure.push(1), label="push empty"),
                    Scenario(
                        structure.initial_state(
                            stack_nodes=[(60, 0)], other_hist=hist((1, (), (0,)))
                        ),
                        structure.push(1),
                        label="push nonempty",
                    ),
                ],
                max_steps=40,
                env_budget=env_budget,
            )
        ),
    )
    builder.obligation(
        "pop-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                pop_spec(conc),
                [
                    Scenario(structure.initial_state(), structure.pop(), label="pop empty"),
                    Scenario(
                        structure.initial_state(
                            stack_nodes=[(60, 1)], other_hist=hist((1, (), (1,)))
                        ),
                        structure.pop(),
                        label="pop nonempty",
                    ),
                ],
                max_steps=30,
                env_budget=env_budget,
            )
        ),
    )

    def par_post_pushpush(r: Any, s2: State, s1: State) -> bool:
        h2 = s2.self_of(TB_LABEL)
        entries = list(h2.items())
        if len(entries) != 2:
            return False
        pushed = sorted(e.after[0] for __, e in entries)
        return pushed == [0, 1] and all(
            e.after == (e.after[0],) + e.before for __, e in entries
        )

    builder.obligation(
        "par-push-push-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                Spec("push||push", lambda s: True, par_post_pushpush),
                [
                    Scenario(
                        structure.initial_state(),
                        par(structure.push(0), structure.push(1)),
                        label="push||push",
                    )
                ],
                max_steps=60,
                env_budget=0,
                max_configs=400_000,
            )
        ),
    )

    def par_post_pushpop(r: Any, s2: State, s1: State) -> bool:
        __, popped = r
        h2 = s2.self_of(TB_LABEL)
        push_entries = [e for __, e in h2.items() if len(e.after) > len(e.before)]
        pop_entries = [e for __, e in h2.items() if len(e.after) < len(e.before)]
        if len(push_entries) != 1:
            return False
        if popped is None:
            return not pop_entries and () in set(stack_states_since(conc, s1, s2))
        return len(pop_entries) == 1 and pop_entries[0].before[0] == popped

    builder.obligation(
        "par-push-pop-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                Spec("push||pop", lambda s: True, par_post_pushpop),
                [
                    Scenario(
                        structure.initial_state(),
                        par(structure.push(1), structure.pop()),
                        label="push||pop on empty",
                    ),
                    Scenario(
                        structure.initial_state(
                            stack_nodes=[(60, 0)], other_hist=hist((1, (), (0,)))
                        ),
                        par(structure.push(1), structure.pop()),
                        label="push||pop on [0]",
                    ),
                ],
                max_steps=60,
                env_budget=0,
                max_configs=400_000,
            )
        ),
    )

    return builder.build()
