#!/usr/bin/env python3
"""Build-your-own structure: a one-shot latch, verified from scratch.

The companion program to docs/TUTORIAL.md.  It follows §8's "recurring
pattern" for a structure *not* in the paper — a one-shot latch (a cell
that any thread may CAS from unset to set exactly once; the setter learns
it won the race and owns that fact forever):

1. choose the PCM           — exclusive ownership (LiftPCM with no join):
                              at most one thread holds the "I set it" token;
2. define the concurroid    — coherence ties the cell to the token;
3. define atomic actions    — try_set (erases to CAS), read;
4. write programs           — racing setters;
5. state subjective specs   — "if I won, I hold the token; the token is
                              mine forever" (stable!);
6. discharge everything     — metatheory, actions, stability, triples.

Run:  python examples/build_your_own.py
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core import (
    Action,
    Concurroid,
    Scenario,
    Spec,
    Transition,
    World,
    act,
    check_action,
    check_concurroid,
    check_stability,
    check_triple,
    par,
    protocol_closure,
    triple_issues,
)
from repro.core.state import State, SubjState, state_of
from repro.heap import Heap, Ptr, pts, ptr
from repro.pcm import LIFT_UNIT, assert_pcm_laws, exclusive_pcm

FLAG = ptr(1)


# -- step 1: the PCM -------------------------------------------------------------------

#: Exclusive ownership of the "I set the latch" fact: Up(payload) for the
#: winner, LIFT_UNIT for everyone else; Up • Up is undefined.
WINNER = exclusive_pcm(raw_sample=("a", "b"), name="latch-winner")


# -- step 2: the concurroid -------------------------------------------------------------


class LatchConcurroid(Concurroid):
    """Joint: one cell holding ``None`` (unset) or the winning payload.
    Self/other: the exclusive winner token.  Coherence: the cell is set
    iff exactly one side holds the token, and the payloads agree."""

    def __init__(self, label: str = "lt", payloads: Sequence[str] = ("a", "b")):
        self._label = label
        self._payloads = tuple(payloads)

    @property
    def labels(self) -> tuple[str, ...]:
        return (self._label,)

    def pcms(self) -> Mapping[str, Any]:
        return {self._label: WINNER}

    def coherent(self, state: State) -> bool:
        if self._label not in state:
            return False
        comp = state[self._label]
        if not isinstance(comp.joint, Heap) or FLAG not in comp.joint:
            return False
        token = WINNER.join(comp.self_, comp.other)
        if not WINNER.valid(token):
            return False
        cell = comp.joint[FLAG]
        if cell is None:
            return token == LIFT_UNIT
        return token != LIFT_UNIT and WINNER.down(token) == cell

    def transitions(self) -> Sequence[Transition]:
        lbl = self._label

        def set_params(state: State):
            if state.joint_of(lbl)[FLAG] is None:
                yield from self._payloads

        def set_requires(state: State, payload: str) -> bool:
            comp = state[lbl]
            return comp.joint[FLAG] is None and comp.self_ == LIFT_UNIT

        def set_effect(state: State, payload: str) -> State:
            def upd(c: SubjState) -> SubjState:
                return SubjState(
                    WINNER.up(payload), c.joint.update(FLAG, payload), c.other
                )

            return state.update(lbl, upd)

        return (Transition(f"{lbl}.set", set_requires, set_effect, set_params),)

    def initial(self) -> SubjState:
        return SubjState(LIFT_UNIT, pts(FLAG, None), LIFT_UNIT)


# -- step 3: atomic actions ----------------------------------------------------------------


class TrySetAction(Action):
    """``CAS(FLAG, None, payload)``: True and the winner token on success."""

    def __init__(self, conc: LatchConcurroid, payload: str):
        super().__init__(conc)
        self._conc = conc
        self._payload = payload
        self.name = f"{conc.label}.try_set[{payload}]"

    def safe(self, state: State) -> bool:
        return self._conc.label in state and FLAG in state.joint_of(self._conc.label)

    def step(self, state: State) -> tuple[bool, State]:
        lbl = self._conc.label
        comp = state[lbl]
        if comp.joint[FLAG] is not None:
            return False, state
        new = SubjState(
            WINNER.up(self._payload),
            comp.joint.update(FLAG, self._payload),
            comp.other,
        )
        return True, state.set(lbl, new)

    def footprint(self, state: State) -> frozenset[Ptr]:
        return frozenset((FLAG,))


class ReadLatchAction(Action):
    """Read the latch; idle."""

    def __init__(self, conc: LatchConcurroid):
        super().__init__(conc)
        self._conc = conc
        self.name = f"{conc.label}.read"

    def safe(self, state: State) -> bool:
        return self._conc.label in state and FLAG in state.joint_of(self._conc.label)

    def step(self, state: State) -> tuple[Any, State]:
        return state.joint_of(self._conc.label)[FLAG], state


# -- steps 4-6: programs, specs, and the discharge --------------------------------------------


def main() -> None:
    conc = LatchConcurroid()
    world = World((conc,))
    init = state_of(lt=conc.initial())

    print("step 1 — PCM laws for the exclusive winner token ...", end=" ")
    assert_pcm_laws(WINNER)
    print("ok")

    print("step 2 — concurroid metatheory over the protocol closure ...", end=" ")
    # One protocol graph, read by every checker below (no sort needed:
    # the closure already lists its states in repr order).
    states = protocol_closure(conc, [init])
    issues = check_concurroid(conc, states)
    assert not issues, issues
    print(f"ok ({len(states)} states)")

    print("step 3 — action obligations (try_set erases to one CAS) ...", end=" ")
    for action in (TrySetAction(conc, "a"), TrySetAction(conc, "b"), ReadLatchAction(conc)):
        issues = check_action(action, states)
        assert not issues, issues
    print("ok")

    print("step 4 — stability: 'I won' and 'it is set' are stable ...", end=" ")
    issues = check_stability(
        lambda s: s.self_of("lt") == WINNER.up("a"), "I set it to a", conc, states
    )
    assert not issues, issues
    issues = check_stability(
        lambda s: s.joint_of("lt")[FLAG] is not None, "latch is set", conc, states
    )
    assert not issues, issues
    # ...whereas "the latch is UNSET" is deliberately unstable:
    broken = check_stability(
        lambda s: s.joint_of("lt")[FLAG] is None, "latch is unset", conc, states
    )
    assert broken, "'unset' must be unstable — anyone may set it"
    print("ok (and 'unset' correctly refuted)")

    print("step 5 — the racing-setters triple, all interleavings ...", end=" ")
    race = par(act(TrySetAction(conc, "a")), act(TrySetAction(conc, "b")))

    def post(r: Any, s2: State, s1: State) -> bool:
        won_a, won_b = r
        if won_a == won_b:
            return False  # exactly one racer wins
        winner_payload = "a" if won_a else "b"
        return (
            s2.joint_of("lt")[FLAG] == winner_payload
            and s2.self_of("lt") == WINNER.up(winner_payload)
        )

    outcomes = check_triple(
        world,
        Spec("latch-race", lambda s: s.joint_of("lt")[FLAG] is None, post),
        [Scenario(init, race, label="a vs b")],
        env_budget=0,
    )
    issues = triple_issues(outcomes)
    assert not issues, issues
    print(f"ok ({outcomes[0].explored} configurations, both winners observed)")

    print("step 6 — under interference, losing is also possible ...", end=" ")
    single = act(TrySetAction(conc, "a"))

    def post_open(r: Any, s2: State, s1: State) -> bool:
        if r:
            return s2.self_of("lt") == WINNER.up("a")
        return s2.joint_of("lt")[FLAG] is not None and s2.self_of("lt") == LIFT_UNIT

    outcomes = check_triple(
        world,
        Spec("latch-open", lambda s: True, post_open),
        [Scenario(init, single, label="try_set vs env")],
        env_budget=1,
    )
    issues = triple_issues(outcomes)
    assert not issues, issues
    print("ok")

    print()
    print("the one-shot latch is fully verified — see docs/TUTORIAL.md for the walkthrough.")


if __name__ == "__main__":
    main()
