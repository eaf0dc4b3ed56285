#!/usr/bin/env python3
"""Quickstart: specify and verify a fine-grained concurrent counter.

This walks the full FCSL-style workflow of the paper (§8's "recurring
pattern") on the smallest possible example:

1. pick a **PCM** for thread contributions  — naturals with addition;
2. define a **concurroid** (protocol STS)   — coherence + transitions;
3. define **atomic actions**                — one RMW + auxiliary update;
4. write the **program** in the monadic DSL — a parallel double increment;
5. state a **subjective spec**              — about `self` only;
6. let the framework discharge every obligation: PCM laws, concurroid
   metatheory, per-action checks, stability, and the triple itself over
   every interleaving with adversarial interference.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

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
from repro.pcm import NatPCM, assert_pcm_laws

CELL = ptr(1)


# -- 2. the concurroid: cell contents == sum of all contributions ----------------


class CounterProtocol(Concurroid):
    """A lock-free counter: anyone may fetch-and-add; coherence ties the
    cell to the PCM-total of every thread's recorded contribution."""

    def __init__(self, label: str = "ct", cap: int = 8):
        self._label = label
        self._cap = cap
        self._pcm = NatPCM(sample_bound=cap + 1)

    @property
    def labels(self) -> tuple[str, ...]:
        return (self._label,)

    def pcms(self) -> Mapping[str, Any]:
        return {self._label: self._pcm}

    def coherent(self, state: State) -> bool:
        if self._label not in state:
            return False
        comp = state[self._label]
        if not isinstance(comp.joint, Heap) or CELL not in comp.joint:
            return False
        total = self._pcm.join(comp.self_, comp.other)
        return self._pcm.valid(total) and comp.joint[CELL] == total

    def transitions(self) -> Sequence[Transition]:
        def requires(state: State, __):
            return state.joint_of(self._label)[CELL] < self._cap

        def effect(state: State, __):
            def upd(c: SubjState) -> SubjState:
                return SubjState(
                    c.self_ + 1, c.joint.update(CELL, c.joint[CELL] + 1), c.other
                )

            return state.update(self._label, upd)

        return (Transition(f"{self._label}.add", requires, effect),)


# -- 3. the atomic action: fetch-and-add erasing to one RMW ----------------------


class FetchAndAdd(Action):
    def __init__(self, conc: CounterProtocol):
        super().__init__(conc)
        self._conc = conc
        self.name = "faa"

    def safe(self, state: State) -> bool:
        lbl = self._conc.label
        return lbl in state and state.joint_of(lbl)[CELL] < self._conc._cap

    def step(self, state: State) -> tuple[int, State]:
        lbl = self._conc.label
        comp = state[lbl]
        old = comp.joint[CELL]
        new = SubjState(comp.self_ + 1, comp.joint.update(CELL, old + 1), comp.other)
        return old, state.set(lbl, new)

    def footprint(self, state: State) -> frozenset[Ptr]:
        return frozenset((CELL,))


def main() -> None:
    conc = CounterProtocol()
    faa = FetchAndAdd(conc)

    # -- 4. the program: two parallel increments -----------------------------------
    prog = par(act(faa), act(faa))

    # -- 5. the subjective spec: talks about MY contribution only ------------------
    spec = Spec(
        "par-faa",
        pre=lambda s: True,
        post=lambda r, s2, s1: s2.self_of("ct") == s1.self_of("ct") + 2,
    )

    def initial(self_n: int, other_n: int) -> State:
        return state_of(ct=SubjState(self_n, pts(CELL, self_n + other_n), other_n))

    # -- 6. discharge everything ----------------------------------------------------
    print("1. PCM laws (nat, +, 0) ...", end=" ")
    assert_pcm_laws(NatPCM())
    print("ok")

    print("2. concurroid metatheory over the protocol closure ...", end=" ")
    states = protocol_closure(conc, [initial(a, b) for a in (0, 1) for b in (0, 1)])
    issues = check_concurroid(conc, states)
    assert not issues, issues
    print(f"ok ({len(states)} states)")

    print("3. action obligations (erasure/totality/correspondence) ...", end=" ")
    issues = check_action(faa, states)
    assert not issues, issues
    print("ok")

    print("4. stability of the spec's assertions ...", end=" ")
    for a in (0, 1, 2):
        issues = check_stability(
            lambda s, a=a: s.self_of("ct") == a, f"self = {a}", conc, states
        )
        assert not issues, issues
    print("ok")

    print("5. the triple, over every interleaving + interference ...", end=" ")
    scenarios = [
        Scenario(initial(a, b), prog, label=f"self={a} other={b}")
        for a in (0, 1)
        for b in (0, 1)
    ]
    outcomes = check_triple(World((conc,)), spec, scenarios, env_budget=2)
    issues = triple_issues(outcomes)
    assert not issues, issues
    explored = sum(o.explored for o in outcomes)
    print(f"ok ({explored} configurations)")

    print()
    print("verified: {self = a} faa || faa {self = a + 2}")
    print("The postcondition mentions only this thread's contribution, so it")
    print("composes under par and is immune to environment increments —")
    print("the subjective specification pattern of the paper (§2.2.1).")


if __name__ == "__main__":
    main()
