"""The protocol-graph checkers against the checkers they replaced.

``check_concurroid``, ``check_action`` and ``check_stability`` read
successors and coherence off a :class:`~repro.core.concurroid.ProtocolGraph`.
The section below keeps a verbatim copy of the three checkers (and their
private helpers) as they were when each obligation re-derived those
facts itself; the only edit is the absolute import of the pre-pass hook.
Every case asserts that the new checker returns the same ``str(issue)``
list, or raises the same exception, as the copy -- for a closure graph,
for a plain ``repr``-sorted list, and for a graph that was built for a
different concurroid (which the checker must not read).  The families
include one with incoherent framings (so locality reads framing bitmasks
back) and one whose transitions break coherence, ``other`` and footprint
preservation (so Conc enumerates the transitions again).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator, Sequence

import pytest

from repro.core import action as action_mod
from repro.core import concurroid as conc_mod
from repro.core import stability as stability_mod
from repro.core.action import Action, ActionIssue
from repro.core.concurroid import (
    Concurroid,
    MetatheoryIssue,
    ProtocolGraph,
    Transition,
    protocol_closure,
    state_graph,
)
from repro.core.errors import MetatheoryViolation, StabilityViolation
from repro.core.stability import StabilityIssue, _record_stability_witness
from repro.core.state import State, SubjState
from repro.core.verify import collecting_obligations
from repro.heap import Heap, Ptr, pts
from repro.obs import tracer
from repro.pcm.natpcm import NatPCM
from repro.structures.locks.verify import (
    RES_CELL,
    lock_initial_state,
    make_counter_cas_lock,
    make_counter_ticketed_lock,
)

from .helpers import CELL, BumpAction, CounterConcurroid, ReadCounterAction, counter_state

Assertion = Callable[[State], bool]


# -- reference copy: the checkers before the protocol graph ----------------------


def check_concurroid(
    conc: Concurroid,
    states: Iterable[State],
    *,
    max_issues: int = 10,
) -> list[MetatheoryIssue]:
    """Check the FCSL metatheory side conditions over a finite state family.

    For every coherent state and enabled transition the checker verifies:

    * **coherence preservation** — the post-state is coherent;
    * **other preservation** — ``other`` is unchanged at every owned label;
    * **footprint preservation** — heap-valued joints keep their domain
      (when ``conc.preserves_footprint``);

    and for every coherent state, **fork-join closure** — realigning
    ``self``/``other`` (moving a PCM summand across the subjective split)
    stays coherent.
    """
    issues: list[MetatheoryIssue] = []
    name = type(conc).__name__

    def report(condition: str, transition: str, witness: str) -> bool:
        issues.append(MetatheoryIssue(name, condition, transition, witness))
        return len(issues) >= max_issues

    for s in states:
        if not conc.coherent(s):
            continue
        for t in conc.transitions():
            for p, s2 in t.successors(s):
                if not conc.coherent(s2):
                    if report("coherence-preservation", t.name, f"{s!r} --{p!r}--> {s2!r}"):
                        return issues
                for lbl in conc.labels:
                    if lbl in s and s2.other_of(lbl) != s.other_of(lbl):
                        if report("other-preservation", t.name, f"label {lbl} at {s!r}"):
                            return issues
                if conc.preserves_footprint and not _footprint_preserved(conc, s, s2):
                    if report("footprint-preservation", t.name, f"{s!r} --{p!r}--> {s2!r}"):
                        return issues
        for issue_witness in _fork_join_counterexamples(conc, s):
            if report("fork-join-closure", "", issue_witness):
                return issues
    return issues


def _footprint_preserved(conc: Concurroid, s: State, s2: State) -> bool:
    for lbl in conc.labels:
        if lbl not in s or lbl not in s2:
            continue
        j1, j2 = s.joint_of(lbl), s2.joint_of(lbl)
        if isinstance(j1, Heap) and isinstance(j2, Heap) and j1.dom() != j2.dom():
            return False
    return True


def _fork_join_counterexamples(conc: Concurroid, s: State) -> Iterator[str]:
    """Yield witnesses of fork-join closure failures at state ``s``.

    Closure: if ``[a • b | j | o]`` is coherent then so is ``[a | j | b • o]``
    (and symmetrically back).  We check all splits of ``self`` pushed into
    ``other``, and all splits of ``other`` pulled into ``self``.
    """
    pcms = conc.pcms()
    for lbl, pcm in pcms.items():
        if lbl not in s:
            continue
        comp = s[lbl]
        for a, b in pcm.splits(comp.self_):
            realigned = s.set(lbl, SubjState(a, comp.joint, pcm.join(b, comp.other)))
            if not conc.coherent(realigned):
                yield f"label {lbl}: self split ({a!r}, {b!r}) at {s!r}"
        for a, b in pcm.splits(comp.other):
            realigned = s.set(lbl, SubjState(pcm.join(comp.self_, b), comp.joint, a))
            if not conc.coherent(realigned):
                yield f"label {lbl}: other split ({a!r}, {b!r}) at {s!r}"


def check_action(
    action: Action,
    states: Iterable[State],
    args_family: Iterable[tuple] = ((),),
    *,
    max_issues: int = 10,
) -> list[ActionIssue]:
    """Check every per-action obligation over coherent ``states``."""
    issues: list[ActionIssue] = []
    conc = action.concurroid
    args_family = tuple(args_family)

    def report(condition: str, witness: str) -> bool:
        issues.append(ActionIssue(action.name, condition, witness))
        return len(issues) >= max_issues

    for s in states:
        if not conc.coherent(s):
            continue
        for args in args_family:
            if not action.safe(s, *args):
                continue
            try:
                value, s2 = action.step(s, *args)
            except Exception as exc:  # noqa: BLE001 - reported as a finding
                if report("totality", f"step raised {exc!r} at {s!r} args={args!r}"):
                    return issues
                continue
            if not conc.coherent(s2):
                if report("totality", f"incoherent post-state at {s!r} args={args!r}"):
                    return issues
            for lbl in conc.labels:
                if lbl in s and s2.other_of(lbl) != s.other_of(lbl):
                    if report("other-preservation", f"label {lbl} at {s!r} args={args!r}"):
                        return issues
            if not _erasure_ok(action, s, s2, args):
                if report("erasure", f"real-heap change outside footprint at {s!r} args={args!r}"):
                    return issues
            if not _corresponds(action, s, s2):
                if report("transition-correspondence", f"{s!r} --{action.name}--> {s2!r}"):
                    return issues
            if not _local(action, s, args, value, s2):
                if report("locality", f"outcome depends on `other` at {s!r} args={args!r}"):
                    return issues
    return issues


def _erasure_ok(action: Action, s: State, s2: State, args: tuple) -> bool:
    """The real-heap delta must lie within the declared footprint, and a
    non-allocating action must preserve the heap domain (pure RMW)."""
    before = action.concurroid.real_heap(s)
    after = action.concurroid.real_heap(s2)
    if not before.is_valid or not after.is_valid:
        return False
    fp = action.footprint(s, *args)
    if not action.allocates and before.dom() != after.dom():
        return False
    changed = {
        p
        for p in before.dom() | after.dom()
        if before.get(p, _MISSING) != after.get(p, _MISSING)
    }
    return changed <= fp


class _Missing:
    def __repr__(self) -> str:
        return "<absent>"


_MISSING = _Missing()


def _corresponds(action: Action, s: State, s2: State) -> bool:
    """``s2`` is ``s`` (idle) or one transition step away."""
    if s2 == s:
        return True
    for t in action.concurroid.transitions():
        for __, succ in t.successors(s):
            if succ == s2:
                return True
    return False


def _local(action: Action, s: State, args: tuple, value: Any, s2: State) -> bool:
    """Frameability (the Separation-Logic frame property, §3.4): running
    the action with a *larger* ``self`` — obtained by pulling a summand
    ``b`` out of ``other`` into ``self``, which fork-join closure keeps
    coherent — must yield the same result value, the same joint effect,
    and a final ``self`` that still carries the frame ``b``."""
    conc = action.concurroid
    pcms = conc.pcms()
    for lbl, pcm in pcms.items():
        if lbl not in s:
            continue
        comp = s[lbl]
        for frame, rest in list(pcm.splits(comp.other))[:8]:
            if pcm.is_unit(frame):
                continue
            framed = s.set(
                lbl, SubjState(pcm.join(comp.self_, frame), comp.joint, rest)
            )
            if not conc.coherent(framed) or not action.safe(framed, *args):
                continue
            try:
                value_framed, s2_framed = action.step(framed, *args)
            except Exception:  # noqa: BLE001 - totality reports elsewhere
                return False
            if value_framed != value:
                return False
            if s2_framed.joint_of(lbl) != s2.joint_of(lbl):
                return False
            expected_self = pcm.join(s2.self_of(lbl), frame)
            if s2_framed.self_of(lbl) != expected_self:
                return False
    return True


def check_stability(
    assertion: Assertion,
    name: str,
    conc: Concurroid,
    states: Iterable[State],
    *,
    max_states: int = 5_000,
    max_issues: int = 5,
) -> list[StabilityIssue]:
    """Check ``assertion`` stable from every state in ``states`` where it
    holds (and which is coherent).

    When the installed options carry a static pre-pass (see
    :mod:`repro.analysis.prepass`), it is consulted first: if it proves
    the exploration must find nothing, the BFS is skipped entirely and
    the (identical) empty verdict returned.
    """
    states = list(states)  # the pre-pass must not consume a caller's iterator
    # Function-local import: core must stay cycle-free.
    from repro.core.verify import current_options, record_prepass_skip

    prepass = current_options().prepass
    if prepass is not None:
        try:
            if prepass.discharges(assertion, name, conc, states):
                # Attribute the skip to the innermost in-flight obligation
                # (scoped, so nested/concurrent obligations stay honest).
                record_prepass_skip(name)
                return []
        except Exception:  # noqa: BLE001 - a broken pre-pass must never fail a proof
            pass

    issues: list[StabilityIssue] = []
    for start in states:
        if not conc.coherent(start) or not assertion(start):
            continue
        seen = {start: 0}
        parents: dict[State, State] = {}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for succ in conc.env_moves(current):
                if succ in seen:
                    continue
                if len(seen) >= max_states:
                    raise StabilityViolation(
                        f"stability exploration for {name!r} exceeded {max_states} states"
                    )
                seen[succ] = seen[current] + 1
                parents[succ] = current
                if not assertion(succ):
                    issue = StabilityIssue(name, start, succ, seen[succ])
                    issues.append(issue)
                    _record_stability_witness(issue, parents)
                    if len(issues) >= max_issues:
                        return issues
                    continue  # don't explore past a broken state
                frontier.append(succ)
    return issues


# -- fixtures ------------------------------------------------------------------


class Decoy(Concurroid):
    """A concurroid over the same labels whose graph answers differently
    from the real one everywhere: all coherent, no steps at all."""

    def __init__(self, labels: tuple[str, ...]):
        self._labels = labels

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def coherent(self, state: State) -> bool:
        return True

    def transitions(self) -> Sequence[Transition]:
        return ()


def foreign_graph(graph: ProtocolGraph) -> ProtocolGraph:
    """The same states in a graph of a :class:`Decoy`, every table filled."""
    decoy = ProtocolGraph(Decoy(graph.conc.labels), graph.states)
    for s in decoy.states:
        decoy.coherent(s)
        decoy.env_successors(s)
        decoy.successors(s)
    return decoy


class OtherBumpConcurroid(CounterConcurroid):
    """Illegally bumps ``other`` instead of ``self``."""

    def transitions(self) -> Sequence[Transition]:
        lbl = self.label

        def effect(state: State, __: Any) -> State:
            def upd(comp: SubjState) -> SubjState:
                return SubjState(
                    comp.self_,
                    comp.joint.update(CELL, comp.joint[CELL] + 1),
                    comp.other + 1,
                )

            return state.update(lbl, upd)

        return (
            Transition(
                f"{lbl}.bad",
                lambda s, __: s.joint_of(lbl)[CELL] < self._cap,
                effect,
            ),
        )


class DoubleBumpAction(BumpAction):
    """Adds two at once: coherent, but no transition takes that step."""

    def step(self, state: State, *args: Any) -> tuple[int, State]:
        lbl = self._conc.label
        comp = state[lbl]
        value = comp.joint[CELL]
        new = SubjState(comp.self_ + 2, comp.joint.update(CELL, value + 2), comp.other)
        return value, state.set(lbl, new)

    def safe(self, state: State, *args: Any) -> bool:
        return super().safe(state) and state.joint_of(self._conc.label)[CELL] < 2


SPARE = Ptr(8)


class SelfCappedCounter(CounterConcurroid):
    """A counter whose coherence also caps each thread's ``self``, and
    whose bump respects the cap: pulling too much out of ``other`` into
    ``self`` is incoherent, so some framings of a state are coherent and
    some are not."""

    def __init__(self, cap: int = 4, self_cap: int = 2):
        super().__init__(cap=cap)
        self._self_cap = self_cap

    def coherent(self, state: State) -> bool:
        return super().coherent(state) and state.self_of(self.label) <= self._self_cap

    def transitions(self) -> Sequence[Transition]:
        lbl = self.label
        (bump,) = super().transitions()
        return (
            Transition(
                bump.name,
                lambda s, p: bump.requires(s, p) and s.self_of(lbl) < self._self_cap,
                bump.effect,
            ),
        )


class CappedBumpAction(BumpAction):
    """Bump, defined only below the ``self`` cap."""

    def safe(self, state: State, *args: Any) -> bool:
        return super().safe(state) and state.self_of(self._conc.label) < self._conc._self_cap


class ReadOtherAction(ReadCounterAction):
    """Returns ``other``: the outcome depends on the environment, so
    every coherent framing breaks locality."""

    def __init__(self, conc: CounterConcurroid):
        super().__init__(conc)
        self.name = f"{conc.label}.read-other"

    def step(self, state: State, *args: Any) -> tuple[int, State]:
        return state.other_of(self._conc.label), state


class BrokenCounter(CounterConcurroid):
    """The counter plus three transitions that break the metatheory at
    some states only: ``leak`` bumps ``self`` but not the cell
    (coherence), ``steal`` bumps ``other`` (other-preservation) and
    ``grow`` adds a cell to the joint heap (footprint preservation)."""

    def transitions(self) -> Sequence[Transition]:
        lbl = self.label
        (bump,) = super().transitions()

        def cell(state: State) -> int:
            return state.joint_of(lbl)[CELL]

        def leak(state: State, __: Any) -> State:
            return state.update(lbl, lambda c: c.with_self(c.self_ + 1))

        def steal(state: State, __: Any) -> State:
            return state.update(
                lbl,
                lambda c: SubjState(
                    c.self_, c.joint.update(CELL, c.joint[CELL] + 1), c.other + 1
                ),
            )

        def grow(state: State, __: Any) -> State:
            return state.update(lbl, lambda c: c.with_joint(c.joint.join(pts(SPARE, 0))))

        return (
            bump,
            Transition(f"{lbl}.leak", lambda s, __: cell(s) == 1 and s.self_of(lbl) == 0, leak),
            Transition(f"{lbl}.steal", lambda s, __: cell(s) == 2, steal),
            Transition(f"{lbl}.grow", lambda s, __: SPARE not in s.joint_of(lbl), grow),
        )


def _framing_family():
    conc = SelfCappedCounter()
    initials = [counter_state(conc, a, b) for a in range(2) for b in range(3)]
    graph = protocol_closure(conc, initials)
    lbl = conc.label
    actions = [
        (ReadCounterAction(conc), [()]),
        (CappedBumpAction(conc), [()]),
        (ReadOtherAction(conc), [()]),
        (BumpAction(conc), [()]),
    ]
    assertions = [("self <= 1", lambda s: s.self_of(lbl) <= 1)]
    return conc, graph, actions, assertions


def _broken_family():
    conc = BrokenCounter(cap=3)
    graph = protocol_closure(conc, [counter_state(conc), counter_state(conc, 0, 1)])
    lbl = conc.label
    actions = [(BumpAction(conc), [()]), (ReadCounterAction(conc), [()])]
    assertions = [("cell <= 2", lambda s: s.joint_of(lbl)[CELL] <= 2)]
    return conc, graph, actions, assertions


def _counter_family():
    conc = CounterConcurroid(cap=3)
    graph = protocol_closure(conc, [counter_state(conc), counter_state(conc, 1, 1)])
    lbl = conc.label
    actions = [
        (BumpAction(conc), [()]),
        (ReadCounterAction(conc), [()]),
        (DoubleBumpAction(conc), [()]),
    ]
    assertions = [
        ("self >= 1", lambda s: s.self_of(lbl) >= 1),
        ("cell <= 1", lambda s: s.joint_of(lbl)[CELL] <= 1),
        ("other == 0", lambda s: s.other_of(lbl) == 0),
    ]
    return conc, graph, actions, assertions


def _lock_family(lock, actions):
    conc = lock.concurroid
    initials = [lock_initial_state(lock, a, b) for a in range(2) for b in range(2)]
    graph = protocol_closure(conc, initials, max_states=50_000)
    assertions = [
        ("quiescent", lock.quiescent),
        ("holds", lock.holds),
        ("not holds", lambda s: not lock.holds(s)),
        ("self aux = 1", lambda s: lock.client_self(s) == 1),
    ]
    return conc, graph, actions, assertions


def _cas_family():
    lock = make_counter_cas_lock()
    return _lock_family(
        lock,
        [
            (lock.try_acquire_action, [()]),
            (lock.read_action, [(RES_CELL,)]),
            (lock.write_action, [(RES_CELL, 0), (RES_CELL, 2)]),
        ],
    )


def _ticketed_family():
    lock = make_counter_ticketed_lock()
    return _lock_family(
        lock,
        [
            (lock.draw_action, [()]),
            (lock.read_owner_action, [()]),
            (lock.read_action, [(RES_CELL,)]),
            (lock.write_action, [(RES_CELL, 0), (RES_CELL, 2)]),
        ],
    )


def _other_bump_family():
    conc = OtherBumpConcurroid(cap=3)
    graph = protocol_closure(conc, [counter_state(conc)])
    lbl = conc.label
    assertions = [("other == 0", lambda s: s.other_of(lbl) == 0)]
    return conc, graph, [], assertions


FAMILIES = {
    "counter": _counter_family,
    "framing": _framing_family,
    "broken": _broken_family,
    "cas-lock": _cas_family,
    "ticketed-lock": _ticketed_family,
    "other-bump": _other_bump_family,
}

FORMS = {
    "closure-graph": lambda graph: graph,
    "sorted-list": lambda graph: sorted(graph, key=repr),
    "foreign-graph": foreign_graph,
}


def outcome(fn: Callable, *args: Any, **kwargs: Any) -> tuple:
    """What a checker call produced: its issue strings or its exception."""
    try:
        return ("issues", [str(i) for i in fn(*args, **kwargs)])
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc).__name__, str(exc))


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]()


@pytest.fixture(params=sorted(FORMS))
def form(request):
    return FORMS[request.param]


# -- equivalence -----------------------------------------------------------------


class TestMatchesReference:
    def test_concurroid(self, family, form):
        conc, graph, __, ___ = family
        ref_states = sorted(graph, key=repr)
        for max_issues in (10, 3, 1):
            assert outcome(
                conc_mod.check_concurroid, conc, form(graph), max_issues=max_issues
            ) == outcome(check_concurroid, conc, ref_states, max_issues=max_issues)

    def test_actions(self, family, form):
        __, graph, actions, ___ = family
        ref_states = sorted(graph, key=repr)
        for action, args in actions:
            for max_issues in (10, 2):
                assert outcome(
                    action_mod.check_action,
                    action,
                    form(graph),
                    args,
                    max_issues=max_issues,
                ) == outcome(check_action, action, ref_states, args, max_issues=max_issues)

    def test_stability(self, family, form):
        conc, graph, __, assertions = family
        ref_states = sorted(graph, key=repr)
        for name, assertion in assertions:
            for kwargs in ({}, {"max_issues": 2}, {"max_states": 3}):
                assert outcome(
                    stability_mod.check_stability,
                    assertion,
                    name,
                    conc,
                    form(graph),
                    **kwargs,
                ) == outcome(check_stability, assertion, name, conc, ref_states, **kwargs)


class TestCasesAreExercised:
    """The equivalence cases above are only worth something if the
    reference finds issues and raises where they claim to look."""

    def test_other_mutation_found(self):
        conc, graph, __, ___ = _other_bump_family()
        found = check_concurroid(conc, sorted(graph, key=repr))
        assert any(i.condition == "other-preservation" for i in found)

    def test_unmatched_step_found(self):
        __, graph, actions, ___ = _counter_family()
        double = actions[-1][0]
        found = check_action(double, sorted(graph, key=repr))
        assert any(i.condition == "transition-correspondence" for i in found)

    def test_framing_paths_found(self):
        __, graph, actions, ___ = _framing_family()
        states = sorted(graph, key=repr)
        read_other = next(a for a, __ in actions if isinstance(a, ReadOtherAction))
        assert any(i.condition == "locality" for i in check_action(read_other, states))
        bump = next(a for a, __ in actions if type(a) is BumpAction)
        assert any(i.condition == "totality" for i in check_action(bump, states))

    def test_broken_transitions_found(self):
        conc, graph, __, ___ = _broken_family()
        found = check_concurroid(conc, sorted(graph, key=repr), max_issues=1_000)
        assert len(found) > 10
        assert {
            "coherence-preservation",
            "other-preservation",
            "footprint-preservation",
        } <= {i.condition for i in found}

    def test_unstable_truncated_and_capped(self):
        conc, graph, __, assertions = _ticketed_family()
        not_holds = dict(assertions)["not holds"]
        states = sorted(graph, key=repr)
        assert len(check_stability(not_holds, "not holds", conc, states)) == 5
        assert len(check_stability(not_holds, "not holds", conc, states, max_issues=2)) == 2
        with pytest.raises(StabilityViolation):
            check_stability(not_holds, "not holds", conc, states, max_states=3)


# -- the graph itself ----------------------------------------------------------------


class TestProtocolGraph:
    def test_closure_is_a_sorted_state_family(self):
        conc, graph, __, ___ = _counter_family()
        assert isinstance(graph, ProtocolGraph)
        assert list(graph) == sorted(graph.states, key=repr)
        assert len(graph) == len(set(graph.states)) == len(graph.states)
        assert all(s in graph for s in graph)

    def test_state_graph_reuses_only_its_own_concurroid(self):
        conc, graph, __, ___ = _counter_family()
        assert state_graph(conc, graph) is graph
        rebuilt = state_graph(CounterConcurroid(cap=3), graph)
        assert rebuilt is not graph and rebuilt.states == graph.states
        listed = state_graph(conc, list(graph))
        assert listed.conc is conc and listed.states == graph.states

    def test_closure_edges_match_the_concurroid(self):
        conc, graph, __, ___ = _ticketed_family()
        for s in graph.states:
            assert graph.env[s] == tuple(dict.fromkeys(conc.env_moves(s)))
            assert graph.trans[s] == tuple(
                dict.fromkeys(s2 for t in conc.transitions() for __, s2 in t.successors(s))
            )

    def test_closure_span_counts_the_enumeration(self):
        conc = CounterConcurroid(cap=3)
        graph, span = traced(protocol_closure, conc, [counter_state(conc)])
        edges = sum(map(len, graph.env.values())) + sum(map(len, graph.trans.values()))
        assert span["states"] == len(graph) and span["edges"] == edges > 0
        assert span["deferred"] is False


# -- plan collection defers the closure ---------------------------------------------


def _ticketed_initials():
    lock = make_counter_ticketed_lock()
    initials = [lock_initial_state(lock, a, b) for a in range(2) for b in range(2)]
    return lock.concurroid, initials


class TestDeferredClosure:
    """Collecting a plan without executing it runs no obligation, so
    ``protocol_closure`` defers the enumeration to the graph's first use."""

    def test_first_use_enumerates_the_eager_graph(self):
        conc, initials = _ticketed_initials()
        eager = protocol_closure(conc, initials, max_states=50_000)
        with collecting_obligations():
            graph = protocol_closure(conc, iter(initials), max_states=50_000)
            assert isinstance(graph, ProtocolGraph) and graph.conc is conc
            assert set(vars(graph)) == {"conc", "_pending"}
            # introspection of other names enumerates nothing
            assert getattr(graph, "no_such_table", None) is None
            assert set(vars(graph)) == {"conc", "_pending"}
            size, span = traced(len, graph)
        assert size == span["states"] == len(eager) and span["deferred"] is True
        assert type(graph) is ProtocolGraph
        assert graph.states == eager.states
        assert graph.env == eager.env and graph.trans == eager.trans
        assert state_graph(conc, graph) is graph
        assert set(vars(graph)) == TestCanonicalKeys.ATTRIBUTES
        members = {id(s) for s in graph.states}
        assert all(id(s) in members for s in graph.env)
        # the member values were interned as the closure was enumerated
        assert graph.interned == eager.interned
        assert not graph.split_memo and not graph.join_memo
        assert graph.memo_counts == dict.fromkeys(conc_mod.MEMO_COUNTS, 0)
        TestValueMemo.assert_members_interned(graph)

    def test_deferred_tables_are_the_graph_attributes(self):
        eager = protocol_closure(*_ticketed_initials())
        assert conc_mod._DeferredGraph._TABLES == set(vars(eager)) - {"conc"}

    def test_setup_reading_a_deferred_graph_sees_its_states(self):
        conc, initials = _ticketed_initials()
        eager = protocol_closure(conc, initials)
        with collecting_obligations():
            graph = protocol_closure(conc, initials)
            assert list(graph) == list(eager)
            assert all(s in graph for s in eager.states)
            s = eager.states[0]
            assert graph.coherent(s) == conc.coherent(s)
            assert graph.env_successors(s) == eager.env[s]

    def test_overflow_raises_on_first_use_during_collection(self):
        conc = CounterConcurroid(cap=1000)
        with collecting_obligations():
            graph = protocol_closure(conc, [counter_state(conc)], max_states=10)
            with pytest.raises(MetatheoryViolation):
                len(graph)
            with pytest.raises(MetatheoryViolation):
                list(graph)  # still pending: every use raises again
        with collecting_obligations(execute=True):
            with pytest.raises(MetatheoryViolation):
                protocol_closure(conc, [counter_state(conc)], max_states=10)


def traced(fn: Callable, *args: Any, **kwargs: Any) -> tuple[Any, dict]:
    """``fn``'s result and the args of the one span it recorded."""
    with tracer.tracing(mirror_env=False) as tr:
        result = fn(*args, **kwargs)
    (span,) = [r for r in tr.records if r[0] == tracer.PH_SPAN]
    return result, span[-1]


def candidate_mask(conc: Concurroid, s: State) -> int:
    """Which of ``s``'s candidate framings are coherent, from scratch."""
    bits = []
    for lbl, pcm in conc.pcms().items():
        if lbl not in s:
            continue
        comp = s[lbl]
        for frame, rest in list(pcm.splits(comp.other))[:8]:
            if pcm.is_unit(frame):
                continue
            framed = s.set(lbl, SubjState(pcm.join(comp.self_, frame), comp.joint, rest))
            bits.append(conc.coherent(framed))
    return sum(1 << i for i, ok in enumerate(bits) if ok)


class TestFramingMasks:
    def test_later_calls_read_the_masks(self):
        conc, graph, actions, __ = _framing_family()
        ref_states = sorted(graph, key=repr)
        # The family's first action reaches locality at every coherent
        # state, so its first call builds every mask.
        first = True
        for action, args in actions:
            for __ in range(2):
                got, span = traced(action_mod.check_action, action, graph, args)
                assert [str(i) for i in got] == [
                    str(i) for i in check_action(action, ref_states, args)
                ]
                if first:
                    assert span["framings_built"] > 0 and span["framings_from_mask"] == 0
                    first = False
                else:
                    assert span["framings_built"] == 0 and span["framings_from_mask"] > 0
        coherent = [s for s in graph.states if conc.coherent(s)]
        assert graph.framing_masks == {s: candidate_mask(conc, s) for s in coherent}
        masks = set(graph.framing_masks.values())
        assert 0 in masks and len(masks) > 2  # zeros, and partly coherent members

    def test_non_members_are_answered_not_stored(self):
        conc, graph, __, ___ = _framing_family()
        outside = counter_state(conc, 0, 6)
        assert outside not in graph and conc.coherent(outside)
        found = graph.framings(outside)
        assert found.built == 6 and found.from_mask == 0
        assert [f[2] for f in found.coherent] == [1, 2]
        assert not graph.framing_masks
        assert graph.framings(outside) == found

    def test_conc_reenumerates_only_failing_states(self):
        conc, graph, __, ___ = _broken_family()
        ref = check_concurroid(conc, sorted(graph, key=repr), max_issues=1_000)
        got, span = traced(conc_mod.check_concurroid, conc, graph, max_issues=1_000)
        assert [str(i) for i in got] == [str(i) for i in ref]
        coherent = sum(1 for s in graph.states if graph.coherent(s))
        assert 0 < span["reenumerated"] < coherent


class HalfSplitNat(NatPCM):
    """``(nat, +, 0)`` whose ``splits`` lists only ``(a, b)`` with
    ``a >= b``: the mirror ``(b, a)`` of a candidate framing is often
    not a split, so Conc's fork-join pass cannot answer it."""

    def splits(self, x: Any) -> Sequence[tuple[int, int]]:
        return tuple((a, b) for a, b in super().splits(x) if a >= b)


class HalfSplitCounter(CounterConcurroid):
    def __init__(self, cap: int = 4):
        super().__init__(cap=cap)
        self._pcm = HalfSplitNat(sample_bound=cap + 1)


def acts_outcomes(actions, states) -> list[tuple]:
    """Every action's ``check_action`` outcome over ``states``, with and
    without a ``max_issues`` cut."""
    return [
        outcome(action_mod.check_action, action, states, args, max_issues=max_issues)
        for action, args in actions
        for max_issues in (10, 2)
    ]


class TestConcFillsMasks:
    """Conc's fork-join pass stores the framing bitmasks Acts reads."""

    def test_registry_masks_equal_the_candidate_masks(self, registry_closures):
        assert len(registry_closures) >= 7
        filled = set()
        for row, conc, initials, max_states in registry_closures:
            graph = protocol_closure(conc, initials, max_states=max_states)
            issues, span = traced(conc_mod.check_concurroid, conc, graph)
            assert not issues, row
            assert span["framing_masks"] == len(graph.framing_masks), row
            for s, mask in graph.framing_masks.items():
                assert mask == candidate_mask(conc, s), (row, s)
            coherent = sum(1 for s in graph.states if graph.coherent(s))
            if conc.pcms():
                # every split list in the registry is symmetric
                assert len(graph.framing_masks) == coherent, row
                filled.add(row)
        assert "Treiber stack" in filled

    def test_asymmetric_splits_leave_masks_unset(self):
        conc = HalfSplitCounter()
        lbl = conc.label
        initials = [counter_state(conc, a, b) for a in range(2) for b in range(3)]
        graph = protocol_closure(conc, initials)
        actions = [
            (BumpAction(conc), [()]),
            (ReadCounterAction(conc), [()]),
            (ReadOtherAction(conc), [()]),
        ]
        ref_states = sorted(graph, key=repr)
        issues, span = traced(conc_mod.check_concurroid, conc, graph)
        assert [str(i) for i in issues] == [str(i) for i in check_concurroid(conc, ref_states)]
        # only members whose ``other`` has no candidate at all are filled
        assert graph.framing_masks and span["framing_masks"] == len(graph.framing_masks)
        assert all(s.other_of(lbl) == 0 for s in graph.framing_masks)
        assert any(s.other_of(lbl) > 0 and graph.coherent(s) for s in graph.states)
        got = acts_outcomes(actions, graph)
        assert got == [
            outcome(check_action, action, ref_states, args, max_issues=max_issues)
            for action, args in actions
            for max_issues in (10, 2)
        ]
        assert any(o[0] == "issues" and o[1] for o in got)  # locality found some

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_acts_reads_the_same_before_and_after_conc(self, name):
        conc, graph, actions, __ = FAMILIES[name]()
        before = acts_outcomes(actions, ProtocolGraph(conc, graph.states))
        conc_mod.check_concurroid(conc, graph)
        assert acts_outcomes(actions, graph) == before
        listed = list(graph.states)
        conc_mod.check_concurroid(conc, listed)
        assert acts_outcomes(actions, listed) == before

    def test_a_pass_cut_at_max_issues_stores_no_mask_from_there(self):
        conc, graph, __, ___ = _framing_family()
        full = ProtocolGraph(conc, graph.states)
        assert len(conc_mod.check_concurroid(conc, full)) > 1
        # every member is coherent, and the pass stored every mask
        assert set(full.framing_masks) == set(graph.states)
        (issue,) = conc_mod.check_concurroid(conc, graph, max_issues=1)
        assert issue.condition == "fork-join-closure"
        cut = next(i for i, s in enumerate(graph.states) if issue.witness.endswith(f" at {s!r}"))
        assert 0 < cut < len(graph.states) - 1
        assert set(graph.framing_masks) == set(graph.states[:cut])


class OffFootprintBump(BumpAction):
    """Bump that declares no footprint although it writes the cell."""

    def footprint(self, state: State, *args: Any) -> frozenset[Ptr]:
        return frozenset()


class TestRealHeaps:
    def test_members_share_one_heap_per_value(self):
        conc, graph, actions, assertions = _ticketed_family()
        run_all_checkers(conc, graph, actions, assertions)
        heaps = graph.real_heaps
        assert heaps and set(heaps) <= set(graph.states)
        for s, heap in heaps.items():
            assert heap == conc.real_heap(s)
            assert graph.interned[(None, heap)] is heap
        assert len({id(h) for h in heaps.values()}) == len(set(heaps.values())) < len(heaps)

    def test_each_member_heap_is_built_once(self):
        __, graph, actions, ___ = _cas_family()
        spans = [traced(action_mod.check_action, a, graph, args)[1] for a, args in actions]
        assert sum(span["real_heaps_built"] for span in spans) == len(graph.real_heaps) > 0
        assert spans[0]["real_heaps_built"] > 0

    def test_a_write_outside_the_footprint_is_an_erasure_issue(self):
        conc, graph, __, ___ = _counter_family()
        action = OffFootprintBump(conc)
        conc_mod.check_concurroid(conc, graph)
        found = action_mod.check_action(action, graph, max_issues=1_000)
        assert any(i.condition == "erasure" for i in found)
        ref = check_action(action, sorted(graph, key=repr), max_issues=1_000)
        assert [str(i) for i in found] == [str(i) for i in ref]
        # both heaps of every step came from the table
        for s in graph.states:
            if graph.coherent(s) and action.safe(s):
                __, s2 = action.step(s)
                assert s in graph.real_heaps and s2 in graph.real_heaps


class TestCanonicalKeys:
    """Memory regression: the graph must pin no state beyond its members.
    Keying a memo by the first *equal* fresh state a query brings keeps
    that duplicate alive for as long as the graph lives."""

    #: The graph's attributes: states, members, the edge tables, the
    #: coherence memo, the framing masks, the real heaps, the
    #: value-keyed intern table, split and join memos, framing
    #: candidates and the memo counts, and nothing else.
    ATTRIBUTES = {
        "conc",
        "states",
        "_members",
        "env",
        "trans",
        "coherence",
        "env_verdict",
        "framing_masks",
        "real_heaps",
        "interned",
        "split_memo",
        "join_memo",
        "framing_candidates",
        "memo_counts",
    }
    #: the value-keyed tables, which must hold no state at all
    VALUE_TABLES = ("interned", "split_memo", "join_memo", "framing_candidates", "memo_counts")

    @classmethod
    def assert_canonical(cls, graph: ProtocolGraph, *, acts: bool = False) -> None:
        """``acts``: the tables Acts fills (framing masks, real heaps)
        are filled too."""
        assert set(vars(graph)) == cls.ATTRIBUTES
        members = {id(s) for s in graph.states}
        tables = [graph.env, graph.trans, graph.coherence]
        if acts:
            tables += [graph.framing_masks, graph.real_heaps]
        for table in tables:
            assert table
            assert all(id(key) in members for key in table)
        for table in (graph.env, graph.trans):
            for succs in table.values():
                assert all(id(s) in members for s in succs)
        # one int per member, and nothing that could hold a state
        assert all(type(mask) is int for mask in graph.framing_masks.values())
        assert all(type(heap) is Heap for heap in graph.real_heaps.values())
        for name in cls.VALUE_TABLES:
            assert not _holds_state(getattr(graph, name)), name

    def test_after_all_checkers(self):
        self.run_all_checkers(*_ticketed_family())

    def test_after_all_checkers_with_incoherent_framings(self):
        self.run_all_checkers(*_framing_family())

    def run_all_checkers(self, conc, graph, actions, assertions):
        run_all_checkers(conc, graph, actions, assertions)
        # framed states that are not members were queried, but not stored
        assert len(graph.coherence) == len(graph.states)
        assert len(graph.framing_masks) <= len(graph.states)
        assert graph.split_memo and graph.join_memo
        assert len(graph.real_heaps) <= len(graph.states)
        self.assert_canonical(graph, acts=True)

    def test_equal_fresh_queries_store_the_member(self):
        conc, closure, __, ___ = _counter_family()
        graph = ProtocolGraph(conc, closure.states)
        for s in graph.states:
            fresh = s.transpose().transpose()
            assert fresh == s and fresh is not s
            graph.coherent(fresh)
            graph.env_successors(fresh)
            graph.successors(fresh)
            graph.framings(fresh)
            graph.real_heap(fresh)
        self.assert_canonical(graph, acts=True)

    def test_non_members_are_not_stored(self):
        conc, graph, __, ___ = _counter_family()
        outside = counter_state(conc, 9, 9)
        assert outside not in graph
        tables = (graph.env, graph.trans, graph.coherence, graph.framing_masks, graph.real_heaps)
        before = [len(table) for table in tables]
        graph.coherent(outside)
        graph.env_successors(outside)
        graph.successors(outside)
        graph.framings(outside)
        interned = len(graph.interned)
        assert graph.real_heap(outside) == conc.real_heap(outside)
        assert [len(table) for table in tables] == before
        assert len(graph.interned) == interned


def run_all_checkers(conc, graph, actions, assertions) -> None:
    conc_mod.check_concurroid(conc, graph)
    for action, args in actions:
        action_mod.check_action(action, graph, args)
    for name, assertion in assertions:
        stability_mod.check_stability(assertion, name, conc, graph)


def _holds_state(obj: Any) -> bool:
    """Whether ``obj`` is, or (through dicts and tuples) holds, a state."""
    if isinstance(obj, (State, SubjState)):
        return True
    if isinstance(obj, dict):
        return any(_holds_state(k) or _holds_state(v) for k, v in obj.items())
    if isinstance(obj, tuple):
        return any(_holds_state(item) for item in obj)
    return False


class TestValueMemo:
    """Splits and joins are computed once per distinct value, held by
    the graph alone, and reported in the checkers' spans."""

    @staticmethod
    def assert_members_interned(graph: ProtocolGraph) -> None:
        """Every member value is the graph's one copy of it."""
        for s in graph.states:
            for lbl, comp in s.items():
                for value in (comp.self_, comp.joint, comp.other):
                    assert graph.interned[(lbl, value)] is value

    def test_members_share_interned_values(self):
        conc, graph, actions, assertions = _ticketed_family()
        self.assert_members_interned(graph)
        run_all_checkers(conc, graph, actions, assertions)
        self.assert_members_interned(graph)
        # every split piece and join result is interned too
        for (lbl, __), pieces in graph.split_memo.items():
            for a, b in pieces:
                assert graph.interned[(lbl, a)] is a and graph.interned[(lbl, b)] is b
        for (lbl, __, ___), joined in graph.join_memo.items():
            assert graph.interned[(lbl, joined)] is joined

    def test_memo_answers_equal_the_pcm(self):
        conc, graph, actions, assertions = _ticketed_family()
        run_all_checkers(conc, graph, actions, assertions)
        pcms = conc.pcms()
        for (lbl, value), pieces in graph.split_memo.items():
            assert pieces == tuple(pcms[lbl].splits(value))
        for (lbl, a, b), joined in graph.join_memo.items():
            assert joined == pcms[lbl].join(a, b)

    def test_spans_count_built_and_reused(self):
        conc, graph, actions, __ = _ticketed_family()
        first, span = traced(conc_mod.check_concurroid, conc, graph)
        assert span["splits_built"] == len(graph.split_memo) > 0
        assert span["joins_built"] == len(graph.join_memo) > 0
        assert span["splits_reused"] > span["splits_built"]
        assert span["joins_reused"] > span["joins_built"]
        assert graph.memo_counts == {name: span[name] for name in conc_mod.MEMO_COUNTS}
        again, span = traced(conc_mod.check_concurroid, conc, graph)
        assert [str(i) for i in again] == [str(i) for i in first]
        assert span["splits_built"] == span["joins_built"] == 0
        assert span["splits_reused"] > 0 and span["joins_reused"] > 0
        action, args = actions[0]
        __, span = traced(action_mod.check_action, action, graph, args)
        assert set(conc_mod.MEMO_COUNTS) <= set(span)
        # Conc stored every mask Acts reads
        assert span["framings_built"] == 0 and span["framings_from_mask"] > 0

    def test_graphs_share_no_table_and_die_with_the_graph(self):
        import gc
        import weakref

        conc, initials = _ticketed_initials()
        first, second = (protocol_closure(conc, initials) for __ in range(2))
        for graph in (first, second):
            conc_mod.check_concurroid(conc, graph)
            assert graph.split_memo and graph.join_memo
            for name in TestCanonicalKeys.VALUE_TABLES:
                # held by the graph alone: no PCM instance, concurroid or
                # module global reaches a table
                assert _held_only_by(getattr(graph, name), graph)
        for name in TestCanonicalKeys.VALUE_TABLES:
            assert getattr(first, name) is not getattr(second, name)
        dead = weakref.ref(second)
        del graph, second
        gc.collect()
        assert dead() is None and first.split_memo


def _held_only_by(table: dict, graph: ProtocolGraph) -> bool:
    import gc

    holders = gc.get_referrers(table)
    return bool(holders) and all(h is graph or h is vars(graph) for h in holders)


# -- the closure's source memo -----------------------------------------------------


def reference_closure(conc: Concurroid, initials: Iterable[State], max_states: int = 20_000):
    """The closure as it was enumerated before the source memo: every
    transition and every environment move runs on every member, each new
    member's values are interned, and the members are sorted by ``repr``.
    Returns ``(states, trans, env, interned)``."""
    interned: dict = {}

    def intern_state(state: State) -> State:
        parts = {}
        for lbl, comp in state.items():
            parts[lbl] = SubjState(
                *(interned.setdefault((lbl, v), v) for v in (comp.self_, comp.joint, comp.other))
            )
        return State(parts)

    seen: dict[State, State] = {}
    frontier: deque[State] = deque()
    for s in initials:
        if s not in seen:
            s = intern_state(s)
            seen[s] = s
            frontier.append(s)
    trans: dict[State, tuple[State, ...]] = {}
    env: dict[State, tuple[State, ...]] = {}
    while frontier:
        current = frontier.popleft()
        steps = [s2 for t in conc.transitions() for __, s2 in t.successors(current)]
        moves = list(conc.env_moves(current))
        for succ in steps + moves:
            if succ not in seen:
                if len(seen) >= max_states:
                    raise MetatheoryViolation(
                        f"protocol closure exceeded {max_states} states; shrink the model"
                    )
                succ = intern_state(succ)
                seen[succ] = succ
                frontier.append(succ)
        trans[current] = tuple(seen[s2] for s2 in dict.fromkeys(steps))
        env[current] = tuple(seen[s2] for s2 in dict.fromkeys(moves))
    return sorted(seen, key=repr), trans, env, interned


def assert_matches_reference(graph: ProtocolGraph, reference) -> None:
    states, trans, env, interned = reference
    assert [repr(s) for s in graph.states] == [repr(s) for s in states]
    assert graph.states == tuple(states)
    assert graph.trans == trans and graph.env == env
    assert graph.interned == interned


@pytest.fixture(scope="module")
def registry_closures():
    """``(row, conc, initials, max_states)`` per protocol closure the
    paper's registry rows build, collected without enumerating any."""
    from repro.structures.registry import all_programs

    pending = []
    init = conc_mod._DeferredGraph.__init__

    def collect(self, conc, initials, max_states):
        init(self, conc, initials, max_states)
        pending.append((row, conc, initials, max_states))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conc_mod._DeferredGraph, "__init__", collect)
        for info in all_programs():
            row = info.name
            with collecting_obligations():
                info.run_verifier()
    return pending


class Peeker(Concurroid):
    """Owns ``label``, a count its one transition raises by 1 plus what
    ``peek`` reads off the *foreign* label ``b``."""

    PEEKS: dict[str, Callable[[State], int]] = {
        "in": lambda s: int("b" in s),
        "[]": lambda s: s["b"].self_ % 2,
        "self_of": lambda s: s.self_of("b") % 2,
        "joint_of": lambda s: s.joint_of("b") % 2,
        "other_of": lambda s: s.other_of("b") % 2,
    }

    def __init__(self, accessor: str, *, label: str = "a", cap: int = 4, boom_at: int = -1):
        self._label = label
        self._peek = self.PEEKS[accessor]
        self._cap = cap
        self._boom_at = boom_at

    @property
    def labels(self) -> tuple[str, ...]:
        return (self._label,)

    def coherent(self, state: State) -> bool:
        return True

    def transitions(self) -> Sequence[Transition]:
        lbl = self._label

        def effect(state: State, __: Any) -> State:
            n = state.self_of(lbl) + 1 + self._peek(state)
            if n == self._boom_at:
                raise ValueError(f"boom at {state!r}")
            return state.set(lbl, SubjState(n, 0, 0))

        return (Transition(f"{lbl}.peek", lambda s, __: s.self_of(lbl) < self._cap, effect),)


class Bumper(Concurroid):
    """Owns ``label``; each transition sets one of its three values from 0 to 1."""

    def __init__(self, label: str):
        self._label = label

    @property
    def labels(self) -> tuple[str, ...]:
        return (self._label,)

    def coherent(self, state: State) -> bool:
        return True

    def transitions(self) -> Sequence[Transition]:
        lbl = self._label

        def bump(field: str) -> Transition:
            def requires(state: State, __: Any) -> bool:
                return lbl in state and getattr(state[lbl], field) < 1

            def effect(state: State, __: Any) -> State:
                comp = state[lbl]
                values = {"self_": comp.self_, "joint": comp.joint, "other": comp.other}
                values[field] += 1
                return state.set(lbl, SubjState(values["self_"], values["joint"], values["other"]))

            return Transition(f"{lbl}.{field}", requires, effect)

        return tuple(bump(field) for field in ("self_", "joint", "other"))


def peeker_closure_inputs(accessor: str, **kwargs: Any):
    """An entangled ``a``/``b``/``c`` concurroid whose ``a`` part peeks
    at ``b``, and its initial states: one without ``b`` when the peek is
    a membership test."""
    from repro.core.entangle import entangle

    conc = entangle(Peeker(accessor, **kwargs), Bumper("b"), Bumper("c"))
    zero = SubjState(0, 0, 0)
    initials = [State({"a": zero, "b": zero, "c": zero})]
    if accessor == "in":
        initials.append(State({"a": zero, "c": zero}))
    return conc, initials


class TestSourceMemo:
    """``protocol_closure`` runs each successor source once per distinct
    tuple of the components it reads and replays it elsewhere; the graph
    must be the one a plain enumeration builds."""

    def test_registry_closures_match_the_reference(self, registry_closures):
        assert len(registry_closures) >= 7
        replayed = set()
        for row, conc, initials, max_states in registry_closures:
            graph, span = traced(protocol_closure, conc, initials, max_states=max_states)
            assert_matches_reference(graph, reference_closure(conc, initials, max_states))
            assert span["sources_run"] + span["sources_replayed"] == len(graph) * (
                len(conc.step_sources()) + len(conc.env_sources())
            ), row
            if span["sources_replayed"]:
                replayed.add(row)
            if len(conc.labels) == 1:
                # every source reads the concurroid's one label
                assert span["sources_replayed"] == 0, row
        assert {"CG allocator", "Treiber stack"} <= replayed

    def test_members_share_one_component_object(self, registry_closures):
        row, conc, initials, max_states = next(
            c for c in registry_closures if c[0] == "Treiber stack"
        )
        graph = protocol_closure(conc, initials, max_states=max_states)
        shared: dict = {}
        for s in graph.states:
            for lbl, comp in s.items():
                assert shared.setdefault((lbl, comp), comp) is comp
        assert len(shared) < len(graph) * len(conc.labels) / 10

    @pytest.mark.parametrize("accessor", sorted(Peeker.PEEKS))
    def test_a_part_reading_a_foreign_label(self, accessor):
        conc, initials = peeker_closure_inputs(accessor)
        graph, span = traced(protocol_closure, conc, initials)
        assert_matches_reference(graph, reference_closure(conc, initials))
        assert span["sources_replayed"] > 0
        # members the foreign read tells apart though they agree on "a"
        peek = Peeker.PEEKS[accessor]
        by_a: dict = {}
        for s in graph.states:
            by_a.setdefault(s["a"], set()).add(peek(s))
        assert any(len(peeks) > 1 for peeks in by_a.values())

    def test_a_raising_transition_raises_as_the_reference_does(self):
        conc, initials = peeker_closure_inputs("self_of", boom_at=3)
        expected = outcome(reference_closure, conc, initials)
        assert expected[0] == "raised" and expected[1] == "ValueError"
        assert outcome(protocol_closure, conc, initials) == expected

    def test_whole_state_reads_run_the_source_directly(self):
        class Snooper(Peeker):
            """Adds a transition that iterates the whole state."""

            def transitions(self) -> Sequence[Transition]:
                (t,) = super().transitions()
                # its parameter counts the labels, iterating the state
                snoop = Transition("a.snoop", t.requires, t.effect, lambda s: [len(list(s))])
                return (t, snoop)

        from repro.core.entangle import entangle

        conc = entangle(Snooper("self_of"), Bumper("b"), Bumper("c"))
        zero = SubjState(0, 0, 0)
        initials = [State({"a": zero, "b": zero, "c": zero})]
        graph, span = traced(protocol_closure, conc, initials)
        assert_matches_reference(graph, reference_closure(conc, initials))
        assert span["sources_run"] >= len(graph)  # the snoop ran on every member
        assert span["sources_replayed"] > 0
