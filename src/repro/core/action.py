"""Atomic actions: one physical RMW + a simultaneous auxiliary update.

§2.2.2/§3.4: an atomic action performs a single read-modify-write on the
real heap and, in the same step, an arbitrary change to auxiliary state.
Actions are the bridge between programs and concurroid transitions: each
action must behave like some transition (or like ``idle``).

The metatheory obligations the Coq development proves per action (§3.4)
are checked here by :func:`check_action` over a finite family of coherent
states:

* **erasure** — restricted to the real heap, the step is a single-cell
  RMW within the action's declared footprint, independent of auxiliaries;
* **totality** — wherever ``safe`` holds, the step is defined and lands in
  a coherent state;
* **other-preservation / locality** — the step never touches ``other``
  and its outcome does not depend on ``other`` (frameability);
* **transition correspondence** — the step equals some declared transition
  of the underlying concurroid, or is ``idle``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable

from ..heap import Heap, Ptr
from ..obs import tracer as obs_tracer
from ..pcm.base import PCM
from .concurroid import Concurroid, ProtocolGraph, state_graph
from .errors import MetatheoryViolation
from .state import State


class Action(ABC):
    """An atomic action over the states of a concurroid."""

    #: Diagnostic name (e.g. ``trymark``).
    name: str = "action"

    def __init__(self, concurroid: Concurroid):
        self._concurroid = concurroid

    @property
    def concurroid(self) -> Concurroid:
        return self._concurroid

    @abstractmethod
    def safe(self, state: State, *args: Any) -> bool:
        """The safety precondition: where the action is defined."""

    @abstractmethod
    def step(self, state: State, *args: Any) -> tuple[Any, State]:
        """The atomic step: returns ``(result, post_state)``.

        Deterministic given the state — all nondeterminism in fine-grained
        programs comes from scheduling, not from individual RMWs.
        """

    def footprint(self, state: State, *args: Any) -> frozenset[Ptr]:
        """The physical cells the action may touch (usually one or none)."""
        return frozenset()

    #: Whether the action may extend/shrink the real heap footprint
    #: (e.g. private allocation); plain RMWs leave this False.
    allocates: bool = False

    def __repr__(self) -> str:
        return f"<Action {self.name}>"


@dataclass(frozen=True)
class ActionIssue:
    """One failed per-action metatheory obligation with a witness."""

    action: str
    condition: str
    witness: str

    def __str__(self) -> str:
        return f"{self.action}: {self.condition}: {self.witness}"


def check_action(
    action: Action,
    states: Iterable[State],
    args_family: Iterable[tuple] = ((),),
    *,
    max_issues: int = 10,
) -> list[ActionIssue]:
    """Check every per-action obligation over coherent ``states``.

    Coherence, transition successors, real heaps, the framings locality
    runs on and the PCM joins it compares are read off the state graph
    of the action's concurroid (see
    :func:`~repro.core.concurroid.state_graph`); the framings of a state
    are built once for all of ``args_family``.
    """
    issues: list[ActionIssue] = []
    conc = action.concurroid
    graph = state_graph(conc, states)
    args_family = tuple(args_family)
    labels = conc.labels
    pcms = tuple(conc.pcms().items())
    real_heap = graph.real_heap

    def report(condition: str, witness: str) -> bool:
        issues.append(ActionIssue(action.name, condition, witness))
        return len(issues) >= max_issues

    # One context-var read per call; the span below is emitted at the end.
    tr = obs_tracer.current()
    started = time.perf_counter() if tr is not None else 0.0
    counts = dict(graph.memo_counts) if tr is not None else {}
    built = from_mask = 0
    try:
        for s in graph.states:
            if not graph.coherent(s):
                continue
            heap: Heap | None = None
            framings: list | None = None
            for args in args_family:
                if not action.safe(s, *args):
                    continue
                try:
                    value, s2 = action.step(s, *args)
                except Exception as exc:  # noqa: BLE001 - reported as a finding
                    if report("totality", f"step raised {exc!r} at {s!r} args={args!r}"):
                        return issues
                    continue
                if not graph.coherent(s2):
                    if report("totality", f"incoherent post-state at {s!r} args={args!r}"):
                        return issues
                for lbl in labels:
                    if lbl in s:
                        other2, other = s2.other_of(lbl), s.other_of(lbl)
                        if other2 is not other and other2 != other:
                            if report("other-preservation", f"label {lbl} at {s!r} args={args!r}"):
                                return issues
                if heap is None:
                    heap = real_heap(s)
                if not _erasure_ok(action, heap, real_heap(s2), s, s2, args):
                    if report(
                        "erasure", f"real-heap change outside footprint at {s!r} args={args!r}"
                    ):
                        return issues
                if not _corresponds(graph, s, s2):
                    if report("transition-correspondence", f"{s!r} --{action.name}--> {s2!r}"):
                        return issues
                if framings is None:
                    found = graph.framings(s, pcms)
                    framings = found.coherent
                    built += found.built
                    from_mask += found.from_mask
                if not _local(action, graph, framings, args, value, s2):
                    if report("locality", f"outcome depends on `other` at {s!r} args={args!r}"):
                        return issues
        return issues
    finally:
        if tr is not None:
            tr.span(
                "check_action",
                "core",
                started * 1e6,
                time.perf_counter() * 1e6,
                action=action.name,
                states=len(graph.states),
                framings_built=built,
                framings_from_mask=from_mask,
                **graph.memo_counts_since(counts),
            )


def _erasure_ok(
    action: Action, before: Heap, after: Heap, s: State, s2: State, args: tuple
) -> bool:
    """The real-heap delta must lie within the declared footprint, and a
    non-allocating action must preserve the heap domain (pure RMW).
    ``before`` and ``after`` are the real heaps of ``s`` and ``s2``;
    equal heaps from the graph are one object, so the delta is then
    empty without comparing."""
    if not before.is_valid or not after.is_valid:
        return False
    fp = action.footprint(s, *args)
    if before is after:
        return True
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


def _corresponds(graph: ProtocolGraph, s: State, s2: State) -> bool:
    """``s2`` is ``s`` (idle) or one transition step away."""
    return s2 == s or s2 in graph.successors(s)


def _local(
    action: Action,
    graph: ProtocolGraph,
    framings: list[tuple[str, PCM, Any, State]],
    args: tuple,
    value: Any,
    s2: State,
) -> bool:
    """Frameability (the Separation-Logic frame property, §3.4): running
    the action with a *larger* ``self`` — obtained by pulling a summand
    ``b`` out of ``other`` into ``self``, which fork-join closure keeps
    coherent — must yield the same result value, the same joint effect,
    and a final ``self`` that still carries the frame ``b``.  ``framings``
    are the pre-state's coherent framings
    (:meth:`~repro.core.concurroid.ProtocolGraph.framings`); ``graph``
    joins the expected ``self``."""
    for lbl, pcm, frame, framed in framings:
        if not action.safe(framed, *args):
            continue
        try:
            value_framed, s2_framed = action.step(framed, *args)
        except Exception:  # noqa: BLE001 - totality reports elsewhere
            return False
        if value_framed != value:
            return False
        joint_framed, joint = s2_framed.joint_of(lbl), s2.joint_of(lbl)
        if joint_framed is not joint and joint_framed != joint:
            return False
        expected_self = graph.join(lbl, pcm, s2.self_of(lbl), frame)
        self_framed = s2_framed.self_of(lbl)
        if self_framed is not expected_self and self_framed != expected_self:
            return False
    return True


def assert_action_ok(
    action: Action,
    states: Iterable[State],
    args_family: Iterable[tuple] = ((),),
) -> None:
    """Raise :class:`MetatheoryViolation` when any obligation fails."""
    issues = check_action(action, states, args_family)
    if issues:
        raise MetatheoryViolation("\n".join(str(i) for i in issues))
