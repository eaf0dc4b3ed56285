"""Hoare-style specifications (``STsep`` types, §2.2.3/§3.1).

A :class:`Spec` packages a precondition over the pre-state and a
postcondition over (result, post-state, pre-state-snapshot).  The third
argument plays the role of the paper's logical (ghost) variables ``i`` and
``g1``: any value the postcondition needs from before execution is read
off the snapshot, just as ``span_tp`` relates ``self s2`` to ``self i``
and the post-graph to the pre-graph.

A :class:`Scenario` instantiates a spec's universally-quantified program
inputs on one concrete model: an initial subjective state plus the program
built for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .prog import Prog
from .state import State

Precondition = Callable[[State], bool]
Postcondition = Callable[[Any, State, State], bool]


@dataclass(frozen=True)
class Spec:
    """An ``STsep``-style partial-correctness specification."""

    name: str
    pre: Precondition
    post: Postcondition

    def check_post(self, result: Any, post_state: State, pre_state: State) -> bool:
        return self.post(result, post_state, pre_state)


@dataclass(frozen=True)
class Scenario:
    """One concrete instantiation of a triple: initial state + program."""

    init: State
    prog: Prog
    #: Free-form description (e.g. which graph / which root x).
    label: str = ""
    #: Extra data the postcondition or reporting may want (e.g. ``x``).
    meta: Any = None


@dataclass
class TripleOutcome:
    """The result of checking one scenario of a triple."""

    scenario: Scenario
    issues: list[str] = field(default_factory=list)
    explored: int = 0
    terminals: int = 0
    truncated: int = 0
    #: serialized counterexample witnesses (:mod:`repro.obs.witness`
    #: images) for this scenario's violations, capped per scenario
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues
