"""Stability checking: invariance of assertions under interference.

§2.2.3: "every thread-local assertion about a fine-grained data structure's
state should be *stable*, i.e., invariant under possible concurrent
modifications of the resource", and every spec ascribed in FCSL must be
stable "or else it won't be possible to ascribe it to a program".

The checker explores the closure of a state family under environment
steps (the transposed transitions of the governing concurroid(s)) and
reports every state where a purportedly-stable assertion breaks, together
with the interference path that broke it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .concurroid import Concurroid, state_graph
from .errors import StabilityViolation
from .state import State

Assertion = Callable[[State], bool]


@dataclass(frozen=True)
class StabilityIssue:
    """A counterexample to stability: the assertion held at ``start`` but
    fails at ``broken`` after ``path`` environment steps."""

    assertion: str
    start: State
    broken: State
    path: int

    def __str__(self) -> str:
        return (
            f"assertion {self.assertion!r} unstable: holds at {self.start!r} "
            f"but fails after {self.path} environment step(s) at {self.broken!r}"
        )


def env_closure(
    conc: Concurroid,
    state: State,
    *,
    max_states: int = 5_000,
) -> set[State]:
    """All states reachable from ``state`` by environment steps (incl. it)."""
    seen = {state}
    frontier = deque([state])
    while frontier:
        current = frontier.popleft()
        for succ in conc.env_moves(current):
            if succ not in seen:
                if len(seen) >= max_states:
                    raise StabilityViolation(
                        f"environment closure exceeded {max_states} states; "
                        "shrink the model"
                    )
                seen.add(succ)
                frontier.append(succ)
    return seen


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

    Each such start gets its own BFS (capped at ``max_states``) over the
    environment edges of the state graph (see
    :func:`~repro.core.concurroid.state_graph`); the assertion is
    evaluated at most once per state per call.

    When a static pre-pass is installed (see
    :mod:`repro.analysis.prepass`), it is consulted first: if it proves
    the exploration must find nothing, the BFS is skipped entirely and
    the (identical) empty verdict returned.
    """
    graph = state_graph(conc, states)
    # Function-local import: core must stay cycle-free.
    from .verify import get_prepass, record_prepass_skip

    prepass = get_prepass()
    if prepass is not None:
        try:
            if prepass.discharges(assertion, name, conc, graph):
                # Attribute the skip to the innermost in-flight obligation
                # (scoped, so nested/concurrent obligations stay honest).
                record_prepass_skip(name)
                return []
        except Exception:  # noqa: BLE001 - a broken pre-pass must never fail a proof
            pass

    verdicts: dict[State, bool] = {}

    def holds(s: State) -> bool:
        known = verdicts.get(s)
        if known is None:
            known = verdicts[s] = bool(assertion(s))
        return known

    issues: list[StabilityIssue] = []
    for start in graph.states:
        if not graph.coherent(start) or not holds(start):
            continue
        seen = {start: 0}
        parents: dict[State, State] = {}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for succ in graph.env_successors(current):
                if succ in seen:
                    continue
                if len(seen) >= max_states:
                    raise StabilityViolation(
                        f"stability exploration for {name!r} exceeded {max_states} states"
                    )
                seen[succ] = seen[current] + 1
                parents[succ] = current
                if not holds(succ):
                    issue = StabilityIssue(name, start, succ, seen[succ])
                    issues.append(issue)
                    _record_stability_witness(issue, parents)
                    if len(issues) >= max_issues:
                        return issues
                    continue  # don't explore past a broken state
                frontier.append(succ)
    return issues


def _record_stability_witness(
    issue: StabilityIssue, parents: dict[State, State]
) -> None:
    """Capture the interference path of one stability counterexample as a
    (render-only) witness for the innermost in-flight obligation.

    Stability violations happen in *assertion space*, not under a running
    program, so there is no schedule to replay — the witness is marked
    ``unreplayable`` and carries the env path with each intermediate
    state's rendered view.  Must never change a verdict: all trouble is
    swallowed.
    """
    try:
        from ..obs import witness as obs_witness
        from ..obs.render import render_state
        from .verify import record_witness

        path = [issue.broken]
        while path[-1] in parents:
            path.append(parents[path[-1]])
        path.reverse()  # start .. broken
        steps = [
            obs_witness.WitnessStep(
                kind="env",
                tid=-1,
                label="interference",
                view=render_state(state),
            )
            for state in path[1:]
        ]
        w = obs_witness.Witness(
            scenario=f"stability:{issue.assertion}",
            kind="stability",
            message=str(issue),
            steps=steps,
            meta={
                "unreplayable": True,
                "start": render_state(issue.start),
                "path": issue.path,
            },
        )
        obs_witness.record(w)
        record_witness(w.to_dict())
    except Exception:  # noqa: BLE001 - observability must not fail proofs
        pass


def assert_stable(
    assertion: Assertion,
    name: str,
    conc: Concurroid,
    states: Iterable[State],
    **kwargs,
) -> None:
    """Raise :class:`StabilityViolation` with counterexamples if unstable."""
    issues = check_stability(assertion, name, conc, states, **kwargs)
    if issues:
        raise StabilityViolation("\n".join(str(i) for i in issues))
