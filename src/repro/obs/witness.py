"""Replayable counterexample witnesses.

When a verification obligation fails, the flat issue string says *that*
something broke; the :class:`Witness` says *how*: the full interleaving —
program and environment steps, each annotated with the acting thread's
intermediate ``[self | joint | other]`` view — that drives the model from
the initial state into the violation.  This mirrors what FCSL shows a
proof engineer (the concurroid transition and subjective split that broke
the assertion) and what CHESS-style checkers treat as the primary
artifact: the minimized failing schedule.

A witness has two halves:

* a **serializable schedule** (:class:`WitnessStep` rows): plain strings
  and ints, so the witness survives the engine's worker IPC and the
  ``.repro-cache/`` JSON round-trip byte-identically
  (``to_dict``/``from_dict``);
* optional **live handles** (world, initial state, program, terminal
  check) attached only in the capturing process — what
  :mod:`repro.obs.replay` and :mod:`repro.obs.minimize` need to re-run
  the schedule.  Handles never serialize; a deserialized witness renders
  but does not replay (``repro explain`` re-runs the verifier to
  regenerate live witnesses).

Capture is scoped: :func:`capturing` installs a collector that
``check_triple`` (and the stability checker) report witnesses to, so
``repro explain`` can harvest live witnesses from an ordinary verifier
run without any per-verifier plumbing.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Current serialization layout; bumped on incompatible change.
WITNESS_SCHEMA = 1


@dataclass(frozen=True)
class WitnessStep:
    """One scheduling-visible step of a counterexample interleaving."""

    #: ``act`` (a thread's atomic action), ``env`` (an interference step),
    #: or ``crash`` (the action whose execution itself aborted).
    kind: str
    #: Acting thread id; ``-1`` for environment steps.
    tid: int
    #: Action name (``act``/``crash``) or ``transition(param)`` detail
    #: exactly as the interpreter logs it (``env``) — the replayer keys
    #: environment steps on this string.
    label: str
    #: ``repr`` of the action arguments, in order.
    args: tuple[str, ...] = ()
    #: ``repr`` of the action result (``None`` for env/crash steps).
    result: str | None = None
    #: The acting thread's rendered ``[self | joint | other]`` view after
    #: the step (the environment ghost's view for ``env`` steps).
    view: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "tid": self.tid,
            "label": self.label,
            "args": list(self.args),
            "result": self.result,
            "view": self.view,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WitnessStep":
        return cls(
            kind=str(data["kind"]),
            tid=int(data["tid"]),
            label=str(data["label"]),
            args=tuple(str(a) for a in data.get("args", [])),
            result=data.get("result"),
            view=data.get("view"),
        )


@dataclass
class Witness:
    """A structured, replayable counterexample for one failed check."""

    #: The failing scenario's label (``Scenario.label``).
    scenario: str
    #: Violation kind: ``postcondition``, ``stuck``, ``CrashError``,
    #: ``CoherenceViolation``, ``stability``, ...
    kind: str
    #: The violation message as reported in the obligation's issues.
    message: str
    #: The interleaving, in execution order.
    steps: list[WitnessStep] = field(default_factory=list)
    #: True once :func:`repro.obs.minimize.minimize_witness` confirmed a
    #: shrunken schedule by replay.
    minimized: bool = False
    #: Free-form JSON-safe annotations (original length, replay counts…).
    meta: dict[str, Any] = field(default_factory=dict)

    # -- live handles (capturing process only; never serialized) -----------
    #: The world the scenario ran in.
    world: Any = field(default=None, repr=False, compare=False)
    #: The scenario's initial subjective state.
    init: Any = field(default=None, repr=False, compare=False)
    #: The scenario's program.
    prog: Any = field(default=None, repr=False, compare=False)
    #: ``Config -> str | None`` terminal check (the on_terminal closure);
    #: ``None`` when the violation is not a postcondition failure.
    check: Any = field(default=None, repr=False, compare=False)

    @property
    def replayable(self) -> bool:
        """Whether this witness carries the live handles replay needs."""
        return (
            self.world is not None
            and self.init is not None
            and self.prog is not None
            and not self.meta.get("unreplayable", False)
        )

    def schedule(self) -> list[WitnessStep]:
        """The scheduling choices replay must force (alias for ``steps``)."""
        return list(self.steps)

    def to_dict(self) -> dict[str, Any]:
        """JSON image — round-trips exactly through IPC and the cache."""
        return {
            "schema": WITNESS_SCHEMA,
            "scenario": self.scenario,
            "kind": self.kind,
            "message": self.message,
            "minimized": self.minimized,
            "meta": dict(self.meta),
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Witness":
        return cls(
            scenario=str(data.get("scenario", "")),
            kind=str(data.get("kind", "")),
            message=str(data.get("message", "")),
            minimized=bool(data.get("minimized", False)),
            meta=dict(data.get("meta", {})),
            steps=[WitnessStep.from_dict(s) for s in data.get("steps", [])],
        )


# -- building witnesses from interpreter traces --------------------------------

#: Trace event kinds that are scheduling *choices* (what replay forces);
#: fork/join/hide/done are administrative and re-derived during replay.
_SCHEDULING_KINDS = ("act", "env", "crash")


def steps_from_trace(trace: Any) -> list[WitnessStep]:
    """Project an interpreter :class:`~repro.semantics.trace.Trace` onto
    the scheduling-visible witness steps (views filled in later by a
    confirming replay)."""
    steps: list[WitnessStep] = []
    if trace is None:
        return steps
    for event in trace:
        if event.kind not in _SCHEDULING_KINDS:
            continue
        steps.append(
            WitnessStep(
                kind=event.kind,
                tid=event.tid,
                label=event.detail,
                args=tuple(repr(a) for a in event.args),
                result=None if event.kind == "env" else repr(event.result),
            )
        )
    return steps


def from_violation(
    violation: Any,
    *,
    scenario_label: str = "",
    world: Any = None,
    init: Any = None,
    prog: Any = None,
    check: Any = None,
) -> Witness:
    """Build a witness from an explorer :class:`Violation` and its trace,
    annotating each step's intermediate view by a confirming replay when
    the live handles are available."""
    witness = Witness(
        scenario=scenario_label,
        kind=violation.kind,
        message=violation.message,
        steps=steps_from_trace(violation.trace),
        world=world,
        init=init,
        prog=prog,
        check=check,
    )
    if witness.replayable:
        # Annotate views (and sanity-check determinism) by replaying the
        # captured schedule once.  A replay that diverges — e.g. an
        # ambiguous environment step — downgrades the witness to
        # render-only instead of discarding it.
        from .replay import replay_schedule

        outcome = replay_schedule(witness)
        if outcome.reproduced:
            witness.steps = outcome.annotated or witness.steps
            witness.meta["replay"] = "confirmed"
        else:
            witness.meta["replay"] = "diverged"
            witness.meta["unreplayable"] = True
    return witness


# -- scoped capture ------------------------------------------------------------

_CAPTURED: ContextVar[list[Witness] | None] = ContextVar(
    "repro_obs_witnesses", default=None
)


def record(witness: Witness) -> None:
    """Hand a live witness to the active capture scope (no-op outside one)."""
    sink = _CAPTURED.get()
    if sink is not None:
        sink.append(witness)


@contextmanager
def capturing() -> Iterator[list[Witness]]:
    """Collect every witness captured while the block runs.

    ``repro explain`` wraps a verifier run in this to harvest live,
    replayable witnesses; nesting restores the outer scope on exit.
    """
    sink: list[Witness] = []
    token = _CAPTURED.set(sink)
    try:
        yield sink
    finally:
        _CAPTURED.reset(token)
