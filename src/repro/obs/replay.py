"""Deterministic schedule replay: re-run a witness and confirm it.

A witness schedule is a sequence of *forced* scheduling choices — which
thread acts, which environment transition fires.  The replayer drives
the small-step interpreter through exactly those choices, checking at
each step that the forced thread really is about to run the recorded
action (a schedule that no longer lines up is *inapplicable*, not a
crash), and then completes the run deterministically (lowest runnable
thread, no interference) — the CHESS-style reading of a schedule as a
set of forced preemption points rather than a full interleaving.  The
outcome reports whether the *same violation kind* was reached, which is
the only oracle the delta-debugging minimizer trusts: a shrunken
schedule survives only if its replay still exhibits the violation.

Replay is deterministic by construction: the interpreter is pure (state
is threaded functionally), administrative reduction order is fixed, and
the completion rule picks the lowest thread id — replaying the same
schedule twice yields byte-identical annotated steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .render import render_state
from .witness import Witness, WitnessStep

#: Completion-phase step bound when neither caller nor witness meta says.
DEFAULT_MAX_STEPS = 400


@dataclass
class ReplayOutcome:
    """What replaying one schedule produced."""

    #: True iff the replay reached a violation of the witness's kind.
    reproduced: bool
    #: Violation kind reached (``None``: the run completed cleanly).
    kind: str | None = None
    #: Violation message from this replay.
    message: str | None = None
    #: Forced steps actually executed before the run ended.
    forced: int = 0
    #: The full executed interleaving — forced steps plus deterministic
    #: completion — annotated with results and intermediate views.
    annotated: list[WitnessStep] = field(default_factory=list)
    #: Diagnostic when the schedule did not apply or the run diverged.
    note: str = ""


def _view_after(config: Any, tid: int) -> str | None:
    """The acting thread's rendered view after its step (``None`` when the
    thread was consumed by a join)."""
    try:
        return render_state(config.view_for(tid))
    except Exception:  # noqa: BLE001 - joined-away thread: no view to show
        return None


def _act_event(before: Any, after: Any) -> Any:
    """The ``act`` trace event this step appended (for result extraction)."""
    for event in after.trace.events[len(before.trace.events):]:
        if event.kind == "act":
            return event
    return None


def replay_schedule(
    witness: Witness,
    *,
    max_steps: int | None = None,
) -> ReplayOutcome:
    """Replay ``witness.steps`` from the witness's initial state.

    Requires the witness's live handles (``world``/``init``/``prog``;
    ``check`` for postcondition violations).  Forced ``act`` steps must
    match the recorded action name and arguments; forced ``env`` steps
    select the enabled environment successor whose logged detail equals
    the recorded label.  After the forced prefix the run is completed
    deterministically with no further interference.
    """
    from ..core.errors import VerificationError
    from ..semantics.interp import do_action, env_successors, initial_config

    if witness.world is None or witness.init is None or witness.prog is None:
        return ReplayOutcome(False, note="witness has no live replay handles")
    bound = (
        max_steps
        if max_steps is not None
        else int(witness.meta.get("max_steps", DEFAULT_MAX_STEPS))
    )
    bound = max(bound, len(witness.steps) + 8)

    annotated: list[WitnessStep] = []

    def conclude(kind: str, message: str, forced: int) -> ReplayOutcome:
        return ReplayOutcome(
            reproduced=(kind == witness.kind),
            kind=kind,
            message=message,
            forced=forced,
            annotated=annotated,
        )

    try:
        config = initial_config(witness.world, witness.init, witness.prog)
    except VerificationError as exc:
        return conclude(type(exc).__name__, str(exc), 0)
    except Exception as exc:  # noqa: BLE001 - a broken model is a non-replay
        return ReplayOutcome(False, note=f"initialisation failed: {exc}")

    # A livelock witness replays to a *position revisit*, not a violation:
    # the schedule is reproduced iff, after the forced prefix, the final
    # position equals an earlier one and the steps between are a
    # progress-free act/env cycle.  Positions are recorded after every
    # forced step; configs are kept alive so fingerprint ids stay valid.
    lasso = witness.kind == "livelock"
    positions: list[Any] = []
    _kept: list[Any] = []

    def position_of(cfg: Any) -> Any:
        _kept.append(cfg)
        try:
            return cfg.position_key()
        except Exception:  # noqa: BLE001 - unfingerprintable: never matches
            return object()

    if lasso:
        positions.append(position_of(config))

    # -- the forced prefix -------------------------------------------------
    for index, step in enumerate(witness.steps):
        if step.kind in ("act", "crash"):
            pending = config.pending_label(step.tid)
            if pending is None:
                return ReplayOutcome(
                    False,
                    forced=index,
                    annotated=annotated,
                    note=f"step {index + 1}: t{step.tid} is not at an action",
                )
            name, args = pending
            if name != step.label or args != step.args:
                return ReplayOutcome(
                    False,
                    forced=index,
                    annotated=annotated,
                    note=(
                        f"step {index + 1}: t{step.tid} is at "
                        f"{name}({', '.join(args)}), schedule forces "
                        f"{step.label}({', '.join(step.args)})"
                    ),
                )
            before = config
            try:
                config = do_action(config, step.tid)
            except VerificationError as exc:
                annotated.append(replace(step, kind="crash", result=None, view=None))
                return conclude(type(exc).__name__, str(exc), index + 1)
            event = _act_event(before, config)
            annotated.append(
                replace(
                    step,
                    kind="act",
                    result=repr(event.result) if event is not None else step.result,
                    view=_view_after(config, step.tid),
                )
            )
            if lasso:
                positions.append(position_of(config))
        elif step.kind == "env":
            chosen = None
            try:
                for succ in env_successors(config):
                    if succ.trace.events[-1].detail == step.label:
                        chosen = succ
                        break
            except VerificationError as exc:
                annotated.append(replace(step, view=None))
                return conclude(type(exc).__name__, str(exc), index + 1)
            if chosen is None:
                return ReplayOutcome(
                    False,
                    forced=index,
                    annotated=annotated,
                    note=f"step {index + 1}: env step {step.label!r} is not enabled",
                )
            config = chosen
            annotated.append(replace(step, view=render_state(config.env_view())))
            if lasso:
                positions.append(position_of(config))
        else:
            return ReplayOutcome(
                False,
                forced=index,
                annotated=annotated,
                note=f"step {index + 1}: unknown step kind {step.kind!r}",
            )

    forced = len(witness.steps)

    if lasso:
        # No deterministic completion: the witness's endpoint *is* the
        # revisit.  The cycle criterion mirrors the explorer's detector —
        # at least one thread action and one interference step, nothing
        # else, between two identical positions.
        final = positions[-1]
        for start in range(len(positions) - 1):
            if positions[start] != final:
                continue
            segment = witness.steps[start:]
            kinds = {s.kind for s in segment}
            if kinds <= {"act", "env"} and "act" in kinds and "env" in kinds:
                return conclude(
                    "livelock",
                    f"position after step {start} revisited: the final "
                    f"{len(segment)} step(s) cycle without progress",
                    forced,
                )
        return ReplayOutcome(
            False,
            forced=forced,
            annotated=annotated,
            note="schedule does not revisit a position without progress",
        )

    # -- deterministic completion (no interference) ------------------------
    while not config.done:
        if config.is_stuck():
            return conclude("stuck", "no runnable thread", forced)
        if config.steps >= bound:
            return ReplayOutcome(
                False,
                forced=forced,
                annotated=annotated,
                note=f"completion exceeded {bound} steps",
            )
        tid = min(config.runnable_threads())
        name, args = config.pending_label(tid)
        before = config
        try:
            config = do_action(config, tid)
        except VerificationError as exc:
            annotated.append(WitnessStep("crash", tid, name, args))
            return conclude(type(exc).__name__, str(exc), forced)
        event = _act_event(before, config)
        annotated.append(
            WitnessStep(
                "act",
                tid,
                name,
                args,
                result=repr(event.result) if event is not None else None,
                view=_view_after(config, tid),
            )
        )

    # -- terminal ----------------------------------------------------------
    if witness.check is not None:
        try:
            message = witness.check(config)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a non-replay
            return ReplayOutcome(
                False,
                forced=forced,
                annotated=annotated,
                note=f"terminal check raised: {exc}",
            )
        if message:
            return conclude("postcondition", str(message), forced)
    return ReplayOutcome(
        False,
        kind=None,
        forced=forced,
        annotated=annotated,
        note="run completed without a violation",
    )
