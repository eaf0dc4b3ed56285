"""The verifier: obligation plumbing and whole-triple checking.

Verification of a structure in this framework mirrors the proof layout of
an FCSL development (§6, Table 1): obligations fall into the same
categories the paper reports line counts for —

* ``Libs`` — program-specific mathematical lemmas (e.g. graph theory);
* ``Conc`` — concurroid metatheory side conditions;
* ``Acts`` — per-action obligations (erasure, totality, correspondence);
* ``Stab`` — stability of every ascribed assertion;
* ``Main`` — the main triple: every interleaving (with interference)
  from every modelled pre-state is safe and lands in the postcondition.

:class:`ReportBuilder` collects named obligations with their category,
wall time and outcome; the Table 1 bench aggregates these reports.
"""

from __future__ import annotations

import threading
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ..obs import tracer as obs_tracer
from .errors import SpecViolation
from .spec import Scenario, Spec, TripleOutcome
from .world import World

#: The obligation categories of Table 1.
CATEGORIES = ("Libs", "Conc", "Acts", "Stab", "Main")

# -- the verify options -------------------------------------------------------------------
#
# What a verifier run is asked to do beyond its program: the bounded
# livelock detector, the explorer cap scale, the obligation-name filter,
# the static pre-pass and the closure snapshots.  The engine installs one
# VerifyOptions around each work unit's run_verifier call (the filter and
# the snapshots come with the unit, the rest with the sweep);
# ReportBuilder.obligation, check_triple, check_stability and
# protocol_closure read only that install.
# Thread-local, like the plan sink below, and nothing else — no process
# global, no environment — so a verdict depends only on the program and
# the options it was run with.


@dataclass(frozen=True)
class VerifyOptions:
    """The options one verifier run executes under; the defaults are
    liveness off, full explorer caps, no obligation filter and no
    pre-pass."""

    #: Arm the explorer's bounded livelock detector.  Its findings are
    #: recorded as witnesses but never become issues — safety verdicts
    #: are identical with it on or off (tests/test_liveness_equiv.py).
    liveness: bool = False
    #: Multiplies every check_triple's ``max_configs`` budget.  The
    #: resource watchdog (repro.engine.watchdog) sets it below 1 as the
    #: second rung of its degradation ladder; shrunk caps can surface
    #: resource violations a full run would not, so the engine marks any
    #: sweep that reached this rung as degraded (exit 3).
    cap_scale: float = 1.0
    #: Only obligations of these names execute (and are recorded): the
    #: stale set of an incremental unit; the engine splices the cached
    #: results of the rest back in plan order.
    names: frozenset[str] | None = None
    #: The static pre-pass :func:`repro.core.stability.check_stability`
    #: consults before its BFS (``repro.analysis.prepass.StaticPrepass``
    #: in a sweep).  Duck-typed -- anything with ``discharges(assertion,
    #: name, conc, states) -> bool`` -- so core never imports the
    #: analysis package.  It holds no state: the facts it derives live
    #: on the protocol graph they describe.
    prepass: Any = None
    #: The closure snapshots :func:`repro.core.concurroid.protocol_closure`
    #: consults for each closure the verifier's setup builds
    #: (``repro.engine.snapshots.UnitSnapshots`` in a daemon sweep).
    #: Duck-typed -- ``load(conc, initials, max_states) -> bytes | None``
    #: per setup closure, in call order, then ``store(graph) -> int``
    #: (the bytes it stored) after each one it enumerated -- so core
    #: never imports the engine.
    closures: Any = None


_OPTIONS = threading.local()
_DEFAULT_OPTIONS = VerifyOptions()


def current_options() -> VerifyOptions:
    """The options installed on this thread (the defaults when none are)."""
    return getattr(_OPTIONS, "options", _DEFAULT_OPTIONS)


@contextmanager
def options_installed(options: VerifyOptions):
    """Install ``options`` on this thread for the ``with`` body; the
    previous install is restored on exit."""
    previous = current_options()
    _OPTIONS.options = options
    try:
        yield options
    finally:
        _OPTIONS.options = previous


# -- the obligation plan hook -------------------------------------------------------------
#
# The fcsl-deps static analysis needs every obligation's *callable*
# (name, category, fn closure) without paying for its execution: the
# closure is what the dependency walker fingerprints.  With a plan sink
# installed, ReportBuilder.obligation records the triple and returns a
# dummy discharged result instead of running fn — the verifier's setup
# code (worlds, model states, scenarios) still executes, so the
# collected closures capture exactly the objects a real run would.
# Thread-local, like the skip/witness scopes: a collecting thread never
# perturbs a concurrently verifying one.

_PLAN_SINK = threading.local()


class ObligationPlan:
    """One planned obligation: what a verifier *would* run."""

    __slots__ = ("program", "name", "category", "fn")

    def __init__(self, program: str, name: str, category: str, fn):
        self.program = program
        self.name = name
        self.category = category
        self.fn = fn


class ClosurePlan(NamedTuple):
    """One protocol closure a verifier's setup builds: the arguments of
    its :func:`~repro.core.concurroid.protocol_closure` call."""

    conc: Any
    initials: tuple
    max_states: int


def _plan_sink():
    return getattr(_PLAN_SINK, "sink", None)


def _plan_executes() -> bool:
    return getattr(_PLAN_SINK, "execute", False)


def _closure_sink() -> list[ClosurePlan] | None:
    return getattr(_PLAN_SINK, "closures", None)


def setup_closure(conc: Any, initials: tuple, max_states: int) -> Any:
    """Announce one :func:`~repro.core.concurroid.protocol_closure` call.

    A closure the verifier's *setup* builds -- not one an obligation
    builds while it runs -- is recorded in the plan being collected, and
    gets the installed options' closure snapshots, which this returns
    (``None`` for an obligation's closure or when none are installed).
    Only setup closures count, so the i-th one is the same closure in a
    collection run and in a run that executes a subset of the
    obligations."""
    if _frames():
        return None
    sink = _closure_sink()
    if sink is not None:
        sink.append(ClosurePlan(conc, initials, max_states))
    return current_options().closures


def planning_only() -> bool:
    """Whether this thread is collecting a plan without executing it:
    obligations are recorded and never run, so set-up that only closes
    over a protocol closure need not enumerate it (see
    :func:`repro.core.concurroid.protocol_closure`)."""
    return _plan_sink() is not None and not _plan_executes()


class collecting_obligations:
    """Context manager installing a plan sink; iterate the instance (or
    read ``.plan``) for the :class:`ObligationPlan` list collected while
    it was active.

    ``execute=True`` records the plan *and* runs every obligation
    normally (collect-while-verifying): the engine's cold incremental
    work units use it to get the real report and the dependency-walk
    roots out of a single verifier run instead of two.
    """

    def __init__(self, execute: bool = False):
        self.plan: list[ObligationPlan] = []
        #: the setup's protocol closures, in call order (see
        #: :func:`setup_closure`)
        self.closures: list[ClosurePlan] = []
        self._execute = execute

    def __enter__(self) -> "collecting_obligations":
        self._previous = (_plan_sink(), _plan_executes(), _closure_sink())
        _PLAN_SINK.sink = self.plan
        _PLAN_SINK.execute = self._execute
        _PLAN_SINK.closures = self.closures
        return self

    def __exit__(self, *exc) -> None:
        _PLAN_SINK.sink, _PLAN_SINK.execute, _PLAN_SINK.closures = self._previous

    def __iter__(self):
        return iter(self.plan)


# Attribution is scoped, not global: each in-flight obligation pushes one
# frame, and a dynamic checker reports to the *innermost* frame -- the
# sub-obligations it skipped on the pre-pass's word (record_prepass_skip)
# and the counterexample witnesses it captured (record_witness, from
# check_triple and the stability checker).  Counting deltas of a shared
# counter instead would misattribute skips for nested obligations (the
# outer delta spans the inner's skips) and is a data race under threads.
# The stack is thread-local so concurrent builders never see each
# other's frames.  Witnesses are serialized images, so they reach every
# verifier's report with zero per-verifier plumbing and survive engine
# IPC / cache round-trips as plain dicts.
_FRAMES = threading.local()

#: Cap on witnesses attached per obligation: a weakened spec can fail at
#: hundreds of terminals, and each capture costs one confirming replay.
WITNESS_CAP = 3


@dataclass
class _ObligationFrame:
    """What the dynamic checkers report to one in-flight obligation."""

    skips: list[str] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)


def _frames() -> list[_ObligationFrame]:
    stack = getattr(_FRAMES, "stack", None)
    if stack is None:
        stack = _FRAMES.stack = []
    return stack


def record_prepass_skip(name: str) -> None:
    """Attribute one statically discharged sub-obligation to the obligation
    currently being timed (no-op outside any obligation scope)."""
    stack = _frames()
    if stack:
        stack[-1].skips.append(name)


def record_witness(witness: dict) -> None:
    """Attach one serialized counterexample witness to the obligation
    currently being timed (no-op outside any obligation scope)."""
    stack = _frames()
    if stack and len(stack[-1].witnesses) < WITNESS_CAP:
        stack[-1].witnesses.append(witness)


#: Longest traceback recorded on an obligation that raised (the tail is
#: kept: the innermost frames are the ones that name the bug).
MAX_TRACEBACK_CHARS = 4_000


@dataclass
class ObligationResult:
    """One discharged (or failed) proof obligation."""

    name: str
    category: str
    ok: bool
    issues: list[str] = field(default_factory=list)
    seconds: float = 0.0
    #: dynamic sub-obligations skipped because the static pre-pass
    #: proved their outcome empty
    prepass_skips: int = 0
    #: serialized counterexample witnesses (:mod:`repro.obs.witness`
    #: images) captured while this obligation failed — plain dicts, so
    #: they round-trip through worker IPC and the obligation cache
    witnesses: list[dict] = field(default_factory=list)
    #: the (tail-truncated) traceback when the obligation *raised* —
    #: distinguishes an infrastructure bug from a genuine proof failure
    traceback: str | None = None

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.issues)} issue(s))"
        skipped = (
            f" [{self.prepass_skips} statically discharged]"
            if self.prepass_skips
            else ""
        )
        witnessed = f" [{len(self.witnesses)} witness(es)]" if self.witnesses else ""
        return (
            f"[{self.category}] {self.name}: {status} "
            f"({self.seconds:.3f}s){skipped}{witnessed}"
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable image (engine IPC and the obligation cache)."""
        return {
            "name": self.name,
            "category": self.category,
            "ok": self.ok,
            "issues": list(self.issues),
            "seconds": self.seconds,
            "prepass_skips": self.prepass_skips,
            "witnesses": [dict(w) for w in self.witnesses],
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ObligationResult":
        return cls(
            name=str(data["name"]),
            category=str(data["category"]),
            ok=bool(data["ok"]),
            issues=[str(i) for i in data.get("issues", [])],
            seconds=float(data.get("seconds", 0.0)),
            prepass_skips=int(data.get("prepass_skips", 0)),
            witnesses=[dict(w) for w in data.get("witnesses", [])],
            traceback=data.get("traceback"),
        )


@dataclass
class VerificationReport:
    """All obligations of one program's verification."""

    program: str
    obligations: list[ObligationResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.obligations)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.obligations)

    @property
    def prepass_skips(self) -> int:
        """Dynamic obligations skipped via the static pre-pass."""
        return sum(o.prepass_skips for o in self.obligations)

    def by_category(self) -> dict[str, list[ObligationResult]]:
        out: dict[str, list[ObligationResult]] = {c: [] for c in CATEGORIES}
        for o in self.obligations:
            out.setdefault(o.category, []).append(o)
        return out

    def seconds_by_category(self) -> dict[str, float]:
        return {
            cat: sum(o.seconds for o in obs)
            for cat, obs in self.by_category().items()
        }

    def counts_by_category(self) -> dict[str, int]:
        return {cat: len(obs) for cat, obs in self.by_category().items()}

    def failures(self) -> list[ObligationResult]:
        return [o for o in self.obligations if not o.ok]

    def pretty(self) -> str:
        lines = [f"verification report: {self.program}"]
        lines.extend(f"  {o}" for o in self.obligations)
        summary = f"  total: {self.seconds:.3f}s, ok={self.ok}"
        if self.prepass_skips:
            summary += f", {self.prepass_skips} obligation(s) statically discharged"
        lines.append(summary)
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        if not self.ok:
            details = "\n".join(
                f"{o.name}: "
                + "; ".join(o.issues[:3])
                + (f" (+{len(o.issues) - 3} more)" if len(o.issues) > 3 else "")
                for o in self.failures()
            )
            raise SpecViolation(f"verification of {self.program} failed:\n{details}")

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable image; ``from_dict`` round-trips it exactly.

        This is what crosses process boundaries in the parallel engine and
        what the on-disk obligation cache replays on a fingerprint hit.
        """
        return {
            "program": self.program,
            "obligations": [o.to_dict() for o in self.obligations],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "VerificationReport":
        return cls(
            program=str(data["program"]),
            obligations=[
                ObligationResult.from_dict(o) for o in data.get("obligations", [])
            ],
        )


class ReportBuilder:
    """Accumulates obligations into a :class:`VerificationReport`.

    Each obligation is a callable returning a list of issue strings
    (empty = discharged); the builder times it and records the outcome.
    """

    def __init__(self, program: str):
        self._report = VerificationReport(program)

    def obligation(
        self,
        name: str,
        category: str,
        fn: Callable[[], Iterable[object]],
    ) -> ObligationResult:
        if category not in CATEGORIES:
            raise ValueError(f"unknown obligation category {category!r}")
        sink = _plan_sink()
        if sink is not None:
            # Plan collection (fcsl-deps): record the closure.  In
            # execute mode the obligation also runs normally below.
            sink.append(ObligationPlan(self._report.program, name, category, fn))
            if not _plan_executes():
                return ObligationResult(name, category, True, [], 0.0)
        options = current_options()
        if options.names is not None and name not in options.names:
            # Filtered out: its cached result is spliced back in by the
            # engine.  Neither executed nor recorded; the dummy result is
            # returned (not appended) for signature parity.
            return ObligationResult(name, category, True, [], 0.0)
        frame = _ObligationFrame()
        stack = _frames()
        stack.append(frame)
        tb: str | None = None
        started = time.perf_counter()
        try:
            issues = [str(i) for i in fn()]
        except Exception as exc:  # noqa: BLE001 - recorded as a failed obligation
            issues = [f"raised {type(exc).__name__}: {exc}"]
            tb = _traceback.format_exc()[-MAX_TRACEBACK_CHARS:]
        finally:
            stack.pop()
        elapsed = time.perf_counter() - started
        skips = len(frame.skips)
        witnesses = frame.witnesses
        result = ObligationResult(
            name,
            category,
            not issues,
            issues,
            elapsed,
            prepass_skips=skips,
            witnesses=witnesses,
            traceback=tb,
        )
        self._report.obligations.append(result)
        tr = obs_tracer.current()
        if tr is not None:
            tr.span(
                name,
                "obligation",
                started * 1e6,
                (started + elapsed) * 1e6,
                category=category,
                ok=result.ok,
                issues=len(issues),
                prepass_skips=skips,
                witnesses=len(witnesses),
            )
        return result

    def build(self) -> VerificationReport:
        return self._report


def check_triple(
    world: World,
    spec: Spec,
    scenarios: Sequence[Scenario],
    *,
    max_steps: int = 60,
    env_budget: int = 0,
    max_configs: int = 200_000,
) -> list[TripleOutcome]:
    """Check ``spec`` on every scenario by exhaustive schedule exploration.

    For each scenario whose initial state satisfies the precondition, every
    interleaving (with up to ``env_budget`` adversarial interference steps)
    is explored; terminal configurations must satisfy the postcondition
    against the root thread's final subjective view and the initial
    snapshot.

    The installed :class:`VerifyOptions` may turn on the explorer's
    bounded livelock detector (``liveness``, off unless a sweep opted
    in): progress-free act/env lassos land in ``ExplorationResult.cycles``
    and are recorded as replayable witnesses, but never become issues —
    safety verdicts are unchanged by construction.  Its ``cap_scale``
    scales ``max_configs``.
    """
    # Imported here to break the core <-> semantics import cycle.
    from ..semantics.explore import explore
    from ..semantics.interp import initial_config

    options = current_options()
    cap_scale = options.cap_scale
    if cap_scale < 1.0:
        # Watchdog degradation rung 2: shrink the state budget rather
        # than let the kernel OOM-killer end the sweep.  The floor keeps
        # tiny scenarios checkable; the engine flags the sweep degraded.
        max_configs = max(100, int(max_configs * cap_scale))

    outcomes: list[TripleOutcome] = []
    for scenario in scenarios:
        outcome = TripleOutcome(scenario)
        outcomes.append(outcome)
        if not spec.pre(scenario.init):
            outcome.issues.append(
                f"scenario {scenario.label!r}: initial state fails the precondition"
            )
            continue
        try:
            config = initial_config(world, scenario.init, scenario.prog)
        except Exception as exc:  # noqa: BLE001
            outcome.issues.append(f"initialisation failed: {exc}")
            continue

        def on_terminal(terminal, scenario=scenario):
            final_view = terminal.view_for(0)
            if not spec.check_post(terminal.result, final_view, scenario.init):
                return (
                    f"scenario {scenario.label!r}: postcondition fails for "
                    f"result {terminal.result!r} in {final_view!r}"
                )
            return None

        started = time.perf_counter()
        result = explore(
            config,
            max_steps=max_steps,
            env_budget=env_budget,
            max_configs=max_configs,
            on_terminal=on_terminal,
            liveness=options.liveness,
        )
        tr = obs_tracer.current()
        if tr is not None:
            tr.span(
                f"triple:{spec.name}:{scenario.label}",
                "triple",
                started * 1e6,
                time.perf_counter() * 1e6,
                explored=result.explored,
                terminals=len(result.terminals),
                violations=len(result.violations),
                cycles=len(result.cycles),
                truncated=result.truncated,
                env_budget=env_budget,
            )
        outcome.explored = result.explored
        outcome.terminals = len(result.terminals)
        outcome.truncated = result.truncated
        outcome.issues.extend(str(v) for v in result.violations)
        if result.violations:
            _record_witnesses(
                world, scenario, on_terminal, result.violations, max_steps, outcome
            )
        if options.liveness and result.cycles:
            # Livelock lassos are observational: witnessed (capture
            # scope, innermost obligation, the outcome) but never issues
            # — the safety verdict must not depend on the liveness flag.
            _record_witnesses(
                world, scenario, None, result.cycles, max_steps, outcome
            )
    return outcomes


def _record_witnesses(
    world: World,
    scenario: Scenario,
    check: Callable[[Any], str | None] | None,
    violations: Sequence[Any],
    max_steps: int,
    outcome: TripleOutcome,
) -> None:
    """Turn explorer violations into counterexample witnesses.

    Each witness (capped at :data:`WITNESS_CAP` per scenario) is handed
    to the active :func:`repro.obs.witness.capturing` scope live — with
    replay handles — and attached serialized to the innermost obligation
    via :func:`record_witness`.  Witness capture must never change a
    verdict, so any trouble here is swallowed.
    """
    try:
        from ..obs import witness as obs_witness

        for violation in violations[:WITNESS_CAP]:
            if getattr(violation, "trace", None) is None:
                continue
            w = obs_witness.from_violation(
                violation,
                scenario_label=scenario.label,
                world=world,
                init=scenario.init,
                prog=scenario.prog,
                check=check,
            )
            w.meta.setdefault("max_steps", max_steps)
            obs_witness.record(w)
            image = w.to_dict()
            record_witness(image)
            outcome.witnesses.append(image)
    except Exception:  # noqa: BLE001 - observability must not fail verdicts
        pass


def triple_issues(outcomes: Iterable[TripleOutcome]) -> list[str]:
    """Flatten scenario outcomes into an issue list for a ReportBuilder."""
    out: list[str] = []
    for outcome in outcomes:
        out.extend(outcome.issues)
    return out
