"""Schedule exploration: exhaustive, randomized and deterministic runs.

The exhaustive explorer enumerates *every* interleaving of atomic actions
(up to the step bound) and injects *every* environment interference step
(up to the interference budget) between any two of them — the operational
discharge of FCSL's quantification over schedules and environments.
Configurations are memoized on structural position keys, so the search is
over the reachable state *graph* rather than the schedule tree: spin
loops converge instead of diverging (a futile retry reproduces its own
key).  The randomized runner covers larger instances statistically; the
deterministic runner is for demos and sanity tests.

Partial correctness: paths that exceed the step bound are *truncated*, not
failed (they correspond to executions that have not terminated yet), and
the count of truncated paths is reported.

There is one search: a revisit is pruned when an earlier visit to the
same position dominates it, and the memo stores compact visit records,
hash-consing each new thread record and its sections, so resident memory
tracks the *frontier*, not the entire visited graph.  Each step pays
only for what it changed: a position key is the shared state plus one
record per thread, each thread caches its record (clones share it) and
its continuations' fingerprints, and a step rebuilds only the records of
the threads it moved (see
:meth:`~repro.semantics.interp.ThreadCtx.position_record`).  A key that
cannot be built is a bug, and its exception propagates.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import VerificationError
from ..obs import tracer as _obs
from .interp import Config, do_action, env_successors
from .trace import Event, Trace


@dataclass(frozen=True)
class Violation:
    """A failed check with the trace that exhibits it."""

    kind: str
    message: str
    trace: Trace | None = None

    def __str__(self) -> str:
        body = f"[{self.kind}] {self.message}"
        if self.trace is not None and len(self.trace):
            body += "\n  trace:\n    " + "\n    ".join(str(e) for e in self.trace)
        return body


@dataclass
class ExplorationResult:
    """Outcome of exploring (part of) the schedule space."""

    terminals: list[Config] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    explored: int = 0
    truncated: int = 0
    #: Configurations pruned by dedupe (a dominating earlier visit).
    deduped: int = 0
    #: Largest DFS frontier observed (tracked on every push).
    frontier_peak: int = 0
    #: Livelock lassos observed by the bounded liveness detector
    #: (``explore(liveness=True)``): kind-"livelock" violations whose trace
    #: ends with a progress-free cycle.  Deliberately *not* folded into
    #: ``violations``: a livelock candidate is a liveness finding, and the
    #: safety verdict (``ok``) must be identical with the detector on or off.
    cycles: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        body = (
            f"explored={self.explored} terminals={len(self.terminals)} "
            f"truncated={self.truncated} violations={len(self.violations)}"
        )
        if self.cycles:
            body += f" cycles={len(self.cycles)}"
        return body


def explore(
    config: Config,
    *,
    max_steps: int = 60,
    env_budget: int = 0,
    max_configs: int = 200_000,
    on_terminal: Callable[[Config], str | None] | None = None,
    dedupe: bool = True,
    liveness: bool = False,
    _seen: dict[tuple, list[tuple[int, int, Config | None]]] | None = None,
    _anchors: list[Any] | None = None,
) -> ExplorationResult:
    """Exhaustive DFS over schedules (and interference, up to ``env_budget``).

    ``on_terminal`` may return an error message to record a violation at a
    terminal configuration (used for postcondition checking).

    With ``dedupe`` (default) configurations are memoized on their
    :meth:`~repro.semantics.interp.Config.position_key` — shared state plus
    structural fingerprints of every thread's continuation — collapsing the
    schedule *tree* into the reachable state *graph*.  A position is pruned
    when an earlier visit to the same key arrived having spent no more
    interference budget *and* no more steps: everything reachable from the
    new arrival was already reachable from that visit.  Recorded positions
    keep their id-fingerprinted thread records alive via an anchor list so
    fingerprint ids are never recycled; the configurations themselves (and
    their traces) are stored only when ``liveness`` needs them.  An
    exception raised while building a key propagates: a search that
    cannot key a configuration is broken, not merely slower.
    ``dedupe=False`` is the plain tree search, the reference the tests
    and ``bench_ablation_dedupe`` compare the memoized search against.

    ``liveness`` (default off) turns on the bounded livelock detector:
    when a configuration revisits a memoized position key and its trace
    extends an earlier visit's trace by a cycle of act and env events
    with at least one of each — threads stepped, the environment
    interfered, yet the position did not advance — a kind-"livelock"
    :class:`Violation` carrying the full lasso trace is recorded in
    :attr:`ExplorationResult.cycles`.  The detector is purely
    observational: it never changes pruning, so verdicts, terminal sets
    and exploration counts are identical with it on or off
    (tests/test_liveness_equiv.py gates this per registry program).

    ``_seen`` and ``_anchors``, when given, are the caller-owned memo and
    anchor list, so tests can inspect what the memo retains.
    """
    result = ExplorationResult()
    stack: list[tuple[Config, int]] = [(config, 0)]
    #: position key -> recorded (env_used, steps, config-or-None) visits.
    #: The config slot is filled only when liveness trace-extension checks
    #: need it; anchors keep fingerprint ids valid.
    seen: dict[tuple, list[tuple[int, int, Config | None]]] = (
        _seen if _seen is not None else {}
    )
    #: Thread records of every memoized position.  Position keys embed
    #: id()-based fingerprint components of thread programs/continuations;
    #: anchoring the ThreadCtx objects keeps those ids from being recycled
    #: without pinning whole configurations (and their traces).
    anchors: list[Any] = _anchors if _anchors is not None else []
    #: Hash-consing table for position-key sections: records and
    #: shared-state entries repeat across neighbouring keys, so stored
    #: keys share one copy of each.
    intern_table: dict[Any, Any] = {}
    # A single contextvar read up front: per-config work stays free when
    # tracing is off (the span below is emitted once, at the end).
    tr = _obs.current()
    started = time.perf_counter() if tr is not None else 0.0
    env_spent = 0
    result.frontier_peak = len(stack)
    try:
        while stack:
            current, env_used = stack.pop()
            if dedupe:
                pos = current.position_key(intern_table)
                visits = seen.setdefault(pos, [])
                if liveness and visits:
                    # Observe (never prune): a revisit whose trace extends
                    # an earlier visit's is a lasso candidate.
                    _record_lasso(result, visits, current)
                # Prune iff a prior visit dominates: it had at least as much
                # interference budget and step depth remaining.  Spin loops
                # are pruned here too: a futile retry reproduces its own
                # position key at a later step.
                if any(e <= env_used and s <= current.steps for e, s, __ in visits):
                    result.deduped += 1
                    continue
                if liveness:
                    visits.append((env_used, current.steps, current))
                else:
                    visits.append((env_used, current.steps, None))
                    anchors.append(tuple(current.threads.values()))
            if result.explored >= max_configs:
                # Checked *before* counting: the bound means "expand at most
                # max_configs configurations", not max_configs + 1.
                result.violations.append(
                    Violation("resource", f"exceeded max_configs={max_configs}")
                )
                return result
            result.explored += 1
            if current.done:
                result.terminals.append(current)
                if on_terminal is not None:
                    message = on_terminal(current)
                    if message:
                        result.violations.append(Violation("postcondition", message, current.trace))
                continue
            if current.is_stuck():
                result.violations.append(Violation("stuck", "no runnable thread", current.trace))
                continue
            if current.steps >= max_steps:
                result.truncated += 1
                continue
            for tid in sorted(current.runnable_threads()):
                try:
                    stack.append((do_action(current, tid), env_used))
                except VerificationError as exc:
                    result.violations.append(
                        Violation(
                            type(exc).__name__,
                            str(exc),
                            _crash_trace(current, tid),
                        )
                    )
            if env_used < env_budget:
                try:
                    for succ in env_successors(current):
                        stack.append((succ, env_used + 1))
                        env_spent += 1
                except VerificationError as exc:
                    result.violations.append(
                        Violation(type(exc).__name__, str(exc), current.trace)
                    )
            if len(stack) > result.frontier_peak:
                result.frontier_peak = len(stack)
        return result
    finally:
        if tr is not None:
            now = time.perf_counter()
            tr.span(
                "explore",
                "explore",
                started * 1e6,
                now * 1e6,
                explored=result.explored,
                deduped=result.deduped,
                truncated=result.truncated,
                terminals=len(result.terminals),
                violations=len(result.violations),
                frontier_peak=result.frontier_peak,
                env_budget=env_budget,
                env_spent=env_spent,
                cycles=len(result.cycles),
            )


#: Most livelock lassos recorded per exploration.  One is enough to
#: explain and minimize; a handful guards against the first being
#: unreplayable.  The cap bounds both memory (each lasso pins its trace)
#: and the quadratic trace-prefix comparisons at hot revisit sites.
LIVELOCK_CYCLE_CAP = 8


def _record_lasso(
    result: ExplorationResult,
    visits: list[tuple[int, int, Config | None]],
    current: Config,
) -> None:
    """Record a livelock lasso at a revisited position key.

    A lasso is a schedule whose trace extends an earlier visit's trace *at
    the same position* by a segment of only "act" and "env" events
    containing at least one of each: threads kept taking steps, the
    environment kept interfering, and the configuration did not advance.
    A pure act cycle (no env) is a scheduler stutter under zero
    interference — the CAS spin loop converging on its own key — and a
    pure env cycle involves no thread at all; neither is evidence of
    livelock, so both stay silent.
    """
    if len(result.cycles) >= LIVELOCK_CYCLE_CAP:
        return
    events = current.trace.events
    for __, __, earlier in visits:
        prior = earlier.trace.events
        if not len(prior) < len(events) or events[: len(prior)] != prior:
            continue
        segment = events[len(prior) :]
        kinds = {ev.kind for ev in segment}
        if kinds <= {"act", "env"} and "act" in kinds and "env" in kinds:
            acts = sum(1 for ev in segment if ev.kind == "act")
            envs = len(segment) - acts
            result.cycles.append(
                Violation(
                    "livelock",
                    f"schedule revisits its position after {acts} action "
                    f"step(s) and {envs} interference step(s) without "
                    f"progressing",
                    current.trace,
                )
            )
            return


def _crash_trace(config: Config, tid: int) -> Trace:
    """The violation trace for an action that aborted: the history plus a
    synthetic ``crash`` event naming the failing step, so counterexample
    witnesses include the action that crashed in their schedule."""
    pending = config.pending_label(tid)
    if pending is None:  # pragma: no cover - crash implies a pending action
        return config.trace
    name, __ = pending
    th = config.threads[tid]
    return config.trace.append(Event("crash", tid, name, th.current.args))


def run_random(
    config: Config,
    rng: random.Random,
    *,
    max_steps: int = 10_000,
    env_prob: float = 0.0,
    env_budget: int = 0,
) -> tuple[Config | None, list[Violation]]:
    """One random schedule; returns the terminal config (or None if the step
    bound was hit) and any violations encountered along the way."""
    current = config
    env_used = 0
    for __ in range(max_steps):
        if current.done:
            return current, []
        if current.is_stuck():
            return None, [Violation("stuck", "no runnable thread", current.trace)]
        try:
            if env_used < env_budget and rng.random() < env_prob:
                succs = list(env_successors(current))
                if succs:
                    current = rng.choice(succs)
                    env_used += 1
                    continue
            tids = current.runnable_threads()
            current = do_action(current, rng.choice(tids))
        except VerificationError as exc:
            return None, [Violation(type(exc).__name__, str(exc), current.trace)]
    return None, []


def run_deterministic(config: Config, *, max_steps: int = 10_000) -> Config:
    """Run to completion always scheduling the lowest-numbered thread.

    Raises on violations; for demos, quickstarts and sequential sanity runs.
    """
    current = config
    for __ in range(max_steps):
        if current.done:
            return current
        if current.is_stuck():
            raise VerificationError("stuck configuration")
        current = do_action(current, min(current.runnable_threads()))
    raise VerificationError(f"program did not terminate within {max_steps} steps")
