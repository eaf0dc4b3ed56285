"""Per-layer tracing for the benchmark's traced runs.

Spans are recorded by the benchmark, not by the program: :func:`install`
wraps a fixed list of public functions of each layer and rebinds every
``repro.*`` module attribute that bound the same object, so a call made
through an alias (``from ..core.stability import check_stability``) is
recorded too.  Per-state hot paths (``coherent``, action ``step``) are
left alone.

Two properties keep a traced run behaviourally identical to an untraced
one:

* The wrapper is a plain function with the original's ``__module__`` and
  no global names of its own; the only things it closes over are the
  original function and a :class:`Span`, whose class is marked
  ``__deps_opaque__``.  The dependency-cone walker of
  :mod:`repro.analysis.deps` therefore reaches exactly the definitions it
  reaches without tracing, so fingerprints and stale sets do not move.
* Execution is serial (one verifying thread at a time, also in the
  daemon, whose watcher blocks while the dispatch thread verifies), so
  one shared span stack gives the causal nesting.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

#: Span name -> (module, attribute path) of the public function it wraps.
#: Methods are given as ``Class.method``.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.protocol_closure": (("repro.core.concurroid", "protocol_closure"),),
    "core.check_concurroid": (("repro.core.concurroid", "check_concurroid"),),
    "core.check_action": (("repro.core.action", "check_action"),),
    "core.check_stability": (("repro.core.stability", "check_stability"),),
    "core.check_triple": (("repro.core.verify", "check_triple"),),
    "core.obligation": (("repro.core.verify", "ReportBuilder.obligation"),),
    "semantics.explore": (("repro.semantics.explore", "explore"),),
    "analysis.prepass": (("repro.analysis.prepass", "StaticPrepass.discharges"),),
    "engine.program_fingerprint": (
        ("repro.engine.fingerprint", "program_fingerprint"),
    ),
    "engine.build_depgraph": (("repro.engine.depgraph", "build_depgraph"),),
    "engine.cache.load": (
        ("repro.engine.cache", "ObligationCache.load_verified"),
        ("repro.engine.cache", "ObligationCache.load_incremental"),
    ),
    "engine.cache.store": (("repro.engine.cache", "ObligationCache.store"),),
    "engine.journal": tuple(
        ("repro.engine.journal", f"SweepJournal.{m}")
        for m in ("begin", "unit_leased", "unit_done", "finish", "close")
    ),
    "engine.sweep": (("repro.engine.engine", "sweep"),),
    "serve.reload": (("repro.serve.reload", "ModuleTracker.refresh"),),
    "serve.refresh_fingerprints": (
        ("repro.serve.session", "Session.refresh_fingerprints"),
    ),
    "serve.cycle": (("repro.serve.watcher", "Watcher.handle_change"),),
}

CATEGORIES = ("Libs", "Conc", "Acts", "Stab", "Main")


class Recorder:
    """Span statistics of one traced process, keyed by span name."""

    def __init__(self) -> None:
        #: child-time accumulators of the open spans, innermost last
        self.stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.counts: dict[str, float] = {
            "core.protocol_closure.states": 0,
            "semantics.explore.explored": 0,
            "semantics.explore.deduped": 0,
            "analysis.prepass.discharged": 0,
            "engine.cache.load.hits": 0,
            "serve.reload.reloaded": 0,
            **{f"core.obligation.{c}_s": 0.0 for c in CATEGORIES},
        }

    def snapshot(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def _count(name: str, counts: dict[str, float], result: Any) -> None:
    """Work counts read off a wrapped call's own result."""
    if name == "core.protocol_closure":
        counts["core.protocol_closure.states"] += len(result)
    elif name == "semantics.explore":
        counts["semantics.explore.explored"] += result.explored
        counts["semantics.explore.deduped"] += result.deduped
    elif name == "analysis.prepass":
        counts["analysis.prepass.discharged"] += bool(result)
    elif name == "engine.cache.load":
        # load_verified -> (report | None, warning); load_incremental ->
        # (report, fingerprints) | None
        report = result[0] if isinstance(result, tuple) else None
        counts["engine.cache.load.hits"] += report is not None
    elif name == "serve.reload":
        counts["serve.reload.reloaded"] += len(result.reloaded)
    elif name == "core.obligation":
        # filtered-out obligations come back with 0.0 seconds
        counts[f"core.obligation.{result.category}_s"] += result.seconds


class Span:
    """The callable a wrapper closes over: times one call of ``fn``."""

    #: The deps walker treats instances as inert data (see module doc).
    __deps_opaque__ = True
    __slots__ = ("name", "rec")

    def __init__(self, name: str, rec: Recorder) -> None:
        self.name = name
        self.rec = rec

    def __call__(self, fn: Callable, args: tuple, kwargs: dict) -> Any:
        rec = self.rec
        stack = rec.stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += duration
            rec.calls[self.name] += 1
            rec.self_s[self.name] += duration - child
        _count(self.name, rec.counts, result)
        return result


def wrap(fn: Callable, span: Span) -> Callable:
    """A function that calls ``fn`` through ``span``.

    Its code names no globals and its module is ``fn``'s, so the cone
    walker sees ``fn`` (a closure cell) plus one opaque object."""

    def traced(*args: Any, **kwargs: Any) -> Any:
        return span(fn, args, kwargs)

    functools.update_wrapper(traced, fn)
    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every target and rebind its ``repro.*`` aliases; return the
    function that restores the originals.

    Call after the registry is imported: structures modules imported or
    reloaded later pick the wrapper up through their imports.  Targets
    in modules this process has not imported cannot be called and are
    skipped, so tracing imports nothing the untraced run would not."""
    undo: list[tuple[Any, str, Any]] = []
    for name, targets in TARGETS.items():
        span = Span(name, rec)
        for module, path in targets:
            owner: Any = sys.modules.get(module)
            if owner is None:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            traced = wrap(orig, span)
            undo.append((owner, attr, orig))
            setattr(owner, attr, traced)
            if parents:  # a method: the class attribute is the only binding
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def per_call_overhead(reps: int = 5, calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, measured in this process.

    A traced pass cannot be paired with an untraced one of the same
    length cheaply, and host speed drifts by more than the tracing costs
    between two passes; the overhead is instead the wrapper's own cost
    per call (best of ``reps``), which the caller scales by the number
    of wrapped calls."""

    def noop() -> None:
        return None

    traced = wrap(noop, Span("core.check_triple", Recorder()))
    best_bare = best_traced = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        best_bare = min(best_bare, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best_traced = min(best_traced, time.perf_counter() - start)
    return max(0.0, (best_traced - best_bare) / calls)
