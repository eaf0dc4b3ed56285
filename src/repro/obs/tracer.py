"""The span/event tracer: zero-dependency, context-var scoped, no-op off.

Tracing answers "what did the verifier *do*?" — which obligations ran,
what the explorer pruned, where the cache hit — without touching any
verdict.  The design constraints, in order:

1. **Free when off.**  Every instrumentation site guards on
   :func:`current` returning ``None`` (one context-var read), and the
   hot explorer loop hoists that read out of the loop entirely; the
   tracing-off path must stay within 5% of the uninstrumented sweep
   (benchmarks/bench_obs_overhead.py enforces it).
2. **Cross-process.**  The engine's pool workers cannot share the
   parent's tracer object.  :func:`tracing` mirrors itself into the
   ``REPRO_TRACE`` environment variable; a worker that sees the flag
   (and no in-process tracer) collects into a local :class:`Tracer`
   and ships its picklable records back in the result payload, where
   the parent :meth:`Tracer.ingest`\\ s them.  Timestamps are
   ``time.perf_counter()`` microseconds — ``CLOCK_MONOTONIC``, shared
   by every process since boot — so parent and worker records align on
   one timeline.
3. **Plain data.**  A record is a tuple of primitives
   ``(ph, name, cat, ts_us, dur_us, pid, tid, args)`` matching the
   Chrome trace-event phases (``X`` complete span, ``i`` instant,
   ``C`` counter); :mod:`repro.obs.export` turns them into a
   Perfetto-loadable JSON file and a hotspot table with no further
   transformation.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

#: Environment mirror of "a tracer is active": pool workers (any start
#: method) read this to decide whether to collect a local trace.
ENV_TRACE = "REPRO_TRACE"

#: Chrome trace-event phases used by the tracer.
PH_SPAN = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"

#: One record: (phase, name, category, ts_us, dur_us, pid, tid, args).
Record = tuple


class Tracer:
    """An append-only record sink for one tracing session."""

    def __init__(self) -> None:
        self.records: list[Record] = []
        self._lock = threading.Lock()
        self.started_us = time.perf_counter() * 1e6
        #: Creating process — a fork-started pool worker inherits the
        #: parent's context var, but records appended to that *copy* are
        #: lost; workers compare this against their own pid and collect
        #: into a fresh local tracer instead (see engine._UnitWorker).
        self.pid = os.getpid()

    # -- recording -----------------------------------------------------------

    def _add(self, record: Record) -> None:
        with self._lock:
            self.records.append(record)

    def span(
        self,
        name: str,
        cat: str,
        start_us: float,
        end_us: float,
        **args: Any,
    ) -> None:
        """A completed span (Chrome phase ``X``)."""
        self._add(
            (
                PH_SPAN,
                name,
                cat,
                start_us,
                max(0.0, end_us - start_us),
                os.getpid(),
                threading.get_ident() & 0xFFFF,
                args,
            )
        )

    def instant(self, name: str, cat: str = "repro", **args: Any) -> None:
        """A point event (Chrome phase ``i``)."""
        self._add(
            (
                PH_INSTANT,
                name,
                cat,
                time.perf_counter() * 1e6,
                0.0,
                os.getpid(),
                threading.get_ident() & 0xFFFF,
                args,
            )
        )

    def counter(self, name: str, value: float, cat: str = "repro") -> None:
        """A counter sample (Chrome phase ``C``) — a time series in Perfetto."""
        self._add(
            (
                PH_COUNTER,
                name,
                cat,
                time.perf_counter() * 1e6,
                0.0,
                os.getpid(),
                threading.get_ident() & 0xFFFF,
                {name: value},
            )
        )

    def ingest(self, records: list[Record]) -> int:
        """Merge records collected elsewhere (a pool worker's payload).

        Records carry their own pid/tid/timestamps, and perf_counter is
        monotonic machine-wide, so ingestion is a plain extend.
        """
        clean = [tuple(r) for r in records if isinstance(r, (tuple, list)) and len(r) == 8]
        with self._lock:
            self.records.extend(clean)
        return len(clean)


# -- the active tracer ---------------------------------------------------------

_CURRENT: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer", default=None)


def current() -> Tracer | None:
    """The active tracer, or ``None`` (the fast path: tracing is off)."""
    return _CURRENT.get()


def local_session_needed() -> bool:
    """Whether this process should open its *own* collection session: a
    tracing run is active (``REPRO_TRACE``) but the in-context tracer is
    absent or a fork-inherited copy from another process."""
    if not env_enabled():
        return False
    tracer = _CURRENT.get()
    return tracer is None or tracer.pid != os.getpid()


def env_enabled() -> bool:
    """Whether a tracing session is active *somewhere* (worker-side check)."""
    return os.environ.get(ENV_TRACE, "") == "1"


@contextmanager
def tracing(*, mirror_env: bool = True) -> Iterator[Tracer]:
    """Install a fresh :class:`Tracer` for the duration of the block.

    ``mirror_env`` (default) sets ``REPRO_TRACE=1`` so engine pool
    workers — fork or spawn started — know to collect local traces for
    the parent to ingest.  The previous tracer and environment are
    restored on exit, so sessions nest and never leak.
    """
    tracer = Tracer()
    token = _CURRENT.set(tracer)
    previous = os.environ.get(ENV_TRACE)
    if mirror_env:
        os.environ[ENV_TRACE] = "1"
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)
        if mirror_env:
            if previous is None:
                os.environ.pop(ENV_TRACE, None)
            else:
                os.environ[ENV_TRACE] = previous


@contextmanager
def span(name: str, cat: str = "repro", **args: Any) -> Iterator[None]:
    """Time a block as a span; a single context-var read when tracing is off."""
    tracer = _CURRENT.get()
    if tracer is None:
        yield
        return
    start = time.perf_counter() * 1e6
    try:
        yield
    finally:
        tracer.span(name, cat, start, time.perf_counter() * 1e6, **args)


def instant(name: str, cat: str = "repro", **args: Any) -> None:
    """Record a point event iff tracing is on (one context-var read off)."""
    tracer = _CURRENT.get()
    if tracer is not None:
        tracer.instant(name, cat, **args)


def counter(name: str, value: float, cat: str = "repro") -> None:
    """Record a counter sample iff tracing is on."""
    tracer = _CURRENT.get()
    if tracer is not None:
        tracer.counter(name, value, cat)
