"""Deterministic fault injection for the verification engine (chaos harness).

The supervisor (:mod:`repro.engine.supervisor`) claims to survive worker
crashes, hangs, stray exceptions and torn cache writes.  Claims about
failure handling are worthless untested, and real faults are neither
deterministic nor cheap to produce — so this module provides an
*injection plan*: a set of :class:`FaultSpec` triggers, each naming a
registry program, a fault kind and the attempt on which it fires.

Kinds
-----

``crash``
    The worker process hard-exits (``os._exit``) — models an OOM kill or
    a segfault.  No cleanup, no exception, no result: the supervisor
    must *notice* the death.
``hang``
    The worker sleeps far past any sane per-program timeout — models a
    diverging verifier.  Only the supervisor's timeout can end it.
``raise``
    An :class:`InjectedFault` is raised *outside* the worker's
    exception capture, so it crosses the pool boundary as a pickled
    exception — models harness bugs rather than verifier bugs.
``torn``
    The next cache write for the program is cut short halfway — models
    a crash mid-``write``.  The resulting entry must be unreadable
    (a recomputation), never a verdict.
``corrupt``
    The next cache entry stored for the program is silently byte-flipped
    *after* the atomic replace — models bit rot / a misbehaving disk.
    The entry must fail its checksum on load, be quarantined to
    ``corrupt/`` and recomputed, never replayed as a verdict.
``diskfull``
    The next journal append (and the next cache store) for the program
    raises ``OSError(ENOSPC)`` — models a full disk.  Journaling and
    caching degrade with a warning; the sweep itself must survive.
``sigkill``
    The *sweep process* SIGKILLs itself right after the program's
    ``unit:done`` journal record is appended — models a hard crash
    (kill -9, OOM, power loss) at a deterministic point.  The journal
    on disk must make the sweep resumable.
``conndrop``
    The serve daemon (:mod:`repro.serve`) hard-closes a client
    connection right before the request's final response frame — models
    a flaky network / a proxy timeout cutting the transport.  The
    *client* sees a truncated stream; the daemon, its worker pool and
    its resident state must stay healthy for the next request.  The
    spec's program slot names the request ``op`` (e.g.
    ``verify:conndrop``); attempts count per op within the daemon
    process.

Plans cross the :mod:`multiprocessing` pool boundary through the
``REPRO_FAULTS`` environment variable: the sweep installs the rendered
plan into ``os.environ`` before the pool is created, and a worker's
:func:`maybe_inject` call lazily parses it back.  Everything is keyed
on ``(program, site, attempt)``, so a fault that fires on attempt 1
deterministically does *not* fire on the retry — which is exactly what
lets the chaos suite assert transparent recovery.

Spec grammar (``;``-separated in the env var / ``--inject``)::

    PROGRAM:KIND            # fire on attempt 1
    PROGRAM:KIND@N          # fire on attempt N only
    PROGRAM:KIND@*          # fire on every attempt (exhausts retries)
"""

from __future__ import annotations

import errno
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Environment variable carrying the rendered plan across process spawns.
ENV_FAULTS = "REPRO_FAULTS"

#: Recognised fault kinds.
KINDS = (
    "crash", "hang", "raise", "torn", "corrupt", "diskfull", "sigkill",
    "conndrop",
)

#: Which injection site each kind fires at: ``verify`` is the worker's
#: verify call, ``cache`` the parent's cache store, ``disk`` any durable
#: write (journal append or cache store), ``journal`` the parent's
#: journal append of a completed unit, ``serve`` the daemon's response
#: writer (:mod:`repro.serve.server`).
SITES = {
    "crash": "verify",
    "hang": "verify",
    "raise": "verify",
    "torn": "cache",
    "corrupt": "cache",
    "diskfull": "disk",
    "sigkill": "journal",
    "conndrop": "serve",
}

#: Exit status used by an injected ``crash`` (EX_SOFTWARE).
CRASH_EXIT_CODE = 70

#: How long an injected ``hang`` sleeps — far past any test timeout,
#: bounded so a broken supervisor strands a process, not the machine.
HANG_SECONDS = 600.0


class InjectedFault(RuntimeError):
    """The exception raised by a ``raise`` fault (escapes worker capture)."""


class FaultSpecError(ValueError):
    """An ``--inject``/``REPRO_FAULTS`` spec that does not parse."""


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: ``program`` suffers ``kind`` on attempt ``attempt``.

    ``attempt`` is 1-based; ``None`` means *every* attempt (the retry
    budget cannot outlast the fault — the exhaustion path).
    """

    program: str
    kind: str
    attempt: int | None = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r} (choose from {', '.join(KINDS)})"
            )
        if self.attempt is not None and self.attempt < 1:
            raise FaultSpecError(f"fault attempt must be >= 1, got {self.attempt}")

    @property
    def site(self) -> str:
        """Where the fault is wired in (see :data:`SITES`): ``torn`` /
        ``corrupt`` hit the cache store, ``diskfull`` any durable write,
        ``sigkill`` the journal append, the rest the worker's verify
        call."""
        return SITES[self.kind]

    def matches(self, program: str, site: str, attempt: int) -> bool:
        return (
            self.program == program
            and self.site == site
            and (self.attempt is None or self.attempt == attempt)
        )

    def render(self) -> str:
        when = "*" if self.attempt is None else str(self.attempt)
        return f"{self.program}:{self.kind}@{when}"

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        head, sep, kind = text.strip().rpartition(":")
        if not sep or not head:
            raise FaultSpecError(
                f"bad fault spec {text!r}: expected PROGRAM:KIND[@ATTEMPT]"
            )
        attempt: int | None = 1
        if "@" in kind:
            kind, __, when = kind.partition("@")
            if when == "*":
                attempt = None
            else:
                try:
                    attempt = int(when)
                except ValueError:
                    raise FaultSpecError(
                        f"bad fault attempt {when!r} in {text!r} (integer or '*')"
                    ) from None
        return cls(program=head, kind=kind, attempt=attempt)


@dataclass
class FaultPlan:
    """An ordered collection of fault specs, plus per-program counters
    for sites (cache writes, journal appends, disk writes) that have no
    externally supplied attempt number."""

    specs: tuple[FaultSpec, ...] = ()
    #: Per-``(counter, program)`` attempt numbers for parent-process
    #: sites; the Nth call at a counter is attempt N for that program.
    _site_attempts: dict[tuple[str, str], int] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = tuple(
            FaultSpec.parse(part)
            for part in text.split(";")
            if part.strip()
        )
        return cls(specs=specs)

    def render(self) -> str:
        return ";".join(spec.render() for spec in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def spec_for(self, program: str, site: str, attempt: int) -> FaultSpec | None:
        for spec in self.specs:
            if spec.matches(program, site, attempt):
                return spec
        return None

    def fire(self, program: str, attempt: int) -> None:
        """Trigger any matching verify-site fault (worker-side).

        ``crash`` never returns; ``hang`` returns only after
        :data:`HANG_SECONDS`; ``raise`` raises :class:`InjectedFault`.
        """
        spec = self.spec_for(program, "verify", attempt)
        if spec is None:
            return
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if spec.kind == "hang":
            deadline = time.monotonic() + HANG_SECONDS
            while time.monotonic() < deadline:
                time.sleep(1.0)
            return
        raise InjectedFault(f"injected fault {spec.render()} (attempt {attempt})")

    def _next_attempt(self, counter: str, program: str) -> int:
        attempt = self._site_attempts.get((counter, program), 0) + 1
        self._site_attempts[(counter, program)] = attempt
        return attempt

    def store_fault(self, program: str) -> str | None:
        """The cache-site fault kind (``torn``/``corrupt``) due for the
        *next* cache write of ``program``, or ``None``.

        Store attempts are counted per plan instance, in the process
        that owns the cache (the sweep parent) — the Nth ``store`` call
        for the program is attempt N.
        """
        spec = self.spec_for(program, "cache", self._next_attempt("cache", program))
        return spec.kind if spec is not None else None

    def disk_fault(self, program: str, where: str) -> None:
        """Disk-site fault point (``diskfull``): raise ``OSError(ENOSPC)``
        if the next durable write at ``where`` (``journal``/``cache``)
        for ``program`` is due to fail.  Attempts are counted per
        ``where``, so one spec covers whichever write path a sweep
        actually exercises first.
        """
        attempt = self._next_attempt(f"disk:{where}", program)
        if self.spec_for(program, "disk", attempt) is not None:
            raise OSError(
                errno.ENOSPC,
                f"injected diskfull fault for {program!r} at {where} "
                f"(attempt {attempt})",
            )

    def journal_fault(self, program: str) -> None:
        """Journal-site fault point (``sigkill``): hard-kill the sweep
        process right after ``program``'s ``unit:done`` record landed —
        a deterministic stand-in for kill -9 / OOM / power loss."""
        attempt = self._next_attempt("journal", program)
        if self.spec_for(program, "journal", attempt) is not None:
            os.kill(os.getpid(), signal.SIGKILL)

    def serve_fault(self, op: str) -> bool:
        """Serve-site fault point (``conndrop``): whether the daemon
        must hard-close the client connection before the final response
        frame of this ``op`` request.  Attempts count per op in the
        daemon process, so ``op:conndrop@1`` drops exactly the first
        matching request and lets the retry through."""
        attempt = self._next_attempt("serve", op)
        return self.spec_for(op, "serve", attempt) is not None


# -- the active plan ----------------------------------------------------------
#
# The sweep installs its plan both as a module global (same process:
# fork-started workers inherit it) and, rendered, in os.environ (so
# spawn-started workers re-parse it).  Lookup order: explicit install,
# then the environment.

_ACTIVE: FaultPlan | None = None
_ENV_CACHE: tuple[str, FaultPlan] | None = None


def active_plan() -> FaultPlan | None:
    """The plan in force for this process, or ``None``.

    The parsed-from-environment plan is cached per env value, so store
    counters survive across calls within one process.
    """
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    text = os.environ.get(ENV_FAULTS, "").strip()
    if not text:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, FaultPlan.parse(text))
    return _ENV_CACHE[1]


@contextmanager
def plan_installed(plan: FaultPlan | None):
    """Install ``plan`` (module global + ``REPRO_FAULTS``) for the
    duration of a sweep; a ``None``/empty plan leaves the environment
    untouched, so an externally exported ``REPRO_FAULTS`` still applies."""
    global _ACTIVE
    if plan is None or not plan.specs:
        yield
        return
    previous_active, previous_env = _ACTIVE, os.environ.get(ENV_FAULTS)
    _ACTIVE = plan
    os.environ[ENV_FAULTS] = plan.render()
    try:
        yield
    finally:
        _ACTIVE = previous_active
        if previous_env is None:
            os.environ.pop(ENV_FAULTS, None)
        else:
            os.environ[ENV_FAULTS] = previous_env


def maybe_inject(program: str, attempt: int) -> None:
    """Worker-side fault point: trigger any verify-site fault due for
    ``(program, attempt)``; a no-op without an active plan."""
    plan = active_plan()
    if plan is not None:
        plan.fire(program, attempt)


def maybe_store_fault(program: str) -> str | None:
    """Cache-side fault point: the kind (``torn``/``corrupt``) the next
    store for ``program`` must suffer, or ``None``."""
    plan = active_plan()
    return plan.store_fault(program) if plan is not None else None


def maybe_diskfull(program: str, where: str) -> None:
    """Disk-side fault point: raise ``OSError(ENOSPC)`` when due.

    ``where`` names the write path (``journal`` or ``cache``); a no-op
    without an active plan.
    """
    plan = active_plan()
    if plan is not None:
        plan.disk_fault(program, where)


def maybe_sigkill(program: str) -> None:
    """Journal-side fault point: SIGKILL the sweep process when due."""
    plan = active_plan()
    if plan is not None:
        plan.journal_fault(program)


def maybe_conndrop(op: str) -> bool:
    """Serve-side fault point: ``True`` iff the daemon must hard-close
    the client connection before this request's final response frame."""
    plan = active_plan()
    return plan.serve_fault(op) if plan is not None else False
