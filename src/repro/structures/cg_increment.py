"""The coarse-grained incrementor (§6: "CG increment").

The classic subjective-auxiliary-state example of Ley-Wild & Nanevski
[33]: a shared counter cell protected by a lock, with client PCM
``(nat, +, 0)``.  Each thread's ``self`` records how much *it* has added;
the resource invariant ties the counter's contents to the *total*
contribution::

    inv(resource, total)  <=>  resource = [c :-> total]

``incr`` brackets "read; write(+1)" in acquire/release, publishing
``self + 1`` at release.  Its spec is the subjectively-stable

    { self = (NOT_OWN, a) }  incr  { self = (NOT_OWN, a + 1) }

which composes under ``par``: two parallel increments yield ``a + 2``
without ever mentioning how many threads run — the insensitivity to
forking structure that the subjective dichotomy buys (§2.2.1).

This client is written against the *abstract* lock interface, so the same
verification runs over the CAS-lock and the ticketed lock (Table 2's
``3L`` interchangeability).
"""

from __future__ import annotations

from typing import Callable

from ..core.concurroid import ProtocolGraph, protocol_closure
from ..core.entangle import Priv
from ..core.prog import Prog, bind, par, seq
from ..core.spec import Scenario, Spec
from ..core.state import State, SubjState, state_of
from ..core.verify import ReportBuilder, VerificationReport, check_triple, triple_issues
from ..core.world import World
from ..heap import EMPTY, Heap, pts, ptr
from ..pcm.laws import check_all_laws
from ..pcm.natpcm import NatPCM
from .locks.caslock import CASLock, make_cas_lock
from .locks.interface import AbstractLock
from .locks.ticketed import TicketedLock, make_ticketed_lock

#: The counter cell.
CELL = ptr(1)
#: The lock bit cell.
LOCK_PTR = ptr(2)
#: Label of the lock concurroid.
LOCK_LABEL = "lk"
#: Label of the thread-private concurroid (present for Table 2 fidelity).
PRIV_LABEL = "pv"


def counter_invariant(resource: Heap, total: int) -> bool:
    """``resource = [CELL :-> total]`` — the lock's resource invariant."""
    return resource.dom() == frozenset((CELL,)) and resource[CELL] == total


def make_increment_lock(max_total: int = 6) -> CASLock:
    """The CAS lock protecting the counter, with nat contributions."""
    nat = NatPCM(sample_bound=max_total)
    return make_cas_lock(
        LOCK_LABEL,
        LOCK_PTR,
        nat,
        counter_invariant,
        crit_values=tuple(range(max_total + 2)),
    )


def make_increment_ticketed_lock(max_total: int = 4) -> TicketedLock:
    """A ticketed lock protecting the same counter (same label/resource),
    witnessing the abstract interface's interchangeability (Table 2)."""
    return make_ticketed_lock(
        LOCK_LABEL,
        ptr(3),
        ptr(4),
        NatPCM(sample_bound=max_total),
        counter_invariant,
        max_queue=3,
        max_tickets=4,
        crit_values=tuple(range(max_total + 2)),
    )


def incr(lock: AbstractLock) -> Prog:
    """``lock; x <- read c; write c (x+1); unlock`` publishing ``self+1``."""
    return seq(
        lock.acquire(),
        bind(lock.read(CELL), lambda x: lock.write(CELL, x + 1)),
        lock.release(lambda a: a + 1),
    )


def incr_twice_parallel(lock: AbstractLock) -> Prog:
    """Two parallel increments — the fork/join compositionality witness."""
    return par(incr(lock), incr(lock))


# -- specs -----------------------------------------------------------------------------


def incr_spec(lock: AbstractLock, added: int) -> Spec:
    """``{self = (NOT_OWN, a)} prog {self = (NOT_OWN, a + added)}``."""

    def pre(s: State) -> bool:
        return lock.quiescent(s)

    def post(result: object, s2: State, s1: State) -> bool:
        return (
            lock.quiescent(s2)
            and lock.client_self(s2) == lock.client_self(s1) + added
        )

    return Spec(f"incr(+{added})", pre, post)


# -- model ------------------------------------------------------------------------------


def initial_state(
    lock: CASLock,
    self_aux: int,
    other_aux: int,
    *,
    priv: bool = True,
) -> State:
    """A coherent free-lock state with counter = total contributions."""
    conc = lock.concurroid
    resource = pts(CELL, self_aux + other_aux)
    parts = {LOCK_LABEL: conc.initial(resource, self_aux, other_aux)}
    if priv:
        parts[PRIV_LABEL] = SubjState(EMPTY, EMPTY, EMPTY)
    return state_of(**parts)


def make_world(lock: CASLock) -> World:
    return World((Priv(PRIV_LABEL), lock.concurroid))


def model_states(lock: CASLock, aux_bound: int = 2) -> ProtocolGraph:
    """The finite model: protocol closure of small initial states."""
    initials = [
        initial_state(lock, a, b)
        for a in range(aux_bound + 1)
        for b in range(aux_bound + 1)
    ]
    return protocol_closure(lock.concurroid, initials, max_states=20_000)


# -- the full verification (Table 1 row "CG increment") -----------------------------------


def verify_cg_increment(
    lock_factory: Callable[[], AbstractLock] | None = None,
    *,
    aux_bound: int = 1,
    env_budget: int = 1,
) -> VerificationReport:
    """Discharge every obligation for the CG incrementor.

    ``lock_factory`` lets the same verification run over any abstract-lock
    implementation; the default is the CAS lock.
    """
    lock = lock_factory() if lock_factory else make_increment_lock()
    builder = ReportBuilder("CG increment")

    # Libs: the client PCM is a lawful PCM (the paper's Libs column holds
    # program-specific mathematical facts).
    builder.obligation(
        "nat-pcm-laws", "Libs", lambda: check_all_laws(lock.client_pcm)
    )

    # No Conc/Acts/Stab obligations: this is a *client* of the abstract
    # lock interface.  The lock library's verification (locks/verify.py)
    # already discharged the concurroid metatheory, the action obligations
    # and the stability of the interface-level assertions the client
    # relies on (``quiescent``, "my contribution is a") — this row gets
    # "-" entries, exactly as in the paper's Table 1, because "libraries
    # are verified just once, and their specifications are used
    # ubiquitously in client-side reasoning" (§1).

    # Main: the triples, exhaustively over schedules and interference.
    world = make_world(lock)  # type: ignore[arg-type]
    single_scenarios = [
        Scenario(
            initial_state(lock, a, b),  # type: ignore[arg-type]
            incr(lock),
            label=f"incr self={a} other={b}",
        )
        for a in range(aux_bound + 1)
        for b in range(aux_bound + 1)
    ]
    builder.obligation(
        "incr-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                incr_spec(lock, 1),
                single_scenarios,
                max_steps=30,
                env_budget=env_budget,
            )
        ),
    )

    par_scenarios = [
        Scenario(
            initial_state(lock, 0, b),  # type: ignore[arg-type]
            incr_twice_parallel(lock),
            label=f"par-incr other={b}",
        )
        for b in range(aux_bound + 1)
    ]
    builder.obligation(
        "par-incr-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                incr_spec(lock, 2),
                par_scenarios,
                max_steps=40,
                env_budget=env_budget,
            )
        ),
    )

    return builder.build()


__all__ = [
    "CELL",
    "LOCK_PTR",
    "LOCK_LABEL",
    "PRIV_LABEL",
    "counter_invariant",
    "make_increment_lock",
    "make_increment_ticketed_lock",
    "incr",
    "incr_twice_parallel",
    "incr_spec",
    "initial_state",
    "make_world",
    "model_states",
    "verify_cg_increment",
]
