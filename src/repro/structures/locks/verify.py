"""Verification of the two lock implementations (Table 1 rows "CAS-lock"
and "Ticketed lock").

Both locks are verified against the same abstract-interface obligations,
instantiated with a one-cell counter resource (the resource invariant ties
the cell to the total client contribution):

* ``Conc`` — lock concurroid metatheory over the protocol closure;
* ``Acts`` — every atomic action of the lock;
* ``Stab`` — the assertions clients rely on: "I do not hold the lock",
  "my contribution is a", and (for the holder) "I hold it and the
  resource is mine to mutate";
* ``Main`` — mutual exclusion and invariant restoration, checked by
  exhaustively exploring two parallel acquire/mutate/release clients
  under interference.  Mutual exclusion is *structural*: a state with two
  owners is incoherent (``OWN • OWN`` / overlapping ticket sets are
  invalid PCM elements), so any violating interleaving would abort the
  exploration.
"""

from __future__ import annotations

from typing import Callable

from ...core.action import check_action
from ...core.concurroid import check_concurroid, protocol_closure
from ...core.entangle import Priv
from ...core.prog import bind, par, seq
from ...core.spec import Scenario, Spec
from ...core.stability import check_stability
from ...core.state import State, state_of
from ...core.verify import ReportBuilder, VerificationReport, check_triple, triple_issues
from ...core.world import World
from ...heap import Heap, pts, ptr
from ...pcm.laws import check_all_laws
from ...pcm.natpcm import NatPCM
from .caslock import CASLock, make_cas_lock
from .interface import AbstractLock
from .ticketed import TicketedLock, make_ticketed_lock

#: Cells used by the lock-verification workloads.
RES_CELL = ptr(1)
CAS_BIT = ptr(2)
TK_NEXT = ptr(3)
TK_OWNER = ptr(4)
LABEL = "lk"


def _counter_inv(resource: Heap, total: int) -> bool:
    return resource.dom() == frozenset((RES_CELL,)) and resource[RES_CELL] == total


def make_counter_cas_lock(max_total: int = 5) -> CASLock:
    return make_cas_lock(
        LABEL,
        CAS_BIT,
        NatPCM(sample_bound=max_total),
        _counter_inv,
        crit_values=tuple(range(max_total + 2)),
    )


def make_counter_ticketed_lock(max_total: int = 4, max_queue: int = 3) -> TicketedLock:
    return make_ticketed_lock(
        LABEL,
        TK_NEXT,
        TK_OWNER,
        NatPCM(sample_bound=max_total),
        _counter_inv,
        max_queue=max_queue,
        max_tickets=4,
        crit_values=tuple(range(max_total + 2)),
    )


def lock_world(lock: AbstractLock) -> World:
    """The lock's world: its concurroid plus thread-private state."""
    return World((Priv("pv"), lock.concurroid))


def lock_initial_state(lock: AbstractLock, self_aux: int = 0, other_aux: int = 0) -> State:
    from ...core.state import SubjState
    from ...heap import EMPTY

    resource = pts(RES_CELL, self_aux + other_aux)
    return state_of(
        **{
            LABEL: lock.concurroid.initial(resource, self_aux, other_aux),
            # Thread-private state rides along, as in Table 2's Priv column.
            "pv": SubjState(EMPTY, EMPTY, EMPTY),
        }
    )


def bump_client(lock: AbstractLock):
    """acquire; v <- read; write (v+1); release publishing self+1."""
    return seq(
        lock.acquire(),
        bind(lock.read(RES_CELL), lambda v: lock.write(RES_CELL, v + 1)),
        lock.release(lambda a: a + 1),
    )


def _verify_lock(
    program_name: str,
    lock_factory: Callable[[], AbstractLock],
    action_names: Callable[[AbstractLock], list],
    *,
    aux_bound: int = 1,
    env_budget: int = 1,
) -> VerificationReport:
    lock = lock_factory()
    conc = lock.concurroid
    builder = ReportBuilder(program_name)

    initials = [
        lock_initial_state(lock, a, b)
        for a in range(aux_bound + 1)
        for b in range(aux_bound + 1)
    ]
    states = protocol_closure(conc, initials, max_states=50_000)

    # Libs: the PCM algebra the lock's subjective state lives in.
    builder.obligation(
        "subjective-pcm-laws",
        "Libs",
        lambda: check_all_laws(conc.pcms()[LABEL]),
    )

    builder.obligation(
        "lock-metatheory", "Conc", lambda: check_concurroid(conc, states)
    )

    for action, args in action_names(lock):
        builder.obligation(
            f"action-{action.name}",
            "Acts",
            lambda action=action, args=args: check_action(action, states, args),
        )

    builder.obligation(
        "quiescent-stable",
        "Stab",
        lambda: check_stability(
            lambda s: lock.quiescent(s), "quiescent", conc, states
        ),
    )
    builder.obligation(
        "holding-stable",
        "Stab",
        lambda: check_stability(lambda s: lock.holds(s), "holds", conc, states),
    )
    for a in range(aux_bound + 2):
        builder.obligation(
            f"contribution-stable(a={a})",
            "Stab",
            lambda a=a: check_stability(
                lambda s, a=a: lock.client_self(s) == a,
                f"self aux = {a}",
                conc,
                states,
            ),
        )
    builder.obligation(
        "resource-value-unstable-without-lock-is-not-claimed",
        "Stab",
        lambda: check_stability(
            # Resource *ownership*: while holding, the cell equals
            # total-contributions-so-far only the holder can change it, so
            # "holds and cell >= my contribution" is stable.
            lambda s: not lock.holds(s)
            or s.joint_of(LABEL).get(RES_CELL, -1) >= 0,
            "holder's view of resource",
            conc,
            states,
        ),
    )

    world = lock_world(lock)
    spec = Spec(
        "bump-client",
        pre=lambda s: lock.quiescent(s),
        post=lambda r, s2, s1: (
            lock.quiescent(s2)
            and lock.client_self(s2) == lock.client_self(s1) + 1
        ),
    )
    scenarios = [
        Scenario(lock_initial_state(lock, a, b), bump_client(lock), label=f"bump a={a} b={b}")
        for a in range(aux_bound + 1)
        for b in range(aux_bound + 1)
    ]
    builder.obligation(
        "bump-triple",
        "Main",
        lambda: triple_issues(
            check_triple(world, spec, scenarios, max_steps=30, env_budget=env_budget)
        ),
    )

    par_spec = Spec(
        "par-bump",
        pre=lambda s: lock.quiescent(s),
        post=lambda r, s2, s1: (
            lock.quiescent(s2)
            and lock.client_self(s2) == lock.client_self(s1) + 2
        ),
    )
    par_scenarios = [
        Scenario(
            lock_initial_state(lock, 0, b),
            par(bump_client(lock), bump_client(lock)),
            label=f"par-bump b={b}",
        )
        for b in range(aux_bound + 1)
    ]
    builder.obligation(
        "mutual-exclusion-par-triple",
        "Main",
        lambda: triple_issues(
            check_triple(world, par_spec, par_scenarios, max_steps=60, env_budget=env_budget)
        ),
    )

    return builder.build()


def verify_cas_lock(**kwargs) -> VerificationReport:
    """Discharge every obligation for the CAS spinlock."""

    def actions(lock: CASLock) -> list:
        return [
            (lock.try_acquire_action, [()]),
            (lock.read_action, [(RES_CELL,)]),
            (lock.write_action, [(RES_CELL, 0), (RES_CELL, 2)]),
        ]

    return _verify_lock("CAS-lock", make_counter_cas_lock, actions, **kwargs)


def verify_ticketed_lock(**kwargs) -> VerificationReport:
    """Discharge every obligation for the ticketed lock."""

    def actions(lock: TicketedLock) -> list:
        return [
            (lock.draw_action, [()]),
            (lock.read_owner_action, [()]),
            (lock.read_action, [(RES_CELL,)]),
            (lock.write_action, [(RES_CELL, 0), (RES_CELL, 2)]),
        ]

    return _verify_lock("Ticketed lock", make_counter_ticketed_lock, actions, **kwargs)
