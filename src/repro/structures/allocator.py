"""The coarse-grained memory allocator (§4.1, Table 1 row "CG allocator").

"Whereas separation logic always assumes allocation as a primitive
operation, [in FCSL] allocation is definable": ``alloc`` spins on
``try_alloc``, which *transfers* a pointer from a lock-protected pool into
the calling thread's private heap.  The transfer crosses concurroid
boundaries, so it is implemented as a **connector transition** of the
entanglement ``entangle (Priv pv) ALock`` — the "channel-like transitions
[by which] concurroids exchange heap ownership" of §4.1.

Components:

* the pool lives as the resource of a :class:`~.locks.caslock.CASLock`
  (``ALock``); its resource invariant says every free cell is zeroed
  (deallocated memory is scrubbed before returning to the pool);
* connectors ``take`` (pool → private heap, enabled for the lock holder)
  and ``put`` (private heap → pool, also holder-only, cell must be 0);
* ``try_alloc`` = ``try_acquire; (take; release)?`` returning an optional
  pointer; ``alloc`` = the paper's spin loop; ``dealloc`` zeroes the cell,
  then acquires and puts it back.

The transfer actions are erasure-clean: the global real heap is unchanged
(only its logical ownership moves), which the action checker verifies.

The allocator is a client of the *abstract* lock interface for its
acquire/release discipline, and of ``Priv`` for the receiving heap —
exactly the Priv + 3L row of Table 2.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..core.action import Action
from ..core.concurroid import Transition
from ..core.entangle import Priv, entangle
from ..core.prog import Prog, act, bind, ffix, ret, seq
from ..core.state import State, SubjState, state_of
from ..heap import EMPTY, Heap, Ptr, heap_of, pts, ptr
from ..pcm.base import UnitPCM
from .locks.caslock import CASLock, make_cas_lock

ALLOC_LABEL = "al"
PRIV_LABEL = "pv"
ALLOC_LOCK_PTR = ptr(100)


def pool_invariant(resource: Heap, __: Any) -> bool:
    """Free cells are zeroed — deallocation must scrub before returning."""
    return all(v == 0 for ___, v in resource.items())


def make_alloc_lock() -> CASLock:
    """``ALock``: the lock guarding the free pool."""
    return make_cas_lock(
        ALLOC_LABEL,
        ALLOC_LOCK_PTR,
        UnitPCM(),
        pool_invariant,
        crit_values=(0,),
    )


class AllocatorStructure:
    """The entangled allocator: ``entangle (Priv pv) ALock`` + connectors.

    Parametric in the lock (any :class:`~.locks.interface.AbstractLock`
    over the ``al`` label works — the Table 2 ``3L`` interchangeability).
    """

    def __init__(self, lock: "AbstractLock | None" = None, priv_values: tuple = (0,)):
        self.lock = lock or make_alloc_lock()
        self.priv = Priv(PRIV_LABEL, value_domain=priv_values, max_cells=2, max_addr=2)
        self.concurroid = entangle(
            self.priv,
            self.lock.concurroid,
            connectors=self._connectors(),
        )
        self.take_action = TakeCellAction(self)
        self.put_action = PutCellAction(self)

    # -- connector transitions (the heap-exchange channel of §4.1) -------------

    def _connectors(self) -> tuple[Transition, ...]:
        lock = self.lock

        def pool_cells(state: State) -> list[Ptr]:
            return sorted(lock.resource(state).dom(), key=lambda q: q.addr)

        def take_params(state: State) -> Iterator[Ptr]:
            yield from pool_cells(state)

        def take_requires(state: State, p: Ptr) -> bool:
            if ALLOC_LABEL not in state or PRIV_LABEL not in state:
                return False
            if not lock.holds(state):
                return False
            return p in lock.resource(state)

        def take_effect(state: State, p: Ptr) -> State:
            value = state.joint_of(ALLOC_LABEL)[p]
            out = state.update(
                ALLOC_LABEL, lambda c: c.with_joint(c.joint.free(p))
            )
            return out.update(
                PRIV_LABEL, lambda c: c.with_self(c.self_.join(pts(p, value)))
            )

        def put_params(state: State) -> Iterator[Ptr]:
            if PRIV_LABEL in state:
                heap = state.self_of(PRIV_LABEL)
                yield from sorted(heap.dom(), key=lambda q: q.addr)

        def put_requires(state: State, p: Ptr) -> bool:
            if ALLOC_LABEL not in state or PRIV_LABEL not in state:
                return False
            if not lock.holds(state):
                return False
            mine = state.self_of(PRIV_LABEL)
            return p in mine and mine[p] == 0  # scrubbed cells only

        def put_effect(state: State, p: Ptr) -> State:
            out = state.update(PRIV_LABEL, lambda c: c.with_self(c.self_.free(p)))
            return out.update(
                ALLOC_LABEL, lambda c: c.with_joint(c.joint.join(pts(p, 0)))
            )

        return (
            Transition("al.take", take_requires, take_effect, take_params),
            Transition("al.put", put_requires, put_effect, put_params),
        )

    # -- programs -----------------------------------------------------------------

    def try_alloc(self) -> Prog:
        """``try_alloc : unit -> option ptr`` — one locked attempt.

        Acquires through the abstract interface (so any lock works),
        takes a cell if one is free, releases; ``None`` on an empty pool.
        """
        return seq(
            self.lock.acquire(),
            bind(
                act(self.take_action),
                lambda p: bind(
                    self.lock.release(lambda aux: aux), lambda __: ret(p)
                ),
            ),
        )

    def alloc(self) -> Prog:
        """The paper's spin loop: retry ``try_alloc`` until a pointer comes."""
        spin = ffix(
            lambda loop: lambda: bind(
                self.try_alloc(),
                lambda res: ret(res) if res is not None else loop(),
            ),
            label="alloc",
        )
        return spin()

    def dealloc(self, p: Ptr) -> Prog:
        """Scrub the cell, then return it to the pool under the lock."""
        return seq(
            act(WritePrivAction(self), p, 0),
            self.lock.acquire(),
            act(self.put_action, p),
            self.lock.release(lambda aux: aux),
            ret(None),
        )

    # -- states ----------------------------------------------------------------------

    def initial_state(
        self,
        pool: tuple[int, ...] = (101, 102),
        my_heap: Heap = EMPTY,
        env_heap: Heap = EMPTY,
    ) -> State:
        pool_heap = heap_of({ptr(a): 0 for a in pool})
        return state_of(
            **{
                PRIV_LABEL: SubjState(my_heap, EMPTY, env_heap),
                ALLOC_LABEL: self.lock.concurroid.initial(pool_heap),
            }
        )


class TakeCellAction(Action):
    """Atomically move one pool cell into the private heap (holder only).

    Returns the pointer, or ``None`` when the pool is empty.  Operationally
    a no-op on the global real heap — pure ownership transfer.
    """

    def __init__(self, alloc: AllocatorStructure):
        super().__init__(alloc.concurroid)
        self._alloc = alloc
        self.name = "al.take"

    def safe(self, state: State, *args: Any) -> bool:
        if ALLOC_LABEL not in state or PRIV_LABEL not in state:
            return False
        return self._alloc.lock.holds(state)

    def step(self, state: State, *args: Any) -> tuple[Optional[Ptr], State]:
        joint = state.joint_of(ALLOC_LABEL)
        cells = sorted(self._alloc.lock.resource(state).dom(), key=lambda q: q.addr)
        if not cells:
            return None, state
        p = cells[0]
        value = joint[p]
        out = state.update(ALLOC_LABEL, lambda c: c.with_joint(c.joint.free(p)))
        out = out.update(
            PRIV_LABEL, lambda c: c.with_self(c.self_.join(pts(p, value)))
        )
        return p, out


class PutCellAction(Action):
    """Atomically return a scrubbed private cell to the pool (holder only)."""

    def __init__(self, alloc: AllocatorStructure):
        super().__init__(alloc.concurroid)
        self._alloc = alloc
        self.name = "al.put"

    def safe(self, state: State, p: Ptr) -> bool:
        if ALLOC_LABEL not in state or PRIV_LABEL not in state:
            return False
        if not self._alloc.lock.holds(state):
            return False
        mine = state.self_of(PRIV_LABEL)
        return p in mine and mine[p] == 0

    def step(self, state: State, p: Ptr) -> tuple[None, State]:
        out = state.update(PRIV_LABEL, lambda c: c.with_self(c.self_.free(p)))
        out = out.update(
            ALLOC_LABEL, lambda c: c.with_joint(c.joint.join(pts(p, 0)))
        )
        return None, out


class WritePrivAction(Action):
    """Write a cell of one's own private heap (used to scrub on dealloc)."""

    def __init__(self, alloc: AllocatorStructure):
        super().__init__(alloc.concurroid)
        self._alloc = alloc
        self.name = "pv.write"

    def safe(self, state: State, p: Ptr, value: Any) -> bool:
        return PRIV_LABEL in state and p in state.self_of(PRIV_LABEL)

    def step(self, state: State, p: Ptr, value: Any) -> tuple[None, State]:
        return None, state.update(
            PRIV_LABEL, lambda c: c.with_self(c.self_.update(p, value))
        )

    def footprint(self, state: State, p: Ptr, value: Any) -> frozenset[Ptr]:
        return frozenset((p,))


# -- verification (Table 1 row "CG allocator") -----------------------------------------------

def alloc_spec(alloc: AllocatorStructure):
    """``{pv_self = h} alloc {exists v, pv_self = r :-> v \\+ h}`` (§4.1)."""
    from ..core.spec import Spec

    def pre(s: State) -> bool:
        return alloc.lock.quiescent(s)

    def post(r: Any, s2: State, s1: State) -> bool:
        if not isinstance(r, Ptr):
            return False
        h1, h2 = s1.self_of(PRIV_LABEL), s2.self_of(PRIV_LABEL)
        if r in h1 or r not in h2:
            return False
        return h2.free(r) == h1 and alloc.lock.quiescent(s2)

    return Spec("alloc_tp", pre, post)


def dealloc_spec(alloc: AllocatorStructure, p: Ptr):
    """``{p :-> v \\+ h = pv_self} dealloc p {pv_self = h}``."""
    from ..core.spec import Spec

    def pre(s: State) -> bool:
        return alloc.lock.quiescent(s) and p in s.self_of(PRIV_LABEL)

    def post(r: Any, s2: State, s1: State) -> bool:
        h1, h2 = s1.self_of(PRIV_LABEL), s2.self_of(PRIV_LABEL)
        return p not in h2 and h1.free(p) == h2 and alloc.lock.quiescent(s2)

    return Spec(f"dealloc_tp({p!r})", pre, post)


def verify_cg_allocator(*, env_budget: int = 1) -> "VerificationReport":
    """Discharge every obligation for the CG allocator.

    Conc/Acts cover the *entanglement connectors* — the one piece of new
    protocol this structure introduces beyond the lock library (the paper
    folds these under its lock infrastructure, hence its "-" entries; see
    EXPERIMENTS.md).
    """
    from ..core.action import check_action
    from ..core.concurroid import check_concurroid, protocol_closure
    from ..core.prog import par
    from ..core.spec import Scenario, Spec
    from ..core.stability import check_stability
    from ..core.verify import ReportBuilder, check_triple, triple_issues
    from ..core.world import World

    alloc = AllocatorStructure()
    builder = ReportBuilder("CG allocator")

    initials = [
        alloc.initial_state(pool=()),
        alloc.initial_state(pool=(101,)),
        alloc.initial_state(pool=(101, 102)),
        alloc.initial_state(pool=(101,), my_heap=pts(ptr(103), 0)),
    ]
    states = protocol_closure(alloc.concurroid, initials, max_states=50_000)

    def pool_lemmas() -> list:
        issues = []
        if not pool_invariant(pts(ptr(101), 0), None):
            issues.append("zeroed pool cell rejected")
        if pool_invariant(pts(ptr(101), 7), None):
            issues.append("dirty pool cell accepted")
        return issues

    builder.obligation("pool-invariant-lemmas", "Libs", pool_lemmas)

    builder.obligation(
        "entangled-allocator-metatheory",
        "Conc",
        lambda: check_concurroid(alloc.concurroid, states),
    )
    builder.obligation(
        "take-action", "Acts", lambda: check_action(alloc.take_action, states)
    )
    builder.obligation(
        "put-action",
        "Acts",
        lambda: check_action(alloc.put_action, states, [(ptr(101),), (ptr(103),)]),
    )
    builder.obligation(
        "private-cell-stable",
        "Stab",
        lambda: check_stability(
            lambda s: ptr(103) in s.self_of(PRIV_LABEL),
            "p in pv_self",
            alloc.concurroid,
            states,
        ),
    )

    world = World((alloc.concurroid,))
    builder.obligation(
        "alloc-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                alloc_spec(alloc),
                [
                    Scenario(alloc.initial_state(pool=(101, 102)), alloc.alloc(), label="alloc/2"),
                    Scenario(alloc.initial_state(pool=(101,)), alloc.alloc(), label="alloc/1"),
                ],
                max_steps=30,
                env_budget=env_budget,
            )
        ),
    )
    builder.obligation(
        "dealloc-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                dealloc_spec(alloc, ptr(103)),
                [
                    Scenario(
                        alloc.initial_state(pool=(101,), my_heap=pts(ptr(103), 1)),
                        alloc.dealloc(ptr(103)),
                        label="dealloc",
                    )
                ],
                max_steps=30,
                env_budget=env_budget,
            )
        ),
    )

    def par_alloc_post(r: Any, s2: State, s1: State) -> bool:
        p1, p2 = r
        return (
            isinstance(p1, Ptr)
            and isinstance(p2, Ptr)
            and p1 != p2  # distinct cells: ownership transfer is exclusive
            and p1 in s2.self_of(PRIV_LABEL)
            and p2 in s2.self_of(PRIV_LABEL)
        )

    builder.obligation(
        "par-alloc-distinct-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                Spec("par-alloc", lambda s: True, par_alloc_post),
                [
                    Scenario(
                        alloc.initial_state(pool=(101, 102)),
                        par(alloc.alloc(), alloc.alloc()),
                        label="par-alloc",
                    )
                ],
                max_steps=50,
                env_budget=0,
            )
        ),
    )

    return builder.build()
