"""The ticketed lock (§6: "Ticketed lock", after Dinsdale-Young et al. [14]).

Protocol (concurroid ``TLock``): the joint heap holds two counters —
``next`` (the next ticket to dispense) and ``owner`` (the ticket currently
being served) — plus the protected resource cells.  The subjective
components live in ``tickets × client``: the first half is the *disjoint
set* of tickets drawn (and not yet used up) by the observing thread; the
paper lists disjoint sets as the ticketed lock's PCM.

Coherence: ``owner <= next`` and the drawn-but-unreleased tickets —
``self ∪ other`` — are exactly ``{owner, ..., next-1}``; when the queue is
empty (``owner = next``) the client resource invariant holds.

Transitions:

* ``draw`` — fetch-and-increment ``next``, adding the old value to the
  drawing thread's ticket set;
* ``release`` — a thread whose ticket is being served (``owner ∈ self``)
  increments ``owner``, retires the ticket, and publishes a new client
  contribution restoring the invariant (a *self-enabled* transition:
  only the holder of the served ticket can take it);
* ``crit`` — mutate a resource cell, enabled only while being served.

Acquisition is ``draw`` followed by spinning on ``read owner`` until the
served ticket is one's own.  ``max_queue`` bounds the queue length and
``max_tickets`` the total number of tickets ever dispensed, so the
finite-model checks stay finite (modelling bounds, not protocol changes:
the paper's proofs quantify over unbounded queues; ours sweep all queues
up to the bounds).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from ...core.action import Action
from ...core.concurroid import Concurroid, Transition
from ...core.prog import Prog, act, bind, ffix, ret
from ...core.state import State, SubjState
from ...heap import Heap, Ptr, pts
from ...pcm.base import PCM
from ...pcm.product import ProductPCM
from ...pcm.setpcm import SetPCM
from .interface import AbstractLock, ResourceInvariant


class TicketedLockConcurroid(Concurroid):
    """The ``TLock`` concurroid."""

    def __init__(
        self,
        label: str,
        next_ptr: Ptr,
        owner_ptr: Ptr,
        client_pcm: PCM,
        inv: ResourceInvariant,
        *,
        max_queue: int = 2,
        max_tickets: int = 4,
        crit_values: Sequence[Any] = (0, 1),
        aux_candidates: Callable[[State], Iterable[Any]] | None = None,
    ):
        if next_ptr == owner_ptr:
            raise ValueError("next and owner must be distinct cells")
        self._label = label
        self._next = next_ptr
        self._owner = owner_ptr
        self._client = client_pcm
        self._inv = inv
        self._max_queue = max_queue
        self._max_tickets = max_tickets
        self._crit_values = tuple(crit_values)
        self._aux_candidates = aux_candidates or (lambda __: client_pcm.sample())
        self._pcm = ProductPCM(SetPCM(), client_pcm)

    @property
    def labels(self) -> tuple[str, ...]:
        return (self._label,)

    @property
    def next_ptr(self) -> Ptr:
        return self._next

    @property
    def owner_ptr(self) -> Ptr:
        return self._owner

    @property
    def client_pcm(self) -> PCM:
        return self._client

    def pcms(self) -> Mapping[str, PCM]:
        return {self._label: self._pcm}

    # -- projections -------------------------------------------------------------

    def tickets_of(self, comp: Hashable) -> frozenset[int]:
        return comp[0]

    def aux_of(self, comp: Hashable) -> Hashable:
        return comp[1]

    def resource(self, state: State) -> Heap:
        return state.joint_of(self._label).free(self._next).free(self._owner)

    def counters(self, state: State) -> tuple[int, int]:
        joint = state.joint_of(self._label)
        return joint[self._owner], joint[self._next]

    def client_total(self, state: State) -> Hashable:
        comp = state[self._label]
        return self._client.join(self.aux_of(comp.self_), self.aux_of(comp.other))

    # -- coherence ------------------------------------------------------------------

    def coherent(self, state: State) -> bool:
        if self._label not in state:
            return False
        comp = state[self._label]
        joint = comp.joint
        if not isinstance(joint, Heap) or not joint.is_valid:
            return False
        for p in (self._next, self._owner):
            if p not in joint or not isinstance(joint[p], int):
                return False
        owner, nxt = joint[self._owner], joint[self._next]
        if not (0 <= owner <= nxt):
            return False
        if not self._pcm.valid(self._pcm.join(comp.self_, comp.other)):
            return False
        pending = self.tickets_of(comp.self_) | self.tickets_of(comp.other)
        if pending != frozenset(range(owner, nxt)):
            return False
        if owner == nxt and not self._inv(self.resource(state), self.client_total(state)):
            return False
        return True

    # -- transitions -------------------------------------------------------------------

    def transitions(self) -> Sequence[Transition]:
        lbl = self._label

        def draw_requires(state: State, __: Any) -> bool:
            owner, nxt = self.counters(state)
            return nxt - owner < self._max_queue and nxt < self._max_tickets

        def draw_effect(state: State, __: Any) -> State:
            def upd(comp: SubjState) -> SubjState:
                nxt = comp.joint[self._next]
                return SubjState(
                    (self.tickets_of(comp.self_) | {nxt}, self.aux_of(comp.self_)),
                    comp.joint.update(self._next, nxt + 1),
                    comp.other,
                )

            return state.update(lbl, upd)

        def serving_self(state: State) -> bool:
            owner, __ = self.counters(state)
            return owner in self.tickets_of(state[lbl].self_)

        # ``release`` and ``crit`` are self-enabled: their parameters are
        # enumerated only where the guard can admit one.
        def release_params(state: State) -> Iterator[Any]:
            if serving_self(state):
                yield from self._aux_candidates(state)

        def release_requires(state: State, new_aux: Any) -> bool:
            comp = state[lbl]
            owner, __ = self.counters(state)
            if owner not in self.tickets_of(comp.self_):
                return False
            total = self._client.join(new_aux, self.aux_of(comp.other))
            if not self._client.valid(total):
                return False
            return self._inv(self.resource(state), total)

        def release_effect(state: State, new_aux: Any) -> State:
            def upd(comp: SubjState) -> SubjState:
                owner = comp.joint[self._owner]
                return SubjState(
                    (self.tickets_of(comp.self_) - {owner}, new_aux),
                    comp.joint.update(self._owner, owner + 1),
                    comp.other,
                )

            return state.update(lbl, upd)

        def crit_params(state: State) -> Iterator[tuple[Ptr, Any]]:
            if not serving_self(state):
                return
            comp = state[lbl]
            for p in sorted(comp.joint.dom(), key=lambda q: q.addr):
                if p in (self._next, self._owner):
                    continue
                for v in self._crit_values:
                    yield (p, v)

        def crit_requires(state: State, param: tuple[Ptr, Any]) -> bool:
            comp = state[lbl]
            owner, __ = self.counters(state)
            p, ___ = param
            return (
                owner in self.tickets_of(comp.self_)
                and p in comp.joint
                and p not in (self._next, self._owner)
            )

        def crit_effect(state: State, param: tuple[Ptr, Any]) -> State:
            p, v = param
            return state.update(lbl, lambda c: c.with_joint(c.joint.update(p, v)))

        return (
            Transition(f"{lbl}.draw", draw_requires, draw_effect),
            Transition(f"{lbl}.release", release_requires, release_effect, release_params),
            Transition(f"{lbl}.crit", crit_requires, crit_effect, crit_params),
        )

    # -- initial states ---------------------------------------------------------------------

    def initial(
        self,
        resource: Heap,
        self_aux: Hashable | None = None,
        other_aux: Hashable | None = None,
    ) -> SubjState:
        self_aux = self._client.unit if self_aux is None else self_aux
        other_aux = self._client.unit if other_aux is None else other_aux
        counters = pts(self._next, 0).join(pts(self._owner, 0))
        return SubjState(
            (frozenset(), self_aux),
            counters.join(resource),
            (frozenset(), other_aux),
        )


# -- atomic actions --------------------------------------------------------------------------


class DrawTicketAction(Action):
    """Fetch-and-increment of ``next``; returns the drawn ticket."""

    def __init__(self, lock: "TicketedLock"):
        super().__init__(lock.concurroid)
        self._lock = lock
        self.name = f"{lock.concurroid.label}.draw"

    def safe(self, state: State, *args: Any) -> bool:
        conc = self._lock.concurroid
        if conc.label not in state:
            return False
        owner, nxt = conc.counters(state)
        return nxt - owner < conc._max_queue and nxt < conc._max_tickets

    def step(self, state: State, *args: Any) -> tuple[int, State]:
        conc = self._lock.concurroid
        comp = state[conc.label]
        nxt = comp.joint[conc.next_ptr]
        new = SubjState(
            (conc.tickets_of(comp.self_) | {nxt}, conc.aux_of(comp.self_)),
            comp.joint.update(conc.next_ptr, nxt + 1),
            comp.other,
        )
        return nxt, state.set(conc.label, new)

    def footprint(self, state: State, *args: Any) -> frozenset[Ptr]:
        return frozenset((self._lock.concurroid.next_ptr,))


class ReadOwnerAction(Action):
    """Read the currently-served ticket (the spin-wait read)."""

    def __init__(self, lock: "TicketedLock"):
        super().__init__(lock.concurroid)
        self._lock = lock
        self.name = f"{lock.concurroid.label}.read_owner"

    def safe(self, state: State, *args: Any) -> bool:
        conc = self._lock.concurroid
        return conc.label in state and conc.owner_ptr in state.joint_of(conc.label)

    def step(self, state: State, *args: Any) -> tuple[int, State]:
        conc = self._lock.concurroid
        return state.joint_of(conc.label)[conc.owner_ptr], state


class TicketReleaseAction(Action):
    """Increment ``owner``, retiring the served ticket and publishing the
    new client contribution."""

    def __init__(self, lock: "TicketedLock", aux_of: Callable[[Any], Any]):
        super().__init__(lock.concurroid)
        self._lock = lock
        self._aux_of = aux_of
        self.name = f"{lock.concurroid.label}.release"

    def safe(self, state: State, *args: Any) -> bool:
        conc = self._lock.concurroid
        if conc.label not in state:
            return False
        comp = state[conc.label]
        owner, __ = conc.counters(state)
        if owner not in conc.tickets_of(comp.self_):
            return False
        new_aux = self._aux_of(conc.aux_of(comp.self_))
        total = conc.client_pcm.join(new_aux, conc.aux_of(comp.other))
        if not conc.client_pcm.valid(total):
            return False
        return conc._inv(conc.resource(state), total)

    def step(self, state: State, *args: Any) -> tuple[None, State]:
        conc = self._lock.concurroid
        comp = state[conc.label]
        owner = comp.joint[conc.owner_ptr]
        new_aux = self._aux_of(conc.aux_of(comp.self_))
        new = SubjState(
            (conc.tickets_of(comp.self_) - {owner}, new_aux),
            comp.joint.update(conc.owner_ptr, owner + 1),
            comp.other,
        )
        return None, state.set(conc.label, new)

    def footprint(self, state: State, *args: Any) -> frozenset[Ptr]:
        return frozenset((self._lock.concurroid.owner_ptr,))


class TicketReadResAction(Action):
    """Read a resource cell while being served."""

    def __init__(self, lock: "TicketedLock"):
        super().__init__(lock.concurroid)
        self._lock = lock
        self.name = f"{lock.concurroid.label}.read"

    def safe(self, state: State, p: Ptr) -> bool:
        conc = self._lock.concurroid
        if conc.label not in state:
            return False
        comp = state[conc.label]
        owner, __ = conc.counters(state)
        return (
            owner in conc.tickets_of(comp.self_)
            and p in comp.joint
            and p not in (conc.next_ptr, conc.owner_ptr)
        )

    def step(self, state: State, p: Ptr) -> tuple[Any, State]:
        return state.joint_of(self._lock.concurroid.label)[p], state


class TicketWriteResAction(Action):
    """Write a resource cell while being served."""

    def __init__(self, lock: "TicketedLock"):
        super().__init__(lock.concurroid)
        self._lock = lock
        self.name = f"{lock.concurroid.label}.write"

    def safe(self, state: State, p: Ptr, value: Any) -> bool:
        conc = self._lock.concurroid
        if conc.label not in state:
            return False
        comp = state[conc.label]
        owner, __ = conc.counters(state)
        return (
            owner in conc.tickets_of(comp.self_)
            and p in comp.joint
            and p not in (conc.next_ptr, conc.owner_ptr)
        )

    def step(self, state: State, p: Ptr, value: Any) -> tuple[None, State]:
        conc = self._lock.concurroid
        return None, state.update(
            conc.label, lambda c: c.with_joint(c.joint.update(p, value))
        )

    def footprint(self, state: State, p: Ptr, value: Any) -> frozenset[Ptr]:
        return frozenset((p,))


class TicketedLock(AbstractLock):
    """The abstract-lock instance backed by :class:`TicketedLockConcurroid`.

    ``acquire`` is "draw a ticket, then spin reading ``owner`` until it
    equals the drawn ticket".
    """

    def __init__(self, concurroid: TicketedLockConcurroid):
        self._conc = concurroid
        self._draw = DrawTicketAction(self)
        self._read_owner = ReadOwnerAction(self)
        self._read = TicketReadResAction(self)
        self._write = TicketWriteResAction(self)

    @property
    def concurroid(self) -> TicketedLockConcurroid:
        return self._conc

    @property
    def client_pcm(self) -> PCM:
        return self._conc.client_pcm

    def acquire(self) -> Prog:
        def wait_for(ticket: int) -> Prog:
            spin = ffix(
                lambda loop: lambda: bind(
                    act(self._read_owner),
                    lambda served: ret(None) if served == ticket else loop(),
                ),
                label=f"{self._conc.label}.wait",
            )
            return spin()

        return bind(act(self._draw), wait_for)

    def release(self, aux_of: Callable[[Any], Any]) -> Prog:
        return act(TicketReleaseAction(self, aux_of))

    def read(self, p: Ptr) -> Prog:
        return act(self._read, p)

    def write(self, p: Ptr, value: Any) -> Prog:
        return act(self._write, p, value)

    def holds(self, state: State) -> bool:
        comp = state[self._conc.label]
        owner, __ = self._conc.counters(state)
        return owner in self._conc.tickets_of(comp.self_)

    def quiescent(self, state: State) -> bool:
        comp = state[self._conc.label]
        return not self._conc.tickets_of(comp.self_)

    def locked(self, state: State) -> bool:
        owner, nxt = self._conc.counters(state)
        return owner < nxt

    def resource(self, state: State) -> Heap:
        return self._conc.resource(state)

    def client_self(self, state: State) -> Hashable:
        return self._conc.aux_of(state.self_of(self._conc.label))

    def client_total(self, state: State) -> Hashable:
        return self._conc.client_total(state)

    @property
    def draw_action(self) -> DrawTicketAction:
        return self._draw

    @property
    def read_owner_action(self) -> ReadOwnerAction:
        return self._read_owner

    @property
    def read_action(self) -> TicketReadResAction:
        return self._read

    @property
    def write_action(self) -> TicketWriteResAction:
        return self._write


def make_ticketed_lock(
    label: str,
    next_ptr: Ptr,
    owner_ptr: Ptr,
    client_pcm: PCM,
    inv: ResourceInvariant,
    **kwargs: Any,
) -> TicketedLock:
    """Build a ticketed lock over the given resource invariant."""
    return TicketedLock(
        TicketedLockConcurroid(label, next_ptr, owner_ptr, client_pcm, inv, **kwargs)
    )
