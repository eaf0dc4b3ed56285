"""Entanglement of concurroids and the ``Priv`` thread-local concurroid.

§4.1: FCSL specs can span multiple concurroids "entangled by
interconnecting special channel-like transitions"; the interconnection
implements synchronized communication by which concurroids exchange heap
ownership.  :func:`entangle` forms the composite; *connector* transitions
(supplied by the structures that need them, e.g. the allocator) may touch
the labels of several parts at once and are exempt from the per-part
footprint-preservation check.

``Priv`` ([37, §4], §3.5) models thread-local state: the ``self`` and
``other`` components are the private heaps of the observing thread and its
environment, and the joint part is empty.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..heap import EMPTY, Heap
from ..pcm.base import PCM
from ..pcm.heappcm import HeapPCM
from .concurroid import Concurroid, Transition
from .state import State


class Entangled(Concurroid):
    """The product of several concurroids with optional connectors.

    Coherence is the conjunction of the parts' coherence; transitions are
    the parts' transitions plus the connectors; environment moves come from
    parts and connectors alike.
    """

    def __init__(self, *parts: Concurroid, connectors: Sequence[Transition] = ()):
        if not parts:
            raise ValueError("entanglement needs at least one concurroid")
        seen: set[str] = set()
        for part in parts:
            overlap = seen & set(part.labels)
            if overlap:
                raise ValueError(f"label collision in entanglement: {sorted(overlap)}")
            seen.update(part.labels)
        self._concurroids = parts
        self._connectors = tuple(connectors)
        self._labels = tuple(lbl for part in parts for lbl in part.labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def parts(self) -> tuple[Concurroid, ...]:
        return self._concurroids

    def coherent(self, state: State) -> bool:
        return all(part.coherent(state) for part in self._concurroids)

    def transitions(self) -> Sequence[Transition]:
        out: list[Transition] = []
        for part in self._concurroids:
            out.extend(part.transitions())
        out.extend(self._connectors)
        return tuple(out)

    def env_transitions(self) -> Sequence[Transition]:
        out: list[Transition] = []
        for part in self._concurroids:
            out.extend(part.env_transitions())
        out.extend(self._connectors)
        return tuple(out)

    def pcms(self) -> Mapping[str, PCM]:
        merged: dict[str, PCM] = {}
        for part in self._concurroids:
            merged.update(part.pcms())
        return merged

    def env_sources(self) -> tuple[Callable[[State], Iterable[State]], ...]:
        """Each part's environment sources, then one source per connector."""
        sources = [source for part in self._concurroids for source in part.env_sources()]
        sources.extend(_environment_step(t) for t in self._connectors)
        return tuple(sources)

    def env_moves(self, state: State) -> Iterator[State]:
        for source in self.env_sources():
            yield from source(state)

    def real_heap(self, state: State) -> Heap:
        acc = EMPTY
        for part in self._concurroids:
            acc = acc.join(part.real_heap(state))
        return acc

    def find(self, label: str) -> Concurroid:
        """The part owning ``label``."""
        for part in self._concurroids:
            if label in part.labels:
                return part
        raise KeyError(f"no entangled part owns label {label!r}")

    # Connectors transfer heap across labels, so the composite as a whole
    # does not promise per-label footprint preservation.
    @property
    def preserves_footprint(self) -> bool:  # type: ignore[override]
        return not self._connectors


def _environment_step(connector: Transition) -> Callable[[State], Iterator[State]]:
    """The environment source of ``connector``: connectors are steps of
    interfering threads too, so transpose all labels, step, transpose
    back."""

    def moves(state: State) -> Iterator[State]:
        for succ in connector.targets(state.transpose()):
            yield succ.transpose()

    return moves


def entangle(*parts: Concurroid, connectors: Sequence[Transition] = ()) -> Entangled:
    """Compose concurroids (flattening nested entanglements)."""
    flat: list[Concurroid] = []
    all_connectors: list[Transition] = list(connectors)
    for part in parts:
        if isinstance(part, Entangled):
            flat.extend(part.parts)
            all_connectors.extend(part._connectors)
        else:
            flat.append(part)
    return Entangled(*flat, connectors=tuple(all_connectors))


class Priv(Concurroid):
    """Thread-local state: private heaps in ``self``/``other``, empty joint.

    Transitions let the owning thread mutate, extend or shrink its own
    private heap; from the environment's viewpoint these change ``other``
    only, so assertions about ``self`` are trivially stable — the formal
    content of "private".

    ``value_domain`` bounds the values enumerated for model exploration.
    """

    def __init__(
        self,
        label: str = "pv",
        value_domain: Sequence[object] = (0, 1),
        max_cells: int = 4,
        max_addr: int = 8,
    ):
        self._label = label
        self._values = tuple(value_domain)
        #: Model bounds on private-heap growth via the alloc transition, so
        #: protocol closures stay finite (programs are not affected: their
        #: allocation goes through allocator actions, not this transition).
        #: ``max_cells`` caps the heap size; ``max_addr`` caps the address
        #: universe (otherwise alloc/transfer-away/alloc-again inflates the
        #: state space without bound).
        self._max_cells = max_cells
        self._max_addr = max_addr
        self._pcm = HeapPCM()

    @property
    def labels(self) -> tuple[str, ...]:
        return (self._label,)

    def pcms(self) -> Mapping[str, PCM]:
        return {self._label: self._pcm}

    def coherent(self, state: State) -> bool:
        if self._label not in state:
            return False
        comp = state[self._label]
        if not isinstance(comp.self_, Heap) or not isinstance(comp.other, Heap):
            return False
        if comp.joint != EMPTY:
            return False
        return comp.self_.join(comp.other).is_valid

    def transitions(self) -> Sequence[Transition]:
        lbl = self._label

        def write_params(state: State) -> Iterator[tuple]:
            heap = state.self_of(lbl)
            if isinstance(heap, Heap) and heap.is_valid:
                for p in sorted(heap.dom(), key=lambda q: q.addr):
                    for v in self._values:
                        yield (p, v)

        def write_requires(state: State, param: tuple) -> bool:
            p, __ = param
            heap = state.self_of(lbl)
            return isinstance(heap, Heap) and p in heap

        def write_effect(state: State, param: tuple) -> State:
            p, v = param
            return state.update(lbl, lambda c: c.with_self(c.self_.update(p, v)))

        def fresh_for(state: State):
            # Freshness must be global: a pointer unused in the private
            # heaps may still live in another concurroid's joint heap
            # (e.g. the allocator pool), and transferring it later would
            # collide.  Scan every heap in the state.
            used: set = set()
            for other_lbl in state:
                for part in (
                    state.self_of(other_lbl),
                    state.joint_of(other_lbl),
                    state.other_of(other_lbl),
                ):
                    if isinstance(part, Heap) and part.is_valid:
                        used.update(part.dom())
            from ..heap import fresh_ptr

            return fresh_ptr(used)

        def alloc_requires(state: State, __: object) -> bool:
            heap = state.self_of(lbl)
            if not isinstance(heap, Heap) or len(heap) >= self._max_cells:
                return False
            return fresh_for(state).addr <= self._max_addr

        def alloc_params(state: State) -> Iterator[object]:
            if alloc_requires(state, None):
                yield from self._values

        def alloc_effect(state: State, v: object) -> State:
            from ..heap import pts

            comp = state[lbl]
            p = fresh_for(state)
            return state.set(lbl, comp.with_self(comp.self_.join(pts(p, v))))

        def dealloc_params(state: State) -> Iterator[object]:
            heap = state.self_of(lbl)
            if isinstance(heap, Heap) and heap.is_valid:
                yield from sorted(heap.dom(), key=lambda q: q.addr)

        def dealloc_requires(state: State, p: object) -> bool:
            heap = state.self_of(lbl)
            return isinstance(heap, Heap) and p in heap

        def dealloc_effect(state: State, p: object) -> State:
            return state.update(lbl, lambda c: c.with_self(c.self_.free(p)))

        return (
            Transition(f"{lbl}.write", write_requires, write_effect, write_params),
            Transition(f"{lbl}.alloc", alloc_requires, alloc_effect, alloc_params),
            Transition(f"{lbl}.dealloc", dealloc_requires, dealloc_effect, dealloc_params),
        )

    def env_transitions(self):
        """Environment steps are restricted to in-place writes: allocation
        in the environment's private heap grows the state without bound
        and cannot affect any assertion about ``self`` or ``joint`` (there
        is no joint), so explorations stay finite without losing
        counterexamples."""
        return tuple(t for t in self.transitions() if t.name.endswith(".write"))

    def real_heap(self, state: State) -> Heap:
        comp = state[self._label]
        acc = EMPTY
        if isinstance(comp.self_, Heap):
            acc = acc.join(comp.self_)
        if isinstance(comp.other, Heap):
            acc = acc.join(comp.other)
        return acc

    # Private allocation changes the self-heap footprint by design.
    preserves_footprint = False
