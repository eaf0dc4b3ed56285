"""Union-map style heaps.

Heaps are finite maps from (non-null) pointers to values, with *disjoint
union* ``\\+`` as the PCM join.  Following mathcomp's union-maps (which the
paper's implementation reuses, see §3.2), the carrier includes a single
undefined heap ``UNDEF`` that absorbs joins: joining two heaps with
overlapping domains yields ``UNDEF``, and ``valid h`` distinguishes proper
heaps from it.  This mirrors the Coq development where ``valid h`` appears
as the first conjunct of the ``graph`` predicate.

Heaps are immutable; all operations return new heaps.  Values must be
hashable (the case studies store booleans, pointers and small tuples).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from .pointers import NULL, Ptr, fresh_ptr


class Heap:
    """An immutable finite map from pointers to values, or the undefined heap.

    Use :func:`empty`, :func:`pts`, :func:`heap_of` and :meth:`join` to
    build heaps; ``h1.join(h2)`` is the paper's ``h1 \\+ h2``.
    """

    #: ``_graph`` caches the ``graph h`` verdict of
    #: :func:`repro.graphs.reprs.is_graph` (None until first asked), the
    #: way ``_hash`` caches the hash: heaps are immutable, so it never
    #: goes stale.
    __slots__ = ("_items", "_hash", "_is_valid", "_graph")

    def __init__(self, items: Mapping[Ptr, Any] | None = None, *, _valid: bool = True):
        if not _valid:
            self._items: dict[Ptr, Any] = {}
            self._is_valid = False
        else:
            items = dict(items or {})
            for p in items:
                if not isinstance(p, Ptr):
                    raise TypeError(f"heap domain must contain Ptr, got {p!r}")
                if p == NULL:
                    raise ValueError("null pointer cannot be in a heap domain")
            self._items = items
            self._is_valid = True
        self._hash: int | None = None
        self._graph: bool | None = None

    @classmethod
    def _of(cls, items: dict[Ptr, Any]) -> "Heap":
        """A valid heap over ``items``, which the caller guarantees
        (``Ptr`` keys, no ``NULL``) and hands over."""
        heap = object.__new__(cls)
        heap._items = items
        heap._is_valid = True
        heap._hash = None
        heap._graph = None
        return heap

    def __reduce__(self) -> tuple:
        # The cached hash and graph verdict are never pickled; the
        # undefined heap unpickles as the ``UNDEF`` singleton.
        if not self._is_valid:
            return (_undefined, ())
        return (Heap, (self._items,))

    # -- basic observations -------------------------------------------------

    @property
    def is_valid(self) -> bool:
        """``valid h`` — true for every heap except ``UNDEF``."""
        return self._is_valid

    def dom(self) -> frozenset[Ptr]:
        """The domain of the heap (empty for ``UNDEF``)."""
        return frozenset(self._items)

    def __contains__(self, p: Ptr) -> bool:
        return self._is_valid and p in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Ptr]:
        return iter(self._items)

    def items(self) -> Iterator[tuple[Ptr, Any]]:
        return iter(self._items.items())

    def get(self, p: Ptr, default: Any = None) -> Any:
        return self._items.get(p, default)

    def __getitem__(self, p: Ptr) -> Any:
        if not self._is_valid:
            raise KeyError("read from the undefined heap")
        return self._items[p]

    @property
    def is_empty(self) -> bool:
        return self._is_valid and not self._items

    # -- PCM structure -------------------------------------------------------

    def join(self, other: "Heap") -> "Heap":
        """Disjoint union ``self \\+ other``; ``UNDEF`` on domain overlap.
        Joining with the empty heap returns the other operand itself."""
        if not isinstance(other, Heap):
            raise TypeError(f"cannot join Heap with {other!r}")
        if not self._is_valid or not other._is_valid:
            return UNDEF
        if not other._items:
            return self
        if not self._items:
            return other
        if self._items.keys() & other._items.keys():
            return UNDEF
        merged = dict(self._items)
        merged.update(other._items)
        return Heap._of(merged)

    def __add__(self, other: "Heap") -> "Heap":
        return self.join(other)

    # -- updates (all return fresh heaps) -------------------------------------

    def free(self, p: Ptr) -> "Heap":
        """``free p h`` — the heap with ``p`` deallocated (§3.2)."""
        if not self._is_valid:
            return UNDEF
        if p not in self._items:
            return self
        rest = dict(self._items)
        del rest[p]
        return Heap._of(rest)

    def update(self, p: Ptr, value: Any) -> "Heap":
        """Strong update of an *existing* pointer; ``UNDEF`` if absent.

        Heap mutation in the case studies never changes the footprint
        (the concurroid metatheory requires footprint preservation), so an
        update of a dangling pointer is a fault, modelled by ``UNDEF``.
        """
        if not self._is_valid or p not in self._items:
            return UNDEF
        updated = dict(self._items)
        updated[p] = value
        return Heap._of(updated)

    def alloc(self, value: Any) -> tuple[Ptr, "Heap"]:
        """Extend the heap with a fresh pointer storing ``value``."""
        if not self._is_valid:
            raise ValueError("cannot allocate in the undefined heap")
        p = fresh_ptr(self._items)
        extended = dict(self._items)
        extended[p] = value
        return p, Heap(extended)

    def restrict(self, doms: Iterable[Ptr]) -> "Heap":
        """The sub-heap with domain ``dom(self) ∩ doms``."""
        if not self._is_valid:
            return UNDEF
        keep = set(doms)
        return Heap._of({p: v for p, v in self._items.items() if p in keep})

    def remove_all(self, doms: Iterable[Ptr]) -> "Heap":
        """The sub-heap with ``doms`` removed from the domain."""
        if not self._is_valid:
            return UNDEF
        drop = set(doms)
        return Heap._of({p: v for p, v in self._items.items() if p not in drop})

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Heap):
            return NotImplemented
        if self._is_valid != other._is_valid:
            return False
        return self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            if not self._is_valid:
                self._hash = hash("Heap.UNDEF")
            else:
                self._hash = hash(frozenset(self._items.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._is_valid:
            return "Heap(UNDEF)"
        if not self._items:
            return "Heap(empty)"
        cells = ", ".join(
            f"{p!r} :-> {v!r}" for p, v in sorted(self._items.items(), key=lambda kv: kv[0].addr)
        )
        return f"Heap({cells})"


#: The undefined heap — absorbing element of ``\+``.
UNDEF = Heap(_valid=False)


def _undefined() -> Heap:
    """``UNDEF``, for unpickling."""
    return UNDEF


#: The empty heap — unit of ``\+``.
EMPTY = Heap({})


def empty() -> Heap:
    """The empty heap (PCM unit)."""
    return EMPTY


def pts(p: Ptr, value: Any) -> Heap:
    """The singleton heap ``p :-> value``."""
    if p == NULL:
        raise ValueError("cannot form a singleton heap at null")
    return Heap({p: value})


def heap_of(cells: Mapping[Ptr, Any]) -> Heap:
    """Build a heap from a mapping of cells."""
    return Heap(cells)


def join_all(heaps: Iterable[Heap]) -> Heap:
    """Iterated disjoint union; the empty iterable yields the empty heap."""
    acc = EMPTY
    for h in heaps:
        acc = acc.join(h)
    return acc
