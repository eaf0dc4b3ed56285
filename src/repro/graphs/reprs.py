"""Heap-represented binary graphs (paper §3.2).

A heap ``h`` represents a graph when every pointer in ``h`` stores a triple
``(marked, left, right)`` whose successor pointers are ``null`` or nodes of
``h``.  ``GraphView`` packages a heap together with (a check of) this
``graph h`` predicate — the Python stand-in for the Coq proof value
``g : graph h`` that the paper threads through specs.  The partial
functions ``mark``, ``edgl``, ``edgr`` and ``cont`` default to
``(False, null, null)`` off the domain, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

from ..heap import NULL, Heap, Ptr, heap_of, ptr


class Side(Enum):
    """Successor selector for ``nullify``/``read_child`` (§2.2.2)."""

    LEFT = "left"
    RIGHT = "right"

    def __repr__(self) -> str:
        return self.name


LEFT = Side.LEFT
RIGHT = Side.RIGHT


class NotAGraphError(ValueError):
    """The heap does not satisfy the ``graph h`` predicate."""


def is_graph(h: Heap) -> bool:
    """The ``graph h`` predicate: validity plus well-formed node triples.

    Heaps are immutable, so the verdict is computed once per heap object
    and cached on it."""
    verdict = h._graph
    if verdict is None:
        verdict = h._graph = _well_formed(h)
    return verdict


def _well_formed(h: Heap) -> bool:
    if not h.is_valid:
        return False
    domain = h.dom()
    for __, value in h.items():
        if not (isinstance(value, tuple) and len(value) == 3):
            return False
        marked, left, right = value
        if not isinstance(marked, bool):
            return False
        if not isinstance(left, Ptr) or not isinstance(right, Ptr):
            return False
        if left != NULL and left not in domain:
            return False
        if right != NULL and right not in domain:
            return False
    return True


@dataclass(frozen=True)
class GraphView:
    """A heap paired with the (checked) evidence that it is a graph.

    Mirrors Coq's ``g : graph h``: constructing a ``GraphView`` *is* the
    proof obligation; every accessor below may then assume graph-ness.
    """

    heap: Heap

    def __post_init__(self) -> None:
        if not is_graph(self.heap):
            raise NotAGraphError(f"heap does not represent a graph: {self.heap!r}")

    # -- the partial functions of §3.2 ----------------------------------------

    def cont(self, x: Ptr) -> tuple[bool, Ptr, Ptr]:
        """The full triple stored at ``x``; ``(False, null, null)`` off-domain."""
        return self.heap.get(x, (False, NULL, NULL))

    def mark(self, x: Ptr) -> bool:
        """The "marked" bit of ``x``."""
        return self.cont(x)[0]

    def edgl(self, x: Ptr) -> Ptr:
        """The left successor of ``x``."""
        return self.cont(x)[1]

    def edgr(self, x: Ptr) -> Ptr:
        """The right successor of ``x``."""
        return self.cont(x)[2]

    def child(self, x: Ptr, side: Side) -> Ptr:
        return self.edgl(x) if side is Side.LEFT else self.edgr(x)

    # -- observations ----------------------------------------------------------

    def nodes(self) -> frozenset[Ptr]:
        return self.heap.dom()

    def marked_nodes(self) -> frozenset[Ptr]:
        return frozenset(x for x in self.heap if self.mark(x))

    def unmarked_nodes(self) -> frozenset[Ptr]:
        return frozenset(x for x in self.heap if not self.mark(x))

    def successors(self, x: Ptr) -> tuple[Ptr, Ptr]:
        __, left, right = self.cont(x)
        return left, right

    def __iter__(self) -> Iterator[Ptr]:
        return iter(self.heap)

    def __contains__(self, x: Ptr) -> bool:
        return x in self.heap

    # -- the physical mutators used by the SpanTree transitions (§3.3) ---------

    def mark_node(self, x: Ptr) -> Heap:
        """``mark_node g x`` — the heap with ``x``'s bit set."""
        __, left, right = self.cont(x)
        return self.heap.update(x, (True, left, right))

    def null_edge(self, side: Side, x: Ptr) -> Heap:
        """``null_edge g c x`` — the heap with ``x``'s ``side`` edge removed."""
        marked, left, right = self.cont(x)
        if side is Side.LEFT:
            return self.heap.update(x, (marked, NULL, right))
        return self.heap.update(x, (marked, left, NULL))


def graph_heap(adjacency: Mapping[int, tuple[int, int]], marked: frozenset[int] = frozenset()) -> Heap:
    """Build a graph heap from integer adjacency: ``{node: (left, right)}``.

    Node 0 means "no successor" (null).  Convenience for tests, examples
    and the Figure 2 workload.
    """
    cells = {}
    for node, (left, right) in adjacency.items():
        cells[ptr(node)] = (node in marked, ptr(left), ptr(right))
    h = heap_of(cells)
    if not is_graph(h):
        raise NotAGraphError(f"adjacency does not describe a graph: {adjacency!r}")
    return h


def figure2_graph() -> Heap:
    """The five-node graph a–e of Figure 2 (a=1, b=2, c=3, d=4, e=5).

    Edges as drawn in stage (1): a -> (b, c); b -> (d, e); c -> (e, c) —
    c has a self-loop, and e is shared between b and c, so both a redundant
    edge and a marking race arise, exercising every branch of ``span``.
    """
    return graph_heap({1: (2, 3), 2: (4, 5), 3: (5, 3), 4: (0, 0), 5: (0, 0)})
