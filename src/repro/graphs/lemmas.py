"""The key graph lemmas of §3.2, as executable checks.

In Coq these are proven once and for all; here each lemma is a *checker*
over concrete instances, and the test suite both (a) exercises the lemma
statements on enumerated graph families (the finite-model discharge of the
universally-quantified originals) and (b) uses them the way the proof does
— ``max_tree2`` to conclude that ``span`` builds a tree in the
``rl = rr = true`` case, ``subgraph`` monotonicity for stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..heap import NULL, Ptr
from .paths import is_tree, maximal
from .reprs import GraphView


def max_tree2_holds(
    g: GraphView,
    x: Ptr,
    y1: Ptr,
    y2: Ptr,
    ty1: frozenset[Ptr],
    ty2: frozenset[Ptr],
) -> bool:
    """Check the *conclusion* of Lemma ``max_tree2`` given its hypotheses.

    Returns True when the hypotheses hold and the conclusion
    ``tree x (#x \\+ ty1 \\+ ty2)`` follows; returns True vacuously when a
    hypothesis fails (so universally quantifying this function over a graph
    family checks the lemma).
    """
    if not _max_tree2_hypotheses(g, x, y1, y2, ty1, ty2):
        return True
    combined = frozenset((x,)) | ty1 | ty2
    return is_tree(g, x, combined)


def _max_tree2_hypotheses(
    g: GraphView,
    x: Ptr,
    y1: Ptr,
    y2: Ptr,
    ty1: frozenset[Ptr],
    ty2: frozenset[Ptr],
) -> bool:
    successors = frozenset(s for s in g.successors(x) if s != NULL)
    targets = frozenset(s for s in (y1, y2) if s != NULL)
    if x not in g or successors != targets:
        return False
    for y, ty in ((y1, ty1), (y2, ty2)):
        if y == NULL:
            if ty:
                return False
            continue
        if not is_tree(g, y, ty) or not maximal(g, ty):
            return False
    if ty1 & ty2:  # valid (ty1 \+ ty2)
        return False
    if x in ty1 or x in ty2:
        return False
    return True


@dataclass(frozen=True)
class MarkedGraph:
    """A graph plus its subjective marking split — the data ``subgraph``
    relates between two states (graph, self-marked, other-marked)."""

    g: GraphView
    self_marked: frozenset[Ptr]
    other_marked: frozenset[Ptr]


def subgraph(s1: MarkedGraph, s2: MarkedGraph) -> bool:
    """The ``subgraph`` relation of §3.2 between pre- and post-states.

    (i) same node set; (ii) self- and other-marked sets only grow;
    (iii) content of unmarked nodes is unchanged; (iv) edges only get
    nullified (never redirected or added).
    """
    g1, g2 = s1.g, s2.g
    if g1.nodes() != g2.nodes():
        return False
    if not s1.self_marked <= s2.self_marked:
        return False
    if not s1.other_marked <= s2.other_marked:
        return False
    for y in g2.nodes():
        if not g2.mark(y) and g1.cont(y) != g2.cont(y):
            return False
    for x in g2.nodes():
        if g2.edgl(x) not in (NULL, g1.edgl(x)):
            return False
        if g2.edgr(x) not in (NULL, g1.edgr(x)):
            return False
    return True


def subgraph_reflexive(s: MarkedGraph) -> bool:
    """``subgraph`` is reflexive (needed as the base case of its use as a
    stability invariant)."""
    return subgraph(s, s)


def subgraph_transitive(s1: MarkedGraph, s2: MarkedGraph, s3: MarkedGraph) -> bool:
    """``subgraph s1 s2 -> subgraph s2 s3 -> subgraph s1 s3`` on instances."""
    if subgraph(s1, s2) and subgraph(s2, s3):
        return subgraph(s1, s3)
    return True


def fronts_of(g: GraphView, t: Iterable[Ptr]) -> frozenset[Ptr]:
    """The set of 1-step successors of ``t`` (its front, §2.1) incl. ``t``."""
    t_set = frozenset(t)
    out = set(t_set)
    for x in t_set:
        for y in g.successors(x):
            if y != NULL:
                out.add(y)
    return frozenset(out)
