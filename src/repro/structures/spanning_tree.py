"""The concurrent spanning-tree construction (§2–§3, Figures 1–4).

``span`` traverses a heap-represented binary graph, marking nodes with CAS
and pruning redundant edges, so that the surviving edges form a maximal
tree rooted at the argument.  This module is the Python rendition of the
paper's running example, component by component:

* :class:`SpanTreeConcurroid` — the ``SpanTree`` concurroid of §3.3:
  joint = the graph heap, ``self``/``other`` = disjoint sets of nodes
  marked by the observing thread and its environment; transitions
  ``marknode`` and ``nullify`` (the latter *self-enabled*: only a thread
  that marked ``x`` may cut ``x``'s edges — the asymmetry Chalice cannot
  express, §7).
* :class:`TryMarkAction`, :class:`ReadChildAction`, :class:`NullifyAction`
  — the atomic actions of §2.2.2/§3.4 (``trymark`` erases to CAS).
* :func:`make_span` — Figure 3's program, recursion via ``ffix``,
  children spawned with ``par``.
* :func:`span_spec` — Figure 4's ``span_tp`` with its bi-directional
  postcondition (forward: ``tree``/``maximal`` in the post-graph;
  backward: ``front`` of the pre-graph is marked).
* :func:`make_span_root` / :func:`span_root_spec` — §3.5's ``hide``:
  the top-level call runs interference-free and therefore produces a
  *spanning* tree.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from ..core.action import Action
from ..core.concurroid import Concurroid, Transition
from ..core.prog import Prog, act, bind, ffix, hide, par, ret, seq
from ..core.spec import Spec
from ..core.state import State, SubjState, state_of
from ..graphs.lemmas import MarkedGraph, subgraph
from ..graphs.paths import connected, front, is_tree, maximal
from ..graphs.reprs import LEFT, RIGHT, GraphView, Side, is_graph
from ..heap import EMPTY, NULL, Heap, Ptr
from ..pcm.base import PCM
from ..pcm.setpcm import SetPCM

#: Default labels, matching the paper's variable names.
SPAN_LABEL = "sp"
PRIV_LABEL = "pv"


class SpanTreeConcurroid(Concurroid):
    """The ``SpanTree sp`` concurroid (§3.3)."""

    def __init__(self, label: str = SPAN_LABEL):
        self._label = label
        self._pcm = SetPCM()

    @property
    def labels(self) -> tuple[str, ...]:
        return (self._label,)

    def pcms(self) -> Mapping[str, PCM]:
        return {self._label: self._pcm}

    # -- coherence (the ``coh`` predicate of §3.3) --------------------------------

    def coherent(self, state: State) -> bool:
        if self._label not in state:
            return False
        comp = state[self._label]
        if not isinstance(comp.joint, Heap) or not is_graph(comp.joint):
            return False
        if not isinstance(comp.self_, frozenset) or not isinstance(comp.other, frozenset):
            return False
        marked_union = self._pcm.join(comp.self_, comp.other)
        if not self._pcm.valid(marked_union):
            return False  # self and other must be disjoint
        return marked_union == frozenset(x for x, node in comp.joint.items() if node[0])

    # -- transitions ----------------------------------------------------------------

    def transitions(self) -> Sequence[Transition]:
        lbl = self._label

        def mark_params(state: State) -> Iterator[Ptr]:
            g = GraphView(state.joint_of(lbl))
            yield from sorted(g.unmarked_nodes(), key=lambda p: p.addr)

        def mark_requires(state: State, x: Ptr) -> bool:
            joint = state.joint_of(lbl)
            return is_graph(joint) and x in joint and not joint[x][0]

        def mark_effect(state: State, x: Ptr) -> State:
            def upd(comp: SubjState) -> SubjState:
                g = GraphView(comp.joint)
                return SubjState(
                    comp.self_ | frozenset((x,)), g.mark_node(x), comp.other
                )

            return state.update(lbl, upd)

        def nullify_params(state: State) -> Iterator[tuple[Ptr, Side]]:
            for x in sorted(state.self_of(lbl), key=lambda p: p.addr):
                yield (x, LEFT)
                yield (x, RIGHT)

        def nullify_requires(state: State, param: tuple[Ptr, Side]) -> bool:
            x, __ = param
            return x in state.self_of(lbl) and x in state.joint_of(lbl)

        def nullify_effect(state: State, param: tuple[Ptr, Side]) -> State:
            x, side = param

            def upd(comp: SubjState) -> SubjState:
                g = GraphView(comp.joint)
                return SubjState(comp.self_, g.null_edge(side, x), comp.other)

            return state.update(lbl, upd)

        return (
            Transition(f"{lbl}.marknode", mark_requires, mark_effect, mark_params),
            Transition(f"{lbl}.nullify", nullify_requires, nullify_effect, nullify_params),
        )

    # -- convenience --------------------------------------------------------------------

    def graph(self, state: State) -> GraphView:
        return GraphView(state.joint_of(self._label))

    def marked_by_self(self, state: State) -> frozenset[Ptr]:
        return state.self_of(self._label)

    def marked_by_other(self, state: State) -> frozenset[Ptr]:
        return state.other_of(self._label)

    def as_marked_graph(self, state: State) -> MarkedGraph:
        return MarkedGraph(
            self.graph(state),
            self.marked_by_self(state),
            self.marked_by_other(state),
        )

    def initial(self, graph_heap: Heap, self_marked: frozenset[Ptr] = frozenset(), other_marked: frozenset[Ptr] = frozenset()) -> SubjState:
        return SubjState(self_marked, graph_heap, other_marked)


# -- atomic actions ------------------------------------------------------------------------


class TryMarkAction(Action):
    """``trymark x`` — erases to ``CAS(x->m, 0, 1)`` (line 4 of Fig. 1).

    On success it takes the ``marknode`` transition (marking ``x`` and
    adding it to ``self`` simultaneously); on failure it is ``idle``.
    """

    def __init__(self, conc: SpanTreeConcurroid):
        super().__init__(conc)
        self._conc = conc
        self.name = f"{conc.label}.trymark"

    def safe(self, state: State, x: Ptr) -> bool:
        lbl = self._conc.label
        return lbl in state and x in state.joint_of(lbl)

    def step(self, state: State, x: Ptr) -> tuple[bool, State]:
        lbl = self._conc.label
        comp = state[lbl]
        g = GraphView(comp.joint)
        if g.mark(x):
            return False, state
        new = SubjState(comp.self_ | frozenset((x,)), g.mark_node(x), comp.other)
        return True, state.set(lbl, new)

    def footprint(self, state: State, x: Ptr) -> frozenset[Ptr]:
        return frozenset((x,))


class ReadChildAction(Action):
    """``read_child x side`` — pointer read; requires ``x ∈ self`` (§2.2.2)."""

    def __init__(self, conc: SpanTreeConcurroid):
        super().__init__(conc)
        self._conc = conc
        self.name = f"{conc.label}.read_child"

    def safe(self, state: State, x: Ptr, side: Side) -> bool:
        lbl = self._conc.label
        return lbl in state and x in state.self_of(lbl) and x in state.joint_of(lbl)

    def step(self, state: State, x: Ptr, side: Side) -> tuple[Ptr, State]:
        return self._conc.graph(state).child(x, side), state


class NullifyAction(Action):
    """``nullify x side`` — cut an edge out of a self-marked node."""

    def __init__(self, conc: SpanTreeConcurroid):
        super().__init__(conc)
        self._conc = conc
        self.name = f"{conc.label}.nullify"

    def safe(self, state: State, x: Ptr, side: Side) -> bool:
        lbl = self._conc.label
        return lbl in state and x in state.self_of(lbl) and x in state.joint_of(lbl)

    def step(self, state: State, x: Ptr, side: Side) -> tuple[None, State]:
        lbl = self._conc.label
        comp = state[lbl]
        g = GraphView(comp.joint)
        return None, state.set(lbl, comp.with_joint(g.null_edge(side, x)))

    def footprint(self, state: State, x: Ptr, side: Side) -> frozenset[Ptr]:
        return frozenset((x,))


class SpanActions:
    """The action bundle of one ``SpanTree`` instance."""

    def __init__(self, conc: SpanTreeConcurroid):
        self.concurroid = conc
        self.trymark = TryMarkAction(conc)
        self.read_child = ReadChildAction(conc)
        self.nullify = NullifyAction(conc)


# -- the program (Figure 3) --------------------------------------------------------------------


def make_span(actions: SpanActions):
    """Build ``span : ptr -> Prog`` over a ``SpanTree`` instance."""

    def gen(loop):
        def body(x: Ptr) -> Prog:
            if x == NULL:
                return ret(False)
            return bind(act(actions.trymark, x), lambda b: _marked_branch(b, x, loop))

        return body

    def _marked_branch(b: bool, x: Ptr, loop) -> Prog:
        if not b:
            return ret(False)
        return bind(
            act(actions.read_child, x, LEFT),
            lambda xl: bind(
                act(actions.read_child, x, RIGHT),
                lambda xr: bind(
                    par(loop(xl), loop(xr)),
                    lambda rs: seq(
                        ret(None) if rs[0] else act(actions.nullify, x, LEFT),
                        ret(None) if rs[1] else act(actions.nullify, x, RIGHT),
                        ret(True),
                    ),
                ),
            ),
        )

    return ffix(gen, label="span")


# -- the specification (Figure 4) ----------------------------------------------------------------


def span_spec(conc: SpanTreeConcurroid, x: Ptr) -> Spec:
    """``span_tp`` for the call ``span x`` (open world)."""

    def pre(s: State) -> bool:
        return x == NULL or x in s.joint_of(conc.label)

    def post(r: Any, s2: State, s1: State) -> bool:
        g1, g2 = conc.graph(s1), conc.graph(s2)
        if not subgraph(conc.as_marked_graph(s1), conc.as_marked_graph(s2)):
            return False
        self1, self2 = conc.marked_by_self(s1), conc.marked_by_self(s2)
        if r:
            if x == NULL:
                return False
            if not self1 <= self2:
                return False
            t = self2 - self1  # self s2 = self i \+ t
            marked_total = self2 | conc.marked_by_other(s2)
            return (
                is_tree(g2, x, t)
                and maximal(g2, t)
                and front(g1, t, marked_total)
            )
        return (x == NULL or g2.mark(x)) and self2 == self1

    return Spec(f"span_tp({x!r})", pre, post)


# -- hiding: the top-level call (§3.5) -------------------------------------------------------------


def make_span_root(
    actions: SpanActions,
    x: Ptr,
    *,
    priv_label: str = PRIV_LABEL,
) -> Prog:
    """``span_root x = Do (priv_hide pv (graph_dec sp) (h1, Unit) [span sp x])``.

    The decoration donates the *entire* private heap (which the
    precondition requires to be the graph ``h1``); the initial auxiliary
    self is the empty set of marked nodes.
    """
    span = make_span(actions)
    return hide(
        actions.concurroid,
        donate_heap=lambda h: (h, EMPTY),
        initial_self=frozenset(),
        body=span(x),
        priv_label=priv_label,
    )


def span_root_spec(x: Ptr, *, priv_label: str = PRIV_LABEL) -> Spec:
    """``span_root_tp`` (§3.5): under no interference, ``span`` marks every
    node and the surviving edges form a spanning tree rooted at ``x``."""

    def pre(s: State) -> bool:
        h1 = s.self_of(priv_label)
        if not isinstance(h1, Heap) or not is_graph(h1):
            return False
        g1 = GraphView(h1)
        if g1.marked_nodes():
            return False  # forall y, ~~(mark g1 y)
        return x in h1 and connected(g1, x, h1.dom())

    def post(r: Any, s2: State, s1: State) -> bool:
        h1, h2 = s1.self_of(priv_label), s2.self_of(priv_label)
        if not is_graph(h2):
            return False
        g1, g2 = GraphView(h1), GraphView(h2)
        if h1.dom() != h2.dom():
            return False
        for y in h2.dom():  # edges only nullified, never added or redirected
            if g2.edgl(y) not in (NULL, g1.edgl(y)):
                return False
            if g2.edgr(y) not in (NULL, g1.edgr(y)):
                return False
        t = h2.dom()  # dom t =i dom h1
        return is_tree(g2, x, t)

    return Spec(f"span_root_tp({x!r})", pre, post)


# -- state builders -----------------------------------------------------------------------------


def open_world_state(
    conc: SpanTreeConcurroid,
    graph_heap: Heap,
    self_marked: frozenset[Ptr] = frozenset(),
    other_marked: frozenset[Ptr] = frozenset(),
    *,
    priv_label: str = PRIV_LABEL,
) -> State:
    """An initial state for the open-world ``span_tp`` scenarios."""
    return state_of(
        **{
            conc.label: conc.initial(graph_heap, self_marked, other_marked),
            priv_label: SubjState(EMPTY, EMPTY, EMPTY),
        }
    )


def closed_world_state(graph_heap: Heap, *, priv_label: str = PRIV_LABEL) -> State:
    """An initial state for ``span_root``: the graph in the private heap."""
    return state_of(**{priv_label: SubjState(graph_heap, EMPTY, EMPTY)})
