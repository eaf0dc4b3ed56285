"""Action trees: the denotational semantics of §5.1, executable.

"Programs in FCSL are encoded as their values in the denotational
semantics of sets of action trees ... finite, partial approximations of
the behavior of FCSL commands."  This module reifies programs into that
form: a :class:`Tree` is the program with all monadic plumbing grafted
away — only returns, atomic actions (with result-indexed continuations)
and parallel nodes remain; ``Call`` unfoldings are bounded by an
approximation depth, with :class:`Unfinished` marking the cut (the
paper's finite approximants; the full denotation is their limit).

The point of carrying a second semantics is *adequacy*: an independent,
much simpler evaluator over trees must agree with the operational
interpreter of :mod:`repro.semantics.interp` on every schedule.  The
differential tests in ``tests/test_trees.py`` check exactly that, which
guards the interpreter (thread soup, views, join realignment) against
bugs with a semantics too small to share them.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.action import Action
from ..core.prog import ActCall, Bind, Call, HideProg, Par, Prog, Ret
from ..core.state import State, SubjState
from ..core.world import World


class Tree:
    """Base class of action-tree nodes."""

    __slots__ = ()


class TRet(Tree):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        return f"TRet({self.value!r})"


class TAct(Tree):
    """An atomic action whose continuation is indexed by the result."""

    __slots__ = ("action", "args", "kont")

    def __init__(self, action: Action, args: tuple, kont: Callable[[Any], Tree]):
        self.action = action
        self.args = args
        self.kont = kont

    def __repr__(self) -> str:
        return f"TAct({self.action.name}{self.args!r})"


class TPar(Tree):
    __slots__ = ("left", "right", "kont")

    def __init__(self, left: Tree, right: Tree, kont: Callable[[tuple], Tree]):
        self.left = left
        self.right = right
        self.kont = kont

    def __repr__(self) -> str:
        return f"TPar({self.left!r}, {self.right!r})"


class Unfinished(Tree):
    """The approximation cut: behaviour beyond the unfolding depth."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Unfinished"


UNFINISHED = Unfinished()


def graft(tree: Tree, k: Callable[[Any], Tree]) -> Tree:
    """Sequential composition on trees (the Kleisli extension)."""
    if isinstance(tree, TRet):
        return k(tree.value)
    if isinstance(tree, Unfinished):
        return tree
    if isinstance(tree, TAct):
        return TAct(tree.action, tree.args, lambda v: graft(tree.kont(v), k))
    if isinstance(tree, TPar):
        return TPar(tree.left, tree.right, lambda pair: graft(tree.kont(pair), k))
    raise TypeError(f"cannot graft onto {tree!r}")


def denote(prog: Prog, depth: int = 16) -> Tree:
    """The depth-``depth`` approximant of a program's denotation.

    Each ``Call`` unfolding consumes one unit of depth; loop-free programs
    denote totally for sufficient depth, loops yield :data:`UNFINISHED`
    cuts along their infinite branches — the finite approximations of
    Tarski's fixed point (§5.1).
    """
    if isinstance(prog, Ret):
        return TRet(prog.value)
    if isinstance(prog, ActCall):
        return TAct(prog.action, prog.args, TRet)
    if isinstance(prog, Bind):
        return graft(denote(prog.first, depth), lambda v: denote(prog.cont(v), depth))
    if isinstance(prog, Par):
        return TPar(denote(prog.left, depth), denote(prog.right, depth), TRet)
    if isinstance(prog, Call):
        if depth <= 0:
            return UNFINISHED
        return denote(prog.expand(), depth - 1)
    if isinstance(prog, HideProg):
        raise NotImplementedError(
            "hide changes the installed world mid-tree; denote the body "
            "against the extended world instead"
        )
    raise TypeError(f"cannot denote {prog!r}")


def tree_size(tree: Tree, probe_values: tuple = (None,)) -> int:
    """A rough size measure that probes continuations with given values
    (diagnostics only: continuations are opaque)."""
    if isinstance(tree, (TRet, Unfinished)):
        return 1
    if isinstance(tree, TAct):
        return 1 + max(
            (tree_size(try_kont(tree.kont, v), probe_values) for v in probe_values),
            default=0,
        )
    if isinstance(tree, TPar):
        return 1 + tree_size(tree.left, probe_values) + tree_size(tree.right, probe_values)
    raise TypeError(f"unknown tree {tree!r}")


def try_kont(kont, value):
    """Apply an opaque continuation to a probe value; :data:`UNFINISHED`
    if it rejects the value.  Shared by :func:`tree_size` and the static
    program walker of :mod:`repro.analysis.programs`."""
    try:
        return kont(value)
    except Exception:  # noqa: BLE001 - probing with an ill-typed value
        return UNFINISHED


# -- the independent tree evaluator -----------------------------------------------------------------
#
# Deliberately minimal: no continuation stacks, no administrative
# normalization, no hide scopes — just a soup of tree cursors.  Sharing as
# little code as possible with interp.py is what gives the differential
# tests their power.


class _TreeThread:
    __slots__ = ("tree", "selfs", "parent", "slot")

    def __init__(self, tree: Tree, selfs: dict, parent: int | None, slot: int):
        self.tree = tree
        self.selfs = selfs
        self.parent = parent
        self.slot = slot  # 0 = left child, 1 = right child


class _TreeMachine:
    def __init__(self, world: World, init: State, tree: Tree):
        self.world = world
        self.joints = {lbl: init.joint_of(lbl) for lbl in init}
        self.env = {lbl: init.other_of(lbl) for lbl in init}
        self.threads: dict[int, _TreeThread] = {
            0: _TreeThread(tree, {lbl: init.self_of(lbl) for lbl in init}, None, 0)
        }
        self.pending: dict[int, list] = {}  # parent tid -> [left?, right?, kont]
        self.next_tid = 1
        self.result: Any = None
        self.done = False
        self.cut = False  # hit an Unfinished leaf

    def clone(self) -> "_TreeMachine":
        out = _TreeMachine.__new__(_TreeMachine)
        out.world = self.world
        out.joints = dict(self.joints)
        out.env = dict(self.env)
        out.threads = {
            tid: _TreeThread(t.tree, dict(t.selfs), t.parent, t.slot)
            for tid, t in self.threads.items()
        }
        out.pending = {tid: list(v) for tid, v in self.pending.items()}
        out.next_tid = self.next_tid
        out.result = self.result
        out.done = self.done
        out.cut = self.cut
        return out

    def _view(self, tid: int) -> State:
        me = self.threads[tid]
        parts = {}
        for lbl in self.joints:
            pcm = self.world.pcm_of(lbl)
            other = self.env[lbl]
            for uid, th in self.threads.items():
                if uid != tid:
                    other = pcm.join(other, th.selfs[lbl])
            parts[lbl] = SubjState(me.selfs[lbl], self.joints[lbl], other)
        return State(parts)

    def _settle(self) -> None:
        """Fork TPars, finish TRets, mark Unfinished cuts."""
        progress = True
        while progress:
            progress = False
            for tid in sorted(self.threads):
                th = self.threads.get(tid)
                if th is None:
                    continue
                if isinstance(th.tree, TPar):
                    l_tid, r_tid = self.next_tid, self.next_tid + 1
                    self.next_tid += 2
                    unit_selfs = {
                        lbl: self.world.pcm_of(lbl).unit for lbl in self.joints
                    }
                    self.threads[l_tid] = _TreeThread(th.tree.left, dict(unit_selfs), tid, 0)
                    self.threads[r_tid] = _TreeThread(th.tree.right, dict(unit_selfs), tid, 1)
                    self.pending[tid] = [None, None, th.tree.kont, 0]
                    th.tree = None  # waiting
                    progress = True
                elif isinstance(th.tree, TRet):
                    if th.parent is None:
                        self.result = th.tree.value
                        self.done = True
                        th.tree = None
                    else:
                        slot = self.pending[th.parent]
                        slot[th.slot] = th.tree.value
                        slot[3] += 1
                        parent = self.threads[th.parent]
                        for lbl, contrib in th.selfs.items():
                            pcm = self.world.pcm_of(lbl)
                            parent.selfs[lbl] = pcm.join(parent.selfs[lbl], contrib)
                        del self.threads[tid]
                        if slot[3] == 2:
                            parent.tree = slot[2]((slot[0], slot[1]))
                            del self.pending[th.parent]
                        progress = True
                elif isinstance(th.tree, Unfinished):
                    self.cut = True
                    th.tree = None
                    progress = True

    def runnable(self) -> list[int]:
        return [tid for tid, th in self.threads.items() if isinstance(th.tree, TAct)]

    def step(self, tid: int) -> "_TreeMachine":
        out = self.clone()
        th = out.threads[tid]
        node = th.tree
        assert isinstance(node, TAct)
        view = out._view(tid)
        if not node.action.safe(view, *node.args):
            raise AssertionError(f"tree evaluation fault: {node.action.name}")
        value, view2 = node.action.step(view, *node.args)
        for lbl in view2.labels():
            th.selfs[lbl] = view2.self_of(lbl)
            out.joints[lbl] = view2.joint_of(lbl)
        th.tree = node.kont(value)
        out._settle()
        return out

    def signature(self) -> tuple:
        return (
            tuple(sorted(self.joints.items())),
            tuple(sorted(self.env.items())),
        )


def tree_outcomes(
    world: World,
    init: State,
    tree: Tree,
    *,
    max_machines: int = 100_000,
) -> set[tuple]:
    """All terminal ``(result, shared-signature)`` pairs of every
    interleaving of the tree (no interference).  Raises if an approximation
    cut is reached — callers must denote deep enough."""
    start = _TreeMachine(world, init, tree)
    start._settle()
    out: set[tuple] = set()
    stack = [start]
    visited = 0
    while stack:
        machine = stack.pop()
        visited += 1
        if visited > max_machines:
            raise AssertionError("tree exploration exceeded the machine budget")
        if machine.cut:
            raise AssertionError("hit an Unfinished cut; increase the denotation depth")
        if machine.done:
            out.add((machine.result, machine.signature()))
            continue
        tids = machine.runnable()
        if not tids:
            raise AssertionError("tree machine stuck")
        for tid in tids:
            stack.append(machine.step(tid))
    return out
