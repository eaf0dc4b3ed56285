"""Static footprint analysis (the core of fcsl-race and fcsl-live).

Two layers, each usable on its own:

1. **Footprints** (:func:`action_footprint`): run an atomic action over a
   family of modelled states behind the recording-heap shim
   (:mod:`repro.analysis.heapshim`) and aggregate which label-attributed
   heap cells its guard reads, its step reads and writes, which ``self``
   components it changes (and whether those changes are history-style
   *appends*), and whether it is observably pure.  No program is ever
   executed under a scheduler — this is the same state-family sampling
   the linter uses.  :func:`footprints_conflict` is the cell-level
   conflict relation over two footprints.

2. **Instance collection** (:func:`collect_program`): walk a program
   tree gathering every atomic-action *instance* ``(action, args)``, the
   statically-parallel pairs (instances on opposite sides of some
   ``par``), and the sequential-order pairs.  Continuations are probed
   concolically (:func:`_concolic_collect`): besides the opaque probe
   values the ``FCSL030`` walker uses, every value an action was
   *observed* to return over the state family is fed back into the
   walk, so value-dependent branches (spin loops, version checks) are
   discovered instead of silently skipped.

Every approximation here errs toward interference: an unprobeable
action gets no footprint, and an incomplete walk is marked as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..core.action import Action
from ..core.prog import ActCall, Bind, Call, HideProg, Par, Prog, Ret
from ..core.state import State
from ..heap import Heap, Ptr
from .heapshim import effective_log, instrument_state
from .programs import MAX_NODES, PROBE_VALUES, _call_key, _Probe

#: An action instance as the interpreter keys it: ``(id(action), args)``
#: (matching :meth:`repro.semantics.interp.Config.pending_action`).
InstanceKey = tuple

#: A cell qualified by the label whose component holds it.
Cell = tuple  # (label, Ptr)

#: Cap on (state, args) runs per footprint probe.
MAX_FOOTPRINT_RUNS = 400

#: Concolic collection rounds (observed values fed back into the walk).
COLLECT_ROUNDS = 4

#: Cap on distinct action instances the concolic collector will chase.  A
#: program whose instance set blows past this (value-rich loops like the
#: allocator's take/retry) is marked *incomplete* — the fail-closed
#: direction — instead of burning minutes probing footprints.
MAX_INSTANCES = 40

#: Label used when a touched pointer matches no component of the pre-state
#: (e.g. a freshly allocated private cell).
UNATTRIBUTED = "?"


# -- footprints -----------------------------------------------------------------------


@dataclass(frozen=True)
class Footprint:
    """Observed effect summary of one action instance over a state family."""

    action: str
    labels: frozenset  # labels of the action's own concurroid
    guard_reads: frozenset  # cells the guard (``safe``) reads
    reads: frozenset  # cells read by guard or step
    writes: frozenset  # cells written, allocated or freed
    self_touch: frozenset  # labels whose ``self`` component changes
    joint_aux: frozenset  # labels whose non-heap joint state changes
    hist_appends: frozenset  # self changes that only ever grow
    pure: bool  # every observed run returned the state unchanged
    runs: int  # how many (state, args) runs informed this

    @property
    def touched(self) -> frozenset:
        return self.reads | self.writes

    def widened(self, *, extra_writes: Iterable[Cell] = ()) -> "Footprint":
        """A strictly coarser footprint (for the soundness mutation test)."""
        return Footprint(
            action=self.action,
            labels=self.labels,
            guard_reads=self.guard_reads,
            reads=self.reads,
            writes=self.writes | frozenset(extra_writes),
            self_touch=self.self_touch,
            joint_aux=self.joint_aux,
            hist_appends=self.hist_appends,
            pure=False,
            runs=self.runs,
        )

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "labels": sorted(self.labels),
            "guard_reads": sorted(map(repr, self.guard_reads)),
            "reads": sorted(map(repr, self.reads)),
            "writes": sorted(map(repr, self.writes)),
            "self_touch": sorted(self.self_touch),
            "joint_aux": sorted(self.joint_aux),
            "hist_appends": sorted(self.hist_appends),
            "pure": self.pure,
            "runs": self.runs,
        }


def _owners(state: State, p: Ptr) -> frozenset:
    """Labels whose components hold ``p`` (over-approximate on ambiguity)."""
    labels = set()
    for label, comp in state.items():
        for part in (comp.self_, comp.joint, comp.other):
            if isinstance(part, Heap) and part.is_valid and p in part:
                labels.add(label)
    return frozenset(labels) if labels else frozenset((UNATTRIBUTED,))


def _attribute(state: State, ptrs: Iterable[Ptr]) -> set:
    cells = set()
    for p in ptrs:
        for label in _owners(state, p):
            cells.add((label, p))
    return cells


def _safe(action: Action, state: State, args: tuple) -> bool:
    try:
        return bool(action.safe(state, *args))
    except Exception:  # noqa: BLE001 - a crashing guard is "not safe"
        return False


def _extends(old: Any, new: Any) -> bool:
    """Best-effort "``new`` grew out of ``old``" (history-style append)."""
    try:
        if hasattr(old, "items") and hasattr(new, "items"):
            return set(old.items()) <= set(new.items())
        if isinstance(old, frozenset) and isinstance(new, frozenset):
            return old <= new
        if isinstance(old, int) and isinstance(new, int):
            return old <= new
    except Exception:  # noqa: BLE001 - exotic components: not an append
        return False
    return False


def action_footprint(
    action: Action,
    args: tuple,
    states: Sequence[State],
    *,
    max_runs: int = MAX_FOOTPRINT_RUNS,
) -> tuple[Footprint, frozenset]:
    """Probe ``action(*args)`` over ``states``.

    Returns the aggregated :class:`Footprint` plus the set of (hashable)
    values the action was observed to return — fuel for the concolic
    instance collector.
    """
    guard_reads: set = set()
    reads: set = set()
    writes: set = set()
    self_touch: set = set()
    joint_aux: set = set()
    hist_appends: set = set()
    observed: set = set()
    pure = True
    runs = 0
    for s in states:
        if runs >= max_runs:
            break
        inst, log = instrument_state(s)
        if not _safe(action, inst, args):
            continue
        guard_reads |= _attribute(s, log.reads)
        try:
            value, post = action.step(inst, *args)
        except Exception:  # noqa: BLE001 - crashing step: no run recorded
            continue
        runs += 1
        try:
            hash(value)
            observed.add(value)
        except TypeError:
            pass
        eff = effective_log(post, reads=log)
        reads |= _attribute(s, eff.reads)
        writes |= _attribute(s, eff.writes | eff.frees)
        writes |= _attribute(post, eff.allocs)
        if post != inst:
            pure = False
        for label, comp in s.items():
            if label not in post:
                continue
            post_comp = post[label]
            if post_comp.self_ != comp.self_:
                self_touch.add(label)
                if _extends(comp.self_, post_comp.self_):
                    hist_appends.add(label)
            if post_comp.joint != comp.joint and not isinstance(comp.joint, Heap):
                joint_aux.add(label)
    fp = Footprint(
        action=getattr(action, "name", repr(action)),
        labels=frozenset(action.concurroid.labels),
        guard_reads=frozenset(guard_reads),
        reads=frozenset(reads | guard_reads),
        writes=frozenset(writes),
        self_touch=frozenset(self_touch),
        joint_aux=frozenset(joint_aux),
        hist_appends=frozenset(hist_appends),
        pure=pure,
        runs=runs,
    )
    return fp, frozenset(observed)


# -- instance collection ----------------------------------------------------------------


def _has_probe(value: Any) -> bool:
    if isinstance(value, _Probe):
        return True
    if isinstance(value, (tuple, list)):
        return any(_has_probe(v) for v in value)
    return False


def instance_key(node: ActCall) -> InstanceKey | None:
    """The interpreter-compatible key of an action instance, or ``None``
    when the arguments are unhashable (then no runtime key can match)."""
    key = (id(node.action), node.args)
    try:
        hash(key)
    except TypeError:
        return None
    return key


@dataclass
class CollectedProgram:
    """Instances and their static ordering relations for one program tree."""

    #: key -> representative ActCall node.
    instances: dict = field(default_factory=dict)
    #: frozenset({a, b}) for instances on opposite sides of some ``par``.
    par_pairs: set = field(default_factory=set)
    #: (a, b) for instances where ``a`` sequentially precedes ``b``.
    seq_pairs: set = field(default_factory=set)
    #: keys whose arguments contain probe values (unresolvable statically).
    unresolved: set = field(default_factory=set)
    #: False when a Call failed to expand or the node budget ran out.
    complete: bool = True
    has_hide: bool = False

    def merge_parallel(self, other: "CollectedProgram") -> None:
        """Fold ``other`` in as a *parallel* sibling of everything here."""
        for a in self.instances:
            for b in other.instances:
                self.par_pairs.add(frozenset((a, b)))
        self.absorb(other)

    def merge_sequential(self, other: "CollectedProgram") -> None:
        """Fold ``other`` in as running *after* everything here."""
        for a in self.instances:
            for b in other.instances:
                self.seq_pairs.add((a, b))
        self.absorb(other)

    def absorb(self, other: "CollectedProgram") -> None:
        self.instances.update(other.instances)
        self.par_pairs |= other.par_pairs
        self.seq_pairs |= other.seq_pairs
        self.unresolved |= other.unresolved
        self.complete = self.complete and other.complete
        self.has_hide = self.has_hide or other.has_hide


def collect_program(
    prog: Prog,
    *,
    probe_pool: Iterable[Any] = PROBE_VALUES,
    max_nodes: int = MAX_NODES,
) -> CollectedProgram:
    """Walk a program tree, probing continuations with ``probe_pool``."""
    budget = [max_nodes]
    expanded: set = set()

    def walk(node: Prog) -> CollectedProgram:
        out = CollectedProgram()
        if budget[0] <= 0:
            out.complete = False
            return out
        budget[0] -= 1
        if isinstance(node, Ret):
            return out
        if isinstance(node, ActCall):
            key = instance_key(node)
            if key is None:
                out.complete = False
                return out
            out.instances[key] = node
            if _has_probe(node.args):
                out.unresolved.add(key)
            return out
        if isinstance(node, Par):
            left = walk(node.left)
            right = walk(node.right)
            left.merge_parallel(right)
            return left
        if isinstance(node, Bind):
            out = walk(node.first)
            rest = CollectedProgram()
            for value in probe_pool:
                try:
                    nxt = node.cont(value)
                except Exception:  # noqa: BLE001 - branch rejects this probe
                    continue
                if isinstance(nxt, Prog):
                    rest.absorb(walk(nxt))
            out.merge_sequential(rest)
            return out
        if isinstance(node, Call):
            try:
                key = _call_key(node)
            except Exception:  # noqa: BLE001 - unkeyable call
                out.complete = False
                return out
            if key in expanded:
                return out
            expanded.add(key)
            try:
                body = node.expand()
            except Exception:  # noqa: BLE001 - unexpandable call
                out.complete = False
                return out
            return walk(body)
        if isinstance(node, HideProg):
            out = walk(node.body)
            out.has_hide = True
            return out
        out.complete = False  # unknown node kind: fail closed
        return out

    return walk(prog)


# -- the conflict relation ---------------------------------------------------------------


def footprints_conflict(fa: Footprint, fb: Footprint) -> bool:
    """Cell-level conflict: one's writes meet the other's reads or writes.
    Widening either footprint can only turn False into True (the mutation
    test in tests/test_interference.py pins this direction)."""
    return bool(fa.writes & fb.touched) or bool(fb.writes & fa.touched)


# -- concolic collection ----------------------------------------------------------------


def _display_name(node: ActCall) -> str:
    name = getattr(node.action, "name", type(node.action).__name__)
    return f"{name}{node.args!r}" if node.args else str(name)


def _concolic_collect(
    collect: Callable[[Iterable[Any]], CollectedProgram],
    states: Sequence[State],
    *,
    rounds: int = COLLECT_ROUNDS,
) -> tuple[CollectedProgram, dict]:
    """Iterate collection <-> footprint probing until no new instances
    appear: observed return values become continuation probes."""
    pool: list = list(PROBE_VALUES)
    pooled: set = set()
    footprints: dict = {}
    collected = collect(pool)
    for __ in range(rounds):
        if len(collected.instances) > MAX_INSTANCES:
            collected.complete = False  # value blow-up: fail closed
            break
        fresh = False
        for key, node in list(collected.instances.items()):
            if key in footprints:
                continue
            fresh = True
            if key in collected.unresolved:
                footprints[key] = None
                continue
            fp, observed = action_footprint(node.action, node.args, states)
            footprints[key] = fp if fp.runs else None
            for value in observed:
                if value not in pooled:
                    pooled.add(value)
                    pool.append(value)
        if not fresh:
            break
        collected = collect(pool)
    for key in collected.instances:
        footprints.setdefault(key, None)
    return collected, footprints
