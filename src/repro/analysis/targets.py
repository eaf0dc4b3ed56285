"""Lint targets: the 11 registry case studies, packaged for the linter.

Each :class:`LintTarget` bundles what the rules need for one Table 1
program: the concurroids it *introduces* (clients of existing libraries
introduce none — the "-" rows), a modelled state family, the atomic
actions with representative argument families (the same tables the
dynamic verifiers use), the ascribed specs, stability assertions, the
client programs with their ambient label scope, and the PCM instances.

State families come from :func:`bounded_closure` — a non-raising variant
of :func:`repro.core.concurroid.protocol_closure` that reports truncation
instead of failing, so large models (the flat combiner's closure runs to
six figures) are *sampled* and the reachability-dependent rules are
automatically suppressed for them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from ..core.autostab import AutoAssertion
from ..core.concurroid import Concurroid
from ..core.prog import Prog
from ..core.spec import Spec
from ..core.state import State
from ..pcm.base import PCM

#: Default cap on closure sizes for lint models.
CLOSURE_CAP = 4_000


def bounded_closure(
    conc: Concurroid,
    initials: Sequence[State],
    cap: int = CLOSURE_CAP,
) -> tuple[list[State], bool]:
    """Like ``protocol_closure`` but truncates instead of raising.

    Returns ``(states, exhaustive)``; when not exhaustive, callers must
    treat the family as a sample (no dead-transition conclusions).
    """
    return bounded_closure_many((conc,), initials, cap)


def bounded_closure_many(
    concs: Sequence[Concurroid],
    initials: Sequence[State],
    cap: int = CLOSURE_CAP,
) -> tuple[list[State], bool]:
    """Interleaved closure under several concurroids' transitions.

    The frontier expands under every concurroid's transitions and
    environment moves — the state family of a world composing
    independent protocols (e.g. the two-lock demo), where each
    protocol's reachable region depends on the other's.  Returns
    ``(states, exhaustive)`` as :func:`bounded_closure` does.
    """
    seen: set[State] = set()
    frontier: deque[State] = deque()
    for s in initials:
        if s not in seen:
            seen.add(s)
            frontier.append(s)
    truncated = False
    while frontier:
        current = frontier.popleft()
        successors: list[State] = []
        for conc in concs:
            for t in conc.transitions():
                try:
                    successors.extend(s2 for __, s2 in t.successors(current))
                except Exception:  # noqa: BLE001 - lint must not die on a bad guard
                    continue
            successors.extend(conc.env_moves(current))
        for succ in successors:
            if succ not in seen:
                if len(seen) >= cap:
                    truncated = True
                    break
                seen.add(succ)
                frontier.append(succ)
        if truncated:
            break
    return sorted(seen, key=repr), not truncated


@dataclass
class LintTarget:
    """Everything fcsl-lint needs about one case study."""

    program: str
    #: concurroids this program *introduces* (empty for pure clients)
    concurroids: tuple[Concurroid, ...] = ()
    #: the modelled state family and whether it is exhaustive
    states: tuple[State, ...] = ()
    exhaustive: bool = True
    #: (action, args_family) pairs, mirroring the dynamic verifier tables
    actions: tuple[tuple, ...] = ()
    #: (spec, states-the-spec-is-ascribed-over) pairs — a spec's pre may
    #: address a different state family than the protocol model (e.g.
    #: span_root's closed world)
    specs: tuple[tuple[Spec, tuple[State, ...]], ...] = ()
    assertions: tuple[AutoAssertion, ...] = ()
    #: (prog, name, ambient-labels) triples; the ambient scope is the
    #: label set of the world the program runs under (None disables the
    #: scoping rules)
    programs: tuple[tuple[Prog, str, frozenset | None], ...] = ()
    pcms: tuple[PCM, ...] = ()


# -- builders (one per Table 1 row) ----------------------------------------------------------


def _lock_target(name: str, make_lock: Callable, actions_of: Callable) -> LintTarget:
    from ..structures.locks.verify import (
        LABEL,
        bump_client,
        lock_initial_state,
    )

    lock = make_lock()
    conc = lock.concurroid
    initials = [
        lock_initial_state(lock, a, b) for a in (0, 1) for b in (0, 1)
    ]
    states, exhaustive = bounded_closure(conc, initials)
    spec = Spec(
        "bump-client",
        pre=lambda s: lock.quiescent(s),
        post=lambda r, s2, s1: (
            lock.quiescent(s2)
            and lock.client_self(s2) == lock.client_self(s1) + 1
        ),
    )
    assertions = (
        AutoAssertion(
            name="my-contribution-constant",
            predicate=lambda s: lock.client_self(s) == 0,
            shape="self-framed",
        ),
    )
    states = tuple(states)
    return LintTarget(
        program=name,
        concurroids=(conc,),
        states=states,
        exhaustive=exhaustive,
        actions=tuple(actions_of(lock)),
        specs=((spec, states),),
        assertions=assertions,
        programs=((bump_client(lock), "bump-client", frozenset({LABEL})),),
        pcms=(conc.pcms()[LABEL],),
    )


def _cas_lock() -> LintTarget:
    from ..structures.locks.verify import RES_CELL, make_counter_cas_lock

    def actions(lock):
        return (
            (lock.try_acquire_action, ((),)),
            (lock.read_action, ((RES_CELL,),)),
            (lock.write_action, ((RES_CELL, 0), (RES_CELL, 2))),
        )

    return _lock_target("CAS-lock", make_counter_cas_lock, actions)


def _ticketed_lock() -> LintTarget:
    from ..structures.locks.verify import RES_CELL, make_counter_ticketed_lock

    def actions(lock):
        return (
            (lock.draw_action, ((),)),
            (lock.read_owner_action, ((),)),
            (lock.read_action, ((RES_CELL,),)),
            (lock.write_action, ((RES_CELL, 0), (RES_CELL, 2))),
        )

    return _lock_target("Ticketed lock", make_counter_ticketed_lock, actions)


def _cg_increment() -> LintTarget:
    from ..structures.cg_increment import (
        incr,
        incr_spec,
        incr_twice_parallel,
        initial_state,
        make_increment_lock,
        model_states,
    )

    lock = make_increment_lock()
    states = tuple(model_states(lock, aux_bound=1))
    ambient = frozenset(initial_state(lock, 0, 0).labels())
    return LintTarget(
        program="CG increment",
        states=states,
        specs=((incr_spec(lock, 1), states),),
        programs=(
            (incr(lock), "incr", ambient),
            (incr_twice_parallel(lock), "incr || incr", ambient),
        ),
    )


def _cg_allocator() -> LintTarget:
    from ..heap import pts, ptr
    from ..structures.allocator import (
        AllocatorStructure,
        alloc_spec,
        dealloc_spec,
    )

    alloc = AllocatorStructure()
    initials = [
        alloc.initial_state(pool=()),
        alloc.initial_state(pool=(101,)),
        alloc.initial_state(pool=(101, 102)),
        alloc.initial_state(pool=(101,), my_heap=pts(ptr(103), 0)),
    ]
    states, exhaustive = bounded_closure(alloc.concurroid, initials)
    states = tuple(states)
    ambient = frozenset(alloc.initial_state().labels())
    return LintTarget(
        program="CG allocator",
        concurroids=(alloc.concurroid,),
        states=states,
        exhaustive=exhaustive,
        actions=(
            (alloc.take_action, ((),)),
            (alloc.put_action, ((ptr(101),), (ptr(103),))),
        ),
        specs=(
            (alloc_spec(alloc), states),
            (dealloc_spec(alloc, ptr(103)), states),
        ),
        programs=(
            (alloc.alloc(), "alloc", ambient),
            (alloc.dealloc(ptr(103)), "dealloc", ambient),
        ),
        pcms=tuple(alloc.concurroid.pcms().values()),
    )


def _pair_snapshot() -> LintTarget:
    from ..structures.pair_snapshot import (
        PairSnapshotActions,
        PairSnapshotConcurroid,
        X,
        initial_state,
        make_read_pair,
        read_pair_spec,
        write_prog,
        write_spec,
    )

    conc = PairSnapshotConcurroid()
    actions = PairSnapshotActions(conc)
    states, exhaustive = bounded_closure(conc, [initial_state(conc)])
    states = tuple(states)
    ambient = frozenset(initial_state(conc).labels())
    return LintTarget(
        program="Pair snapshot",
        concurroids=(conc,),
        states=states,
        exhaustive=exhaustive,
        actions=(
            (actions.read_x, ((),)),
            (actions.read_y, ((),)),
            (actions.write_x, ((1,),)),
            (actions.write_y, ((1,),)),
        ),
        specs=((read_pair_spec(conc), states), (write_spec(conc, X, 1), states)),
        programs=(
            (make_read_pair(actions), "read_pair", ambient),
            (write_prog(actions, X, 1), "write x", ambient),
        ),
        pcms=tuple(conc.pcms().values()),
    )


def _treiber() -> LintTarget:
    from ..heap.pointers import NULL, ptr
    from ..structures.treiber import TB_LABEL, push_spec, pop_spec
    from ..structures.treiber_verify import model_states, model_structure

    model = model_structure()
    states = tuple(model_states(model))
    ambient = frozenset(model.initial_state().labels())
    node_args = ((ptr(60),), (ptr(101),))
    cas_args = (
        (NULL, ptr(101)),
        (ptr(60), ptr(101)),
        (ptr(60), NULL),
        (ptr(61), ptr(60)),
    )
    return LintTarget(
        program="Treiber stack",
        concurroids=(model.concurroid,),
        states=states,
        exhaustive=True,
        actions=(
            (model.read_top, ((),)),
            (model.read_node, node_args),
            (model.cas_push, cas_args),
            (model.cas_pop, cas_args),
            (model.prep_node, ((ptr(101), (1, NULL)),)),
        ),
        specs=(
            (push_spec(model.treiber, 1), states),
            (pop_spec(model.treiber), states),
        ),
        programs=(
            (model.push(1), "push", ambient),
            (model.pop(), "pop", ambient),
        ),
        pcms=(model.concurroid.pcms()[TB_LABEL],),
    )


def _spanning_tree() -> LintTarget:
    from ..heap import heap_of, ptr
    from ..heap.pointers import NULL
    from ..structures.spanning_tree import (
        LEFT,
        RIGHT,
        SpanActions,
        SpanTreeConcurroid,
        closed_world_state,
        make_span,
        make_span_root,
        open_world_state,
        span_root_spec,
        span_spec,
    )
    from ..structures.spanning_tree_verify import span_model_states

    conc = SpanTreeConcurroid()
    actions = SpanActions(conc)
    states = tuple(span_model_states(conc, max_nodes=2))
    node_args = ((ptr(1),), (ptr(2),))
    side_args = ((ptr(1), LEFT), (ptr(1), RIGHT), (ptr(2), LEFT), (ptr(2), RIGHT))
    span = make_span(actions)
    graph = heap_of({ptr(1): (False, NULL, NULL)})
    # span runs inside the open world ({sp, pv}); span_root *installs* sp
    # via hide, so it is scoped (and its spec ascribed) in the closed
    # world where only pv is ambient.
    open_ambient = frozenset(open_world_state(conc, graph).labels())
    closed = closed_world_state(graph)
    return LintTarget(
        program="Spanning tree",
        concurroids=(conc,),
        states=states,
        exhaustive=True,
        actions=(
            (actions.trymark, node_args),
            (actions.read_child, side_args),
            (actions.nullify, side_args),
        ),
        specs=(
            (span_spec(conc, ptr(1)), states),
            (span_root_spec(ptr(1)), (closed,)),
        ),
        programs=(
            (span(ptr(1)), "span", open_ambient),
            (make_span_root(actions, ptr(1)), "span_root", frozenset(closed.labels())),
        ),
        pcms=tuple(conc.pcms().values()),
    )


def _flat_combiner() -> LintTarget:
    from ..structures.flat_combiner import FlatCombiner, flat_combine_spec, initial_state
    from ..structures.flat_combiner_verify import SLOT_A, SLOT_B, model_concurroid

    mconc = model_concurroid()
    mfc = FlatCombiner(mconc)
    states, exhaustive = bounded_closure(mconc, [initial_state(mconc)], cap=1_500)
    states = tuple(states)
    ambient = frozenset(initial_state(mconc).labels())
    slot_args = ((SLOT_A,), (SLOT_B,))
    return LintTarget(
        program="Flat combiner",
        concurroids=(mconc,),
        states=states,
        exhaustive=exhaustive,
        actions=(
            (mfc.try_acquire_slot, slot_args),
            (mfc.register, ((SLOT_A, "push", 1), (SLOT_A, "pop", None))),
            (mfc.read_slot, slot_args),
            (mfc.try_combine_lock, ((),)),
            (mfc.help, slot_args),
            (mfc.combine_unlock, ((),)),
            (mfc.collect, slot_args),
            (mfc.release_slot, slot_args),
        ),
        specs=((flat_combine_spec(mconc, "push", 1), states),),
        programs=(
            (mfc.flat_combine(SLOT_A, "push", 1), "flat_combine push", ambient),
        ),
        pcms=tuple(mconc.pcms().values()),
    )


def _seq_stack() -> LintTarget:
    from ..structures.seq_stack import SeqStack

    stack = SeqStack()
    ops = (("push", 1), ("push", 2), ("pop", None))
    initial = stack.initial_state()
    return LintTarget(
        program="Seq. stack",
        states=(initial,),
        specs=((stack.sequential_spec(ops), (initial,)),),
        programs=(
            (stack.run_ops(ops), "run_ops push,push,pop", frozenset(initial.labels())),
        ),
    )


def _fc_stack() -> LintTarget:
    from ..structures.fc_stack import FCStack, SLOTS

    stack = FCStack()
    initial = stack.initial_state()
    ambient = frozenset(initial.labels())
    return LintTarget(
        program="FC-stack",
        states=(initial,),
        specs=((stack.push_spec(1), (initial,)), (stack.pop_spec(), (initial,))),
        programs=(
            (stack.push(SLOTS[0], 1), "fc push", ambient),
            (stack.pop(SLOTS[1]), "fc pop", ambient),
        ),
    )


def _prod_cons() -> LintTarget:
    from ..structures.prodcons import prod_cons, prod_cons_spec
    from ..structures.treiber import TreiberStructure

    structure = TreiberStructure(max_ops=3, pool=(101,))
    initial = structure.initial_state()
    return LintTarget(
        program="Prod/Cons",
        states=(initial,),
        specs=((prod_cons_spec(structure, (1,)), (initial,)),),
        programs=(
            (
                prod_cons(structure, (1,)),
                "producer || consumer",
                frozenset(initial.labels()),
            ),
        ),
    )


def _two_lock_demo() -> LintTarget:
    from ..structures.locks.demo import (
        RES_OF,
        deadlock_par,
        demo_initial_state,
        ladder,
        make_demo_locks,
    )

    la, lb = make_demo_locks()
    initials = [
        demo_initial_state(la, lb, a1, b1, a2, b2)
        for a1 in (0, 1)
        for b1 in (0, 1)
        for a2 in (0, 1)
        for b2 in (0, 1)
    ]
    states, exhaustive = bounded_closure_many(
        (la.concurroid, lb.concurroid), initials
    )
    states = tuple(states)
    ambient = frozenset(initials[0].labels())

    def lock_actions(lock):
        res = RES_OF[lock.concurroid.label]
        return (
            (lock.try_acquire_action, ((),)),
            (lock.read_action, ((res,),)),
            (lock.write_action, ((res, 0), (res, 1))),
        )

    return LintTarget(
        program="Two-lock demo",
        concurroids=(la.concurroid, lb.concurroid),
        states=states,
        exhaustive=exhaustive,
        actions=lock_actions(la) + lock_actions(lb),
        programs=(
            (deadlock_par(la, lb), "ladder(la,lb) || ladder(lb,la)", ambient),
            (ladder(la, lb), "ladder(la,lb)", ambient),
        ),
        pcms=(
            la.concurroid.pcms()[la.concurroid.label],
            lb.concurroid.pcms()[lb.concurroid.label],
        ),
    )


def _unfair_lock() -> LintTarget:
    from ..structures.locks.verify import RES_CELL
    from ..structures.locks.demo import make_unfair_lock

    def actions(lock):
        return (
            (lock.try_acquire_action, ((),)),
            (lock.read_action, ((RES_CELL,),)),
            (lock.write_action, ((RES_CELL, 0), (RES_CELL, 2))),
        )

    return _lock_target("Unfair lock demo", make_unfair_lock, actions)


#: registry name -> target builder (must cover structures/registry.py exactly)
TARGET_BUILDERS: dict[str, Callable[[], LintTarget]] = {
    "CAS-lock": _cas_lock,
    "Ticketed lock": _ticketed_lock,
    "CG increment": _cg_increment,
    "CG allocator": _cg_allocator,
    "Pair snapshot": _pair_snapshot,
    "Treiber stack": _treiber,
    "Spanning tree": _spanning_tree,
    "Flat combiner": _flat_combiner,
    "Seq. stack": _seq_stack,
    "FC-stack": _fc_stack,
    "Prod/Cons": _prod_cons,
    # Demo rows (registry ``demo=True``): swept by fcsl-live, resolvable
    # by explicit name in lint/race, excluded from the default sweeps.
    "Two-lock demo": _two_lock_demo,
    "Unfair lock demo": _unfair_lock,
}


@lru_cache(maxsize=None)
def target_for(name: str) -> LintTarget:
    """Build (and cache) the lint target of one registry program."""
    try:
        builder = TARGET_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"no lint target for registry program {name!r}; "
            f"known: {sorted(TARGET_BUILDERS)}"
        ) from None
    return builder()
