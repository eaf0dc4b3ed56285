"""Representative ``Main``-triple scenarios of every registry program,
reusable outside their verification functions.

The liveness observationality gate (tests/test_liveness_equiv.py) and
the explorer benches (liveness and tracing overhead, memo compaction)
all need the same thing: one or more concrete (world, initial state,
program) triples per registry row, with the exploration bounds its
verification uses, so two explorations can be compared head-to-head.
The builders here mirror the scenarios inside each ``verify_*``
function — same programs, same bounds — plus two extra pair-snapshot
client compositions.

Builders are zero-argument thunks so importing this module stays cheap;
structure modules load only when a scenario is actually built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.world import World

#: A scenario builder's result: everything explore() needs.
Built = tuple


@dataclass(frozen=True)
class MainScenario:
    """One registry Main scenario with its exploration bounds."""

    #: Registry row (``repro.structures.registry``) this is drawn from.
    program: str
    #: Scenario tag, unique within the program.
    label: str
    #: Zero-arg thunk -> (world, initial state, program).
    build: Callable[[], Built]
    max_steps: int
    env_budget: int
    max_configs: int = 200_000

    @property
    def key(self) -> str:
        return f"{self.program}/{self.label}"


def _cas_lock() -> Built:
    from ..structures.locks.verify import (
        bump_client,
        lock_initial_state,
        lock_world,
        make_counter_cas_lock,
    )
    from ..core.prog import par

    lock = make_counter_cas_lock()
    return (
        lock_world(lock),
        lock_initial_state(lock, 0, 0),
        par(bump_client(lock), bump_client(lock)),
    )


def _ticketed_lock() -> Built:
    from ..structures.locks.verify import (
        bump_client,
        lock_initial_state,
        lock_world,
        make_counter_ticketed_lock,
    )
    from ..core.prog import par

    lock = make_counter_ticketed_lock()
    return (
        lock_world(lock),
        lock_initial_state(lock, 0, 0),
        par(bump_client(lock), bump_client(lock)),
    )


def _cg_increment() -> Built:
    from ..structures.cg_increment import (
        incr_twice_parallel,
        initial_state,
        make_increment_lock,
        make_world,
    )

    lock = make_increment_lock()
    return (make_world(lock), initial_state(lock, 0, 0), incr_twice_parallel(lock))


def _cg_allocator() -> Built:
    from ..structures.allocator import AllocatorStructure
    from ..core.prog import par

    alloc = AllocatorStructure()
    return (
        World((alloc.concurroid,)),
        alloc.initial_state(pool=(101, 102)),
        par(alloc.alloc(), alloc.alloc()),
    )


def _pair_snapshot(shape: str) -> Built:
    from ..structures.pair_snapshot import (
        X,
        PairSnapshotActions,
        PairSnapshotConcurroid,
        initial_state,
        make_read_pair,
        write_prog,
    )
    from ..core.prog import par

    conc = PairSnapshotConcurroid()
    actions = PairSnapshotActions(conc)
    rp = lambda: make_read_pair(actions)  # noqa: E731 - fresh Prog per use
    wx = lambda: write_prog(actions, X, 1)  # noqa: E731
    progs = {
        "rp||rp": par(rp(), rp()),
        "rp||(rp||wx)": par(rp(), par(rp(), wx())),
        "rp||wx": par(rp(), wx()),
    }
    return (World((conc,)), initial_state(conc), progs[shape])


def _treiber() -> Built:
    from ..structures.treiber_verify import small_structure
    from ..core.prog import par

    structure = small_structure()
    return (
        World((structure.concurroid,)),
        structure.initial_state(),
        par(structure.push(0), structure.push(1)),
    )


def _flat_combiner() -> Built:
    from ..structures.flat_combiner import FlatCombiner, initial_state
    from ..structures.flat_combiner_verify import SLOT_A, SLOT_B, scenario_concurroid
    from ..core.prog import par

    conc = scenario_concurroid()
    fc = FlatCombiner(conc)
    return (
        World((conc,)),
        initial_state(conc),
        par(fc.flat_combine(SLOT_A, "push", 1), fc.flat_combine(SLOT_B, "pop", None)),
    )


def _fc_stack() -> Built:
    from ..structures.fc_stack import FCStack
    from ..core.prog import par

    stack = FCStack()
    return (
        stack.world(),
        stack.initial_state(),
        par(stack.push(stack.slots[0], 1), stack.pop(stack.slots[1])),
    )


def _prod_cons() -> Built:
    from ..structures.prodcons import prod_cons
    from ..structures.treiber import TreiberStructure

    structure = TreiberStructure(max_ops=3, pool=(101,))
    return (
        World((structure.concurroid,)),
        structure.initial_state(),
        prod_cons(structure, (1,)),
    )


def _seq_stack() -> Built:
    from ..structures.seq_stack import SeqStack

    stack = SeqStack()
    ops = (("push", 0), ("pop", None))
    return (stack.world(), stack.initial_state(), stack.run_ops(ops))


def _spanning_tree() -> Built:
    from ..structures.spanning_tree import (
        SpanActions,
        SpanTreeConcurroid,
        closed_world_state,
        make_span_root,
    )
    from ..structures.spanning_tree_verify import connected_graph_family, root_world

    h, root = connected_graph_family(2)[-1]  # the largest small connected graph
    return (
        root_world(),
        closed_world_state(h),
        make_span_root(SpanActions(SpanTreeConcurroid()), root),
    )


#: Every registry program appears at least once (the liveness gate
#: iterates this list); bounds mirror the verify_* functions.
MAIN_SCENARIOS: tuple[MainScenario, ...] = (
    MainScenario("CAS-lock", "bump||bump", _cas_lock, 60, 1),
    MainScenario("Ticketed lock", "bump||bump", _ticketed_lock, 60, 1),
    MainScenario("CG increment", "incr||incr", _cg_increment, 40, 1),
    MainScenario("CG allocator", "alloc||alloc", _cg_allocator, 50, 0),
    MainScenario(
        "Pair snapshot", "rp||rp", lambda: _pair_snapshot("rp||rp"), 60, 1
    ),
    MainScenario(
        "Pair snapshot",
        "rp||(rp||wx)",
        lambda: _pair_snapshot("rp||(rp||wx)"),
        60,
        0,
    ),
    MainScenario(
        "Pair snapshot", "rp||wx", lambda: _pair_snapshot("rp||wx"), 60, 2
    ),
    MainScenario("Treiber stack", "push||push", _treiber, 60, 0, 400_000),
    MainScenario("Flat combiner", "push||pop", _flat_combiner, 36, 0, 300_000),
    MainScenario("FC-stack", "push||pop", _fc_stack, 80, 0, 300_000),
    MainScenario("Prod/Cons", "prodcons(1)", _prod_cons, 300, 0, 500_000),
    MainScenario("Seq. stack", "push;pop", _seq_stack, 120, 0),
    MainScenario("Spanning tree", "span_root/2", _spanning_tree, 80, 0),
)


def _two_lock_demo() -> Built:
    from ..structures.locks.demo import (
        demo_initial_state,
        demo_world,
        ladder,
        make_demo_locks,
    )

    la, lb = make_demo_locks()
    return (demo_world(la, lb), demo_initial_state(la, lb), ladder(la, lb))


def _unfair_lock_demo() -> Built:
    from ..structures.locks.demo import make_unfair_lock
    from ..structures.locks.verify import (
        bump_client,
        lock_initial_state,
        lock_world,
    )
    from ..core.prog import par

    lock = make_unfair_lock()
    return (
        lock_world(lock),
        lock_initial_state(lock, 0, 0),
        par(bump_client(lock), bump_client(lock)),
    )


#: The two ``demo=True`` registry rows (deliberately defective fcsl-live
#: positive cases, name-resolvable but excluded from default sweeps);
#: bounds mirror their verify_* Main triples.  The liveness gate runs
#: them too: the unfair lock is where the detector actually finds lassos.
DEMO_SCENARIOS: tuple[MainScenario, ...] = (
    MainScenario("Two-lock demo", "ladder-la-lb", _two_lock_demo, 40, 1),
    MainScenario("Unfair lock demo", "bump||bump", _unfair_lock_demo, 80, 1),
)


def main_scenarios(names: Iterable[str] | None = None) -> list[MainScenario]:
    """The scenario list, optionally filtered to some registry programs."""
    if names is None:
        return list(MAIN_SCENARIOS)
    wanted = set(names)
    known = {s.program for s in MAIN_SCENARIOS}
    unknown = sorted(wanted - known)
    if unknown:
        raise KeyError(f"no scenario for {unknown}; known: {sorted(known)}")
    return [s for s in MAIN_SCENARIOS if s.program in wanted]


def run_scenario(
    scenario: MainScenario,
    *,
    liveness: bool = False,
):
    """Explore one scenario with its verification bounds.

    ``liveness=True`` arms the bounded livelock detector — observational
    by construction, which tests/test_liveness_equiv.py checks against
    these same scenarios.
    """
    from ..semantics.explore import explore
    from ..semantics.interp import initial_config

    world, init, prog = scenario.build()
    config = initial_config(world, init, prog)
    return explore(
        config,
        max_steps=scenario.max_steps,
        env_budget=scenario.env_budget,
        max_configs=scenario.max_configs,
        liveness=liveness,
    )


def terminal_signature(result) -> frozenset:
    """A comparable image of an exploration's terminal set: the results
    and final shared states.  (Thread-private bookkeeping like remaining
    step budgets is left out; results and shared state are what a
    comparison of two explorations must agree on.)"""
    return frozenset(
        (repr(c.result), c.shared_signature()) for c in result.terminals
    )
