"""Verification of the spanning-tree construction (Table 1 row
"Spanning tree").

The obligations mirror the Coq development's proof layout:

* ``Libs`` — the graph lemmas of §3.2 (``max_tree2``, ``subgraph``
  reflexivity/transitivity), discharged over enumerated graph families;
* ``Conc`` — ``SpanTree`` metatheory over the protocol closure;
* ``Acts`` — ``trymark``/``read_child``/``nullify`` obligations
  (erasure-to-CAS, totality, correspondence, locality);
* ``Stab`` — stability of ``span_tp``'s pre, of node membership
  (``subgraph_steps``-style facts) and of self-marked sets;
* ``Main`` — ``span_tp`` exhaustively on all small graphs under
  adversarial interference, and ``span_root_tp`` (closed world, via
  ``hide``) exhaustively on small connected graphs plus randomized
  schedules on larger random connected graphs (including Figure 2's).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

from ..core.concurroid import ProtocolGraph, check_concurroid, protocol_closure, state_graph
from ..core.action import check_action
from ..core.entangle import Priv
from ..core.spec import Scenario
from ..core.stability import check_stability
from ..core.verify import ReportBuilder, VerificationReport, check_triple, triple_issues
from ..core.world import World
from ..graphs.enumerate import all_graphs, random_connected_graph
from ..graphs.lemmas import max_tree2_holds, subgraph, subgraph_transitive
from ..graphs.paths import connected
from ..graphs.reprs import LEFT, RIGHT, GraphView, figure2_graph, graph_heap
from ..heap import NULL, Heap, Ptr, ptr
from ..semantics.explore import run_random
from ..semantics.interp import initial_config
from .spanning_tree import (
    PRIV_LABEL,
    SpanActions,
    SpanTreeConcurroid,
    closed_world_state,
    make_span,
    make_span_root,
    open_world_state,
    span_root_spec,
    span_spec,
)


def make_world(conc: SpanTreeConcurroid) -> World:
    return World((Priv(PRIV_LABEL), conc))


def root_world() -> World:
    """The closed-world setting: only ``Priv``; ``hide`` installs SpanTree."""
    return World((Priv(PRIV_LABEL),))


# -- model families ------------------------------------------------------------------------


def span_model_states(conc: SpanTreeConcurroid, max_nodes: int = 2) -> ProtocolGraph:
    """Protocol closure of all unmarked graphs on ``<= max_nodes`` nodes."""
    initials = []
    for n in range(max_nodes + 1):
        for h in all_graphs(n):
            initials.append(open_world_state(conc, h))
    return protocol_closure(conc, initials, max_states=50_000)


def open_world_scenarios(conc: SpanTreeConcurroid, n: int) -> Iterable[tuple[Ptr, Scenario]]:
    """``span x`` scenarios on every marked graph of exactly ``n`` nodes,
    every subjective split of the marked set and every root choice."""
    actions = SpanActions(conc)
    span = make_span(actions)
    for h in all_graphs(n, include_marks=True):
        g = GraphView(h)
        marked = sorted(g.marked_nodes(), key=lambda p: p.addr)
        splits = []
        for r in range(len(marked) + 1):
            for picked in combinations(marked, r):
                splits.append((frozenset(picked), frozenset(marked) - frozenset(picked)))
        for self_m, other_m in splits:
            for x in [NULL] + sorted(g.nodes(), key=lambda p: p.addr):
                init = open_world_state(conc, h, self_m, other_m)
                yield x, Scenario(init, span(x), label=f"span {x!r} on {h!r}")


def connected_graph_family(max_nodes: int) -> list[tuple[Heap, Ptr]]:
    """All connected unmarked graphs (rooted at node 1) up to ``max_nodes``."""
    out: list[tuple[Heap, Ptr]] = []
    for n in range(1, max_nodes + 1):
        for h in all_graphs(n):
            g = GraphView(h)
            root = ptr(1)
            if connected(g, root, g.nodes()):
                out.append((h, root))
    return out


# -- the full verification -------------------------------------------------------------------


def verify_spanning_tree(
    *,
    exhaustive_nodes: int = 2,
    env_budget: int = 2,
    open_samples: int = 150,
    root_extra_graphs: int = 24,
    random_graphs: int = 6,
    random_graph_size: int = 6,
    random_schedules: int = 5,
    max_configs: int = 100_000,
    seed: int = 2015,
) -> VerificationReport:
    """Discharge every obligation for ``span`` and ``span_root``.

    The scenario families are exhaustive for tiny graphs and
    seeded-random-sampled beyond that (``open_samples`` bounds the
    open-world family; ``root_extra_graphs`` bounds how many 3-node
    connected graphs get the full interleaving treatment) — exhaustive
    exploration of a 7-thread ``span`` instance costs seconds per graph,
    and there are thousands of them.  Raise the knobs for a deeper
    (slower) sweep; ``open_samples >= 2187`` makes the open-world check
    fully exhaustive at 2 nodes (verified green in ~4 minutes).
    """
    conc = SpanTreeConcurroid()
    builder = ReportBuilder("Spanning tree")

    # ---- Libs: the graph lemmas of §3.2 -----------------------------------------
    builder.obligation("lemma-max_tree2", "Libs", _check_max_tree2)
    builder.obligation("lemma-subgraph-refl-trans", "Libs", _check_subgraph_lemmas)

    # ---- Conc: SpanTree metatheory ----------------------------------------------
    states = span_model_states(conc, max_nodes=exhaustive_nodes)
    builder.obligation(
        "spantree-metatheory", "Conc", lambda: check_concurroid(conc, states)
    )

    # ---- Acts: the three atomic actions ------------------------------------------
    actions = SpanActions(conc)
    node_args = [(ptr(1),), (ptr(2),)]
    side_args = [(ptr(1), LEFT), (ptr(1), RIGHT), (ptr(2), LEFT), (ptr(2), RIGHT)]
    builder.obligation(
        "trymark-action", "Acts", lambda: check_action(actions.trymark, states, node_args)
    )
    builder.obligation(
        "read_child-action", "Acts", lambda: check_action(actions.read_child, states, side_args)
    )
    builder.obligation(
        "nullify-action", "Acts", lambda: check_action(actions.nullify, states, side_args)
    )

    # ---- Stab: stability facts (the subgraph_steps consequences, §3.2) ------------
    builder.obligation(
        "node-membership-stable",
        "Stab",
        lambda: check_stability(
            lambda s: ptr(1) in s.joint_of(conc.label),
            "x in dom(joint)",
            conc,
            states,
        ),
    )
    builder.obligation(
        "self-marks-stable",
        "Stab",
        lambda: check_stability(
            lambda s: frozenset((ptr(1),)) <= s.self_of(conc.label),
            "#x <= self",
            conc,
            states,
        ),
    )
    builder.obligation(
        "subgraph-stable-under-env",
        "Stab",
        lambda: _check_subgraph_env_monotone(conc, states),
    )

    # ---- Main: span_tp (open world) ------------------------------------------------
    world = make_world(conc)

    def check_open() -> list[str]:
        issues: list[str] = []
        scenarios = list(open_world_scenarios(conc, exhaustive_nodes))
        if open_samples < len(scenarios):
            # Seeded shuffle: a plain stride would alias with the
            # generator's periodic structure (e.g. pick only x = null).
            random.Random(seed).shuffle(scenarios)
            scenarios = scenarios[:open_samples]
        for x, scenario in scenarios:
            outcomes = check_triple(
                world,
                span_spec(conc, x),
                [scenario],
                max_steps=40,
                env_budget=env_budget,
                max_configs=max_configs,
            )
            issues.extend(triple_issues(outcomes))
            if len(issues) >= 5:
                break
        return issues

    builder.obligation("span_tp-triple", "Main", check_open)

    # ---- Main: span_root_tp (closed world via hide) ---------------------------------
    def check_root_exhaustive() -> list[str]:
        issues: list[str] = []
        small = connected_graph_family(exhaustive_nodes)
        bigger = [
            wl
            for wl in connected_graph_family(exhaustive_nodes + 1)
            if wl not in small
        ]
        stride = max(1, len(bigger) // max(1, root_extra_graphs))
        workloads = small + bigger[::stride][:root_extra_graphs]
        for h, root in workloads:
            scenario = Scenario(
                closed_world_state(h),
                make_span_root(SpanActions(SpanTreeConcurroid()), root),
                label=f"span_root on {h!r}",
            )
            outcomes = check_triple(
                root_world(),
                span_root_spec(root),
                [scenario],
                max_steps=80,
                env_budget=0,
                max_configs=max_configs,
            )
            issues.extend(triple_issues(outcomes))
            if len(issues) >= 5:
                break
        return issues

    builder.obligation("span_root_tp-triple", "Main", check_root_exhaustive)

    def check_root_random() -> list[str]:
        issues: list[str] = []
        rng = random.Random(seed)
        workloads = [(figure2_graph(), ptr(1))]
        for __ in range(random_graphs):
            workloads.append(random_connected_graph(random_graph_size, rng))
        for h, root_id in workloads:
            root = root_id if isinstance(root_id, Ptr) else ptr(root_id)
            spec = span_root_spec(root)
            init = closed_world_state(h)
            if not spec.pre(init):
                issues.append(f"precondition fails for random workload {h!r}")
                continue
            for run in range(random_schedules):
                prog = make_span_root(SpanActions(SpanTreeConcurroid()), root)
                config = initial_config(root_world(), init, prog)
                final, violations = run_random(config, rng)
                issues.extend(str(v) for v in violations)
                if final is None:
                    issues.append(f"randomized run {run} did not terminate on {h!r}")
                elif not spec.check_post(final.result, final.view_for(0), init):
                    issues.append(f"randomized run {run}: postcondition fails on {h!r}")
                if len(issues) >= 5:
                    return issues
        return issues

    builder.obligation("span_root-randomized", "Main", check_root_random)

    return builder.build()


# -- lemma checks -------------------------------------------------------------------------------


def _check_max_tree2() -> list[str]:
    """Finite-model discharge of Lemma ``max_tree2`` on all 2-node graphs
    (with marks) and all subtree choices."""
    issues: list[str] = []
    for h in all_graphs(2, include_marks=True):
        g = GraphView(h)
        nodes = sorted(g.nodes(), key=lambda p: p.addr)
        subsets = [frozenset(c) for r in range(3) for c in combinations(nodes, r)]
        for x in nodes:
            y1, y2 = g.successors(x)
            for t1 in subsets:
                for t2 in subsets:
                    if not max_tree2_holds(g, x, y1, y2, t1, t2):
                        issues.append(f"max_tree2 fails at {h!r}, x={x!r}, t1={t1!r}, t2={t2!r}")
                        if len(issues) >= 3:
                            return issues
    return issues


def _check_subgraph_lemmas() -> list[str]:
    """Reflexivity on instances, and transitivity along mark/nullify steps."""
    from ..graphs.lemmas import MarkedGraph

    issues: list[str] = []
    base = GraphView(graph_heap({1: (2, 0), 2: (0, 0)}))
    s1 = MarkedGraph(base, frozenset(), frozenset())
    if not subgraph(s1, s1):
        issues.append("subgraph not reflexive")
    g2 = GraphView(base.mark_node(ptr(1)))
    s2 = MarkedGraph(g2, frozenset((ptr(1),)), frozenset())
    g3 = GraphView(g2.null_edge(LEFT, ptr(1)))
    s3 = MarkedGraph(g3, frozenset((ptr(1),)), frozenset())
    if not subgraph_transitive(s1, s2, s3):
        issues.append("subgraph not transitive along mark;nullify")
    return issues


def _check_subgraph_env_monotone(conc: SpanTreeConcurroid, states: ProtocolGraph) -> list[str]:
    """Lemma ``subgraph_steps``: environment steps of SpanTree only produce
    ``subgraph``-successors (the main stability workhorse of §3.2)."""
    issues: list[str] = []
    graph = state_graph(conc, states)
    for s in graph:
        if not graph.coherent(s):
            continue
        before = conc.as_marked_graph(s)
        for s2 in conc.env_moves(s):
            if not subgraph(before, conc.as_marked_graph(s2)):
                issues.append(f"env step breaks subgraph at {s!r} -> {s2!r}")
                if len(issues) >= 3:
                    return issues
    return issues
