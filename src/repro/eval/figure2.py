"""Figure 2: the stages of concurrent spanning-tree construction.

The paper's Figure 2 walks a five-node graph (a–e) through six stages:
nodes turn *grey* right after a thread marks them (line 4 of Figure 1)
and *black* right before its thread returns ``true`` (line 9); ✓/✗ mark
child threads succeeding/failing to mark their target; redundant edges
are removed by the parents.  This module replays ``span`` on exactly that
graph, reconstructs the stages from the execution trace, and checks the
invariants each stage exhibits in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.entangle import Priv
from ..core.world import World
from ..graphs.reprs import GraphView, figure2_graph
from ..heap import Ptr, ptr
from ..semantics.explore import run_deterministic, run_random
from ..semantics.interp import initial_config
from ..structures.spanning_tree import (
    PRIV_LABEL,
    SpanActions,
    SpanTreeConcurroid,
    closed_world_state,
    make_span_root,
    span_root_spec,
)

#: Node naming of the figure.
NODE_NAMES = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e"}


@dataclass
class Stage:
    """One snapshot of the construction."""

    index: int
    event: str
    grey: frozenset[str] = field(default_factory=frozenset)     # marked, in progress
    black: frozenset[str] = field(default_factory=frozenset)    # subtree completed
    removed_edges: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def render(self) -> str:
        grey = ",".join(sorted(self.grey - self.black)) or "-"
        black = ",".join(sorted(self.black)) or "-"
        cut = ",".join(f"{a}->{b}" for a, b in sorted(self.removed_edges)) or "-"
        return (
            f"stage {self.index}: {self.event:<28} grey={{{grey}}} "
            f"black={{{black}}} cut={{{cut}}}"
        )


def _name(p: Ptr) -> str:
    return NODE_NAMES.get(p.addr, str(p))


def replay_figure2(seed: int | None = None) -> tuple[list[Stage], bool]:
    """Run ``span_root`` on the Figure 2 graph and extract the stages.

    ``seed=None`` runs the deterministic schedule (which matches the
    figure's narrative); a seed gives a random schedule — the *stages*
    differ but the final stage is always a spanning tree (that is the
    theorem).  Returns ``(stages, postcondition_ok)``.
    """
    h = figure2_graph()
    root = ptr(1)
    prog = make_span_root(SpanActions(SpanTreeConcurroid()), root)
    world = World((Priv(PRIV_LABEL),))
    init = closed_world_state(h)
    config = initial_config(world, init, prog)
    if seed is None:
        final = run_deterministic(config, max_steps=10_000)
    else:
        import random

        final, violations = run_random(config, random.Random(seed), max_steps=10_000)
        if violations or final is None:
            raise RuntimeError(f"figure 2 replay failed: {violations}")

    stages: list[Stage] = []
    grey: set[str] = set()
    black: set[str] = set()
    removed: set[tuple[str, str]] = set()
    edges = {  # initial edges by name, to label removals
        ("a", "b"),
        ("a", "c"),
        ("b", "d"),
        ("b", "e"),
        ("c", "e"),
        ("c", "c"),
    }
    graph_now = GraphView(h)
    index = 0

    def snap(event: str) -> None:
        nonlocal index
        index += 1
        stages.append(
            Stage(index, event, frozenset(grey), frozenset(black), frozenset(removed))
        )

    # Track which thread marked which node, so `done` events blacken the
    # right subtree root (the paper: a black subtree is ascribed to the
    # thread that marked its root).
    marked_by: dict[int, str] = {}
    for event in final.trace:
        if event.kind == "act" and event.detail.endswith("trymark"):
            node = _name(event.args[0])
            if event.result:
                grey.add(node)
                marked_by[event.tid] = node
                snap(f"{node} marked (t{event.tid})")
            else:
                snap(f"{node} already marked: t{event.tid} fails")
        elif event.kind == "act" and event.detail.endswith("nullify"):
            x = _name(event.args[0])
            side = event.args[1]
            # Determine the removed edge from the pre-state edge set.
            target = _edge_target(x, side, edges, removed)
            if target is not None:
                removed.add((x, target))
                snap(f"edge {x}->{target} removed")
        elif event.kind == "done" and event.tid in marked_by and event.result is True:
            node = marked_by[event.tid]
            black.add(node)
            snap(f"{node} subtree complete")

    spec = span_root_spec(root)
    ok = spec.check_post(final.result, final.view_for(0), init)
    return stages, ok


def _edge_target(x: str, side, edges: set, removed: set) -> str | None:
    h = figure2_graph()
    g = GraphView(h)
    addr = {v: k for k, v in NODE_NAMES.items()}[x]
    child = g.child(ptr(addr), side)
    if not child:
        return None
    return NODE_NAMES.get(child.addr)


def check_figure2_invariants(stages: list[Stage]) -> list[str]:
    """The invariants visible in the paper's six panels."""
    issues: list[str] = []
    if not stages:
        return ["no stages recorded"]
    prev_grey: frozenset = frozenset()
    prev_black: frozenset = frozenset()
    prev_removed: frozenset = frozenset()
    for stage in stages:
        if not prev_grey <= stage.grey:
            issues.append(f"stage {stage.index}: marking is not monotone")
        if not prev_black <= stage.black:
            issues.append(f"stage {stage.index}: completion is not monotone")
        if not prev_removed <= stage.removed_edges:
            issues.append(f"stage {stage.index}: removed edges reappeared")
        if not stage.black <= stage.grey:
            issues.append(f"stage {stage.index}: black node was never grey")
        prev_grey, prev_black = stage.grey, stage.black
        prev_removed = stage.removed_edges
    last = stages[-1]
    if last.grey != frozenset("abcde"):
        issues.append("final stage: not all nodes marked")
    # Figure 2(5): the redundant edges b->e and c->c are cut.
    if ("c", "c") not in last.removed_edges:
        issues.append("final stage: self-loop c->c not removed")
    return issues


def render(stages: list[Stage]) -> str:
    lines = ["Figure 2 — concurrent spanning tree construction (graph a-e):"]
    lines.extend(stage.render() for stage in stages)
    return "\n".join(lines)
