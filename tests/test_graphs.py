"""Unit tests for heap-represented graphs, paths, trees and fronts."""

import random

import pytest

from repro.graphs import (
    LEFT,
    RIGHT,
    GraphView,
    MarkedGraph,
    NotAGraphError,
    all_graph_views,
    connected,
    edge,
    edges,
    figure2_graph,
    front,
    graph_heap,
    is_graph,
    is_path,
    is_tree,
    maximal,
    max_tree2_holds,
    random_connected_graph,
    reachable,
    subgraph,
)
from repro.heap import NULL, pts, ptr


def diamond() -> GraphView:
    """1 -> (2, 3); 2 -> 4; 3 -> 4."""
    return GraphView(graph_heap({1: (2, 3), 2: (4, 0), 3: (4, 0), 4: (0, 0)}))


def chain() -> GraphView:
    """1 -> 2 -> 3."""
    return GraphView(graph_heap({1: (2, 0), 2: (3, 0), 3: (0, 0)}))


class TestGraphPredicate:
    def test_valid_graph(self):
        assert is_graph(figure2_graph())

    def test_empty_heap_is_graph(self):
        assert is_graph(graph_heap({}))

    def test_dangling_successor_rejected(self):
        with pytest.raises(NotAGraphError):
            graph_heap({1: (9, 0)})

    def test_non_triple_not_graph(self):
        assert not is_graph(pts(ptr(1), "junk"))

    def test_non_bool_mark_not_graph(self):
        assert not is_graph(pts(ptr(1), (1, NULL, NULL)))

    def test_undef_heap_not_graph(self):
        from repro.heap import UNDEF

        assert not is_graph(UNDEF)

    def test_graphview_rejects_non_graph(self):
        with pytest.raises(NotAGraphError):
            GraphView(pts(ptr(1), "junk"))
        junk = pts(ptr(1), "junk")
        assert not is_graph(junk)
        with pytest.raises(NotAGraphError):  # also once the verdict is cached
            GraphView(junk)

    def test_verdict_cached_on_the_heap(self, monkeypatch):
        from repro.heap import Heap

        from repro.heap import heap_of

        h = heap_of(dict(figure2_graph().items()))
        walks = []
        items = Heap.items
        monkeypatch.setattr(Heap, "items", lambda self: walks.append(self) or items(self))
        assert is_graph(h) and is_graph(h)
        assert GraphView(h).heap is h
        assert walks == [h]
        fresh = h.update(ptr(4), (True, NULL, NULL))
        assert is_graph(fresh)  # a new heap object is walked afresh
        assert walks == [h, fresh]


class TestAccessors:
    def test_cont_on_node(self):
        g = GraphView(graph_heap({1: (2, 0), 2: (0, 0)}, marked=frozenset({2})))
        assert g.cont(ptr(1)) == (False, ptr(2), NULL)
        assert g.mark(ptr(2))

    def test_defaults_off_domain(self):
        g = chain()
        assert g.cont(ptr(99)) == (False, NULL, NULL)
        assert not g.mark(ptr(99))
        assert g.edgl(ptr(99)) == NULL

    def test_child_by_side(self):
        g = diamond()
        assert g.child(ptr(1), LEFT) == ptr(2)
        assert g.child(ptr(1), RIGHT) == ptr(3)

    def test_marked_unmarked_partition(self):
        g = GraphView(graph_heap({1: (0, 0), 2: (0, 0)}, marked=frozenset({1})))
        assert g.marked_nodes() == {ptr(1)}
        assert g.unmarked_nodes() == {ptr(2)}

    def test_mark_node_sets_bit(self):
        g = chain()
        h2 = g.mark_node(ptr(2))
        assert GraphView(h2).mark(ptr(2))

    def test_mark_node_preserves_edges(self):
        g = chain()
        g2 = GraphView(g.mark_node(ptr(1)))
        assert g2.edgl(ptr(1)) == ptr(2)

    def test_null_edge_left(self):
        g = diamond()
        g2 = GraphView(g.null_edge(LEFT, ptr(1)))
        assert g2.edgl(ptr(1)) == NULL
        assert g2.edgr(ptr(1)) == ptr(3)

    def test_null_edge_right(self):
        g = diamond()
        g2 = GraphView(g.null_edge(RIGHT, ptr(1)))
        assert g2.edgr(ptr(1)) == NULL
        assert g2.edgl(ptr(1)) == ptr(2)


class TestEdgePath:
    def test_edge_present(self):
        assert edge(diamond(), ptr(1), ptr(2))

    def test_edge_absent(self):
        assert not edge(diamond(), ptr(2), ptr(3))

    def test_edge_to_null_false(self):
        assert not edge(chain(), ptr(3), NULL)

    def test_edge_from_non_node_false(self):
        assert not edge(chain(), ptr(9), ptr(1))

    def test_edges_enumeration(self):
        assert edges(chain()) == {(ptr(1), ptr(2)), (ptr(2), ptr(3))}

    def test_empty_path_ok(self):
        assert is_path(chain(), ptr(1), [])

    def test_valid_path(self):
        assert is_path(chain(), ptr(1), [ptr(2), ptr(3)])

    def test_broken_path(self):
        assert not is_path(chain(), ptr(1), [ptr(3)])

    def test_reachable(self):
        assert reachable(diamond(), ptr(1)) == {ptr(1), ptr(2), ptr(3), ptr(4)}
        assert reachable(diamond(), ptr(2)) == {ptr(2), ptr(4)}

    def test_reachable_from_non_node(self):
        assert reachable(chain(), ptr(42)) == frozenset()


class TestTree:
    def test_chain_is_tree(self):
        g = chain()
        assert is_tree(g, ptr(1), frozenset({ptr(1), ptr(2), ptr(3)}))

    def test_diamond_not_tree(self):
        g = diamond()
        assert not is_tree(g, ptr(1), frozenset({ptr(1), ptr(2), ptr(3), ptr(4)}))

    def test_subset_of_diamond_is_tree(self):
        g = diamond()
        assert is_tree(g, ptr(1), frozenset({ptr(1), ptr(2), ptr(4)}))

    def test_root_must_be_member(self):
        assert not is_tree(chain(), ptr(1), frozenset({ptr(2)}))

    def test_singleton_tree(self):
        assert is_tree(chain(), ptr(3), frozenset({ptr(3)}))

    def test_self_loop_not_tree(self):
        g = GraphView(graph_heap({1: (1, 0)}))
        assert not is_tree(g, ptr(1), frozenset({ptr(1)}))

    def test_cycle_not_tree(self):
        g = GraphView(graph_heap({1: (2, 0), 2: (1, 0)}))
        assert not is_tree(g, ptr(1), frozenset({ptr(1), ptr(2)}))

    def test_tree_nodes_must_be_graph_nodes(self):
        assert not is_tree(chain(), ptr(1), frozenset({ptr(1), ptr(42)}))


class TestFrontMaximal:
    def test_front_of_chain_prefix(self):
        g = chain()
        assert front(g, {ptr(1)}, {ptr(1), ptr(2)})

    def test_front_requires_subset(self):
        g = chain()
        assert not front(g, {ptr(1)}, {ptr(2)})

    def test_front_missing_successor(self):
        g = chain()
        assert not front(g, {ptr(1)}, {ptr(1)})

    def test_maximal_whole_graph(self):
        g = chain()
        assert maximal(g, {ptr(1), ptr(2), ptr(3)})

    def test_not_maximal_with_outgoing_edge(self):
        g = chain()
        assert not maximal(g, {ptr(1), ptr(2)})

    def test_maximal_after_nullify(self):
        g = GraphView(chain().null_edge(LEFT, ptr(2)))
        assert maximal(g, {ptr(1), ptr(2)})

    def test_connected(self):
        g = diamond()
        assert connected(g, ptr(1), g.nodes())
        assert not connected(g, ptr(2), g.nodes())


class TestMaxTree2Lemma:
    def test_holds_on_disjoint_subtrees(self):
        g = GraphView(graph_heap({1: (2, 3), 2: (0, 0), 3: (0, 0)}))
        assert max_tree2_holds(
            g, ptr(1), ptr(2), ptr(3), frozenset({ptr(2)}), frozenset({ptr(3)})
        )
        # And the conclusion really is a tree:
        assert is_tree(g, ptr(1), frozenset({ptr(1), ptr(2), ptr(3)}))

    def test_vacuous_when_not_maximal(self):
        # 2 -> 4 makes {2} non-maximal, so the lemma holds vacuously.
        g = GraphView(graph_heap({1: (2, 3), 2: (4, 0), 3: (0, 0), 4: (0, 0)}))
        assert max_tree2_holds(
            g, ptr(1), ptr(2), ptr(3), frozenset({ptr(2)}), frozenset({ptr(3)})
        )

    def test_exhaustive_on_two_node_graphs(self):
        # The finite-model discharge: the lemma must hold for every graph
        # on <= 2 nodes and every choice of roots/subtrees.
        from itertools import combinations

        for g in all_graph_views(2):
            nodes = sorted(g.nodes())
            subsets = [frozenset(c) for r in range(3) for c in combinations(nodes, r)]
            for x in nodes:
                for t1 in subsets:
                    for t2 in subsets:
                        y1, y2 = g.successors(x)
                        assert max_tree2_holds(g, x, y1, y2, t1, t2)


class TestSubgraph:
    def _mg(self, view, self_marked=frozenset(), other_marked=frozenset()):
        return MarkedGraph(view, frozenset(self_marked), frozenset(other_marked))

    def test_reflexive(self):
        s = self._mg(chain())
        assert subgraph(s, s)

    def test_marking_step_is_subgraph(self):
        g1 = chain()
        g2 = GraphView(g1.mark_node(ptr(1)))
        assert subgraph(self._mg(g1), self._mg(g2, self_marked={ptr(1)}))

    def test_nullify_of_marked_is_subgraph(self):
        g1 = GraphView(chain().mark_node(ptr(1)))
        g2 = GraphView(g1.null_edge(LEFT, ptr(1)))
        s1 = self._mg(g1, self_marked={ptr(1)})
        s2 = self._mg(g2, self_marked={ptr(1)})
        assert subgraph(s1, s2)

    def test_changing_unmarked_content_rejected(self):
        g1 = chain()
        g2 = GraphView(g1.null_edge(LEFT, ptr(1)))  # 1 is unmarked
        assert not subgraph(self._mg(g1), self._mg(g2))

    def test_unmarking_rejected(self):
        g1 = GraphView(chain().mark_node(ptr(1)))
        s1 = self._mg(g1, self_marked={ptr(1)})
        s2 = self._mg(chain())
        assert not subgraph(s1, s2)

    def test_edge_addition_rejected(self):
        g1 = GraphView(graph_heap({1: (0, 0), 2: (0, 0)}, marked=frozenset({1})))
        g2 = GraphView(graph_heap({1: (2, 0), 2: (0, 0)}, marked=frozenset({1})))
        assert not subgraph(self._mg(g1, self_marked={ptr(1)}), self._mg(g2, self_marked={ptr(1)}))

    def test_node_set_must_match(self):
        assert not subgraph(self._mg(chain()), self._mg(diamond()))


class TestRandomGraphs:
    def test_random_connected_graph_is_connected(self):
        rng = random.Random(7)
        for __ in range(25):
            h, root = random_connected_graph(6, rng)
            g = GraphView(h)
            assert connected(g, ptr(root), g.nodes())

    def test_random_connected_graph_unmarked(self):
        h, __ = random_connected_graph(4, random.Random(1))
        assert not GraphView(h).marked_nodes()

    def test_all_graphs_count(self):
        # 1 node: successors in {null, 1} for each of two slots = 4 graphs.
        assert sum(1 for __ in all_graph_views(1)) == 4
        # With marks: twice as many.
        assert sum(1 for __ in all_graph_views(1, include_marks=True)) == 8
