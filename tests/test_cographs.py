"""Cotree construction and the union/join recursions."""

import gc
import inspect
import sys

import pytest
from fractions import Fraction

from edgemon import (
    Cotree,
    Graph,
    InputError,
    Instance,
    SplitMix64,
    cotree_build,
    exact_gamma_m,
    gamma_t_cograph,
    gen_cograph,
    is_monitoring_set,
    solve_cograph,
)

import bruteforce as bf
from bruteforce import domination_predicates, exact_gamma_t

P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


SPINE_N = 3001


@pytest.fixture(scope="module")
def spine():
    """A spine of 2,998 union nodes, each with one leaf, ending in a
    triangle: nested 3,000 levels deep."""
    a, b, c = SPINE_N - 3, SPINE_N - 2, SPINE_N - 1
    tree = Cotree.node("join", [Cotree.leaf(b), Cotree.leaf(c)])
    tree = Cotree.node("join", [Cotree.leaf(a), tree])
    for v in reversed(range(a)):
        tree = Cotree.node("union", [Cotree.leaf(v), tree])
    return tree


class TestCotreeBuild:
    def test_p4_is_not_a_cograph(self):
        assert cotree_build(P4) is None

    def test_k4_is_a_join(self):
        tree = cotree_build(K4)
        assert tree is not None and tree.kind == "join"
        assert tree.realize(4).edges == K4.edges

    def test_c4_is_join_of_two_pairs(self):
        tree = cotree_build(C4)
        assert tree.kind == "join"
        assert all(child.kind == "union" for child in tree.children)
        assert tree.realize(4).edges == C4.edges

    def test_single_vertex(self):
        tree = cotree_build(Graph.from_edges(1, []))
        assert tree.kind == "leaf"

    @pytest.mark.parametrize("seed", range(10))
    def test_rebuilds_generated_cographs(self, seed):
        inst, _ = gen_cograph(8, seed=seed)
        tree = cotree_build(inst.graph)
        assert tree is not None
        assert tree.realize(inst.graph.n).edges == inst.graph.edges


class TestCotreeExpr:
    def test_round_trip(self):
        tree = Cotree.node(
            "join", [Cotree.leaf(0), Cotree.node("union", [Cotree.leaf(1), Cotree.leaf(2)])]
        )
        assert tree.to_expr() == "(join (leaf 0) (union (leaf 1) (leaf 2)))"
        assert Cotree.from_expr(tree.to_expr()) == tree

    def test_bad_expr_rejected(self):
        for text in ["(join (leaf 0))", "(leaf x)", "(union (leaf 0) (leaf 1)", "leaf 0"]:
            with pytest.raises(InputError):
                Cotree.from_expr(text)


class TestRealize:
    def test_leaves_no_garbage(self):
        _, tree = gen_cograph(30, seed=1)
        gc.collect()
        gc.disable()
        try:
            tree.realize(30)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deep_cotree(self, spine):
        n = SPINE_N
        a, b, c = n - 3, n - 2, n - 1
        assert spine.leaves() == tuple(range(n))
        g = spine.realize(n)
        assert g.n == n and g.edges == ((a, b), (a, c), (b, c))

    @pytest.mark.parametrize("seed", range(8))
    def test_edges_join_pairs_whose_lowest_common_ancestor_is_a_join(self, seed):
        n = 2 + 3 * seed
        _, tree = gen_cograph(n, seed=seed)
        ancestors = {}  # leaf -> its ancestors, root first
        stack = [(tree, ())]
        while stack:
            node, above = stack.pop()
            if node.kind == "leaf":
                ancestors[node.vertex] = above
            stack.extend((child, above + (node,)) for child in node.children)
        expect = []
        for u in range(n):
            for v in range(u + 1, n):
                shared = [a for a, b in zip(ancestors[u], ancestors[v]) if a is b]
                if shared[-1].kind == "join":
                    expect.append((u, v))
        assert tree.edges(n) == tuple(expect)
        assert tree.realize(n) == Graph.from_edges(n, expect)


class TestRealizes:
    """`Cotree.realizes(g)` walks the joins: every pair a join links is an
    edge of g, and they number g.m."""

    @pytest.mark.parametrize("seed", range(12))
    def test_exactly_its_own_graph(self, seed):
        n = 4 + 3 * seed
        inst, tree = gen_cograph(n, seed=seed)
        g = inst.graph
        assert tree.realizes(g)
        absent = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
        variants = [g.edges[1:]] if g.m else []
        if absent:
            variants.append(g.edges + tuple(absent[:1]))
            if g.m:
                variants.append(g.edges[1:] + tuple(absent[:1]))  # one pair off
        assert variants
        for edges in variants:
            assert not tree.realizes(Graph.from_edges(n, edges))

    def test_spine(self, spine):
        n = SPINE_N
        g = spine.realize(n)
        assert spine.realizes(g)
        assert not spine.realizes(Graph.from_edges(n, g.edges[:2]))
        with pytest.raises(InputError, match="leaves must be exactly 0..n-1"):
            spine.realizes(Graph.from_edges(n + 1, g.edges))


class TestDeepInputs:
    """Walks deeper than the recursion limit: none may recurse per level."""

    def test_spine_solves(self, spine):
        n = SPINE_N
        inst = Instance.make(spine.realize(n))
        sol = solve_cograph(inst, spine)
        assert sol.value == 3 and sol.vertices == (n - 3, n - 2, n - 1)
        # the spine's isolated leaves have no neighbour to dominate them
        assert not gamma_t_cograph(spine, [Fraction(1)] * n).feasible

    def test_spine_to_expr(self, spine):
        a = SPINE_N - 3
        expect = (
            "".join(f"(union (leaf {v}) " for v in range(a))
            + f"(join (leaf {a}) (join (leaf {a + 1}) (leaf {a + 2})))"
            + ")" * a
        )
        assert spine.to_expr() == expect

    def test_cotree_build_needs_no_recursion(self):
        # a threshold graph: vertex i joins every earlier vertex when i is
        # odd, so its cotree alternates join and union n - 1 levels deep
        n = 200
        g = Graph.from_edges(n, [(u, v) for v in range(1, n, 2) for u in range(v)])
        expect = "(leaf 0)"
        for v in range(1, n):
            expect = f"({'join' if v % 2 else 'union'} {expect} (leaf {v}))"
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            tree = cotree_build(g)
        finally:
            sys.setrecursionlimit(old)
        assert tree.to_expr() == expect
        assert tree.edges(n) == g.edges


class TestGammaTCograph:
    def test_k2_takes_both(self):
        tree = Cotree.node("join", [Cotree.leaf(0), Cotree.leaf(1)])
        sol = gamma_t_cograph(tree, [Fraction(3), Fraction(5)])
        assert sol.value == 8 and sol.vertices == (0, 1)

    def test_star_crosses_cheaply(self):
        tree = Cotree.node(
            "join",
            [Cotree.leaf(0), Cotree.node("union", [Cotree.leaf(1), Cotree.leaf(2)])],
        )
        sol = gamma_t_cograph(tree, [Fraction(2), Fraction(1), Fraction(1)])
        assert sol.value == 3
        assert bf.brute_gamma_t(
            tree.realize(3), [Fraction(2), Fraction(1), Fraction(1)]
        ).value == 3

    def test_single_leaf_infeasible(self):
        assert not gamma_t_cograph(Cotree.leaf(0), [Fraction(1)]).feasible

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle(self, seed):
        inst, tree = gen_cograph(3 + seed % 8, seed=seed, weight=(1, 3, 4))
        mine = gamma_t_cograph(tree, inst.weights)
        ref = exact_gamma_t(inst.graph, inst.weights)
        assert mine.feasible == ref.feasible
        if mine.feasible:
            assert mine.value == ref.value
            assert domination_predicates(inst.graph, mine.vertices).total


class TestSolveCograph:
    def test_k4_join_tree(self):
        tree = cotree_build(K4)
        sol = solve_cograph(Instance.make(K4, demand=1), tree)
        assert sol.value == 3

    def test_c4_infeasible(self):
        sol = solve_cograph(Instance.make(C4, demand=1))
        assert not sol.feasible

    def test_union_of_triangles_sums(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        sol = solve_cograph(Instance.make(g, demand=1))
        assert sol.value == 6

    def test_non_uniform_rejected(self):
        inst = Instance.make(K4, demand={e: 2 for e in K4.edges})
        with pytest.raises(InputError):
            solve_cograph(inst)

    def test_wrong_cotree_rejected(self):
        tree = Cotree.node("union", [Cotree.leaf(v) for v in range(4)])
        with pytest.raises(InputError):
            solve_cograph(Instance.make(K4, demand=1), tree)

    def test_wrong_leaves_rejected(self):
        tree = Cotree.node("join", [Cotree.leaf(0), Cotree.leaf(0), Cotree.leaf(2)])
        with pytest.raises(InputError, match="leaves must be exactly 0..n-1"):
            solve_cograph(Instance.make(Graph.from_edges(3, [(0, 2), (1, 2)])), tree)

    def test_a_dense_tree_for_a_sparse_graph_is_refused_early(self):
        """A join of 2,000 leaves claims 1,999,000 edges: the count passes
        the graph's after the first join pair, so the check stops there."""
        tree = Cotree.node("join", [Cotree.leaf(v) for v in range(2000)])
        edges = [(0, v) for v in range(1, 2000)]
        with pytest.raises(InputError, match="does not realize"):
            solve_cograph(Instance.make(Graph.from_edges(2000, edges)), tree)

    def test_p4_without_tree_rejected(self):
        with pytest.raises(InputError):
            solve_cograph(Instance.make(P4, demand=1))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_oracle(self, seed):
        n = 3 + seed % 9
        inst, tree = gen_cograph(n, seed=seed + 11, weight=(1, 3, 4))
        mine = solve_cograph(inst, tree)
        ref = exact_gamma_m(inst)
        assert mine.feasible == ref.feasible
        if mine.feasible:
            assert mine.value == ref.value


class TestJoinStructure:
    def _join_parts(self, seed):
        rng = SplitMix64(seed)
        n1, n2 = 2 + rng.below(3), 2 + rng.below(3)
        left, ltree = gen_cograph(n1, seed=seed + 1)
        right, rtree = gen_cograph(n2, seed=seed + 2)
        shift = n1
        edges = list(left.graph.edges)
        edges += [(u + shift, v + shift) for u, v in right.graph.edges]
        edges += [(u, v + shift) for u in range(n1) for v in range(n2)]
        g = Graph.from_edges(n1 + n2, edges)
        return g, n1, n2, rng

    @pytest.mark.parametrize("seed", range(12))
    def test_total_dominating_side_monitors_cross_edges(self, seed):
        g, n1, n2, rng = self._join_parts(seed)
        left_vertices = set(range(n1))
        for _ in range(6):
            s = {v for v in left_vertices if rng.below(2)}
            # s must totally dominate the left part (within the left part)
            if not all(g.neighbors(v) & s for v in left_vertices):
                continue
            for u in range(n1):
                for v in range(n1, n1 + n2):
                    m = set(bf.common_neighbors(g, u, v))
                    assert m & s, "cross edge must be monitored"

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_sets_monitor_iff_one_side_totally_dominates(self, seed):
        g, n1, n2, rng = self._join_parts(seed + 50)
        inst = Instance.make(g, demand=1)
        left = list(range(n1))
        right = list(range(n1, n1 + n2))
        for _ in range(8):
            s1 = {v for v in left if rng.below(2)}
            s2 = {v for v in right if rng.below(2)}
            if not s1 or not s2:
                continue
            s = s1 | s2
            left_total = all(
                any(x in s1 for x in g.neighbors(v) if x < n1) for v in left
            )
            right_total = all(
                any(x in s2 for x in g.neighbors(v) if x >= n1) for v in right
            )
            assert is_monitoring_set(inst, s) == (left_total or right_total)


class TestNodeSummaries:
    def test_has_isolated_tracking(self):
        from edgemon.cographs import _summarize

        w = [Fraction(1)] * 4
        leaf = Cotree.leaf(0)
        assert _summarize(leaf, w).has_isolated
        union = Cotree.node("union", [Cotree.leaf(0), Cotree.leaf(1)])
        assert _summarize(union, w).has_isolated
        join = Cotree.node("join", [Cotree.leaf(0), Cotree.leaf(1)])
        assert not _summarize(join, w).has_isolated
        mixed = Cotree.node("union", [join, Cotree.leaf(2)])
        assert _summarize(mixed, w).has_isolated
