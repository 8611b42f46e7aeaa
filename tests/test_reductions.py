"""Hardness constructions and their optimum relations."""

import pytest
from itertools import combinations

from edgemon import (
    Graph,
    InputError,
    Instance,
    SplitMix64,
    exact_gamma_m,
    gen_split,
    is_monitoring_set,
    monitors,
    reduce_bip_tds_to_comparability,
    reduce_is_to_em,
    reduce_planar_vc_to_udg,
    reduce_tds_to_em,
    split_gamma_m,
    split_partition,
)

import bruteforce as bf
from bruteforce import (
    exact_double_dom,
    exact_gamma_t,
    exact_vertex_cover,
    exists_independent_set,
)

K2 = Graph.from_edges(2, [(0, 1)])
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def random_graph_no_isolated(n: int, seed: int) -> Graph | None:
    rng = SplitMix64(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.below(5) < 2
    ]
    g = Graph.from_edges(n, edges)
    if any(not g.neighbors(v) for v in range(n)):
        return None
    return g


class TestTotalDominationImage:
    @pytest.mark.parametrize("g,expected", [(K3, 5), (K2, 5), (C4, 5)])
    def test_small_sources(self, g, expected):
        image = reduce_tds_to_em(g)
        assert image.graph.n == g.n + 3
        assert exact_gamma_m(image).value == expected
        assert exact_gamma_t(g).value + 3 == expected

    def test_isolated_source_rejected(self):
        with pytest.raises(InputError):
            reduce_tds_to_em(Graph.from_edges(2, []))

    @pytest.mark.parametrize("seed", range(20))
    def test_relation_on_random_graphs(self, seed):
        g = random_graph_no_isolated(4 + seed % 5, seed + 900)
        if g is None:
            return
        lhs = exact_gamma_m(reduce_tds_to_em(g))
        rhs = exact_gamma_t(g)
        assert lhs.feasible and rhs.feasible
        assert lhs.value == rhs.value + 3


class TestIndependentSetImage:
    def test_path_with_k2(self):
        inst = reduce_is_to_em(P3, 2)
        assert inst.demand(0, 1) == 1 and inst.demand(1, 2) == 1
        assert inst.demand(0, 2) == 0
        assert exact_gamma_m(inst).value <= 2
        assert exists_independent_set(P3, 2)[0]

    def test_clique_with_k2_fails(self):
        inst = reduce_is_to_em(K4, 2)
        value = exact_gamma_m(inst).value
        assert value > 2
        assert not exists_independent_set(K4, 2)[0]

    def test_k1_trivial(self):
        inst = reduce_is_to_em(K4, 1)
        assert set(inst.demands) == {0}
        assert exact_gamma_m(inst).value == 0

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            reduce_is_to_em(Graph.from_edges(4, [(0, 1)]), 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_equivalence_random(self, seed):
        rng = SplitMix64(seed + 40)
        n = 3 + rng.below(5)
        g = None
        while g is None or len(g.connected_components()) != 1:
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.below(2) == 0
            ]
            g = Graph.from_edges(n, edges)
        for k in range(1, 5):
            image = reduce_is_to_em(g, k)
            gm = exact_gamma_m(image)
            assert (gm.feasible and gm.value <= k) == (bf.brute_alpha(g) >= k)

    @pytest.mark.parametrize("seed", range(8))
    def test_no_small_monitoring_set_when_connected(self, seed):
        rng = SplitMix64(seed + 70)
        n = 4 + rng.below(4)
        g = None
        while g is None or len(g.connected_components()) != 1:
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.below(3) < 2
            ]
            g = Graph.from_edges(n, edges)
        for k in range(2, 5):
            image = reduce_is_to_em(g, k)
            for size in range(k):
                for combo in combinations(range(n), size):
                    assert not is_monitoring_set(image, combo)


class TestComparabilityImage:
    @pytest.mark.parametrize("g,expected", [(C4, 3), (K2, 3), (P4, 3)])
    def test_small_sources(self, g, expected):
        image = reduce_bip_tds_to_comparability(g)
        assert image.graph.n == g.n + 1
        assert exact_gamma_m(image).value == expected
        assert exact_gamma_t(g).value + 1 == expected

    def test_non_bipartite_rejected(self):
        with pytest.raises(InputError):
            reduce_bip_tds_to_comparability(K3)

    def test_isolated_rejected(self):
        with pytest.raises(InputError):
            reduce_bip_tds_to_comparability(Graph.from_edges(3, [(0, 1)]))

    @pytest.mark.parametrize("seed", range(30))
    def test_bipartite_check_agrees_with_brute_force(self, seed):
        from edgemon.reductions import _two_color

        rng = SplitMix64(seed + 901)
        n = 4 + rng.below(8)
        side = [rng.below(2) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.below(6) < 2 and (seed % 2 or side[u] != side[v])
        ]
        g = Graph.from_edges(n, edges)
        two_colorable = any(
            all((mask >> u & 1) != (mask >> v & 1) for u, v in edges)
            for mask in range(1 << n)
        )
        assert _two_color(g) == two_colorable
        if all(g.neighbors(v) for v in range(n)) and not two_colorable:
            with pytest.raises(InputError, match="bipartite"):
                reduce_bip_tds_to_comparability(g)

    @pytest.mark.parametrize("seed", range(20))
    def test_relation_on_random_bipartite(self, seed):
        rng = SplitMix64(seed + 77)
        left = 2 + rng.below(3)
        right = 2 + rng.below(3)
        edges = [
            (a, left + b)
            for a in range(left)
            for b in range(right)
            if rng.below(5) < 3
        ]
        g = Graph.from_edges(left + right, edges)
        if any(not g.neighbors(v) for v in range(g.n)):
            return
        lhs = exact_gamma_m(reduce_bip_tds_to_comparability(g))
        rhs = exact_gamma_t(g)
        assert lhs.value == rhs.value + 1


class TestUnitDiskGadget:
    def test_k2_image_shape_and_value(self):
        image, coords = reduce_planar_vc_to_udg(K2, 1)
        assert coords is None
        assert image.graph.n == 10 and image.graph.m == 15
        assert exact_gamma_m(image).value == 8
        assert exact_vertex_cover(K2).value + 7 == 8

    def test_p3_image_value(self):
        image, _ = reduce_planar_vc_to_udg(P3, 1)
        # 3 originals plus 2 interior hubs and 6 pendants per edge
        assert image.graph.n == 19
        assert exact_gamma_m(image).value == 15
        assert exact_vertex_cover(P3).value == 1

    def test_per_edge_counts(self):
        for ni in (1, 2, 3):
            image, _ = reduce_planar_vc_to_udg(K2, ni)
            added = image.graph.n - 2
            assert added == (4 * ni + 2) + 2 * ni

    def test_pendant_edges_live_in_two_triangles(self):
        image, _ = reduce_planar_vc_to_udg(P3, 2)
        g = image.graph
        # pendant pair edges are exactly those whose endpoints share degree-3
        for u, v in g.edges:
            m = monitors(g, (u, v))
            if g.degree(u) == 3 and g.degree(v) == 3 and len(m) == 2:
                a1, a2 = m
                assert g.has_edge(u, a1) and g.has_edge(v, a1)
                assert g.has_edge(u, a2) and g.has_edge(v, a2)
                assert not g.has_edge(a1, a2)

    def test_high_degree_source_rejected(self):
        star4 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        with pytest.raises(InputError):
            reduce_planar_vc_to_udg(star4, 1)

    def test_straight_embedding_validates(self):
        image, coords = reduce_planar_vc_to_udg(
            K2, 1, embedding={(0, 1): [(0, 0), (9, 0)]}
        )
        assert coords is not None and len(coords) == image.graph.n
        assert coords[0] == (0, 0) and coords[1] == (9, 0)

    def test_colinear_p3_embedding_validates(self):
        image, coords = reduce_planar_vc_to_udg(
            P3, 1, embedding={(0, 1): [(0, 0), (9, 0)], (1, 2): [(9, 0), (18, 0)]}
        )
        assert len(coords) == image.graph.n

    def test_sharp_corner_rejected(self):
        with pytest.raises(InputError):
            reduce_planar_vc_to_udg(
                K2, 1, embedding={(0, 1): [(0, 0), (6, 0), (6, 3)]}
            )

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError):
            reduce_planar_vc_to_udg(K2, 1, embedding={(0, 1): [(0, 0), (6, 0)]})

    @pytest.mark.parametrize("g,ni", [(K2, 1), (K2, 2), (P3, 1), (P3, 2)])
    def test_relation_on_sparse_sources(self, g, ni):
        from edgemon import SearchBudget

        image, _ = reduce_planar_vc_to_udg(g, ni)
        expected = exact_vertex_cover(g).value + len(g.edges) * (5 * ni + 2)
        budget = SearchBudget(max_vertices=32)
        assert exact_gamma_m(image, budget=budget).value == expected


class TestSplitGraphs:
    def test_k4_with_empty_independent_side(self):
        sol = split_gamma_m(K4, (0, 1, 2, 3), ())
        assert sol.value == 3 == exact_gamma_m(Instance.make(K4, demand=1)).value

    def test_documented_small_split(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        sol = split_gamma_m(g, (0, 1, 2), (3,))
        assert sol.value == 3
        assert sol.value == exact_gamma_m(Instance.make(g, demand=1)).value

    def test_structure_violations_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        with pytest.raises(InputError):
            split_gamma_m(g, (0, 1), (2, 3))  # clique side too small
        with pytest.raises(InputError):
            split_gamma_m(g, (0, 2, 3), (1,))  # 2 and 3 are not adjacent
        low = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        with pytest.raises(InputError):
            split_gamma_m(low, (0, 1, 2), (3,))  # vertex 3 has degree 1

    def test_isolated_vertices_get_no_constraint(self):
        # the documented small split graph plus the isolated vertices 4, 5
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        sol = split_gamma_m(g, (0, 1, 2), (3, 4, 5))
        assert sol == exact_gamma_m(Instance.make(g, demand=1))
        assert sol.value == 3
        edgeless = split_gamma_m(Graph.from_edges(3, []), (0,), (1, 2))
        assert edgeless.vertices == () and edgeless.value == 0

    def test_independence_check_is_linear_in_the_independent_side(
        self, monkeypatch
    ):
        # clique 0..4, and 60 independent vertices that each see two of it
        n = 65
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        edges += [(v, c) for v in range(5, n) for c in (v % 5, (v + 1) % 5)]
        g = Graph.from_edges(n, edges)
        calls = []
        has_edge = Graph.has_edge

        def counting(self, u, v):
            calls.append((u, v))
            return has_edge(self, u, v)

        monkeypatch.setattr(Graph, "has_edge", counting)
        assert split_gamma_m(g, range(5), range(5, n)).value == 5
        assert len(calls) <= 10  # the clique side's pairs, no independent pair
        joined = Graph.from_edges(n, edges + [(5, 6)])
        with pytest.raises(InputError, match="^independent side is not independent$"):
            split_gamma_m(joined, range(5), range(5, n))

    @pytest.mark.parametrize("seed", range(25))
    def test_equals_oracle_on_conforming_instances(self, seed):
        from fractions import Fraction
        from edgemon import GenerationError

        rng = SplitMix64(seed)
        k = 3 + rng.below(4)
        i = 1 + rng.below(4)
        try:
            inst = gen_split(
                k, i, edge_prob=Fraction(3, 5), seed=seed + 5, min_degree=2
            )
        except GenerationError:
            return
        g = inst.graph
        dd = exact_double_dom(g)
        if not dd.feasible or dd.value < 3:
            return
        sol = split_gamma_m(g, tuple(range(k)), tuple(range(k, k + i)))
        ref = exact_gamma_m(Instance.make(g, demand=1))
        assert sol.value == ref.value == dd.value


class TestSplitPartition:
    def test_k4(self):
        assert split_partition(K4) == ((0, 1, 2, 3), ())

    def test_star(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        k, i = split_partition(star)
        assert len(k) >= 1 and 0 in k

    def test_c4_not_split(self):
        assert split_partition(C4) is None

    def test_p4_is_split(self):
        parts = split_partition(P4)
        assert parts is not None
        k, i = parts
        assert P4.is_clique(k)

    @pytest.mark.parametrize("seed", range(12))
    def test_recognizes_generated_splits(self, seed):
        inst = gen_split(3 + seed % 4, 2 + seed % 3, seed=seed)
        parts = split_partition(inst.graph)
        assert parts is not None
        k, i = parts
        g = inst.graph
        assert g.is_clique(k)
        assert not any(g.has_edge(a, b) for a, b in combinations(i, 2))

    @staticmethod
    def check_against_brute_force(g: Graph) -> bool:
        """Whether g is split, by trying every clique side, after checking
        that `split_partition` agrees and that its answer is a partition
        into a clique and an independent set."""
        def is_partition(k, i):
            return g.is_clique(k) and not any(g.has_edge(a, b) for a, b in combinations(i, 2))

        split = any(
            is_partition(
                [v for v in range(g.n) if mask >> v & 1],
                [v for v in range(g.n) if not mask >> v & 1],
            )
            for mask in range(1 << g.n)
        )
        parts = split_partition(g)
        assert (parts is not None) == split
        if parts is not None:
            k, i = parts
            assert sorted(k + i) == list(range(g.n))
            assert is_partition(k, i)
        return split

    @pytest.mark.parametrize("n", range(6))
    def test_every_graph_up_to_five_vertices(self, n):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            chosen = [e for j, e in enumerate(pairs) if mask >> j & 1]
            self.check_against_brute_force(Graph.from_edges(n, chosen))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs_up_to_nine_vertices(self, seed):
        rng = SplitMix64(seed + 700)
        outcomes = set()
        for _ in range(10):
            n = 6 + rng.below(4)
            density = rng.below(11)
            edges = [e for e in combinations(range(n), 2) if rng.below(10) < density]
            outcomes.add(self.check_against_brute_force(Graph.from_edges(n, edges)))
            # a generated split graph, then one vertex pair flipped
            split = gen_split(2 + rng.below(4), 1 + rng.below(4), seed=rng.below(1000)).graph
            assert self.check_against_brute_force(split)
            a, b = sorted((rng.below(split.n), rng.below(split.n)))
            if a != b:
                flipped = set(split.edges) ^ {(a, b)}
                outcomes.add(self.check_against_brute_force(Graph.from_edges(split.n, flipped)))
        assert outcomes == {True, False}
