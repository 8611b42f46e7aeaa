"""Core semantics: monitor sets, feasibility, domination predicates."""

import importlib
from math import lcm

import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgemon import (
    Graph,
    InputError,
    Instance,
    IntervalRealization,
    Solution,
    deficits,
    feasibility_precheck,
    gamma_bounds,
    is_monitoring_set,
    max_demand,
    monitors,
    ptas_planar,
    solve_block,
    solve_cograph,
    solve_interval,
    split_gamma_m,
)
from edgemon.core import certify, scaled_weights

import bruteforce as bf
from bruteforce import domination_predicates

K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
# triangles {0,1,2} and {2,3,4} sharing vertex 2
BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K2 = Graph.from_edges(2, [(0, 1)])


def graphs_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])

    return build()


class TestMonitors:
    def test_complete_graph_every_other_vertex(self):
        assert monitors(K4, (0, 1)) == (2, 3)

    def test_triangle_free(self):
        assert monitors(PATH3, (0, 1)) == ()

    def test_bowtie_unique_common_neighbor(self):
        assert monitors(BOWTIE, (0, 1)) == (2,)

    def test_unknown_edge_rejected(self):
        with pytest.raises(InputError):
            monitors(PATH3, (0, 2))

    def test_never_contains_endpoints(self):
        for e in BOWTIE.edges:
            assert not set(e) & set(monitors(BOWTIE, e))


class TestIsMonitoringSet:
    def test_k3_all_vertices(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert is_monitoring_set(Instance.make(k3, demand=1), {0, 1, 2})

    def test_k3_pair_misses_the_apex(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert not is_monitoring_set(Instance.make(k3, demand=1), {0, 1})

    def test_zero_demand_empty_set(self):
        assert is_monitoring_set(Instance.make(BOWTIE, demand=0), set())

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            is_monitoring_set(Instance.make(K4, demand=1), {7})

    @given(graphs_strategy(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_monotone_under_supersets(self, g, data):
        inst = Instance.make(g, demand=1)
        base = data.draw(
            st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n)
        )
        if not is_monitoring_set(inst, base):
            return
        extra = data.draw(
            st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n)
        )
        assert is_monitoring_set(inst, base | extra)


class TestDeficits:
    def test_lists_every_short_edge_in_edge_order(self):
        got = list(deficits(Instance.make(K4, demand=1), {0}))
        assert got == [(0, 1, 1, 0), (0, 2, 1, 0), (0, 3, 1, 0)]

    def test_monitoring_set_has_none(self):
        assert list(deficits(Instance.make(K4, demand=2), {0, 1, 2, 3})) == []

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            list(deficits(Instance.make(K4, demand=1), {4}))

    @given(graphs_strategy(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_counts_match_monitors(self, g, data):
        # every deficit line against monitors recounted from the adjacency
        # lists, for the empty set, all vertices and a drawn set
        demand = data.draw(
            st.lists(st.integers(0, 3), min_size=g.m, max_size=g.m)
        )
        inst = Instance.make(g, demand=dict(zip(g.edges, demand)))
        drawn = data.draw(
            st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n)
        )
        for s in (set(), set(range(g.n)), drawn):
            expected = [
                (u, v, c, have)
                for (u, v), c in zip(g.edges, demand)
                if (have := len(bf.common_neighbors(g, u, v) & s)) < c
            ]
            assert list(deficits(inst, s)) == expected


class TestScaledWeights:
    def test_lcm_of_denominators(self):
        ints, scale = scaled_weights([Fraction(1, 2), Fraction(2, 3), 4])
        assert scale == 6 and ints == (3, 4, 24)

    def test_integers_keep_scale_one(self):
        assert scaled_weights([0, 1, 5]) == ((0, 1, 5), 1)


K4_INTERVALS = IntervalRealization(((0, 10), (1, 11), (2, 12), (3, 13)))
# module -> a call whose returned witness is re-checked: by core.certify,
# except for complete.gamma_bounds, which checks its own bracket set
WITNESS_CHECKED = {
    "blocks": lambda: solve_block(Instance.make(K4, demand=1)),
    "complete": lambda: gamma_bounds(Instance.make(K4, demand=1)),
    "intervals": lambda: solve_interval(Instance.make(K4, demand=1), K4_INTERVALS),
    "planar": lambda: ptas_planar(Instance.make(K4, demand=1), 1),
    "cographs": lambda: solve_cograph(Instance.make(K4, demand=1)),
    "reductions": lambda: split_gamma_m(K4, range(4), ()),
}


class TestWitnessChecks:
    # the checks are explicit raises, not asserts, so they still run
    # under python -O
    @pytest.mark.parametrize("module", sorted(WITNESS_CHECKED))
    def test_failed_check_raises(self, monkeypatch, module):
        target = "complete" if module == "complete" else "core"
        monkeypatch.setattr(
            importlib.import_module(f"edgemon.{target}"),
            "is_monitoring_set",
            lambda inst, s: False,
        )
        with pytest.raises(RuntimeError, match="witness misses a demand|miss a demand"):
            WITNESS_CHECKED[module]()

    def test_weight_mismatch_raises(self):
        inst = Instance.make(K4, demand=1, weight=[Fraction(1, 2), 1, 1, 1])
        expected = Solution.of((0, 1, 2), Fraction(5, 2))
        assert certify(inst, (0, 1, 2), 5, "probe") == expected
        with pytest.raises(RuntimeError, match="probe: witness weight differs"):
            certify(inst, (0, 1, 2), 4, "probe")


class TestIntegerCost:
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=20, max_denominator=12), max_size=8
        )
    )
    @example([Fraction(0), Fraction(3, 4), Fraction(5, 6), Fraction(2)])
    @settings(max_examples=200, deadline=None)
    def test_cost_and_scale_reproduce_weights(self, weights):
        inst = Instance.make(Graph.from_edges(len(weights), []), weight=weights)
        assert all(type(c) is int for c in inst.cost)
        assert [Fraction(c, inst.scale) for c in inst.cost] == list(inst.weights)
        assert inst.scale == lcm(*(w.denominator for w in inst.weights))
        assert inst.weight_of(range(len(weights))) == sum(weights)

    def test_cost_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            Instance(PATH3, (1, 1), (Fraction(1),) * 3, cost=(1, 1, 1))


class TestMaxDemand:
    def test_uniform(self):
        assert max_demand(Instance.make(K4, demand=1)) == 1

    def test_edgeless_graph_is_zero(self):
        assert max_demand(Instance.make(Graph.from_edges(3, []), demand=1)) == 0

    def test_mixed_demands(self):
        inst = Instance.make(
            PATH3, demand={(0, 1): 0, (1, 2): 5}
        )
        assert max_demand(inst) == 5
        bigger = Instance.make(
            BOWTIE,
            demand={(0, 1): 0, (0, 2): 2, (1, 2): 5, (2, 3): 0, (2, 4): 0, (3, 4): 0},
        )
        assert max_demand(bigger) == 5


class TestDominationPredicates:
    def test_k2_both(self):
        assert domination_predicates(K2, {0, 1}) == (True, True, True)

    def test_k2_single(self):
        # 0 has no neighbor inside {0}, and nobody has two closed neighbors
        assert domination_predicates(K2, {0}) == (True, False, False)

    def test_c4_hand_checked(self):
        # opposite pair: 0 and 2 each have neighbors {1, 3} only, so they
        # dominate everything but totally dominate nothing of themselves
        assert domination_predicates(C4, {0, 2}) == (True, False, False)
        # adjacent pair: everyone has a neighbor inside, but 2 sees only 1
        assert domination_predicates(C4, {0, 1}) == (True, True, False)
        assert domination_predicates(C4, {0, 1, 2}) == (True, True, True)

    @given(graphs_strategy(6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_against_definitions(self, g, data):
        s = data.draw(
            st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n)
        )
        got = domination_predicates(g, s)
        assert got.dominating == all(
            v in s or (g.neighbors(v) & s) for v in range(g.n)
        )
        assert got.total == all(g.neighbors(v) & s for v in range(g.n))
        assert got.double == all(
            len((g.neighbors(v) | {v}) & s) >= 2 for v in range(g.n)
        )


class TestFeasibilityPrecheck:
    def test_triangle_free_demand_fails(self):
        assert not feasibility_precheck(Instance.make(PATH3, demand=1))

    def test_k5_demand_3(self):
        k5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert feasibility_precheck(Instance.make(k5, demand=3))

    def test_zero_demand_always(self):
        assert feasibility_precheck(Instance.make(PATH3, demand=0))

    @given(graphs_strategy(6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_equivalent_to_full_vertex_set(self, g, c):
        inst = Instance.make(g, demand=c)
        assert feasibility_precheck(inst) == is_monitoring_set(inst, range(g.n))


class TestInstanceModel:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(1, 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            Instance.make(K2, weight=[-1, 2])

    def test_demand_map_must_match_edges(self):
        with pytest.raises(InputError):
            Instance.make(PATH3, demand={(0, 1): 1})

    def test_weights_are_exact_fractions(self):
        inst = Instance.make(K2, weight=["1/3", 2])
        assert inst.weights == (Fraction(1, 3), Fraction(2))
        assert inst.weight_of([0, 1]) == Fraction(7, 3)

    def test_keyed_demand_reads_either_orientation(self):
        demand = {e: i + 1 for i, e in enumerate(BOWTIE.edges)}
        inst = Instance.make(BOWTIE, demand=demand)
        for (u, v), c in demand.items():
            assert inst.demand(u, v) == inst.demand(v, u) == c

    @pytest.mark.parametrize("pair", [(0, 3), (4, 1), (3, 2), (7, 9), (1, 1)])
    def test_keyed_demand_refuses_a_non_edge(self, pair):
        # (3, 2) sorts after the last edge (1, 2), (0, 3) between two edges
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(InputError):
            Instance.make(g, demand=2).demand(*pair)
