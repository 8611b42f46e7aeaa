"""Layering, band subproblems, and the offset-sweep approximation."""

import pytest
from fractions import Fraction
from math import ceil

import edgemon.planar
from edgemon import (
    BudgetExceeded,
    Graph,
    InputError,
    Instance,
    SplitMix64,
    bfs_layering,
    exact_gamma_m,
    feasibility_precheck,
    gen_planar,
    is_monitoring_set,
    monitor_table,
    ptas_planar,
    solve_band,
    vertex_rows,
)
from edgemon.oracle import SearchBudget, minimum_weight_cover

import bruteforce as bf

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def sweep_every_region(inst, epsilon, budget=None):
    """The offset sweep of `ptas_planar` that also solves each band holding
    no vertex, whenever its padded region holds one: the reference that
    skipping such bands must match, refusals included."""
    k = ceil(2 / Fraction(epsilon))
    if not feasibility_precheck(inst):
        return None
    rows = vertex_rows(inst)
    witness = set()
    for comp in inst.graph.connected_components():
        layers = edgemon.planar._layers(inst.graph, comp[0])
        offsets = []
        for offset in range(k):
            picked = set()
            for j in range(-1, -(-(len(layers) - 1) // k) + 1):
                start = offset + k * j
                band = edgemon.planar._union(layers, start, start + k - 1)
                region = edgemon.planar._union(layers, start - 1, start + k)
                if region:
                    sol = edgemon.planar.solve_band(inst, band, region, rows, budget)
                    picked.update(sol.vertices)
            offsets.append((sum(inst.cost[v] for v in picked), offset, picked))
        witness |= min(offsets, key=lambda t: t[:2])[2]
    return tuple(sorted(witness))


class TestLayering:
    def test_k3_two_layers(self):
        lay = bfs_layering(K3, 0)
        assert lay.layers == (frozenset({0}), frozenset({1, 2}))

    def test_path_singletons(self):
        lay = bfs_layering(PATH4, 0)
        assert lay.layers == tuple(frozenset({v}) for v in range(4))

    def test_grid_anti_diagonals(self):
        grid = gen_planar(4, 4).graph
        lay = bfs_layering(grid, 0)
        for level, layer in enumerate(lay.layers):
            assert layer == frozenset(
                r * 4 + c
                for r in range(4)
                for c in range(4)
                if r + c == level
            )

    def test_unreached_component(self):
        g = Graph.from_edges(4, [(0, 1)])
        lay = bfs_layering(g, 0)
        assert lay.unreached == {2, 3}

    def test_slice_clips(self):
        lay = bfs_layering(PATH4, 0)
        assert lay.slice(-3, 0) == {0}
        assert lay.slice(2, 9) == {2, 3}
        assert lay.slice(5, 7) == frozenset()


class TestSolveBand:
    def test_zero_demands_trivial(self):
        inst = Instance.make(K4, demand=0)
        whole = frozenset(range(4))
        sol = solve_band(inst, whole, whole, vertex_rows(inst))
        assert sol.vertices == () and sol.value == 0

    def test_whole_k4(self):
        inst = Instance.make(K4, demand=1)
        whole = frozenset(range(4))
        sol = solve_band(inst, whole, whole, vertex_rows(inst))
        assert sol.value == 3

    def test_band_must_sit_inside_region(self):
        inst = Instance.make(K4, demand=1)
        with pytest.raises(InputError):
            solve_band(inst, frozenset({0, 1}), frozenset({1}), vertex_rows(inst))

    def test_middle_band_of_grid_matches_direct_search(self):
        inst = gen_planar(4, 4, triangulate=True, demand=1, seed=5)
        if not feasibility_precheck(inst):
            inst = Instance.make(inst.graph, demand={
                e: (1 if set(bf.common_neighbors(inst.graph, *e)) else 0)
                for e in inst.graph.edges
            })
        lay = bfs_layering(inst.graph, 0)
        band = lay.slice(2, 3)
        region = lay.slice(1, 4)
        sol = solve_band(inst, band, region, vertex_rows(inst))
        # reference: brute force over subsets of the region only
        from itertools import combinations

        targeted = [
            (e, c)
            for e, c in zip(inst.graph.edges, inst.demands)
            if c > 0 and (e[0] in band or e[1] in band)
        ]
        best = None
        region_list = sorted(region)
        for size in range(len(region_list) + 1):
            for combo in combinations(region_list, size):
                s = set(combo)
                if all(
                    len(bf.common_neighbors(inst.graph, *e) & s) >= c
                    for e, c in targeted
                ):
                    w = inst.weight_of(combo)
                    if best is None or w < best:
                        best = w
            if best is not None:
                break
        assert sol.feasible and sol.value == best

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_cover_of_its_touching_edges(self, seed):
        # reference: the band's demanded edges in edge order, each with its
        # monitors from the whole-graph table, covered by the region's
        # vertices that monitor one of them
        rng = SplitMix64(seed + 40)
        checked = 0
        for _ in range(4):
            rows, cols = 2 + rng.below(4), 2 + rng.below(4)
            inst = gen_planar(
                rows, cols, triangulate=True, demand=(0, 1 + rng.below(2)),
                weight=(0, 3, 1), seed=rng.below(1000),
            )
            table = monitor_table(inst)
            rows = vertex_rows(inst)
            lay = bfs_layering(inst.graph, 0)
            for k in (1, 2, 3):
                for start in range(-1, lay.depth + 1):
                    band = lay.slice(start, start + k - 1)
                    region = lay.slice(start - 1, start + k)
                    constraints = [
                        (table[e], c)
                        for e, c in zip(inst.graph.edges, inst.demands)
                        if c and (e[0] in band or e[1] in band)
                    ]
                    named = region & set().union(*(cand for cand, _ in constraints))
                    try:
                        want = minimum_weight_cover(
                            inst.weights, constraints, allowed=named
                        )
                    except BudgetExceeded as exc:
                        with pytest.raises(BudgetExceeded) as err:
                            solve_band(inst, band, region, rows)
                        assert str(err.value) == (
                            f"band region of {len(region)} vertices: {exc}"
                        )
                        continue
                    assert solve_band(inst, band, region, rows) == want
                    checked += 1
        assert checked

    def test_no_whole_graph_constraint_pass(self, monkeypatch):
        # the rows come from one kernel pass made before the call; the band
        # selects from them and makes no pass of its own
        import edgemon.core

        inst = gen_planar(3, 12, triangulate=True, demand=(0, 1), seed=3)
        rows = vertex_rows(inst)
        passes = []
        demand_checks = edgemon.core.demand_checks

        def counting(inst, *rest):
            passes.append("checks")
            return demand_checks(inst, *rest)

        monkeypatch.setattr(edgemon.core, "demand_checks", counting)
        monkeypatch.setattr(
            edgemon.planar, "monitor_table", lambda inst: passes.append("table")
        )
        lay = bfs_layering(inst.graph, 0)
        sol = solve_band(inst, lay.slice(4, 5), lay.slice(3, 6), rows)
        assert sol.feasible and sol.vertices and passes == []


class TestPtasPlanar:
    def test_zero_demand_returns_empty(self):
        inst = gen_planar(3, 3, demand=0)
        sol = ptas_planar(inst, 1)
        assert sol.vertices == () and sol.value == 0

    def test_bridge_demand_infeasible(self):
        inst = Instance.make(PATH4, demand=1)
        assert not ptas_planar(inst, 1).feasible

    def test_triangulated_grid_ratio_two(self):
        inst = gen_planar(4, 4, triangulate=True, seed=0)
        demand = {
            e: (1 if bf.common_neighbors(inst.graph, *e) else 0)
            for e in inst.graph.edges
        }
        inst = Instance.make(inst.graph, demand=demand)
        sol = ptas_planar(inst, 1)
        ref = exact_gamma_m(inst)
        assert sol.feasible and ref.feasible
        assert sol.value <= 2 * ref.value
        assert is_monitoring_set(inst, sol.vertices)

    def test_disconnected_components_sum(self):
        sides = ((0, 1), (1, 2), (0, 2))
        for n in (6, 3000):  # 2 and 1,000 disjoint triangles
            edges = [(t + a, t + b) for t in range(0, n, 3) for a, b in sides]
            inst = Instance.make(Graph.from_edges(n, edges), demand=1)
            sol = ptas_planar(inst, 1)
            assert sol.feasible and sol.value == n
            assert sol.vertices == tuple(range(n))

    def test_bad_epsilon(self):
        with pytest.raises(InputError):
            ptas_planar(gen_planar(2, 2), Fraction(-1))

    def test_one_monitor_table_per_call(self, monkeypatch):
        # `vertex_rows` reads the whole graph's monitor sets once;
        # `certify`'s pass reads them cut to the witness
        import edgemon.core

        passes = []
        demand_checks = edgemon.core.demand_checks

        def counting(inst, within=None):
            if within is None:
                passes.append(inst.graph.n)
            return demand_checks(inst, within)

        monkeypatch.setattr(edgemon.core, "demand_checks", counting)
        inst = gen_planar(3, 14, triangulate=True, demand=(0, 1), seed=3)
        sol = ptas_planar(inst, 1)
        assert passes == [42]
        assert sol.feasible == feasibility_precheck(inst)

    def test_two_constraint_passes_per_call(self, monkeypatch):
        # one pass is `vertex_rows`, whose rows also decide feasibility, the
        # other the witness re-check in `certify`; the bands select rows
        import edgemon.core

        passes = []
        demand_checks = edgemon.core.demand_checks

        def counting(inst, *rest):
            passes.append("precheck" if not rest else "certify")
            return demand_checks(inst, *rest)

        monkeypatch.setattr(edgemon.core, "demand_checks", counting)
        inst = gen_planar(3, 14, triangulate=True, demand=(0, 1), seed=3)
        assert ptas_planar(inst, 1).feasible
        assert passes == ["precheck", "certify"]

    def test_bands_without_vertices_are_not_solved(self, monkeypatch):
        bands = []
        solve = edgemon.planar.solve_band

        def counting(inst, band, *rest):
            bands.append(len(band))
            return solve(inst, band, *rest)

        monkeypatch.setattr(edgemon.planar, "solve_band", counting)
        inst = gen_planar(8, 3, triangulate=True, demand=(0, 1), seed=1)
        sol = ptas_planar(inst, 1)
        assert sol.vertices == (1, 3, 4, 7, 9, 10, 13, 16, 17, 18, 20)
        assert len(bands) == 9 and all(bands)  # 11 with the two empty bands

    @pytest.mark.parametrize("max_vertices", [20, 8])
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2)])
    def test_skipping_empty_bands_changes_no_result(self, eps, max_vertices):
        budget = SearchBudget(max_vertices)
        outcomes = {"feasible": 0, "infeasible": 0, "refused": 0}
        # bands count only the vertices their constraints name, so at 20
        # vertices and epsilon 1 only the 5x6, 6x5 and 6x6 grids refuse
        for rows in range(1, 7):
            for cols in range(1, 7):
                for seed in range(1, 5):
                    inst = gen_planar(
                        rows, cols, triangulate=seed != 4,
                        demand=(0, 1 + seed // 3), weight=(0, 3, 1), seed=seed,
                    )
                    try:
                        want = sweep_every_region(inst, eps, budget)
                    except BudgetExceeded as exc:
                        outcomes["refused"] += 1
                        with pytest.raises(BudgetExceeded) as err:
                            ptas_planar(inst, eps, budget)
                        assert str(err.value) == str(exc)
                        continue
                    sol = ptas_planar(inst, eps, budget)
                    outcomes[sol.status] += 1
                    assert sol.vertices == (() if want is None else want)
                    assert sol.feasible == (want is not None)
        assert all(outcomes.values())

    def test_the_budget_counts_only_the_vertices_a_band_names(self):
        # a band region of 21 vertices, of which at most 20 monitor a
        # demanded band edge; the answer is the one a 40-vertex budget gives
        inst = gen_planar(6, 4, triangulate=True, demand=(0, 1), weight=(1, 4, 4), seed=0)
        sol = ptas_planar(inst, 1)
        assert sol == ptas_planar(inst, 1, SearchBudget(max_vertices=40))
        assert sol.value == Fraction(117, 4)
        assert sol.vertices == (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 17, 18, 19, 22)

    def test_a_budget_under_one_vertex_still_refuses(self):
        inst = gen_planar(3, 3, triangulate=True, seed=1)
        with pytest.raises(BudgetExceeded):
            sweep_every_region(inst, 1, SearchBudget(0))
        with pytest.raises(BudgetExceeded):
            ptas_planar(inst, 1, SearchBudget(0))

    def test_nonplanar_warns_but_runs(self):
        k6 = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        inst = Instance.make(k6, demand=1)
        with pytest.warns(UserWarning):
            sol = ptas_planar(inst, 1)
        assert sol.feasible

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("eps,k", [(Fraction(1), 2), (Fraction(2, 3), 3)])
    def test_ratio_and_feasibility_on_random_grids(self, seed, eps, k):
        rng = SplitMix64(seed)
        rows, cols = 2 + rng.below(3), 2 + rng.below(3)
        inst = gen_planar(
            rows, cols, triangulate=True, demand=(0, 1), seed=seed + 13,
            weight=(1, 3, 4),
        )
        sol = ptas_planar(inst, eps)
        ref = exact_gamma_m(inst)
        assert sol.feasible == ref.feasible == feasibility_precheck(inst)
        if sol.feasible:
            assert sol.value <= Fraction(k + 2, k) * ref.value
            assert is_monitoring_set(inst, sol.vertices)
