"""Oracle module against independent subset enumeration."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

from edgemon import (
    BudgetExceeded,
    Graph,
    Instance,
    SearchBudget,
    SplitMix64,
    bfs_layering,
    exact_gamma_m,
    feasibility_precheck,
    gen_block_graph,
    gen_cograph,
    gen_complete,
    gen_interval,
    gen_planar,
    gen_split,
    gen_unit_disk,
    is_monitoring_set,
    minimum_weight_cover,
    ptas_planar,
    solve_band,
    vertex_rows,
)
from edgemon.cli import main
from edgemon.core import scaled_weights
from edgemon.oracle import reverse_delete

import bruteforce as bf
from bruteforce import (
    domination_predicates,
    exact_double_dom,
    exact_gamma_t,
    exact_vertex_cover,
    exists_independent_set,
)


def random_graph(n: int, density_num: int, density_den: int, seed: int) -> Graph:
    rng = SplitMix64(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.below(density_den) < density_num
    ]
    return Graph.from_edges(n, edges)


def random_weights(n: int, seed: int) -> list[Fraction]:
    rng = SplitMix64(seed)
    return [1 + Fraction(rng.below(9), 4) for _ in range(n)]


def random_systems(seed: int, tight: bool = False):
    """24 cover systems (weights, constraints, allowed): repeated candidate
    sets, needs up to 3, `allowed` subsets, and zero, unit or rational
    weights.  When `tight`, each need is instead the number of its set's
    allowed candidates, or one less, so the overlapping sets are left with
    no spare candidate at the root or after one exclusion, and the search
    takes forced steps."""
    rng = SplitMix64(seed + 7000)
    for _ in range(24):
        n = 1 + rng.below(8)
        kind = rng.below(3)
        weights = [
            (Fraction(rng.below(2)), Fraction(1), 1 + Fraction(rng.below(9), 4))[kind]
            for _ in range(n)
        ]
        sets = [frozenset(v for v in range(n) if rng.below(2)) for _ in range(3)]
        constraints = [
            (sets[rng.below(3)], rng.below(4)) for _ in range(rng.below(7))
        ]
        allowed = (
            None if rng.below(2)
            else {v for v in range(n) if rng.below(4)}
        )
        if tight:
            pool = range(n) if allowed is None else allowed
            constraints = [(c, sum(v in pool for v in c) - k % 2) for c, k in constraints]
        yield weights, constraints, allowed


def witness_digest(vertices) -> str:
    text = " ".join(map(str, vertices))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (value, witness digest) pins.  The grids have unit weights, so many
# optima tie and the digests pin the lexicographic tie-break.
PINNED_GRIDS = {
    (4, 4, 1, 0): ("10", "e7c9afa3ed876d5b"),
    (4, 4, 1, 1): ("10", "84b2d016f60324ae"),
    (4, 5, 1, 2): ("13", "04f336091892d606"),
    (4, 5, 1, 3): ("13", "badf8a98633ddeb8"),
    (3, 6, 1, 4): ("10", "3313674011d5113b"),
    (4, 5, (0, 1), 5): ("11", "2242bac39a83be27"),
    (4, 5, (0, 1), 6): ("11", "90fc23d0d2ae80ae"),
}
# solve_band on 5x5 triangulated grids, band = layers 2..3, region = 1..4
PINNED_BANDS = {
    0: ("65/4", "69753202960757ce"),
    1: ("57/4", "9903aebac6534d0f"),
    2: ("29/2", "fd06219bae351ee2"),
}
# (gamma_t, double domination) on 14-vertex weighted cographs
PINNED_COGRAPH_DOMINATION = {
    0: (("13/4", "b2a7c750c2fc773e"), ("8", "f3774d87e14a6554")),
    1: (("5/2", "f4702dca8e9380e2"), ("5", "3401746b131d17f4")),
    2: (("9", "f7ea1df546012ced"), ("16", "b097307886f3b225")),
    3: (("5/2", "68bc23b5950dfa43"), ("5", "3584edcd61d592cf")),
}


def pin(sol):
    return (str(sol.value), witness_digest(sol.vertices))


W = (1, 4, 4)  # weights 1, 5/4, ..., 4


def _gamma_m(inst):
    return lambda budget: exact_gamma_m(inst, budget)


def _band_4x4(seed):
    inst = gen_planar(4, 4, triangulate=True, demand=(0, 1), weight=W, seed=seed)
    layering = bfs_layering(inst.graph, 0)
    band, region = layering.slice(2, 3), layering.slice(1, 4)
    rows = vertex_rows(inst)
    return lambda budget: solve_band(inst, band, region, rows, budget)


def _domination(oracle):
    inst, _ = gen_cograph(14, weight=W, seed=0)
    return lambda budget: oracle(inst.graph, inst.weights, budget)


def _repeated_candidate_set(budget):
    # {1, 2, 3} needs 2 only after {0, 1, 3} does, so it is scanned last.
    # Both sets have one spare candidate, so the search branches on 1, the
    # cheapest of {1, 2, 3}; kept at its first position the set would be
    # scanned first, and the search would branch on 0 and take 4 nodes
    m, n = frozenset({1, 2, 3}), frozenset({0, 1, 3})
    return minimum_weight_cover([Fraction(1)] * 4, [(m, 1), (n, 2), (m, 2)], budget=budget)


# Search trees, one fixed seed per generator class: builder of a solve, and
# (value, witness digest, nodes).  The search visits exactly `nodes` nodes,
# so node_limit=nodes solves and nodes - 1 is refused.
PINNED_TREES = {
    "complete": (
        lambda: _gamma_m(gen_complete(12, demand=(0, 3), weight=W, seed=5)),
        ("29/4", "fa60c7a8465237d2", 29),
    ),
    "block": (
        lambda: _gamma_m(gen_block_graph([4, 5, 4, 4, 5], demand=(0, 2), weight=W, seed=3)),
        ("28", "b1e427e7b788681c", 53),
    ),
    "cograph": (
        lambda: _gamma_m(gen_cograph(18, demand=1, weight=W, seed=3)[0]),
        ("15/2", "5d166d19e1737ead", 57),
    ),
    "split": (
        lambda: _gamma_m(gen_split(6, 12, demand=1, seed=1, min_degree=2)),
        ("5", "7c1953b9f06f1ff2", 5),
    ),
    "interval": (
        lambda: _gamma_m(gen_interval(18, demand=(0, 2), weight=W, seed=1)[0]),
        ("31/4", "9ac257ccc3ddf9fc", 65),
    ),
    "unit_disk": (
        lambda: _gamma_m(gen_unit_disk(18, box=5, demand=(0, 1), weight=W, seed=5)[0]),
        ("53/4", "b08b20e65e3af0b0", 70),
    ),
    "band": (lambda: _band_4x4(1), ("51/4", "5687a4aafb089391", 17)),
    "gamma_t": (lambda: _domination(exact_gamma_t), ("13/4", "b2a7c750c2fc773e", 20)),
    "double_dom": (lambda: _domination(exact_double_dom), ("8", "f3774d87e14a6554", 45)),
    "repeated_set": (lambda: _repeated_candidate_set, ("2", "63b51e9a6a3330e3", 7)),
}


K5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


class TestExactGammaM:
    def test_k5_uniform_3_takes_everything(self):
        sol = exact_gamma_m(Instance.make(K5, demand=3))
        assert sol.feasible and sol.value == 5 and sol.vertices == (0, 1, 2, 3, 4)

    def test_triangle_free_is_infeasible(self):
        assert not exact_gamma_m(Instance.make(PATH3, demand=1)).feasible

    def test_single_demand_2_edge_on_k4(self):
        k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        demand = {e: 0 for e in k4.edges}
        demand[(0, 1)] = 2
        sol = exact_gamma_m(Instance.make(k4, demand=demand))
        assert sol.value == 2 and sol.vertices == (2, 3)

    def test_budget_refusal(self):
        big = Instance.make(Graph.from_edges(25, []), demand=0)
        with pytest.raises(BudgetExceeded):
            exact_gamma_m(big, budget=SearchBudget(max_vertices=24))

    def test_refusal_builds_no_monitor_table(self, monkeypatch):
        import edgemon.oracle

        read = []
        demand_checks = edgemon.oracle.demand_checks

        def counting(inst):
            for check in demand_checks(inst):
                read.append(check)
                yield check

        monkeypatch.setattr(edgemon.oracle, "demand_checks", counting)
        path = Graph.from_edges(21, [(v, v + 1) for v in range(20)])
        with pytest.raises(BudgetExceeded):
            exact_gamma_m(Instance.make(path, demand=1))
        assert read == []
        # the engine stops at the first check it cannot meet, so only the
        # first item of the stream is sure to be read
        exact_gamma_m(Instance.make(PATH3, demand=1))
        assert read and read[0][0] == (0, 1)

    def test_node_limit(self):
        inst = gen_complete(10, demand=2, seed=1)
        with pytest.raises(BudgetExceeded):
            exact_gamma_m(inst, budget=SearchBudget(node_limit=3))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_enumeration_on_random_instances(self, seed):
        rng = SplitMix64(seed + 1000)
        n = 4 + rng.below(6)
        g = random_graph(n, 2, 3, seed)
        demand = {e: rng.below(3) for e in g.edges}
        inst = Instance.make(g, demand=demand, weight=random_weights(n, seed + 50))
        fast = exact_gamma_m(inst)
        slow = bf.brute_gamma_m(inst)
        assert fast.feasible == slow.feasible
        if fast.feasible:
            assert fast.value == slow.value
            assert fast.vertices == slow.vertices  # positive weights: exact tie-break
            assert is_monitoring_set(inst, fast.vertices)

    @pytest.mark.parametrize("seed", range(12))
    def test_infeasibility_agrees_with_precheck(self, seed):
        g = random_graph(4 + seed % 5, 1, 2, seed + 7)
        inst = Instance.make(g, demand=1)
        assert exact_gamma_m(inst).feasible == feasibility_precheck(inst)

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_is_tight_or_minimum(self, seed):
        g = random_graph(6 + seed % 4, 3, 4, seed + 99)
        inst = Instance.make(g, demand=1)
        sol = exact_gamma_m(inst)
        if not sol.feasible:
            return
        for v in sol.vertices:
            remaining = set(sol.vertices) - {v}
            if is_monitoring_set(inst, remaining):
                # dropping a vertex can stay feasible only by weighing more,
                # impossible at unit weights unless it was never minimum
                assert bf.brute_gamma_m(inst).value == sol.value

    def test_witness_determinism(self):
        inst = gen_complete(8, demand=(0, 2), weight=(1, 3, 2), seed=13)
        assert exact_gamma_m(inst) == exact_gamma_m(inst)


class TestDominationOracles:
    def test_gamma_t_k2(self):
        sol = exact_gamma_t(Graph.from_edges(2, [(0, 1)]))
        assert sol.value == 2

    def test_gamma_t_isolated_vertex_infeasible(self):
        assert not exact_gamma_t(Graph.from_edges(1, [])).feasible

    def test_gamma_t_c4(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert exact_gamma_t(c4).value == 2

    def test_double_dom_k3(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert exact_double_dom(k3).value == 2

    def test_double_dom_k2(self):
        assert exact_double_dom(Graph.from_edges(2, [(0, 1)])).value == 2

    def test_double_dom_single_vertex_infeasible(self):
        assert not exact_double_dom(Graph.from_edges(1, [])).feasible

    @pytest.mark.parametrize("seed", range(15))
    def test_against_enumeration(self, seed):
        rng = SplitMix64(seed)
        n = 3 + rng.below(6)
        g = random_graph(n, 3, 5, seed + 11)
        w = random_weights(n, seed + 4)
        for fast, slow in (
            (exact_gamma_t(g, w), bf.brute_gamma_t(g, w)),
            (exact_double_dom(g, w), bf.brute_double_dom(g, w)),
        ):
            assert fast.feasible == slow.feasible
            if fast.feasible:
                assert fast.value == slow.value
                assert fast.vertices == slow.vertices

    @pytest.mark.parametrize("seed", range(10))
    def test_witnesses_satisfy_predicates(self, seed):
        g = random_graph(7, 2, 3, seed + 21)
        t = exact_gamma_t(g)
        if t.feasible:
            assert domination_predicates(g, t.vertices).total
        d = exact_double_dom(g)
        if d.feasible:
            assert domination_predicates(g, d.vertices).double


class TestIndependentSetAndCover:
    def test_path_has_pair(self):
        found, witness = exists_independent_set(PATH3, 2)
        assert found and witness == (0, 2)

    def test_clique_has_no_pair(self):
        k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert exists_independent_set(k4, 2) == (False, None)

    def test_c5_alpha_is_two(self):
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert exists_independent_set(c5, 3)[0] is False
        found, witness = exists_independent_set(c5, 2)
        assert found and len(witness) == 2

    def test_witness_is_independent(self):
        g = random_graph(9, 1, 2, 3)
        for k in range(1, 5):
            found, witness = exists_independent_set(g, k)
            assert found == (bf.brute_alpha(g) >= k)
            if found:
                assert len(witness) == k
                assert not any(
                    g.has_edge(a, b)
                    for i, a in enumerate(witness)
                    for b in witness[i + 1 :]
                )

    def test_vertex_cover_examples(self):
        assert exact_vertex_cover(Graph.from_edges(2, [(0, 1)])).value == 1
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert exact_vertex_cover(star).vertices == (0,)
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert exact_vertex_cover(c5).value == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_cover_complements_alpha(self, seed):
        g = random_graph(8, 2, 3, seed + 31)
        cover = exact_vertex_cover(g)
        assert cover.value == g.n - bf.brute_alpha(g)
        covered = set(cover.vertices)
        assert all(u in covered or v in covered for u, v in g.edges)
        smallest = bf._best_subset(
            g.n, [1] * g.n, lambda s: all(u in s or v in s for u, v in g.edges)
        )
        assert cover.vertices == smallest.vertices


class TestPinnedWitnesses:
    @pytest.mark.parametrize("rows,cols,demand,seed", sorted(PINNED_GRIDS, key=str))
    def test_unit_weight_grids(self, rows, cols, demand, seed):
        inst = gen_planar(rows, cols, triangulate=True, demand=demand, seed=seed)
        assert pin(exact_gamma_m(inst)) == PINNED_GRIDS[rows, cols, demand, seed]

    @pytest.mark.parametrize("seed", sorted(PINNED_BANDS))
    def test_band_with_region(self, seed):
        inst = gen_planar(
            5, 5, triangulate=True, demand=(0, 1), weight=(1, 3, 4), seed=seed
        )
        layering = bfs_layering(inst.graph, 0)
        sol = solve_band(
            inst, layering.slice(2, 3), layering.slice(1, 4), vertex_rows(inst),
            SearchBudget(max_vertices=24),
        )
        assert pin(sol) == PINNED_BANDS[seed]

    @pytest.mark.parametrize("seed", sorted(PINNED_COGRAPH_DOMINATION))
    def test_cograph_domination(self, seed):
        inst, _ = gen_cograph(14, weight=(1, 4, 4), seed=seed)
        got = (
            pin(exact_gamma_t(inst.graph, inst.weights)),
            pin(exact_double_dom(inst.graph, inst.weights)),
        )
        assert got == PINNED_COGRAPH_DOMINATION[seed]

    def test_node_limit_is_exact(self):
        # the search visits exactly 503 nodes, so one fewer is refused
        inst = gen_complete(10, demand=2, seed=1)
        with pytest.raises(BudgetExceeded):
            exact_gamma_m(inst, budget=SearchBudget(node_limit=502))
        sol = exact_gamma_m(inst, budget=SearchBudget(node_limit=503))
        assert pin(sol) == ("4", "63dbe32229b625e9")

    @pytest.mark.parametrize("case", PINNED_TREES)
    def test_search_tree(self, case):
        build, (value, digest, nodes) = PINNED_TREES[case]
        solve = build()
        with pytest.raises(BudgetExceeded):
            solve(SearchBudget(node_limit=nodes - 1))
        assert pin(solve(SearchBudget(node_limit=nodes))) == (value, digest)


class TestEngine:
    def test_no_constraints_is_empty(self):
        sol = minimum_weight_cover([Fraction(1)] * 3, [])
        assert sol.vertices == () and sol.value == 0

    def test_unsatisfiable_constraint(self):
        sol = minimum_weight_cover(
            [Fraction(1)] * 3, [(frozenset({0, 1}), 3)]
        )
        assert not sol.feasible

    def test_allowed_restriction(self):
        sol = minimum_weight_cover(
            [Fraction(1)] * 4,
            [(frozenset({0, 1, 2, 3}), 2)],
            allowed={2, 3},
        )
        assert sol.vertices == (2, 3)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_enumeration_on_random_systems(self, seed):
        systems = [*random_systems(seed), *random_systems(seed, tight=True)]
        for weights, constraints, allowed in systems:
            fast = minimum_weight_cover(weights, constraints, allowed)
            slow = bf.brute_cover(weights, constraints, allowed)
            assert fast.feasible == slow.feasible
            if not fast.feasible:
                continue
            assert fast.value == slow.value
            chosen = set(fast.vertices)
            assert allowed is None or chosen <= allowed
            assert all(len(chosen & c) >= k for c, k in constraints)
            assert sum(weights[v] for v in chosen) == fast.value
            if all(weights):  # positive weights: the exact tie-break
                assert fast.vertices == slow.vertices

    @pytest.mark.parametrize("seed", range(25))
    def test_reverse_delete_matches_its_definition(self, seed):
        # the systems above, on integer costs over the allowed vertices
        for weights, constraints, allowed in random_systems(seed):
            pool = sorted(range(len(weights)) if allowed is None else allowed)
            index = {v: i for i, v in enumerate(pool)}
            cost, scale = scaled_weights([weights[v] for v in pool])
            system = [
                ([index[v] for v in sorted(c) if v in index], k) for c, k in constraints
            ]
            got = reverse_delete(cost, iter(system))
            assert got == bf.reverse_delete(cost, system)
            best = bf.brute_cover(weights, constraints, allowed)
            assert (got is None) == (not best.feasible)
            if got is not None:
                assert Fraction(got, scale) >= best.value

    def test_reverse_delete_breaks_cost_ties_by_constraint_count(self):
        # 0 and 1 are each named once and go before 2, named twice, so 2
        # alone is kept; dropping by descending index would drop 2 and keep
        # 0 and 1
        system = [({0, 2}, 1), ({1, 2}, 1)]
        assert reverse_delete([1, 1, 1], system) == 1
        assert bf.reverse_delete([1, 1, 1], system) == 1

    def test_reverse_delete_cover_is_not_the_witness(self):
        # Reverse delete drops the dearest vertex 0 first, and keeps (1, 2):
        # an optimum, but (0,) weighs as much and sorts first.  The search
        # starts from the weight 2 only, and must still find (0,).
        weights = [Fraction(2), Fraction(1), Fraction(1)]
        constraints = [(frozenset({0, 2}), 1), (frozenset({0, 1}), 1)]
        assert bf.brute_cover(weights, constraints).vertices == (0,)
        sol = minimum_weight_cover(weights, constraints)
        assert sol.vertices == (0,) and sol.value == 2

    def test_zero_weights_need_not_give_the_smallest_tie(self):
        # (0, 1, 3) weighs the same and sorts first, but the search only
        # adds candidates of unmet constraints, and 0 is none
        sol = minimum_weight_cover(
            [Fraction(w) for w in (0, 1, 0, 1)], [(frozenset({1, 3}), 2)]
        )
        assert sol.vertices == (1, 3) and sol.value == 2


class TestBounds:
    def test_unit_8x8_grid_bands_fit_a_small_node_limit(self):
        # the packing and reverse-delete bounds keep each band of the unit
        # 8x8 triangulated grid under 2^17 nodes; with the single-constraint
        # cut alone the bands need about 2M nodes
        inst = gen_planar(8, 8, triangulate=True)
        budget = SearchBudget(max_vertices=80, node_limit=2**17)
        assert ptas_planar(inst, 1, budget).value == 48


TRIANGLES = 600
N = 3 * TRIANGLES
TRIANGLE_EDGES = [
    e for v in range(0, N, 3) for e in ((v, v + 1), (v + 1, v + 2), (v, v + 2))
]
# disjoint diamonds a, b, c, d (the triangles abc and bcd); only the shared
# edge bc has a demand, met by a (weight 1) or d (weight 2)
DIAMONDS = 1100


class TestDeepSearch:
    """Searches deeper than the recursion limit.  On disjoint diamonds the
    search branches once per diamond, taking its vertex a: 1,100 levels.
    Disjoint triangles take all 1,800 vertices in one forced step."""

    def test_exact_gamma_m(self):
        edges, demand = [], {}
        for a in range(0, 4 * DIAMONDS, 4):
            b, c, d = a + 1, a + 2, a + 3
            for e in ((a, b), (a, c), (b, c), (b, d), (c, d)):
                edges.append(e)
                demand[e] = int(e == (b, c))
        g = Graph.from_edges(4 * DIAMONDS, edges)
        inst = Instance.make(g, demand=demand, weight=[1, 1, 1, 2] * DIAMONDS)
        sol = exact_gamma_m(inst, SearchBudget(max_vertices=4 * DIAMONDS))
        assert sol.value == DIAMONDS and sol.vertices == tuple(range(0, 4 * DIAMONDS, 4))

    def test_cli_oracle_answers_and_verifies(self, tmp_path, capsys):
        path = tmp_path / "triangles.em"
        lines = [f"p em {N} {N}"] + [f"e {u} {v} 1" for u, v in TRIANGLE_EDGES]
        path.write_text("\n".join(lines) + "\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "edgemon.cli", "oracle", "--in", str(path)],
            capture_output=True, text=True, check=False,
            env=dict(os.environ, PYTHONPATH=src, EM_BUDGET_VERTICES="5000"),
        )
        assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
        assert f"value {N}" in done.stdout.splitlines()
        solution = tmp_path / "triangles.sol"
        solution.write_text(done.stdout)
        assert main(["verify", "--solution", str(solution), "--in", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["verified true"]
