"""Complete-graph solvers: bounds, bounded enumeration, uniform rule, the
parameterized recursion, and the weighted approximation scheme."""

import pytest
from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import edgemon.blocks
import edgemon.complete
from edgemon import (
    BudgetExceeded,
    Graph,
    InputError,
    Instance,
    InstanceDocument,
    SplitMix64,
    exact_gamma_m,
    format_instance_text,
    fpt_monitoring_complete,
    gamma_bounds,
    gen_block_graph,
    gen_complete,
    is_monitoring_set,
    minimum_weight_cover,
    ptas_complete,
    Solution,
    solve_block,
    solve_complete_cbounded,
    solve_complete_uniform,
)
from edgemon.cli import main

import bruteforce as bf



def k_n(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def single_hot_edge(n: int, c: int) -> Instance:
    g = k_n(n)
    demand = {e: 0 for e in g.edges}
    demand[(0, 1)] = c
    return Instance.make(g, demand=demand)


def first_cheapest(inst: Instance, pool) -> Solution:
    """The first monitoring set of `pool` whose weight no later one beats,
    as the bounded search defines its witness."""
    best = None
    for chosen in pool:
        w = inst.weight_of(chosen)
        if (best is None or w < best[0]) and is_monitoring_set(inst, chosen):
            best = w, chosen
    return Solution.infeasible() if best is None else Solution.of(best[1], best[0])


def search_nodes(monkeypatch, solve):
    """(nodes, result) of `solve`, where nodes is the least clique-search
    node limit it answers under: the nodes of its largest level search."""
    nodes = 0
    while True:
        monkeypatch.setattr(edgemon.complete, "NODE_LIMIT", nodes)
        try:
            return nodes, solve()
        except BudgetExceeded:
            nodes += 1


def sets_up_to(n: int, cap: int):
    return (c for size in range(min(cap, n) + 1) for c in combinations(range(n), size))


class TestGammaBounds:
    def test_k5_demand3(self):
        assert gamma_bounds(gen_complete(5, demand=3)) == (3, 5)

    def test_k4_zero(self):
        assert gamma_bounds(gen_complete(4, demand=0)) == (0, 2)

    def test_k4_single_hot_edge(self):
        assert gamma_bounds(single_hot_edge(4, 2)) == (2, 4)

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            gamma_bounds(gen_complete(3, demand=2))

    def test_non_complete_rejected(self):
        path = Instance.make(Graph.from_edges(3, [(0, 1), (1, 2)]), demand=0)
        with pytest.raises(InputError):
            gamma_bounds(path)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_cplus2_subset_monitors(self, seed):
        rng = SplitMix64(seed)
        n = 5 + rng.below(6)
        inst = gen_complete(n, demand=(0, 3), seed=seed)
        cmax = max(inst.demands)
        if n < cmax + 2:
            return
        for _ in range(10):
            chosen = set()
            while len(chosen) < cmax + 2:
                chosen.add(rng.below(n))
            assert is_monitoring_set(inst, chosen)


class TestCBounded:
    def test_k5_uniform3(self):
        sol = solve_complete_cbounded(gen_complete(5, demand=3))
        assert sol.value == 5

    def test_zero_demand_takes_nothing(self):
        sol = solve_complete_cbounded(gen_complete(4, demand=0))
        assert sol.vertices == () and sol.value == 0

    def test_forced_expensive_vertex(self):
        inst = Instance.make(k_n(4), demand=1, weight=[1, 1, 1, 10])
        sol = solve_complete_cbounded(inst, force=3)
        assert sol.value == 12 and 3 in sol.vertices
        # cross-check: engine solves the same forced problem as a constraint
        from edgemon import monitor_table

        mon = monitor_table(inst)
        constraints = [(mon[e], c) for e, c in zip(inst.graph.edges, inst.demands)]
        constraints.append((frozenset({3}), 1))
        assert minimum_weight_cover(inst.weights, constraints).value == 12

    def test_first_cheapest_set_is_the_witness(self):
        # {0, 2, 3}, {1, 2, 3} and {2, 3, 4} all weigh 2/3; the first one
        # enumerated is kept
        w = [Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)]
        inst = Instance.make(k_n(5), demand=1, weight=w)
        sol = solve_complete_cbounded(inst)
        assert sol.value == Fraction(2, 3) and sol.vertices == (0, 2, 3)

    def test_small_n_reports_infeasible(self):
        assert not solve_complete_cbounded(gen_complete(3, demand=2)).feasible

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle(self, seed):
        rng = SplitMix64(seed + 300)
        n = 3 + rng.below(10)
        inst = gen_complete(n, demand=(0, 3), weight=(1, 3, 4), seed=seed)
        mine = solve_complete_cbounded(inst)
        ref = exact_gamma_m(inst)
        assert mine.feasible == ref.feasible
        if mine.feasible:
            assert mine.value == ref.value

    @pytest.mark.parametrize("seed", range(10))
    def test_forced_matches_constrained_oracle(self, seed):
        from edgemon import monitor_table

        rng = SplitMix64(seed + 77)
        n = 4 + rng.below(6)
        inst = gen_complete(n, demand=(0, 2), weight=(1, 3, 4), seed=seed + 9)
        force = rng.below(n)
        mine = solve_complete_cbounded(inst, force=force)
        mon = monitor_table(inst)
        constraints = [(mon[e], c) for e, c in zip(inst.graph.edges, inst.demands)]
        constraints.append((frozenset({force}), 1))
        ref = minimum_weight_cover(inst.weights, constraints)
        assert mine.feasible == ref.feasible
        if mine.feasible:
            assert mine.value == ref.value


    @pytest.mark.parametrize("seed", range(15))
    def test_forced_witness_is_the_first_cheapest_set_holding_the_vertex(self, seed):
        # the forced search filters the plain pool; listing the sets as
        # (force,) + rest, with rest from the other vertices, gives the
        # same order and so the same witness
        rng = SplitMix64(seed + 600)
        n = 1 + rng.below(7)
        inst = gen_complete(n, demand=(0, 3), weight=(0, 3, 2), seed=seed)
        cap = max(inst.demands, default=0) + 2
        for force in range(n):
            others = [v for v in range(n) if v != force]
            pool = (
                (force,) + rest
                for size in range(1, min(cap, n) + 1)
                for rest in combinations(others, size - 1)
            )
            assert solve_complete_cbounded(inst, force=force) == first_cheapest(inst, pool)

    def test_every_answer_is_certified(self, monkeypatch):
        import edgemon.complete

        calls = []
        certify = edgemon.complete.certify

        def counting(inst, vertices, value, who):
            calls.append(who)
            return certify(inst, vertices, value, who)

        monkeypatch.setattr(edgemon.complete, "certify", counting)
        inst = gen_complete(6, demand=(1, 4), weight=(1, 3, 4), seed=2)
        solve_complete_cbounded(inst)
        solve_complete_cbounded(inst, force=5)
        ptas_complete(inst, 2)
        ptas_complete(inst, Fraction(1, 2))
        solve_complete_uniform(gen_complete(6, demand=2, weight=(1, 3, 4), seed=2))
        assert len(calls) == 5

    def test_a_wrong_witness_is_refused(self, monkeypatch):
        monkeypatch.setattr(
            edgemon.complete._CliqueLevels, "best", lambda self, *args: (0, ())
        )
        with pytest.raises(RuntimeError, match="misses a demand"):
            solve_complete_cbounded(gen_complete(4, demand=1))


class TestHopelessDemands:
    """A demand above s - 2 in a clique of s vertices has too few monitors,
    so the bounded searches answer infeasible without drawing a set."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        import edgemon.complete

        drawn = []

        def counting(items, size):
            for chosen in combinations(items, size):
                drawn.append(chosen)
                yield chosen

        monkeypatch.setattr(edgemon.complete, "combinations", counting)
        return drawn

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: solve_complete_cbounded(gen_complete(12, demand=11)),
            lambda: solve_complete_cbounded(gen_complete(12, demand=11), force=3),
            lambda: solve_complete_cbounded(single_hot_edge(12, 11)),
            lambda: ptas_complete(
                gen_complete(12, demand=(10, 11), seed=1), Fraction(1, 10)
            ),
            lambda: solve_block(gen_block_graph([3, 8], demand=(7, 8), seed=1)),
        ],
        ids=["cbounded", "forced", "one_edge", "ptas", "block"],
    )
    def test_no_candidate_is_drawn(self, drawn, solve):
        assert not solve().feasible
        assert drawn == []

    def test_feasible_instances_still_draw(self, monkeypatch):
        nodes, sol = search_nodes(
            monkeypatch, lambda: solve_complete_cbounded(gen_complete(12, demand=10))
        )
        assert sol.value == 12 and nodes > 0
        nodes, sol = search_nodes(
            monkeypatch,
            lambda: solve_block(gen_block_graph([3, 8], demand=(0, 1), seed=1)),
        )
        assert sol.feasible and nodes > 0

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: solve_complete_cbounded(gen_complete(12, demand=11)),
            lambda: solve_complete_cbounded(gen_complete(12, demand=11), force=3),
            lambda: solve_complete_cbounded(single_hot_edge(12, 11)),
            lambda: ptas_complete(
                gen_complete(12, demand=(10, 11), seed=1), Fraction(1, 10)
            ),
            lambda: solve_block(gen_block_graph([3, 8], demand=(7, 8), seed=1)),
        ],
        ids=["cbounded", "forced", "one_edge", "ptas", "block"],
    )
    def test_no_node_is_searched(self, monkeypatch, solve):
        nodes, sol = search_nodes(monkeypatch, solve)
        assert not sol.feasible and nodes == 0


class TestUniformRule:
    def test_k3_unit(self):
        sol = solve_complete_uniform(gen_complete(3, demand=1))
        assert sol.value == 3 and sol.vertices == (0, 1, 2)

    def test_picks_cheapest(self):
        inst = Instance.make(k_n(4), demand=1, weight=[1, 1, 1, 10])
        sol = solve_complete_uniform(inst)
        assert sol.vertices == (0, 1, 2) and sol.value == 3
        assert sol.value == exact_gamma_m(inst).value

    def test_too_small_infeasible(self):
        assert not solve_complete_uniform(gen_complete(3, demand=2)).feasible

    def test_non_uniform_rejected(self):
        with pytest.raises(InputError):
            solve_complete_uniform(single_hot_edge(4, 2))

    def test_zero_uniform_rejected(self):
        with pytest.raises(InputError):
            solve_complete_uniform(gen_complete(4, demand=0))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9) for k in (1, 2, 3)])
    def test_cardinality_law_small(self, n, k):
        inst = gen_complete(n, demand=k)
        sol = solve_complete_uniform(inst)
        if n < k + 2:
            assert not sol.feasible
            return
        assert sol.value == k + 2
        # no smaller set works: exhaustive over all subsets below k+2
        for size in range(k + 2):
            for combo in combinations(range(n), size):
                assert not is_monitoring_set(inst, combo)

    @pytest.mark.parametrize("seed", range(8))
    def test_weighted_matches_oracle(self, seed):
        inst = gen_complete(4 + seed % 5, demand=1, weight=(1, 3, 4), seed=seed)
        assert solve_complete_uniform(inst).value == exact_gamma_m(inst).value


class TestFptRecursion:
    def test_image_of_path_with_k2(self):
        g = k_n(3)
        demand = {(0, 1): 1, (1, 2): 1, (0, 2): 0}
        inst = Instance.make(g, demand=demand)
        assert fpt_monitoring_complete(inst, 2)
        assert exact_gamma_m(inst).value <= 2

    def test_k5_uniform3_threshold(self):
        inst = gen_complete(5, demand=3)
        assert not fpt_monitoring_complete(inst, 4)
        assert fpt_monitoring_complete(inst, 5)

    def test_zero_base_case(self):
        assert fpt_monitoring_complete(gen_complete(4, demand=0), 0)
        assert not fpt_monitoring_complete(gen_complete(4, demand=1), 0)

    def test_huge_k_agrees_with_k_equal_n(self):
        # k far beyond n must not cost a stack frame per level
        inst = gen_complete(6, demand=(0, 2), seed=1)
        assert fpt_monitoring_complete(inst, 5000) == fpt_monitoring_complete(inst, 6)
        assert fpt_monitoring_complete(inst, 5000)

    @pytest.mark.parametrize("n,seed", [(30, 1), (40, 2)])
    def test_past_the_oracle_budget_agrees_with_bounded_search(self, n, seed):
        inst = gen_complete(n, demand=(0, 2), seed=seed)
        value = solve_complete_cbounded(inst).value
        for k in range(7):
            assert fpt_monitoring_complete(inst, k) == (value <= k)

    def test_two_hundred_vertices_every_k(self):
        inst = gen_complete(200, demand=(0, 2), seed=0)
        answers = [fpt_monitoring_complete(inst, k) for k in range(9)]
        assert answers == [False] * 3 + [True] * 6
        assert fpt_monitoring_complete(inst, 5000)

    @pytest.mark.parametrize("seed", range(15))
    def test_equivalence_with_oracle(self, seed):
        rng = SplitMix64(seed + 500)
        n = 3 + rng.below(6)
        inst = gen_complete(n, demand=(0, 3), seed=seed + 17)
        ref = exact_gamma_m(inst)
        for k in range(6):
            expected = ref.feasible and ref.value <= k
            assert fpt_monitoring_complete(inst, k) == expected


class TestPtasComplete:
    def test_small_demand_is_exact(self):
        sol = ptas_complete(gen_complete(4, demand=1), 1)
        assert sol.value == 3

    def test_infeasible_when_too_small(self):
        for eps in (Fraction(3), 1, Fraction(1, 4)):
            assert not ptas_complete(gen_complete(3, demand=2), eps).feasible

    def test_k10_ratio_and_prefix_bound(self):
        inst = gen_complete(10, demand=5, weight=(1, 4, 4), seed=11)
        sol = ptas_complete(inst, Fraction(1, 2))
        ref = exact_gamma_m(inst)
        assert sol.feasible and ref.feasible
        assert sol.value <= Fraction(3, 2) * ref.value
        order = sorted(range(10), key=lambda v: (inst.weights[v], v))
        prefix = order[: max(inst.demands) + 2]
        assert sol.value <= inst.weight_of(prefix)
        assert is_monitoring_set(inst, sol.vertices)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(InputError):
            ptas_complete(gen_complete(4, demand=1), 0)

    @pytest.mark.parametrize("seed", range(30))
    def test_small_demands_need_no_set_past_c_plus_2(self, seed):
        # with C <= k the scheme is the bounded search over sets of at most
        # C+2 vertices; every set of up to k+2 vertices gives the same Solution
        rng = SplitMix64(seed + 800)
        n = 1 + rng.below(8)
        inst = gen_complete(n, demand=(0, 3), weight=(0, 3, 2), seed=seed)
        cmax = max(inst.demands, default=0)
        for eps in (Fraction(2), Fraction(1), Fraction(1, 2)):
            k = ceil(2 / eps)
            if cmax <= k:
                ref = first_cheapest(inst, sets_up_to(n, k + 2))
                assert ptas_complete(inst, eps) == ref

    @pytest.mark.parametrize(
        "n,demand,eps", [(16, (12, 13), Fraction(1)), (14, (11, 12), Fraction(2))]
    )
    def test_core_parts_start_at_c_minus_k(self, monkeypatch, n, demand, eps):
        # a candidate holds at least C vertices and at most k of the
        # n - C - 2 outsiders, so only core parts of at least
        # C - min(k, n - C - 2) of the C+2 cheapest are drawn, each with at
        # most k outsiders
        drawn = []

        def counting(items, size):
            for chosen in combinations(items, size):
                drawn.append(chosen)
                yield chosen

        monkeypatch.setattr(edgemon.complete, "combinations", counting)
        inst = gen_complete(n, demand=demand, weight=(1, 4, 4), seed=1)
        sol = ptas_complete(inst, eps)
        cmax, k = max(inst.demands), ceil(2 / eps)
        outside = n - (cmax + 2)
        extras = 1 + sum(comb(outside, e) for e in range(k + 1))
        cores = sum(comb(cmax + 2, s) for s in range(cmax - min(k, outside), cmax + 3))
        assert cmax > k and 0 < len(drawn) <= cores * extras
        assert sol.feasible and is_monitoring_set(inst, sol.vertices)
        assert sol.value <= (1 + eps) * exact_gamma_m(inst).value

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2)])
    def test_ratio_on_random_instances(self, seed, eps):
        rng = SplitMix64(seed)
        n = 5 + rng.below(6)
        inst = gen_complete(n, demand=(0, 5), weight=(1, 3, 4), seed=seed + 23)
        sol = ptas_complete(inst, eps)
        ref = exact_gamma_m(inst)
        assert sol.feasible == ref.feasible
        if sol.feasible:
            assert sol.value <= (1 + eps) * ref.value
            assert is_monitoring_set(inst, sol.vertices)
            assert inst.weight_of(sol.vertices) == sol.value


SPECS = [1, 2, (0, 1), (0, 2), (1, 3), (0, 3)]


def enumerated(monkeypatch, solve):
    """`solve` run with the old enumerator in place of the level search."""
    with monkeypatch.context() as m:
        m.setattr(edgemon.complete, "_CliqueLevels", bf.PoolLevels)
        m.setattr(edgemon.blocks, "_CliqueLevels", bf.PoolLevels)
        return solve()


def sweep_instance(seed: int) -> Instance:
    """K_n for n <= 9 under one of six demand specs, weighted (0..3 in
    halves) on three seeds in four."""
    rng = SplitMix64(seed + 9000)
    n = 1 + rng.below(9)
    inst = gen_complete(n, demand=SPECS[seed % 6], seed=seed)
    if seed % 4:
        weights = tuple(Fraction(rng.below(7), 2) for _ in range(n))
        inst = Instance(inst.graph, inst.demands, weights)
    return inst


class TestLevelsMatchTheEnumerator:
    """The level search gives the `Solution`s, witnesses included, of the
    enumerator it replaced (`bruteforce.PoolLevels`)."""

    @pytest.mark.parametrize("chunk", range(8))
    def test_complete_plain_and_forced(self, monkeypatch, chunk):
        for seed in range(50 * chunk, 50 * chunk + 50):
            inst = sweep_instance(seed)
            for force in (None, *range(inst.graph.n)):
                solve = lambda: solve_complete_cbounded(inst, force)
                assert solve() == enumerated(monkeypatch, solve)

    @pytest.mark.parametrize("chunk", range(2))
    def test_ptas_at_epsilon_one_and_fpt(self, monkeypatch, chunk):
        for seed in range(200 * chunk, 200 * chunk + 200):
            inst = sweep_instance(seed)
            solve = lambda: (
                ptas_complete(inst, 1),
                [fpt_monitoring_complete(inst, k) for k in range(inst.graph.n + 2)],
            )
            assert solve() == enumerated(monkeypatch, solve)

    @pytest.mark.parametrize("chunk", range(6))
    def test_block_graphs(self, monkeypatch, chunk):
        """Blocks of 2 to 7 vertices, demands up to 0..4."""
        for seed in range(50 * chunk, 50 * chunk + 50):
            rng = SplitMix64(seed + 777)
            sizes = [2 + rng.below(6) for _ in range(1 + rng.below(6))]
            hi = rng.below(5)
            weight = (1, 4, 1) if seed % 3 else (0, 3, 2)
            inst = gen_block_graph(
                sizes, demand=(rng.below(hi + 1), hi), weight=weight, seed=seed
            )
            solve = lambda: solve_block(inst)
            assert solve() == enumerated(monkeypatch, solve)


class TestNodeLimit:
    """Independent k-set is W[1]-hard, so the level search is bounded by
    NODE_LIMIT search nodes and refuses past it."""

    INST = gen_complete(40, demand=(0, 2), weight=(1, 4, 1), seed=3)

    def test_the_search_refuses_past_its_node_limit(self, monkeypatch):
        nodes, sol = search_nodes(monkeypatch, lambda: solve_complete_cbounded(self.INST))
        assert sol.feasible and nodes > 1
        monkeypatch.setattr(edgemon.complete, "NODE_LIMIT", nodes - 1)
        with pytest.raises(BudgetExceeded, match=f"node limit {nodes - 1} exhausted"):
            solve_complete_cbounded(self.INST)

    @pytest.mark.parametrize("klass", [[], ["--class", "complete"], ["--class", "block"]])
    def test_cli_solve_exits_3_without_a_traceback(
        self, monkeypatch, capsys, tmp_path, klass
    ):
        path = tmp_path / "k40.em"
        path.write_text(format_instance_text(InstanceDocument(self.INST)))
        monkeypatch.setattr(edgemon.complete, "NODE_LIMIT", 1)
        code = main(["solve", *klass, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "node limit 1 exhausted" in captured.err
        assert "Traceback" not in captured.err
