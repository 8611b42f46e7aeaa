"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact rational arithmetic; there are no
float comparisons anywhere.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from bruteforce import (
    domination_predicates,
    exact_double_dom,
    exact_gamma_t,
    exact_vertex_cover,
    exists_independent_set,
    reversed_ids,
)
from edgemon import (
    GenerationError,
    Graph,
    InputError,
    Instance,
    SplitMix64,
    block_cut_tree,
    exact_gamma_m,
    feasibility_precheck,
    gamma_t_cograph,
    gen_block_graph,
    gen_cograph,
    gen_complete,
    gen_interval,
    gen_planar,
    gen_split,
    is_monitoring_set,
    monitor_table,
    monitors,
    nice_path_decomposition,
    ptas_complete,
    ptas_planar,
    reduce_bip_tds_to_comparability,
    reduce_is_to_em,
    reduce_tds_to_em,
    reduce_planar_vc_to_udg,
    representant,
    solve_block,
    solve_complete_uniform,
    solve_interval,
    solve_cograph,
    split_gamma_m,
    unit_interval_bound_check,
)
from edgemon.intervals import clique_number
from edgemon.oracle import SearchBudget


@contextmanager
def criterion(num: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {title}")
        raise
    print(f"PASS criterion {num:2d}: {title} ({time.perf_counter() - started:.1f}s)")


def test_c01_uniform_clique_law():
    with criterion(1, "uniform clique optimum is k+2 for solver and oracle"):
        for n in range(3, 11):
            for k in range(1, 5):
                if n < k + 2:
                    continue
                inst = gen_complete(n, demand=k)
                assert solve_complete_uniform(inst).value == k + 2
                assert exact_gamma_m(inst).value == k + 2


def test_c02_clique_bounds():
    with criterion(2, "200 random cliques: optimum in [C, C+2], C+2-subsets monitor"):
        rng = SplitMix64(20_02)
        for _ in range(200):
            n = 5 + rng.below(8)
            inst = gen_complete(n, demand=(0, 3), seed=rng.below(1 << 62))
            cmax = max(inst.demands)
            value = exact_gamma_m(inst).value
            assert cmax <= value <= cmax + 2
            for _ in range(3):
                sample: set[int] = set()
                while len(sample) < cmax + 2:
                    sample.add(rng.below(n))
                assert is_monitoring_set(inst, sample)


def test_c03_interval_dp_equals_oracle():
    with criterion(3, "50 interval instances: DP equals oracle exactly"):
        rng = SplitMix64(20_03)
        feasible_seen = infeasible_seen = 0
        for _ in range(50):
            n = 4 + rng.below(11)
            inst, real = gen_interval(
                n, seed=rng.below(1 << 62), demand=(0, 2), weight=(1, 3, 4)
            )
            mine = solve_interval(inst, real)
            ref = exact_gamma_m(inst)
            assert mine.feasible == ref.feasible
            if mine.feasible:
                feasible_seen += 1
                assert mine.value == ref.value
            else:
                infeasible_seen += 1
        assert feasible_seen and infeasible_seen, "corpus must cover both outcomes"


def test_c04_block_solver_equals_oracle():
    with criterion(4, "50 block graphs: solver equals oracle, order independent"):
        rng = SplitMix64(20_04)
        other_roots = 0
        for trial in range(50):
            count = 2 + rng.below(3)
            sizes = [2 + rng.below(4) for _ in range(count)]
            while sum(sizes) - (len(sizes) - 1) > 14:
                sizes.pop()
            inst = gen_block_graph(
                sizes, demand=(0, 2), weight=(1, 3, 4), seed=rng.below(1 << 62)
            )
            mine = solve_block(inst)
            ref = exact_gamma_m(inst)
            assert mine.feasible == ref.feasible
            if mine.feasible:
                assert mine.value == ref.value
            # the copy with reversed ids is eliminated in another order
            copy = reversed_ids(inst)
            n = inst.graph.n
            root = block_cut_tree(inst.graph).blocks[-1]
            copy_root = block_cut_tree(copy.graph).blocks[-1]
            other_roots += root != {n - 1 - v for v in copy_root}
            other = solve_block(copy)
            assert other.feasible == mine.feasible
            if mine.feasible:
                assert other.value == mine.value
        assert other_roots, "the reversed copies never changed the root block"


def test_c05_cograph_solver_equals_oracle():
    with criterion(5, "50 cographs: monitoring and total domination equal oracle"):
        rng = SplitMix64(20_05)
        for _ in range(50):
            n = 3 + rng.below(10)
            inst, tree = gen_cograph(
                n, seed=rng.below(1 << 62), demand=1, weight=(1, 3, 4)
            )
            mine = solve_cograph(inst, tree)
            ref = exact_gamma_m(inst)
            assert mine.feasible == ref.feasible
            if mine.feasible:
                assert mine.value == ref.value
            t_mine = gamma_t_cograph(tree, inst.weights)
            t_ref = exact_gamma_t(inst.graph, inst.weights)
            assert t_mine.feasible == t_ref.feasible
            if t_mine.feasible:
                assert t_mine.value == t_ref.value


def test_c06_fpt_equals_oracle():
    from edgemon import fpt_monitoring_complete

    with criterion(6, "100 cliques, k in 0..6: FPT recursion matches oracle"):
        rng = SplitMix64(20_06)
        for _ in range(100):
            n = 3 + rng.below(8)
            inst = gen_complete(n, demand=(0, 4), seed=rng.below(1 << 62))
            ref = exact_gamma_m(inst)
            for k in range(7):
                expected = ref.feasible and ref.value <= k
                assert fpt_monitoring_complete(inst, k) == expected


def test_c07_complete_ptas_ratio():
    with criterion(7, "50 weighted cliques, eps in {1, 1/2, 1/4}: ratio holds"):
        rng = SplitMix64(20_07)
        for _ in range(50):
            n = 5 + rng.below(8)
            inst = gen_complete(
                n, demand=(0, 6), weight=(1, 3, 4), seed=rng.below(1 << 62)
            )
            ref = exact_gamma_m(inst)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                sol = ptas_complete(inst, eps)
                assert sol.feasible == ref.feasible
                if sol.feasible:
                    assert sol.value <= (1 + eps) * ref.value


def test_c08_planar_ptas_ratio():
    with criterion(8, "grids and 20 planar fixtures: ratio, validity, precheck"):
        fixtures: list[Instance] = []
        for rows, cols in [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
            base = gen_planar(rows, cols, triangulate=True, seed=rows * 7 + cols)
            g = base.graph
            demand = {
                e: (1 if g.neighbors(e[0]) & g.neighbors(e[1]) else 0)
                for e in g.edges
            }
            fixtures.append(Instance.make(g, demand=demand))
        rng = SplitMix64(20_08)
        while len(fixtures) < 26:
            rows, cols = 2 + rng.below(3), 2 + rng.below(3)
            fixtures.append(
                gen_planar(
                    rows, cols, triangulate=rng.below(2) == 0,
                    demand=(0, 1), weight=(1, 3, 4), seed=rng.below(1 << 62),
                )
            )
        for inst in fixtures:
            ref = exact_gamma_m(inst)
            assert ref.feasible == feasibility_precheck(inst)
            for eps, k in ((Fraction(1), 2), (Fraction(2, 3), 3)):
                sol = ptas_planar(inst, eps)
                assert sol.feasible == ref.feasible
                if sol.feasible:
                    assert sol.value <= Fraction(k + 2, k) * ref.value
                    assert is_monitoring_set(inst, sol.vertices)


def _connected_edge_lists(n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen = frontier = 1
        while frontier:
            nxt = 0
            for v in range(n):
                if frontier >> v & 1:
                    nxt |= adj[v] & ~seen
            seen |= nxt
            frontier = nxt
        if seen == (1 << n) - 1:
            yield [p for bit, p in enumerate(pairs) if mask >> bit & 1]


def test_c09_reduction_relations():
    with criterion(9, "reduction optimum relations, IS-EM equivalence exhaustive"):
        rng = SplitMix64(20_09)
        done = 0
        while done < 30:  # triangle-apex and universal-vertex relations
            n = 4 + rng.below(5)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.below(5) < 2
            ]
            g = Graph.from_edges(n, edges)
            if any(not g.neighbors(v) for v in range(n)):
                continue
            assert (
                exact_gamma_m(reduce_tds_to_em(g)).value
                == exact_gamma_t(g).value + 3
            )
            left = [v for v in range(n) if v % 2 == 0]
            bip_edges = [
                (u, v)
                for u in left
                for v in range(n)
                if v % 2 == 1 and rng.below(3) < 2
            ]
            bip = Graph.from_edges(n, bip_edges)
            if all(bip.neighbors(v) for v in range(n)):
                assert (
                    exact_gamma_m(reduce_bip_tds_to_comparability(bip)).value
                    == exact_gamma_t(bip).value + 1
                )
            done += 1

        for n in range(1, 7):  # IS <-> EM, exhaustive over labeled graphs
            for edges in _connected_edge_lists(n):
                g = Graph.from_edges(n, edges)
                for k in range(1, 5):
                    if n == 1 and k > 1:
                        # edgeless single-vertex source: the image has no
                        # demands at all, so the empty set would monitor
                        # while no independent set of size k exists
                        with pytest.raises(InputError):
                            reduce_is_to_em(g, k)
                        continue
                    image = reduce_is_to_em(g, k)
                    mon = monitor_table(image)
                    targeted = [
                        (e, c)
                        for e, c in zip(image.graph.edges, image.demands)
                        if c > 0
                    ]
                    small_set_exists = False
                    for size in range(min(k, n) + 1):
                        for combo in combinations(range(n), size):
                            s = frozenset(combo)
                            if all(len(mon[e] & s) >= c for e, c in targeted):
                                small_set_exists = True
                                break
                        if small_set_exists:
                            break
                    assert small_set_exists == exists_independent_set(g, k)[0]

        budget = SearchBudget(max_vertices=32)  # diamond-chain gadgets
        for src, n_i in ((Graph.from_edges(2, [(0, 1)]), 1),
                         (Graph.from_edges(3, [(0, 1), (1, 2)]), 1)):
            image, _ = reduce_planar_vc_to_udg(src, n_i)
            expected = exact_vertex_cover(src).value + src.m * (5 * n_i + 2)
            assert exact_gamma_m(image, budget=budget).value == expected


def test_c10_split_equivalence():
    with criterion(10, "30 split graphs: monitoring equals double domination"):
        rng = SplitMix64(20_10)
        done = 0
        while done < 30:
            k = 3 + rng.below(5)
            i = 1 + rng.below(5)
            try:
                inst = gen_split(
                    k, i, edge_prob=Fraction(3, 5),
                    seed=rng.below(1 << 62), min_degree=2,
                )
            except GenerationError:
                continue
            g = inst.graph
            dd = exact_double_dom(g)
            if not dd.feasible or dd.value < 3:
                continue
            sol = split_gamma_m(g, tuple(range(k)), tuple(range(k, k + i)))
            ref = exact_gamma_m(Instance.make(g, demand=1))
            assert sol.value == ref.value == dd.value
            done += 1


def test_c11_structural_properties():
    with criterion(11, "structural properties hold with zero violations"):
        rng = SplitMix64(20_11)

        # 1-uniform monitoring sets totally dominate (no isolated vertices)
        positives = 0
        for _ in range(60):
            n = 4 + rng.below(6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.below(3) < 2
            ]
            g = Graph.from_edges(n, edges)
            if any(not g.neighbors(v) for v in range(n)):
                continue
            inst = Instance.make(g, demand=1)
            candidates = [
                {v for v in range(n) if rng.below(2)} for _ in range(5)
            ]
            witness = exact_gamma_m(inst)
            if witness.feasible:
                candidates.append(set(witness.vertices))
                extra = set(witness.vertices) | {rng.below(n)}
                candidates.append(extra)
            for s in candidates:
                if is_monitoring_set(inst, s):
                    positives += 1
                    assert domination_predicates(g, s).total
        assert positives > 0

        # trimmed summaries monitor bag edges exactly as well
        for _ in range(12):
            inst, real = gen_interval(
                9, seed=rng.below(1 << 62), demand=(0, 2)
            )
            decomp = nice_path_decomposition(real)
            g = decomp.graph
            cmax = max(inst.demands, default=0)
            introduced: set[int] = set()
            for i, (kind, v) in enumerate(decomp.events, start=1):
                if kind == "introduce":
                    introduced.add(v)
                bag = sorted(decomp.bags[i])
                for _ in range(3):
                    s = {u for u in introduced if rng.below(2)}
                    w = set(representant(s, i, decomp, cmax))
                    for a_idx in range(len(bag)):
                        for b_idx in range(a_idx + 1, len(bag)):
                            e = (bag[a_idx], bag[b_idx])
                            if not g.has_edge(*e):
                                continue
                            m = set(monitors(g, e))
                            for alpha in range(cmax + 1):
                                if len(m & s) >= alpha:
                                    assert len(m & w) >= alpha

        # closed neighborhoods of cliques in unit realizations stay small
        for trial in range(30):
            n = 6 + rng.below(9)
            _, real = gen_interval(n, lengths="unit", seed=rng.below(1 << 62))
            decomp = nice_path_decomposition(real)
            biggest = max(decomp.bags, key=len)
            assert unit_interval_bound_check(real, biggest)
            assert clique_number(real) == len(biggest)
