"""Interval realizations, the path decomposition, and the summary DP."""

import hashlib
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from edgemon import (
    Graph,
    InputError,
    Instance,
    IntervalRealization,
    NicePathDecomposition,
    SplitMix64,
    exact_gamma_m,
    feasibility_precheck,
    gen_interval,
    is_monitoring_set,
    minimum_weight_cover,
    monitors,
    nice_path_decomposition,
    representant,
    solve_interval,
    unit_interval_bound_check,
)
from edgemon import intervals
from edgemon.intervals import clique_number

import bruteforce as bf

# solve_interval values on larger generator instances, captured from the DP
# that keyed states by vertex tuples, and witness digests of the optimum with
# the smallest sum(1 << v): (n, lengths, demand, weight, seed, value and
# digest, or None for both when infeasible)
PINNED_VALUES = [
    (20, "random", (0, 2), (0, 3, 1), 0, "2", "9d2a7dbed94f8a7f"),
    (20, "random", (0, 3), (1, 4, 4), 0, "39/4", "bbb940977ee3b333"),
    (24, "random", (0, 3), (0, 3, 1), 1, "3", "a7f0e4b3ec605b95"),
    (24, "random", (0, 3), (1, 4, 4), 3, None, None),
    (28, "random", (0, 2), (0, 3, 1), 2, "0", "dde57c4504c853be"),
    (28, "random", (0, 3), (1, 4, 4), 3, "16", "72045dac15a03fc9"),
    (32, "random", (0, 2), (1, 4, 4), 1, "11/2", "70149cd5b689c09c"),
    (32, "random", (0, 3), (0, 3, 1), 3, "6", "86750af9606af55d"),
    (36, "random", (0, 2), (0, 3, 1), 3, "1", "61d70b6da3960845"),
    (36, "random", (0, 2), (1, 4, 4), 3, "15/2", "860fc3b31bd62be8"),
    (40, "random", (0, 2), (1, 4, 4), 3, "41/4", "39e6c71197d1fe89"),
    (40, "random", (0, 2), (0, 3, 1), 3, "3", "dd65f946558c6bd0"),
    (20, "unit", (0, 3), (0, 3, 1), 1, "26", "86cb219736dc9722"),
    (20, "unit", (0, 3), (1, 4, 4), 2, None, None),
    (24, "unit", (0, 2), (1, 4, 4), 1, "53/4", "3f8d8100270872b5"),
    (28, "unit", (0, 3), (1, 4, 4), 2, "105/4", "f4bf879cae0787fd"),
    (32, "unit", (0, 3), (0, 3, 1), 0, "12", "6315b4fc0903443f"),
    (36, "unit", (0, 2), (0, 3, 1), 2, "2", "44f4e8e6cacce8e1"),
    (36, "unit", (0, 3), (1, 4, 4), 3, "81/4", "c774eed718b60b5d"),
    (40, "unit", (0, 3), (0, 3, 1), 2, "8", "9cf7310b3675155f"),
    (40, "unit", (0, 2), (1, 4, 4), 0, "61/4", "568de8c1e1f8467e"),
]


def witness_digest(vertices) -> str:
    text = " ".join(map(str, vertices))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestRealization:
    def test_reversed_rejected(self):
        with pytest.raises(InputError):
            IntervalRealization(((3, 1),))

    def test_normalize_keeps_touching_edge(self):
        real = IntervalRealization(((0, 5), (5, 9)))
        fixed = real.normalize()
        assert fixed.endpoints_distinct()
        assert fixed.intersection_graph().edges == ((0, 1),)

    def test_normalize_keeps_gaps(self):
        real = IntervalRealization(((0, 2), (2, 4), (5, 7)))
        fixed = real.normalize()
        assert fixed.intersection_graph().edges == ((0, 1),)

    def test_normalize_point_interval(self):
        real = IntervalRealization(((3, 3), (0, 6)))
        fixed = real.normalize()
        assert fixed.endpoints_distinct()
        assert fixed.intersection_graph().edges == ((0, 1),)

    def test_normalize_noop_when_distinct(self):
        real = IntervalRealization(((0, 3), (1, 4)))
        assert real.normalize() is real


# The path 0-1-2 realized by (0, 3), (1, 5), (4, 6), its decomposition in
# short form, and copies that each break one invariant that
# `bf.check_nice_path_decomposition` checks, with the start of its error.
PATH_REAL = IntervalRealization(((0, 3), (1, 5), (4, 6)))
PATH_EVENTS, PATH_BAGS, PATH_EDGES = "+0 +1 -0 +2 -1 -2", "/0/01/1/12/2/", ((0, 1), (1, 2))
BROKEN_DECOMPOSITIONS = {
    "first bag not empty": (PATH_EVENTS, "0/0/01/1/12/2/", PATH_EDGES, "first and last"),
    "length mismatch": (PATH_EVENTS, "/0/01/1/12/2//", PATH_EDGES, "bag/event length"),
    "unclean introduce": ("+1 +1 -0 +2 -1 -2", PATH_BAGS, PATH_EDGES, "step 1 is not a clean in"),
    "unclean forget": ("+0 +1 -1 +2 -1 -2", PATH_BAGS, PATH_EDGES, "step 3 is not a clean fo"),
    "unknown event kind": ("*0 +1 -0 +2 -1 -2", PATH_BAGS, PATH_EDGES, "unknown event"),
    "introduced twice": ("+0 +1 -0 +0 -1 -0", "/0/01/1/01/0/", PATH_EDGES, "every vertex"),
    "introduce order": ("+1 +0 -0 +2 -1 -2", "/1/01/1/12/2/", PATH_EDGES, "introduce order"),
    "forget order": ("+0 +1 -0 +2 -2 -1", "/0/01/1/12/1/", PATH_EDGES, "forget order"),
    "bag not a clique": (PATH_EVENTS, PATH_BAGS, ((1, 2),), "bag 2 is not"),
    "edge in no bag": (PATH_EVENTS, PATH_BAGS, PATH_EDGES + ((0, 2),), "some edge"),
    # clean steps that introduce and forget each vertex once keep its bags
    # contiguous, so the contiguity check is never reached: vertex 0 here
    # leaves and comes back, and the count of introductions refuses it
    "bags not contiguous": (
        "+0 +1 -0 +0 -0 +2 -1 -2", "/0/01/1/01/1/12/2/", PATH_EDGES, "every vertex"
    ),
}


def _path_decomposition(events: str, bags: str, edges) -> NicePathDecomposition:
    """A decomposition over PATH_REAL from events such as "+0 -0" (introduce
    0, forget 0; any other sign is kept as the kind) and bags split by "/"."""
    kinds = {"+": "introduce", "-": "forget"}
    return NicePathDecomposition(
        PATH_REAL,
        Graph.from_edges(3, edges),
        tuple((kinds.get(e[0], e[0]), int(e[1:])) for e in events.split()),
        tuple(frozenset(map(int, bag)) for bag in bags.split("/")),
    )


class TestDecomposition:
    @pytest.mark.parametrize("case", list(BROKEN_DECOMPOSITIONS))
    def test_checker_refuses_each_broken_invariant(self, case):
        valid = _path_decomposition(PATH_EVENTS, PATH_BAGS, PATH_EDGES)
        assert valid == nice_path_decomposition(PATH_REAL)
        bf.check_nice_path_decomposition(valid)
        *broken, message = BROKEN_DECOMPOSITIONS[case]
        with pytest.raises(InputError, match=message):
            bf.check_nice_path_decomposition(_path_decomposition(*broken))

    def test_k3_bag_peaks(self):
        real = IntervalRealization(((0, 9), (1, 8), (2, 7)))
        decomp = nice_path_decomposition(real)
        assert frozenset({0, 1, 2}) in decomp.bags
        bf.check_nice_path_decomposition(decomp)

    def test_disjoint_max_bag_one(self):
        real = IntervalRealization(((0, 1), (2, 3)))
        decomp = nice_path_decomposition(real)
        assert max(len(b) for b in decomp.bags) == 1

    def test_generator_output_validates(self):
        _, real = gen_interval(10, seed=3)
        bf.check_nice_path_decomposition(nice_path_decomposition(real))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_realizations_validate(self, seed):
        _, real = gen_interval(9, seed=seed)
        bf.check_nice_path_decomposition(nice_path_decomposition(real))

    @pytest.mark.parametrize("seed", range(8))
    def test_intersection_graph_matches_pair_rule(self, seed):
        # the endpoint sweep against every pair, on this class's realizations
        # and on coarsened copies whose endpoints coincide
        for n, lengths, s in (
            (10, "random", 3), (9, "random", seed), (10, "random", seed + 100),
            (12, "unit", seed),
        ):
            inst, real = gen_interval(n, lengths=lengths, seed=s)
            assert inst.graph == bf.interval_graph(real.intervals)
            for step in (2, 3, 5):
                coarse = tuple((a // step, b // step) for a, b in real.intervals)
                got = IntervalRealization(coarse).intersection_graph()
                assert got == bf.interval_graph(coarse)

    def test_intersection_graph_of_touching_and_point_intervals(self):
        ivs = ((0, 2), (2, 4), (2, 2), (5, 5), (5, 9), (4, 4))
        assert IntervalRealization(ivs).intersection_graph() == bf.interval_graph(ivs)
        assert IntervalRealization(()).intersection_graph().n == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_bag_neighbors_closed_under_later_endings(self, seed):
        # for u still in the bag, being adjacent to an earlier-ending
        # vertex of V_i forces adjacency to every later-ending one
        _, real = gen_interval(10, seed=seed + 100)
        decomp = nice_path_decomposition(real)
        g = decomp.graph
        rank = real.right_rank()
        seen: set[int] = set()
        for i, (kind, v) in enumerate(decomp.events, start=1):
            if kind == "introduce":
                seen.add(v)
            vi = sorted(seen)
            for u in decomp.bags[i]:
                for v1 in vi:
                    if v1 not in g.closed_neighbors(u):
                        continue
                    for v2 in vi:
                        if rank[v2] > rank[v1]:
                            assert v2 in g.closed_neighbors(u)


class TestRepresentant:
    def test_small_sets_kept_whole(self):
        _, real = gen_interval(8, seed=1)
        decomp = nice_path_decomposition(real)
        near = set(decomp.bags[4])
        for v in decomp.bags[4]:
            near |= decomp.graph.neighbors(v)
        small = set(list(near)[:2])
        assert representant(small, 4, decomp, 2) == tuple(sorted(small))

    def test_empty(self):
        _, real = gen_interval(5, seed=2)
        decomp = nice_path_decomposition(real)
        assert representant(set(), 3, decomp, 1) == ()

    def test_k5_trims_to_latest_ending(self):
        real = IntervalRealization(((0, 10), (1, 11), (2, 12), (3, 13), (4, 14)))
        decomp = nice_path_decomposition(real)
        # step 7 = forget vertex 1; bag {2, 3, 4}; all five are neighbors
        assert decomp.events[6] == ("forget", 1)
        got = representant({0, 1, 2, 3, 4}, 7, decomp, 1)
        assert got == (2, 3, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_preserves_bag_edge_monitoring(self, seed):
        # trimming to the latest-ending C+2 loses no monitoring power on
        # edges inside the current bag
        inst, real = gen_interval(10, seed=seed + 30, demand=(0, 2))
        decomp = nice_path_decomposition(real)
        g = decomp.graph
        cmax = max(inst.demands, default=0)
        rng = SplitMix64(seed)
        seen: set[int] = set()
        for i, (kind, v) in enumerate(decomp.events, start=1):
            if kind == "introduce":
                seen.add(v)
            bag = sorted(decomp.bags[i])
            if len(bag) < 2:
                continue
            for _ in range(4):
                s = {u for u in seen if rng.below(2)}
                w = set(representant(s, i, decomp, cmax))
                for a in range(len(bag)):
                    for b in range(a + 1, len(bag)):
                        e = (bag[a], bag[b])
                        if not g.has_edge(*e):
                            continue
                        m = set(monitors(g, e))
                        for alpha in range(cmax + 1):
                            if len(m & s) >= alpha:
                                assert len(m & w) >= alpha


class TestSolveInterval:
    def test_k3_uniform(self):
        real = IntervalRealization(((0, 9), (1, 8), (2, 7)))
        inst = Instance.make(real.intersection_graph(), demand=1)
        assert solve_interval(inst, real).value == 3

    def test_disjoint_zero_demand(self):
        real = IntervalRealization(((0, 1), (2, 3)))
        inst = Instance.make(real.intersection_graph(), demand=0)
        sol = solve_interval(inst, real)
        assert sol.value == 0 and sol.vertices == ()

    def test_realization_mismatch_rejected(self):
        real = IntervalRealization(((0, 1), (2, 3)))
        from edgemon import Graph

        inst = Instance.make(Graph.from_edges(2, [(0, 1)]), demand=0)
        with pytest.raises(InputError):
            solve_interval(inst, real)

    def test_triangle_free_infeasible(self):
        real = IntervalRealization(((0, 3), (2, 5), (4, 7)))
        inst = Instance.make(real.intersection_graph(), demand=1)
        assert not solve_interval(inst, real).feasible

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        inst, real = gen_interval(
            10, seed=seed, demand=(0, 2), weight=(1, 3, 4)
        )
        mine = solve_interval(inst, real)
        ref = exact_gamma_m(inst)
        assert mine.feasible == ref.feasible
        if mine.feasible:
            assert mine.value == ref.value

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration(self, seed):
        inst, real = gen_interval(8, seed=seed + 60, demand=(0, 2), weight=(1, 3, 4))
        mine = solve_interval(inst, real)
        ref = bf.brute_gamma_m(inst)
        assert mine.feasible == ref.feasible
        if mine.feasible:
            assert mine.value == ref.value

    @pytest.mark.parametrize(
        "n,lengths,demand,weight,seed,value,digest",
        PINNED_VALUES,
        ids=[f"{p[1]}{p[0]}-d{p[2][1]}-w{p[3][0]}-s{p[4]}" for p in PINNED_VALUES],
    )
    def test_pinned_values(self, n, lengths, demand, weight, seed, value, digest):
        inst, real = gen_interval(
            n, lengths=lengths, demand=demand, weight=weight, seed=seed
        )
        sol = solve_interval(inst, real)
        if value is None:
            assert not sol.feasible
            return
        assert sol.value == Fraction(value) == inst.weight_of(sol.vertices)
        assert is_monitoring_set(inst, sol.vertices)
        assert witness_digest(sol.vertices) == digest

    @pytest.mark.parametrize("lengths", ["random", "unit"])
    @pytest.mark.parametrize("demand", [1, (0, 2), (0, 3)], ids=["d1", "d0-2", "d0-3"])
    def test_witness_is_smallest_mask_optimum(self, lengths, demand):
        # among optima the witness has the smallest sum(1 << v); checked
        # against every subset, with each edge's monitors recounted from
        # the adjacency lists
        for n, weight, seed in product(range(1, 12), [(0, 3, 1), 1], range(3)):
            inst, real = gen_interval(
                n, lengths=lengths, demand=demand, weight=weight, seed=seed
            )
            g = inst.graph
            needs = [
                (sum(1 << x for x in bf.common_neighbors(g, u, v)), c)
                for (u, v), c in zip(g.edges, inst.demands)
            ]
            best = None
            for mask in range(1 << n):
                if all((mon & mask).bit_count() >= c for mon, c in needs):
                    w = sum(inst.weights[v] for v in range(n) if mask >> v & 1)
                    if best is None or (w, mask) < best:
                        best = (w, mask)
            sol = solve_interval(inst, real)
            assert sol.feasible == (best is not None)
            if best is not None:
                assert (sol.value, sum(1 << v for v in sol.vertices)) == best

    @pytest.mark.parametrize("lengths", ["random", "unit"])
    @pytest.mark.parametrize("demand", [1, (0, 2), (0, 3)], ids=["d1", "d0-2", "d0-3"])
    def test_incumbent_prune_is_exact(self, monkeypatch, lengths, demand):
        # the same Solution with the prune off: the bound is then the weight
        # of all vertices, which no state exceeds
        cases = [
            gen_interval(n, lengths=lengths, demand=demand, weight=weight, seed=seed)
            for n, weight, seed in product(range(2, 31, 4), [(0, 3, 1), 1], range(2))
        ]
        pruned = [solve_interval(*case) for case in cases]
        assert any(
            intervals._incumbent(inst) < sum(inst.cost)
            for (inst, _), sol in zip(cases, pruned)
            if sol.feasible
        )
        incumbent = intervals._incumbent
        monkeypatch.setattr(
            intervals,
            "_incumbent",
            lambda inst: None if incumbent(inst) is None else sum(inst.cost),
        )
        assert [solve_interval(*case) for case in cases] == pruned

    @pytest.mark.parametrize("lengths", ["random", "unit"])
    @pytest.mark.parametrize("demand", [1, (0, 2), (0, 3)], ids=["d1", "d0-2", "d0-3"])
    def test_completion_bound_is_exact(self, monkeypatch, lengths, demand):
        # the same Solution with the completion bound all zeros, on the
        # cases of test_incumbent_prune_is_exact
        cases = [
            gen_interval(n, lengths=lengths, demand=demand, weight=weight, seed=seed)
            for n, weight, seed in product(range(2, 31, 4), [(0, 3, 1), 1], range(2))
        ]
        bounded = [solve_interval(*case) for case in cases]
        assert any(
            any(intervals._completion_bound(inst, real)[1:])
            for (inst, real), sol in zip(cases, bounded)
            if sol.feasible
        )
        monkeypatch.setattr(
            intervals, "_completion_bound", lambda inst, real: [0] * (real.n + 1)
        )
        assert [solve_interval(*case) for case in cases] == bounded

    @pytest.mark.parametrize("lengths", ["random", "unit"])
    @pytest.mark.parametrize("demand", [1, (0, 2), (0, 3)], ids=["d1", "d0-2", "d0-3"])
    def test_completion_bound_is_a_lower_bound(self, lengths, demand):
        # after[h] is at most the cheapest vertex set, drawn from all
        # vertices, that meets the demands of every edge starting after the
        # vertex of right rank h - 1 ends; monitors recounted by brute force
        bounded = 0
        for n, weight, seed in product(range(3, 13), [(0, 3, 1), (1, 4, 4)], range(3)):
            inst, real = gen_interval(
                n, lengths=lengths, demand=demand, weight=weight, seed=seed
            )
            g, ivs = inst.graph, real.intervals
            after = intervals._completion_bound(inst, real)
            ends = sorted(b for _, b in ivs)
            assert len(after) == n + 1
            for h, bar in enumerate([None] + ends):
                constraints = [
                    (frozenset(bf.common_neighbors(g, u, v)), c)
                    for (u, v), c in zip(g.edges, inst.demands)
                    if c and (bar is None or max(ivs[u][0], ivs[v][0]) > bar)
                ]
                best = minimum_weight_cover(inst.weights, constraints)
                if best.feasible:
                    assert after[h] <= best.value * inst.scale
                    bounded += after[h] > 0
        assert bounded

    @pytest.mark.parametrize("lengths", ["random", "unit"])
    @pytest.mark.parametrize("demand", [1, (0, 2), (0, 3)], ids=["d1", "d0-2", "d0-3"])
    def test_completion_bound_tries_worthiest_first(self, lengths, demand):
        # the bound is the brute-force rule that tries the worthiest of equal
        # starts first; against the edge-order rule it replaced it is larger
        # at far more thresholds than it is smaller.  It is not larger at
        # every one: a worthier pick can block edges that start earlier, as
        # on unit gen_interval(9, demand=(0, 3), weight=(1, 4, 4), seed=5),
        # where after[0] falls from 64 to 60
        up = down = 0
        for n, weight, seed in product(range(3, 31, 3), [(0, 3, 1), (1, 4, 4)], range(4)):
            inst, real = gen_interval(
                n, lengths=lengths, demand=demand, weight=weight, seed=seed
            )
            after = intervals._completion_bound(inst, real)
            assert after == bf.completion_bound(inst, real, worthiest_first=True)
            ref = bf.completion_bound(inst, real)
            up += sum(map(int.__gt__, after, ref))
            down += sum(map(int.__lt__, after, ref))
        assert up > 5 * down

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_masks_give_monitor_sets(self, seed):
        # the monitors of each edge, read through the ranks by (cost, id)
        # with zero weights tying, equal core.monitors; realizations are
        # generated, coarsened so endpoints are shared or touch, and
        # normalized
        reals = [
            IntervalRealization(((0, 4), (4, 8), (0, 8), (2, 2), (8, 8), (3, 6))),
        ]
        for lengths in ("random", "unit"):
            _, real = gen_interval(12, lengths=lengths, seed=seed)
            reals.append(real)
            for step in (2, 3, 5):
                coarse = IntervalRealization(
                    tuple((a // step, b // step) for a, b in real.intervals)
                )
                reals += [coarse, coarse.normalize()]
        for real in reals:
            g = real.intersection_graph()
            weight = [Fraction((v * 7 + seed) % 3, 2) for v in range(g.n)]
            inst = Instance.make(g, demand=0, weight=weight)
            ranked = sorted(range(g.n), key=lambda v: (inst.cost[v], v))
            bit = [0] * g.n
            for r, v in enumerate(ranked):
                bit[v] = 1 << r
            opened, closing = intervals._sweep_masks(real, bit)
            for u, v in g.edges:
                mon = opened[u] & opened[v] & closing[u] & closing[v]
                mon &= ~(bit[u] | bit[v])
                got = {w for r, w in enumerate(ranked) if mon >> r & 1}
                assert got == set(monitors(g, (u, v)))

    @pytest.mark.parametrize("lengths", ["random", "unit"])
    def test_incumbent_bounds_the_optimum(self, lengths):
        # None exactly when no monitoring set exists; otherwise at least the
        # optimum, on the instance's integer scale
        for seed in range(20):
            inst, _ = gen_interval(
                3 + seed % 12, lengths=lengths, demand=(0, 1 + seed % 3),
                weight=((0, 3, 1), 1, (1, 4, 4))[seed % 3], seed=seed,
            )
            bound = intervals._incumbent(inst)
            assert (bound is None) == (not feasibility_precheck(inst))
            if bound is not None:
                assert bound >= exact_gamma_m(inst).value * inst.scale

    def test_memory_stays_with_one_step(self):
        # only the current step's table is kept, not every step's
        inst, real = gen_interval(30, demand=(0, 2), seed=0)
        tracemalloc.start()
        try:
            solve_interval(inst, real)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_repaired_realization_still_solves(self):
        real = IntervalRealization(((0, 4), (4, 8), (0, 8)))
        inst = Instance.make(real.normalize().intersection_graph(), demand=1)
        sol = solve_interval(inst, real)
        assert sol.value == 3


class TestStateBound:
    @pytest.mark.parametrize("cmax", range(4))
    def test_counts_every_key_of_a_bag(self, cmax):
        from edgemon.intervals import _state_bound

        # keys of a bag of k vertices: a mask of at most C+2 of its bits and
        # a descending tuple of at most min(C, C+2-p) reaches in 2..k
        for k in range(6):
            keys = 0
            for mask in range(1 << k):
                p = mask.bit_count()
                if p > cmax + 2:
                    continue
                for size in range(min(cmax, cmax + 2 - p) + 1):
                    keys += sum(
                        1
                        for reaches in product(range(2, k + 1), repeat=size)
                        if list(reaches) == sorted(reaches, reverse=True)
                    )
            assert _state_bound(k, cmax) == keys


def _check_against_oracle(inst, real):
    mine = solve_interval(inst, real)
    ref = exact_gamma_m(inst)
    assert mine.feasible == ref.feasible
    if mine.feasible:
        assert mine.value == ref.value == inst.weight_of(mine.vertices)
        assert is_monitoring_set(inst, mine.vertices)
    return mine.feasible


class TestDemandThree:
    """Largest demand 3 and zero weights, against the oracle (n <= 14)."""

    @pytest.mark.parametrize("lengths", ["random", "unit"])
    def test_drawn_demands(self, lengths):
        seen = [
            _check_against_oracle(*gen_interval(
                6 + seed % 9, lengths=lengths, demand=(0, 3), weight=(0, 3, 1),
                seed=seed,
            ))
            for seed in range(40)
        ]
        assert any(seen) and not all(seen)

    @pytest.mark.parametrize("lengths", ["random", "unit"])
    def test_saturated_demands(self, lengths):
        # each edge asks for min(3, its monitor count), so all are feasible
        for seed in range(24):
            inst, real = gen_interval(
                6 + seed % 9, lengths=lengths, weight=(0, 3, 1), seed=seed
            )
            g = inst.graph
            demand = {e: min(3, len(monitors(g, e))) for e in g.edges}
            inst = Instance.make(g, demand=demand, weight=inst.weights)
            assert _check_against_oracle(inst, real)


class TestUnitIntervalBound:
    def test_k3_singleton_clique(self):
        real = IntervalRealization(((0, 5), (2, 7), (4, 9)))
        assert unit_interval_bound_check(real, {0})

    def test_non_unit_rejected(self):
        real = IntervalRealization(((0, 5), (1, 3)))
        with pytest.raises(InputError):
            unit_interval_bound_check(real, {0})

    def test_non_clique_rejected(self):
        real = IntervalRealization(((0, 1), (4, 5)))
        with pytest.raises(InputError):
            unit_interval_bound_check(real, {0, 1})

    def test_max_clique_of_random_unit(self):
        _, real = gen_interval(15, lengths="unit", seed=7)
        g = real.intersection_graph()
        decomp = nice_path_decomposition(real)
        best = max(decomp.bags, key=len)
        assert g.is_clique(best)
        assert unit_interval_bound_check(real, best)

    def test_path_of_cliques(self):
        # consecutive groups of equal intervals chained along a line
        real = IntervalRealization(
            ((0, 7), (2, 9), (4, 11), (6, 13), (8, 15), (10, 17))
        )
        assert real.unit_lengths()
        decomp = nice_path_decomposition(real)
        for bag in decomp.bags:
            if bag:
                assert unit_interval_bound_check(real, bag)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_unit_realizations(self, seed):
        _, real = gen_interval(12, lengths="unit", seed=seed + 9)
        decomp = nice_path_decomposition(real)
        best = max(decomp.bags, key=len)
        assert unit_interval_bound_check(real, best)
        assert clique_number(real) == len(best)
