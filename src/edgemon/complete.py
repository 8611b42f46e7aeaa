"""Solvers specific to complete graphs.

On a complete graph every vertex other than an edge's endpoints monitors
that edge, so any C+2 vertices form a monitoring set (C the largest
demand) and the optimum never needs more.  That bound drives everything
here: bounded exhaustive search, the sorted-prefix rule for uniform
demands, the parameterized test through independent sets, and the
approximation scheme for the weighted problem.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import ceil
from typing import Iterable, Iterator, Sequence

from .core import (
    Graph,
    InputError,
    Instance,
    Solution,
    certify,
    demand_checks,
    is_monitoring_set,
    max_demand,
    monitor_table,  # noqa: F401  unused here; edgebench's tracer hooks it
)
from .oracle import exists_independent_set


def _require_complete(inst: Instance) -> None:
    if not inst.graph.is_complete():
        raise InputError("solver requires a complete graph")


def gamma_bounds(inst: Instance) -> tuple[int, int]:
    """(C, C+2) bracket for the optimum size; requires |V| >= C+2.

    Also certifies the upper bound by checking one concrete set of size
    C+2 against the demands.
    """
    _require_complete(inst)
    cmax = max_demand(inst)
    if inst.graph.n < cmax + 2:
        raise InputError(
            f"bounds need |V| >= C+2 = {cmax + 2}; the instance may be infeasible"
        )
    if not is_monitoring_set(inst, range(cmax + 2)):
        raise RuntimeError("gamma_bounds: C+2 vertices miss a demand")
    return cmax, cmax + 2


def _cheapest(
    checks: list[tuple[frozenset[int], int]],
    cost: Sequence[int],
    pool: Iterable[tuple[int, ...]],
) -> tuple[int, tuple[int, ...]] | None:
    """(integer weight, set) of the first minimum-weight candidate of `pool`
    that meets every (monitors, demand) check, or None when none does.
    When some check has fewer monitors than its demand, no candidate can
    meet it, and None comes back before the pool is drawn from."""
    if any(len(mon) < c for mon, c in checks):
        return None
    best: tuple[int, tuple[int, ...]] | None = None
    for chosen in pool:
        w = sum(cost[v] for v in chosen)
        if best is None or w < best[0]:
            s = frozenset(chosen)
            if all(len(mon & s) >= c for mon, c in checks):
                best = w, chosen
    return best


def _pool(vertices: Sequence[int], cap: int) -> Iterator[tuple[int, ...]]:
    """Subsets of the sorted `vertices` of size <= cap, in ascending
    cardinality then lexicographic order.  Filtering it to the sets that
    hold a vertex keeps their order: two sets of one size that share a
    vertex compare as the rest of them do."""
    sizes = range(min(cap, len(vertices)) + 1)
    return chain.from_iterable(combinations(vertices, size) for size in sizes)


def _search(inst: Instance, pool: Iterable[tuple[int, ...]]) -> Solution:
    """`_cheapest` of `pool` against every demand of `inst`, certified."""
    checks = [(mon, c) for _, mon, c in demand_checks(inst)]
    best = _cheapest(checks, inst.cost, pool)
    if best is None:
        return Solution.infeasible()
    return certify(inst, best[1], best[0], "bounded search")


def solve_complete_cbounded(inst: Instance, force: int | None = None) -> Solution:
    """Exact optimum by enumerating sets of size at most C+2; with `force`
    set, the optimum among monitoring sets containing that vertex."""
    _require_complete(inst)
    if force is not None and not (0 <= force < inst.graph.n):
        raise InputError(f"forced vertex {force} out of range")
    pool = _pool(range(inst.graph.n), max_demand(inst) + 2)
    if force is not None:
        pool = (chosen for chosen in pool if force in chosen)
    return _search(inst, pool)


def solve_complete_uniform(inst: Instance) -> Solution:
    """Quasi-linear rule for k-uniform demands, k > 0: the k+2 cheapest
    vertices (ties by id) are optimal, and fewer than k+2 never suffice.
    `certify` then re-checks every edge against the k+2 chosen vertices
    alone, O(k) per edge."""
    _require_complete(inst)
    if not inst.demands:
        raise InputError("uniform rule needs at least one edge")
    k = inst.demands[0]
    if k == 0 or not inst.is_uniform(k):
        raise InputError("uniform rule requires k-uniform demands with k > 0")
    if inst.graph.n < k + 2:
        return Solution.infeasible()
    order = sorted(range(inst.graph.n), key=lambda v: (inst.cost[v], v))
    chosen = order[: k + 2]
    return certify(inst, chosen, sum(inst.cost[v] for v in chosen), "uniform rule")


def fpt_monitoring_complete(inst: Instance, k: int) -> bool:
    """Whether some monitoring set of size at most k exists.

    Demands above k kill the instance, and no demands at all need no
    vertex.  Any C+2 vertices monitor the graph (the bound `gamma_bounds`
    certifies), so k >= C+2 with n >= C+2 is a yes without a search.
    Otherwise the levels j = C, ..., min(k, n), at most C and C+1, are
    tried in turn: level j succeeds when the vertices untouched by
    demand-j edges hold an independent set of size j in the graph of
    demand-(j-1) edges.
    """
    _require_complete(inst)
    if k < 0:
        raise InputError("k must be non-negative")
    cmax = max_demand(inst)
    n = inst.graph.n
    if cmax > k:
        return False
    if cmax == 0 or min(k, n) >= cmax + 2:
        return True
    edges = list(zip(inst.graph.edges, inst.demands))
    for level in range(cmax, min(k, n) + 1):
        blocked = {x for e, c in edges if c == level for x in e}
        survivors = [v for v in range(n) if v not in blocked]
        new_of = {old: new for new, old in enumerate(survivors)}
        level_edges = [
            (new_of[u], new_of[v])
            for (u, v), c in edges
            if c == level - 1 and u in new_of and v in new_of
        ]
        reduced = Graph.from_edges(len(survivors), level_edges)
        if exists_independent_set(reduced, level)[0]:
            return True
    return False


def ptas_complete(inst: Instance, epsilon) -> Solution:
    """Feasibility-exact (1+epsilon)-approximation for weighted complete
    instances.

    With k = ceil(2/epsilon): demands C <= k are solved exactly by
    `solve_complete_cbounded` (a feasible set larger than C+2 holds a
    feasible (C+2)-subset that is no heavier and comes earlier in its
    pool, so sets of up to k+2 vertices would add no better one); when
    even |V| vertices cannot meet the top demand the instance is
    infeasible; otherwise candidates mixing the C+2 cheapest vertices with
    up to k outsiders are scanned, which contains either the optimum or a
    set within the ratio.
    """
    _require_complete(inst)
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    k = ceil(Fraction(2) / eps)
    cmax = max_demand(inst)
    n = inst.graph.n
    if cmax <= k:
        return solve_complete_cbounded(inst)
    if n < cmax + 2:
        return Solution.infeasible()
    order = sorted(range(n), key=lambda v: (inst.cost[v], v))
    first = order[: cmax + 2]
    outside = sorted(set(range(n)) - set(first))

    def pool():
        for core_size in range(cmax + 3):
            for core_part in combinations(sorted(first), core_size):
                lo = max(0, cmax - core_size)
                hi = min(k, cmax + 2 - core_size, len(outside))
                for extra_size in range(lo, hi + 1):
                    for extra in combinations(outside, extra_size):
                        yield core_part + extra

    best = _search(inst, pool())
    if not best.feasible:
        raise RuntimeError("ptas_complete: the C+2 cheapest vertices must qualify")
    return best
