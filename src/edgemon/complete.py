"""Solvers specific to complete graphs.

On a complete graph every vertex other than an edge's endpoints monitors
that edge, so any C+2 vertices form a monitoring set (C the largest
demand) and the optimum never needs more.  That bound drives everything
here: the exact search by size levels (C, C+1 and C+2, each a
minimum-weight independent-set search in a graph of the heaviest
demands), which also settles each block of a block graph, the
sorted-prefix rule for uniform demands, the parameterized test through
the same levels, and the approximation scheme for the weighted problem.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from math import ceil
from typing import Iterable, Sequence

from .core import (
    BudgetExceeded,
    InputError,
    Instance,
    Solution,
    certify,
    demand_checks,
    is_monitoring_set,
    max_demand,
    monitor_table,  # noqa: F401  unused here; edgebench's tracer hooks it
)
from .oracle import DOMINATION_BUDGET


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


# Search nodes one level search of a clique may visit before it refuses
# (the count starts afresh at each level): one per vertex subset of a
# graph of DOMINATION_BUDGET vertices.
NODE_LIMIT = 1 << DOMINATION_BUDGET


class _CliqueLevels:
    """The level tables of one clique, and the search over them.

    In a clique every member off an edge monitors it, so a set S of j
    members meets edge uv exactly when c(uv) <= j - |S ∩ {u, v}|.  With C
    the largest demand, levels below C are void and any C+2 members
    qualify, so only three levels are searched:
    - level C: S holds no endpoint of a demand-C edge, and at most one
      endpoint of each demand-(C-1) edge;
    - level C+1: S holds at most one endpoint of each demand-C edge;
    - level C+2: any C+2 members, so the C+2 cheapest, ties by id.

    `demands` lists (i, k, c) for the clique's edges of positive demand c,
    i and k positions in the sorted `members`.  The tables are built once
    and serve every search of the clique.  A set of members is kept twice:
    as a bitmask over positions, which are in id order, and as one over
    ranks, which are positions ordered by cost, ties by id.
    """

    def __init__(
        self,
        members: Sequence[int],
        demands: Iterable[tuple[int, int, int]],
        cost: Sequence[int],
    ):
        s = len(members)
        self.members = members
        self.cost = cost = [cost[v] for v in members]
        # the sort is stable, so members of equal cost stay in id order
        self.by_rank = sorted(range(s), key=cost.__getitem__)
        self.rank_cost = [cost[i] for i in self.by_rank]
        # lightest[j]: the weight of the j cheapest members
        self.lightest = list(accumulate(self.rank_cost, initial=0))
        self.rank_bit = rank_bit = [0] * s
        for r, i in enumerate(self.by_rank):
            rank_bit[i] = 1 << r
        demands = list(demands)
        self.cmax = cmax = max((c for _, _, c in demands), default=0)
        # per position, the members it shares an edge of demand C (top) or
        # C-1 (below) with, as a position mask and a rank mask
        self.top = [0] * s, [0] * s
        self.below = [0] * s, [0] * s
        for i, k, c in demands:
            if cmax - c < 2:
                pos, rank = self.top if c == cmax else self.below
                pos[i] |= 1 << k
                pos[k] |= 1 << i
                rank[i] |= rank_bit[k]
                rank[k] |= rank_bit[i]
        # the candidates of level C: the members on no demand-C edge
        free = [i for i, joined in enumerate(self.top[0]) if not joined]
        self.free = sum(1 << i for i in free), sum(rank_bit[i] for i in free)

    def best(
        self, force: int | None = None, cap: int | None = None
    ) -> tuple[int, tuple[int, ...]] | None:
        """(integer weight, sorted members) of the first minimum-weight
        monitoring set in order of size, then lexicographic, among the
        sets of at most `cap` members (any size by default) that hold
        `force` when it is given; None when there is none.  A level must be
        strictly lighter than the smaller ones, so a smaller level wins
        ties.  Levels C and C+1 may each visit NODE_LIMIT search nodes, so
        a call may visit up to 2·NODE_LIMIT; BudgetExceeded is raised when
        one level passes its limit."""
        s, cmax = len(self.cost), self.cmax
        if cmax > max(s - 2, 0):  # a demand above s - 2 has too few monitors
            return None
        forced = () if force is None else (self.members.index(force),)
        bound, found = sum(self.cost) + 1, None
        top = min(cmax + 2, s if cap is None else cap)
        for j in range(max(cmax, len(forced)), top + 1):
            if self.lightest[j] >= bound:  # so are the levels above
                break
            hit = self._level(j, forced, bound)
            if hit is not None:
                bound, found = hit
        if found is None:
            return None
        return bound, tuple(sorted(self.members[i] for i in found))

    def _level(
        self, j: int, forced: tuple[int, ...], bound: int
    ) -> tuple[int, tuple[int, ...]] | None:
        """(weight, positions) of the lexicographically first lightest set
        of level j that holds `forced` and weighs less than `bound`, or
        None.

        Depth-first in id order on an explicit stack.  A node is `forced`
        plus the members `chosen` so far; its untried candidates come after
        the last chosen one and conflict with none.  It is cut when its
        weight plus its cheapest candidates to fill the level cannot beat
        `bound`, which each set found lowers: so of sets of equal weight,
        the first found, which is the lexicographically first, is kept."""
        cost, rank_bit, need = self.cost, self.rank_bit, j - len(forced)
        w0 = sum(cost[i] for i in forced)
        if j == self.cmax + 2:
            rest = [i for i in self.by_rank[:j] if i not in forced][:need]
            w = w0 + sum(cost[i] for i in rest)
            return (w, forced + tuple(rest)) if w < bound else None
        if j == self.cmax:
            (joined, joined_rank), (pos, ranks) = self.below, self.free
        else:
            (joined, joined_rank), pos = self.top, (1 << len(cost)) - 1
            ranks = pos
        for f in forced:
            if not pos >> f & 1:
                return None
            pos &= ~(1 << f | joined[f])
            ranks &= ~(rank_bit[f] | joined_rank[f])
        if need == 0:
            return (w0, forced) if w0 < bound else None

        by_rank, rank_cost = self.by_rank, self.rank_cost
        found = None
        chosen: list[int] = []
        weights = [w0]  # weights[i]: the weight of forced + chosen[:i]
        # stack[i]: the untried candidates for chosen[i], as (position
        # mask, rank mask)
        stack: list[tuple[int, int]] = []
        nodes = 0
        while True:  # one pass per node, the prefix `chosen`
            nodes += 1
            if nodes > NODE_LIMIT:
                raise BudgetExceeded(f"clique search: node limit {NODE_LIMIT} exhausted")
            stack.append((pos, ranks))
            while stack:
                pos, ranks = stack[-1]
                left, w, rest = need - len(chosen), weights[-1], ranks
                while left and rest:  # add the cheapest candidates
                    low = rest & -rest
                    w += rank_cost[low.bit_length() - 1]
                    rest ^= low
                    left -= 1
                if not left and w < bound:
                    if len(chosen) + 1 < need:
                        break
                    # the last pick: the cheapest candidate, of least id
                    # among equal costs, completes the best set of this prefix
                    bound, found = w, forced + (*chosen, by_rank[low.bit_length() - 1])
                stack.pop()
                if chosen:
                    chosen.pop()
                    weights.pop()
            else:
                return None if found is None else (bound, found)
            low = pos & -pos
            v = low.bit_length() - 1
            pos, ranks = pos ^ low, ranks ^ rank_bit[v]
            stack[-1] = pos, ranks
            chosen.append(v)
            weights.append(weights[-1] + cost[v])
            pos &= ~joined[v]
            ranks &= ~joined_rank[v]


def _levels(inst: Instance, cost: Sequence[int]) -> _CliqueLevels:
    """The level tables of a complete instance under `cost`.  In K_n an
    edge's monitors are all other vertices, so they are not listed."""
    demands = ((u, v, c) for (u, v), c in zip(inst.graph.edges, inst.demands) if c)
    return _CliqueLevels(range(inst.graph.n), demands, cost)


def solve_complete_cbounded(inst: Instance, force: int | None = None) -> Solution:
    """Exact optimum over sets of size at most C+2, by levels; with `force`
    set, the optimum among monitoring sets containing that vertex.  The
    witness is the first optimum in order of size, then lexicographic."""
    _require_complete(inst)
    if force is not None and not (0 <= force < inst.graph.n):
        raise InputError(f"forced vertex {force} out of range")
    best = _levels(inst, inst.cost).best(force)
    if best is None:
        return Solution.infeasible()
    return certify(inst, best[1], best[0], "bounded search")


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
    searched under unit weights: level j succeeds when the vertices
    untouched by demand-j edges hold an independent set of size j in the
    graph of demand-(j-1) edges.
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
    return _levels(inst, (1,) * n).best(cap=min(k, n)) is not None


def ptas_complete(inst: Instance, epsilon) -> Solution:
    """Feasibility-exact (1+epsilon)-approximation for weighted complete
    instances.

    With k = ceil(2/epsilon): demands C <= k are solved exactly by
    `solve_complete_cbounded` (a feasible set larger than C+2 holds a
    feasible (C+2)-subset that is no heavier and comes earlier in order
    of size, so sets of up to k+2 vertices would add no better one); when
    even |V| vertices cannot meet the top demand the instance is
    infeasible; otherwise candidates mixing the C+2 cheapest vertices with
    up to k outsiders are scanned, which contains either the optimum or a
    set within the ratio.  A candidate needs at least C vertices and takes
    at most k outsiders, of which there are n - C - 2, so core parts start
    at C - min(k, n - C - 2) vertices: the smaller subsets of the C+2
    cheapest would be walked to yield nothing.
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
        for core_size in range(cmax - min(k, len(outside)), cmax + 3):  # cmax > k here
            for core_part in combinations(sorted(first), core_size):
                lo = max(0, cmax - core_size)
                hi = min(k, cmax + 2 - core_size, len(outside))
                for extra_size in range(lo, hi + 1):
                    for extra in combinations(outside, extra_size):
                        yield core_part + extra

    checks = [(mon, c) for _, mon, c in demand_checks(inst)]
    best: tuple[int, tuple[int, ...]] | None = None
    for chosen in pool():
        w = sum(inst.cost[v] for v in chosen)
        if best is None or w < best[0]:
            s = frozenset(chosen)
            if all(len(mon & s) >= c for mon, c in checks):
                best = w, chosen
    if best is None:
        raise RuntimeError("ptas_complete: the C+2 cheapest vertices must qualify")
    return certify(inst, best[1], best[0], "bounded search")
