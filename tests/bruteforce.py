"""Reference solvers and checkers for the test suite.

Most of them enumerate subsets directly and recount triangles or
neighborhoods from the adjacency lists, sharing no search code with the
package, so solver bugs and reference bugs stay uncorrelated.

The three references for the sources of the hardness reductions,
`exact_gamma_t`, `exact_double_dom` and `exact_vertex_cover`, go through
the package's cover engine on purpose: they phrase their problem as
constraints for `minimum_weight_cover`, under a default budget of
DOMINATION_BUDGET vertices.  Their search trees are pinned in
`tests/test_oracle.py` (`PINNED_TREES`: gamma_t 20 nodes, double_dom 45;
`PINNED_COGRAPH_DOMINATION`), and they test the engine on constraint
systems the monitoring generators never produce: one constraint per
vertex, over its open or closed neighborhood.  `test_oracle.py` checks
them against the enumerations `brute_gamma_t`, `brute_double_dom` and
`brute_alpha` below.
"""

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from edgemon import (
    Graph,
    InputError,
    Instance,
    NicePathDecomposition,
    SearchBudget,
    Solution,
    minimum_weight_cover,
)
from edgemon.oracle import DOMINATION_BUDGET


def common_neighbors(g: Graph, u: int, v: int) -> set[int]:
    return {x for x in range(g.n) if g.has_edge(x, u) and g.has_edge(x, v)}


def monitors_ok(inst: Instance, chosen: set[int]) -> bool:
    for (u, v), c in zip(inst.graph.edges, inst.demands):
        if len(common_neighbors(inst.graph, u, v) & chosen) < c:
            return False
    return True


def _best_subset(n: int, weights, accept) -> Solution:
    best_w: Fraction | None = None
    best: tuple[int, ...] | None = None
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if not accept(set(combo)):
                continue
            w = sum((weights[v] for v in combo), Fraction(0))
            if best_w is None or w < best_w or (w == best_w and combo < best):
                best_w, best = w, combo
    if best is None:
        return Solution.infeasible()
    return Solution.of(best, best_w)


def brute_gamma_m(inst: Instance) -> Solution:
    return _best_subset(
        inst.graph.n, inst.weights, lambda s: monitors_ok(inst, s)
    )


def brute_gamma_t(g: Graph, weights=None) -> Solution:
    weights = weights or [Fraction(1)] * g.n

    def total(s: set[int]) -> bool:
        return all(any(x in s for x in g.neighbors(v)) for v in range(g.n))

    return _best_subset(g.n, weights, total)


def brute_double_dom(g: Graph, weights=None) -> Solution:
    weights = weights or [Fraction(1)] * g.n

    def double(s: set[int]) -> bool:
        return all(
            len((g.neighbors(v) | {v}) & s) >= 2 for v in range(g.n)
        )

    return _best_subset(g.n, weights, double)


def brute_cover(weights, constraints, allowed=None) -> Solution:
    """Minimum-weight S within `allowed` (all vertices when None) meeting
    |S ∩ cand| >= need for every (cand, need), the lexicographically
    smallest sorted tuple among equal weights."""
    n = len(weights)
    pool = set(range(n) if allowed is None else allowed)
    return _best_subset(
        n, weights,
        lambda s: s <= pool and all(len(s & set(c)) >= k for c, k in constraints),
    )


def reverse_delete(cost, constraints) -> int | None:
    """Weight kept by reverse delete, by its definition: start from every
    vertex, visit them by (-cost, number of constraints naming the vertex,
    index), and drop a vertex when every constraint still meets its need
    among the vertices kept, recounted from scratch.  None when even every
    vertex misses a need."""
    constraints = [(set(c), k) for c, k in constraints]

    def covers(s: set[int]) -> bool:
        return all(len(s & c) >= k for c, k in constraints)

    kept = set(range(len(cost)))
    if not covers(kept):
        return None
    named = [sum(v in c for c, _ in constraints) for v in kept]
    for v in sorted(kept, key=lambda v: (-cost[v], named[v], v)):
        if covers(kept - {v}):
            kept.discard(v)
    return sum(cost[v] for v in kept)


def brute_alpha(g: Graph) -> int:
    best = 0
    for size in range(g.n, -1, -1):
        for combo in combinations(range(g.n), size):
            if not any(g.has_edge(a, b) for a, b in combinations(combo, 2)):
                return size
    return best


def interval_graph(intervals) -> Graph:
    """The pair rule: closed intervals i and j meet exactly when
    a_i <= b_j and a_j <= b_i."""
    return Graph.from_edges(
        len(intervals),
        [
            (i, j)
            for i, j in combinations(range(len(intervals)), 2)
            if intervals[i][0] <= intervals[j][1] and intervals[j][0] <= intervals[i][1]
        ],
    )


def reversed_ids(inst: Instance) -> Instance:
    """The same instance with vertex v renamed n - 1 - v: a depth-first
    search over it starts at the other end, so a solver meets the blocks
    or vertices in another order."""
    n = inst.graph.n
    flip = {(u, v): (n - 1 - v, n - 1 - u) for u, v in inst.graph.edges}
    g = Graph.from_edges(n, flip.values())
    demand = {flip[e]: c for e, c in zip(inst.graph.edges, inst.demands)}
    return Instance.make(g, demand=demand, weight=inst.weights[::-1])


class PoolLevels:
    """The enumerator that the clique level search of `edgemon.complete`
    replaced, kept as its reference behind the same interface: the sets
    of at most C+2 members (and at most `cap`) in order of size, then
    lexicographic, each checked when it is lighter than the best so far,
    so the first lightest set that meets every demand wins.  In a clique
    every member off an edge monitors it.  `demands` holds (i, k, c) by
    position in the sorted `members`; `force` is a member."""

    def __init__(self, members, demands, cost):
        self.members = list(members)
        self.demands = [(self.members[i], self.members[k], c) for i, k, c in demands]
        self.cost = cost

    def best(self, force=None, cap=None):
        top = max((c for _, _, c in self.demands), default=0) + 2
        if cap is not None:
            top = min(top, cap)
        best = None
        for size in range(min(top, len(self.members)) + 1):
            for chosen in combinations(self.members, size):
                if force is not None and force not in chosen:
                    continue
                w = sum(self.cost[v] for v in chosen)
                if best is not None and w >= best[0]:
                    continue
                s = set(chosen)
                if all(len(s - {u, v}) >= c for u, v, c in self.demands):
                    best = w, chosen
        return best


def completion_bound(inst: Instance, real, worthiest_first: bool = False) -> list[int]:
    """The interval DP's completion bound from monitor sets recounted by
    brute force.  Demanded edges go by descending start max(a_u, a_v);
    among equal starts they keep edge order, the rule the DP first used,
    or with `worthiest_first` go by descending worth, ties in edge order.
    An edge joins the family when its monitors miss every family monitor,
    and is worth the cost of its c(e) cheapest monitors.  after[h] sums the
    family edges that start after the h-th smallest right end, and
    after[0] the whole family."""
    g, ivs = inst.graph, real.intervals
    groups: dict[int, list[tuple[int, set[int]]]] = {}
    for (u, v), c in zip(g.edges, inst.demands):
        if c:
            mon = common_neighbors(g, u, v)
            worth = sum(sorted(inst.cost[w] for w in mon)[:c])
            groups.setdefault(max(ivs[u][0], ivs[v][0]), []).append((worth, mon))
    used: set[int] = set()
    family: list[tuple[int, int]] = []
    for start in sorted(groups, reverse=True):
        group = groups[start]
        if worthiest_first:
            group = sorted(group, key=lambda wm: -wm[0])
        for worth, mon in group:
            if used.isdisjoint(mon):
                used |= mon
                family.append((start, worth))
    ends = sorted(b for _, b in ivs)
    return [sum(w for _, w in family)] + [
        sum(w for s, w in family if s > b) for b in ends
    ]


def _domination_budget(budget: SearchBudget | None) -> SearchBudget:
    return budget if budget is not None else SearchBudget(max_vertices=DOMINATION_BUDGET)


def exact_gamma_t(g: Graph, weights=None, budget: SearchBudget | None = None) -> Solution:
    """Minimum-weight total dominating set (every vertex has a neighbor in S)."""
    weights = (1,) * g.n if weights is None else tuple(weights)
    constraints = [(g.neighbors(v), 1) for v in range(g.n)]
    return minimum_weight_cover(weights, constraints, budget=_domination_budget(budget))


def exact_double_dom(g: Graph, weights=None, budget: SearchBudget | None = None) -> Solution:
    """Minimum-weight double dominating set (two closed neighbors in S each)."""
    weights = (1,) * g.n if weights is None else tuple(weights)
    constraints = [(g.closed_neighbors(v), 2) for v in range(g.n)]
    return minimum_weight_cover(weights, constraints, budget=_domination_budget(budget))


def exact_vertex_cover(g: Graph, budget: SearchBudget | None = None) -> Solution:
    """Minimum-cardinality vertex cover: the cover engine on unit weights
    with one ({u, v}, 1) constraint per edge, so the witness is the
    lexicographically smallest minimum cover."""
    constraints = [(frozenset(e), 1) for e in g.edges]
    return minimum_weight_cover((1,) * g.n, constraints, budget=_domination_budget(budget))


def exists_independent_set(g: Graph, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Whether g has an independent set of k vertices, with a witness.
    `combinations` yields the k-sets in lexicographic order, so the
    witness is the lexicographically smallest one."""
    for combo in combinations(range(g.n), k):
        if not any(g.has_edge(a, b) for a, b in combinations(combo, 2)):
            return True, combo
    return False, None


class DominationPredicates(NamedTuple):
    dominating: bool
    total: bool
    double: bool


def domination_predicates(g: Graph, s) -> DominationPredicates:
    """(dominating, total, double): N[s]=V, every vertex has a neighbor in s,
    and every vertex has at least two closed neighbors in s."""
    s = frozenset(s)
    dominating = all(v in s or g.neighbors(v) & s for v in range(g.n))
    total = all(g.neighbors(v) & s for v in range(g.n))
    double = all(len(g.closed_neighbors(v) & s) >= 2 for v in range(g.n))
    return DominationPredicates(dominating, total, double)


def check_nice_path_decomposition(decomp: NicePathDecomposition) -> None:
    """Raise InputError unless every definition invariant holds."""
    g, real = decomp.graph, decomp.realization
    if decomp.bags[0] or decomp.bags[-1]:
        raise InputError("first and last bags must be empty")
    if len(decomp.bags) != len(decomp.events) + 1:
        raise InputError("bag/event length mismatch")
    introduced: list[int] = []
    forgotten: list[int] = []
    for i, (kind, v) in enumerate(decomp.events):
        prev, cur = decomp.bags[i], decomp.bags[i + 1]
        if kind == "introduce":
            if cur != prev | {v} or v in prev:
                raise InputError(f"step {i + 1} is not a clean introduce")
            introduced.append(v)
        elif kind == "forget":
            if cur != prev - {v} or v not in prev:
                raise InputError(f"step {i + 1} is not a clean forget")
            forgotten.append(v)
        else:
            raise InputError(f"unknown event kind {kind!r}")
    if sorted(introduced) != list(range(g.n)) or sorted(forgotten) != list(range(g.n)):
        raise InputError("every vertex must be introduced and forgotten once")
    lefts = [real.intervals[v][0] for v in introduced]
    rights = [real.intervals[v][1] for v in forgotten]
    if lefts != sorted(lefts):
        raise InputError("introduce order must follow left endpoints")
    if rights != sorted(rights):
        raise InputError("forget order must follow right endpoints")
    for i, bag in enumerate(decomp.bags):
        if not g.is_clique(bag):
            raise InputError(f"bag {i} is not a clique")
    covered = set()
    for bag in decomp.bags:
        bag_list = sorted(bag)
        for a in range(len(bag_list)):
            for b in range(a + 1, len(bag_list)):
                covered.add((bag_list[a], bag_list[b]))
    if set(g.edges) - covered:
        raise InputError("some edge appears in no bag")
    first_seen: dict[int, int] = {}
    last_seen: dict[int, int] = {}
    for i, bag in enumerate(decomp.bags):
        for v in bag:
            first_seen.setdefault(v, i)
            last_seen[v] = i
    for v in range(g.n):
        span = last_seen[v] - first_seen[v] + 1
        count = sum(1 for bag in decomp.bags if v in bag)
        if count != span:
            raise InputError(f"occurrences of vertex {v} are not contiguous")
