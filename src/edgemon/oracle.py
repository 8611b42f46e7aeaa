"""Exact baselines used as ground truth by every other solver.

The monitoring, total-domination and double-domination optima are all
instances of one weighted multi-cover problem: pick a minimum-weight vertex
set S meeting |S ∩ cand_j| >= need_j for a list of constraints.  A single
branch-and-bound engine solves that form; the public wrappers just phrase
their problem as constraints.

Determinism: among minimum-weight solutions the engine reports the
lexicographically smallest sorted vertex tuple, so golden values and
witnesses are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .core import (
    BudgetExceeded,
    Graph,
    Instance,
    Solution,
    monitor_table,
    scaled_weights,
)

GAMMA_M_BUDGET = 20
DOMINATION_BUDGET = 24


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits for the exact searches; instances beyond them are refused."""

    max_vertices: int = GAMMA_M_BUDGET
    node_limit: int | None = None


def _default(budget: SearchBudget | None, max_vertices: int) -> SearchBudget:
    return budget if budget is not None else SearchBudget(max_vertices=max_vertices)


def minimum_weight_cover(
    weights: Sequence[Fraction],
    constraints: Iterable[tuple[frozenset[int], int]],
    allowed: Iterable[int] | None = None,
    budget: SearchBudget | None = None,
) -> Solution:
    """Minimum-weight S ⊆ allowed with |S ∩ cand| >= need for every constraint.

    Branches on the constraint with the largest unmet residual demand,
    including or excluding its smallest undecided candidate.  The weight
    bound is the best single-constraint completion cost (sum of the
    residual-many cheapest remaining candidates); branches that cannot beat
    the incumbent are cut, equal-weight branches are kept so the
    lexicographic tie-break stays exact.

    `constraints` is read once, after the vertex budget is checked, so a
    lazy iterable costs nothing on a refused instance.

    The search runs on integers: the universe is numbered 0..k-1 in
    ascending vertex order, so vertex sets are k-bit masks whose low bits
    are the small ids, and weights are scaled to integers by the LCM of
    their denominators.
    """
    budget = budget if budget is not None else SearchBudget()
    universe = sorted(range(len(weights)) if allowed is None else set(allowed))
    if len(universe) > budget.max_vertices:
        raise BudgetExceeded(
            f"{len(universe)} candidate vertices exceed budget "
            f"{budget.max_vertices}"
        )
    cost, scale = scaled_weights(weights[v] for v in universe)
    index = {v: i for i, v in enumerate(universe)}
    # (candidate mask, need, (cost, bit) pairs in ascending cost order)
    cons: list[tuple[int, int, list[tuple[int, int]]]] = []
    for cand, need in constraints:
        if need > 0:
            order = sorted(
                (cost[index[v]], 1 << index[v]) for v in cand if v in index
            )
            if len(order) < need:
                return Solution.infeasible()
            cons.append((sum(bit for _, bit in order), int(need), order))

    nodes = 0
    best_w: int | None = None
    best_mask = 0

    def members(mask: int) -> tuple[int, ...]:
        return tuple(v for i, v in enumerate(universe) if mask >> i & 1)

    def recurse(chosen: int, free: int, w: int) -> None:
        nonlocal nodes, best_w, best_mask
        nodes += 1
        if budget.node_limit is not None and nodes > budget.node_limit:
            raise BudgetExceeded(f"node limit {budget.node_limit} exhausted")

        worst_need = 0
        worst_free = 0
        bound = w
        for mask, need, order in cons:
            residual = need - (mask & chosen).bit_count()
            if residual <= 0:
                continue
            remaining = mask & free
            if remaining.bit_count() < residual:
                return  # constraint can no longer be met on this branch
            cheapest = islice((c for c, bit in order if bit & remaining), residual)
            bound = max(bound, w + sum(cheapest))
            if residual > worst_need:
                worst_need, worst_free = residual, remaining
        if not worst_need:
            if (
                best_w is None or w < best_w
                or (w == best_w and members(chosen) < members(best_mask))
            ):
                best_w, best_mask = w, chosen
            return
        if best_w is not None and bound > best_w:
            return
        low = worst_free & -worst_free
        recurse(chosen | low, free ^ low, w + cost[low.bit_length() - 1])
        recurse(chosen, free ^ low, w)

    recurse(0, (1 << len(universe)) - 1, 0)
    if best_w is None:
        return Solution.infeasible()
    return Solution.of(members(best_mask), Fraction(best_w, scale))


def exact_gamma_m(inst: Instance, budget: SearchBudget | None = None) -> Solution:
    """Minimum-weight monitoring set, or infeasible when some edge cannot
    gather enough monitors."""
    budget = _default(budget, GAMMA_M_BUDGET)

    def constraints():
        # runs on the engine's first read, after its budget check, so a
        # refused instance builds no monitor table
        mon = monitor_table(inst)
        for e, c in zip(inst.graph.edges, inst.demands):
            if c > 0:
                yield mon[e], c

    return minimum_weight_cover(inst.weights, constraints(), budget=budget)


def exact_gamma_t(
    g: Graph, weights: Sequence[Fraction] | None = None,
    budget: SearchBudget | None = None,
) -> Solution:
    """Minimum-weight total dominating set (every vertex has a neighbor in S)."""
    budget = _default(budget, DOMINATION_BUDGET)
    weights = _unit_weights(g) if weights is None else tuple(weights)
    constraints = [(g.neighbors(v), 1) for v in range(g.n)]
    return minimum_weight_cover(weights, constraints, budget=budget)


def exact_double_dom(
    g: Graph, weights: Sequence[Fraction] | None = None,
    budget: SearchBudget | None = None,
) -> Solution:
    """Minimum-weight double dominating set (two closed neighbors in S each)."""
    budget = _default(budget, DOMINATION_BUDGET)
    weights = _unit_weights(g) if weights is None else tuple(weights)
    constraints = [(g.closed_neighbors(v), 2) for v in range(g.n)]
    return minimum_weight_cover(weights, constraints, budget=budget)


def _unit_weights(g: Graph) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) for _ in range(g.n))


def exists_independent_set(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the graph has an independent set of size k, with a witness.

    Depth-first include/exclude over ascending vertex ids; the first hit is
    the lexicographically smallest independent set of size k.
    """
    budget = _default(budget, DOMINATION_BUDGET)
    if g.n > budget.max_vertices:
        raise BudgetExceeded(f"{g.n} vertices exceed budget {budget.max_vertices}")
    if k <= 0:
        return True, ()
    if k > g.n:
        return False, None

    witness: list[int] | None = None

    def search(chosen: list[int], banned: frozenset[int], next_v: int) -> bool:
        nonlocal witness
        if len(chosen) == k:
            witness = list(chosen)
            return True
        if len(chosen) + (g.n - next_v) < k:
            return False
        for v in range(next_v, g.n):
            if v in banned:
                continue
            if len(chosen) + 1 + (g.n - v - 1) < k:
                return False
            chosen.append(v)
            if search(chosen, banned | g.neighbors(v), v + 1):
                return True
            chosen.pop()
        return False

    found = search([], frozenset(), 0)
    return (True, tuple(witness)) if found else (False, None)


def maximum_independent_set(
    g: Graph, budget: SearchBudget | None = None
) -> tuple[int, ...]:
    """Lexicographically smallest maximum independent set."""
    budget = _default(budget, DOMINATION_BUDGET)
    if g.n > budget.max_vertices:
        raise BudgetExceeded(f"{g.n} vertices exceed budget {budget.max_vertices}")
    best: tuple[int, ...] = ()

    def search(chosen: list[int], banned: frozenset[int], next_v: int):
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        for v in range(next_v, g.n):
            if v in banned:
                continue
            if len(chosen) + 1 + (g.n - v - 1) <= len(best):
                return
            chosen.append(v)
            search(chosen, banned | g.neighbors(v), v + 1)
            chosen.pop()

    search([], frozenset(), 0)
    return best


def exact_vertex_cover(g: Graph, budget: SearchBudget | None = None) -> Solution:
    """Minimum-cardinality vertex cover, as the complement of a maximum
    independent set."""
    mis = maximum_independent_set(g, budget)
    cover = tuple(sorted(set(range(g.n)) - set(mis)))
    return Solution.of(cover, Fraction(len(cover)))
