"""Exact baselines used as ground truth by every other solver.

The monitoring, total-domination, double-domination and vertex-cover
optima are all instances of one weighted multi-cover problem: pick a
minimum-weight vertex set S meeting |S ∩ cand_j| >= need_j for a list of
constraints.  A single branch-and-bound engine solves that form; the
public wrappers just phrase their problem as constraints.

The engine numbers its universe by (cost, id), so the lowest set bits of
a vertex mask are its cheapest vertices.  Each node branches on the
cheapest undecided candidate of the first constraint with the largest
unmet residual, and two bounds cut it: one constraint's cheapest
completion, or the summed completions of a family of constraints whose
remaining candidates are pairwise disjoint, exceeds the slack below the
incumbent weight.  The incumbent weight starts at that of a
`reverse_delete` cover, for which no witness is stored
(`minimum_weight_cover`).  The interval DP starts from the same
`reverse_delete`.

Determinism: the search is a fixed function of its input, so golden
values and witnesses are stable across runs.  The search is a loop over
an explicit stack, so its depth, one level per vertex taken or dropped,
meets no recursion limit.  Each node pushes its exclude branch under its
include branch, so the include branch is searched to the end first: the
nodes come in the order of a depth-first recursion, each sees the
incumbent that recursion would, and node counts and witnesses are the
same.  Under positive weights the witness is the lexicographically
smallest minimum-weight sorted vertex tuple: every minimum-weight set is
minimal, no bound cuts its include/exclude path, so it is a leaf, and
leaves of equal weight compare by their sorted vertex tuples whatever the
branch order.  With zero weights the value is still the minimum, but the
search only adds candidates of constraints that are still unmet, so a
zero-weight vertex no such constraint needs is never added, even where
adding it would sort first: weights (0, 1, 0, 1) with the one constraint
({1, 3}, 2) give (1, 3), although (0, 1, 3) weighs the same.

The one search that is not a cover is `exists_independent_set`, a public
yes/no search and the reference the tests check the independent-set
reduction against; the complete-graph solvers search their own levels
(`complete._CliqueLevels`).  An independent k-set exists iff a vertex
cover of at most n - k vertices does, but a cover search branches over
all n vertices, while k may be small in a graph of hundreds of vertices.
Independent k-set is W[1]-hard (Downey and Fellows), so its search stays
exponential in k; it visits only independent sets of fewer than k
vertices, and stops at the first of size k, so it does not grow like 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .core import (
    BudgetExceeded,
    Graph,
    Instance,
    Solution,
    demand_checks,
    monitor_table,  # noqa: F401  unused here; edgebench's tracer hooks it
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

    The weights are scaled to integers once, by the LCM of their
    denominators, and the search runs on ints.  The universe is numbered
    0..k-1 by (cost, id), so vertex sets are k-bit masks and the lowest
    set bits of a mask are its cheapest vertices: the cheapest completion
    of a constraint (the cost of its residual-many cheapest remaining
    candidates) is a few lowest-bit steps.  Constraints are deduplicated
    by candidate set when they are read: each set keeps its largest need,
    at the position where that need first occurs.  A set's copies differ
    only in their need, so the first constraint with the largest residual
    still names the same set.  A constraint met at a node stays met below
    it, so each node scans only its parent's still unmet constraints, in
    their original order.

    Each node branches on the cheapest undecided candidate of the first
    constraint with the largest unmet residual: the include branch first,
    then the exclude branch.  A node is cut when, against the slack left
    below the incumbent weight,
    - one unmet constraint's cheapest completion exceeds the slack, or
    - the cheapest completions of a family of unmet constraints whose
      remaining candidates are pairwise disjoint sum past the slack.  The
      family is gathered greedily during the scan: a constraint joins it
      when its remaining candidates miss those of every member.  A cover
      buys each member's completion from its own vertices, so the sum is
      a lower bound on what is still to pay.
    Both tests are strict, so equal-weight branches are kept and the
    tie-break stays exact.  While all free vertices together cost no more
    than the slack no cost test can cut, and the scan skips them; this
    shortcut cuts exactly the nodes a full scan would, so the search tree,
    its node count (see `SearchBudget.node_limit`) and the witness do not
    depend on it.

    Before the search the incumbent weight is set to the weight W of the
    `reverse_delete` cover of the deduplicated constraints.  No witness is
    stored for it: until a leaf is held, a leaf of weight at most W is
    accepted.
    Under positive weights the witness is still the lexicographically
    smallest minimum: such a set is minimal, its include/exclude path is
    never cut, since disjoint completions sum to at most its remaining
    weight, so it is a leaf, and equal-weight leaves compare by
    `members(chosen) < members(best)` whatever the branch order.  With
    zero weights only the value is guaranteed (see the module docstring).

    `constraints` is read once, after the vertex budget is checked, so a
    lazy iterable costs nothing on a refused instance.
    """
    cost, scale = scaled_weights(weights)
    return _cover(cost, scale, constraints, allowed, budget)


def _cover(
    cost: Sequence[int],
    scale: int,
    constraints: Iterable[tuple[frozenset[int], int]],
    allowed: Iterable[int] | None,
    budget: SearchBudget | None,
) -> Solution:
    """`minimum_weight_cover` on integer costs with weights[v] ==
    cost[v] / scale."""
    budget = budget if budget is not None else SearchBudget()
    pool = range(len(cost)) if allowed is None else set(allowed)
    if len(pool) > budget.max_vertices:
        raise BudgetExceeded(
            f"{len(pool)} candidate vertices exceed budget {budget.max_vertices}"
        )
    # bit i is the i-th cheapest vertex, ties by id (the sort is stable), so
    # the lowest set bits of a mask are its cheapest vertices
    universe = sorted(sorted(pool), key=cost.__getitem__)
    index = {v: i for i, v in enumerate(universe)}
    ucost = [cost[v] for v in universe]
    needs: dict[int, int] = {}  # candidate mask -> largest need
    where: dict[int, list[int]] = {}  # candidate mask -> its bit positions
    for cand, need in constraints:
        if need > 0:
            mask = 0
            at = []
            for v in cand:
                if v in index:
                    i = index[v]
                    mask |= 1 << i
                    at.append(i)
            if len(at) < need:
                return Solution.infeasible()
            if need > needs.get(mask, 0):
                # re-inserting moves the mask to where its largest need occurs
                needs.pop(mask, None)
                needs[mask] = int(need)
                where[mask] = at
    cons = list(needs.items())

    limit = budget.node_limit
    nodes = 0
    # every constraint can be met, so a reverse-delete cover exists; only
    # its weight is kept, and until a leaf is held one as light is accepted
    best_w = reverse_delete(ucost, ((where[mask], need) for mask, need in cons))
    best_mask: int | None = None

    def members(mask: int) -> tuple[int, ...]:
        return tuple(sorted(v for i, v in enumerate(universe) if mask >> i & 1))

    # the nodes still to visit; see the module docstring for their order
    stack = [(0, (1 << len(universe)) - 1, 0, sum(ucost), cons)]
    while stack:
        chosen, free, w, free_w, unmet = stack.pop()
        nodes += 1
        if limit is not None and nodes > limit:
            raise BudgetExceeded(f"node limit {limit} exhausted")

        slack = best_w - w
        # completions buy free vertices, so while all free vertices together
        # fit in the slack no cost test can cut, and the scan skips them
        bounded = slack < free_w
        packed = 0  # the remaining candidates of the disjoint family
        packing = 0  # the sum of the family's cheapest completions
        still = []
        worst_need = 0
        worst_free = 0
        for con in unmet:
            mask, need = con
            residual = need - (mask & chosen).bit_count()
            if residual <= 0:
                continue
            remaining = mask & free
            if remaining.bit_count() < residual:
                break  # constraint can no longer be met on this branch
            if bounded:
                # the cheapest completion: the residual lowest remaining
                # bits, unrolled for the common residuals 1 and 2
                low = remaining & -remaining
                total = ucost[low.bit_length() - 1]
                if residual == 2:
                    rest = remaining ^ low
                    total += ucost[(rest & -rest).bit_length() - 1]
                elif residual > 2:
                    rest = remaining ^ low
                    for _ in range(residual - 1):
                        low = rest & -rest
                        total += ucost[low.bit_length() - 1]
                        rest ^= low
                if remaining & packed:
                    if total > slack:
                        break  # this constraint alone costs too much
                else:  # disjoint from the family, so it joins it
                    packing += total
                    if packing > slack:
                        break  # the family's completions cost too much
                    packed |= remaining
            still.append(con)
            if residual > worst_need:
                worst_need, worst_free = residual, remaining
        else:  # no constraint cut this node
            if still:
                low = worst_free & -worst_free
                c = ucost[low.bit_length() - 1]
                stack.append((chosen, free ^ low, w, free_w - c, still))
                stack.append((chosen | low, free ^ low, w + c, free_w - c, still))
            elif w < best_w or w == best_w and (
                best_mask is None or members(chosen) < members(best_mask)
            ):
                best_w, best_mask = w, chosen

    return Solution.of(members(best_mask), Fraction(best_w, scale))


def reverse_delete(
    cost: Sequence[int], constraints: Iterable[tuple[Collection[int], int]]
) -> int | None:
    """Integer weight of a cover found by reverse delete, or None when some
    constraint has fewer candidates than its need.

    `cost` is indexed 0..k-1 and each constraint is (distinct candidate
    indices, need); the constraints are read in one pass, so a generator
    works.  Starting from all vertices, it visits each vertex once, by the
    key `(-cost, number of constraints naming it, index)`, and drops it
    when no tight constraint names it, a constraint being tight when it
    has exactly as many candidates left as it needs.  Among equal costs
    the vertex named by fewer constraints goes first.  That tie-break is
    what makes the weight tight under unit weights: on unit-weight
    `gen_interval(80, demand=(0, 2))` breaking ties by index alone lands
    2-3 above the optimum, and the interval DP prunes far fewer states.

    Each constraint is filed under each of its candidates, so the cost is
    the sum of the candidate-set sizes, in time and memory."""
    spare: list[int] = []  # candidates left minus need; 0 means tight
    named: list[list[int]] = [[] for _ in cost]
    for cand, need in constraints:
        if len(cand) < need:
            return None
        j = len(spare)
        for v in cand:
            named[v].append(j)
        spare.append(len(cand) - need)
    kept = sum(cost)
    for v in sorted(range(len(cost)), key=lambda v: (-cost[v], len(named[v]), v)):
        for j in named[v]:
            if not spare[j]:
                break  # a tight constraint names v, so v stays
        else:
            for j in named[v]:
                spare[j] -= 1
            kept -= cost[v]
    return kept


def exact_gamma_m(inst: Instance, budget: SearchBudget | None = None) -> Solution:
    """Minimum-weight monitoring set, or infeasible when some edge cannot
    gather enough monitors."""
    # read lazily, after the engine's budget check, so a refused instance
    # computes no monitor set
    constraints = ((mon, c) for _, mon, c in demand_checks(inst))
    return _cover(inst.cost, inst.scale, constraints, None, budget)


def exact_gamma_t(
    g: Graph, weights: Sequence[Fraction] | None = None,
    budget: SearchBudget | None = None,
) -> Solution:
    """Minimum-weight total dominating set (every vertex has a neighbor in S)."""
    budget = _default(budget, DOMINATION_BUDGET)
    weights = (1,) * g.n if weights is None else tuple(weights)
    constraints = [(g.neighbors(v), 1) for v in range(g.n)]
    return minimum_weight_cover(weights, constraints, budget=budget)


def exact_double_dom(
    g: Graph, weights: Sequence[Fraction] | None = None,
    budget: SearchBudget | None = None,
) -> Solution:
    """Minimum-weight double dominating set (two closed neighbors in S each)."""
    budget = _default(budget, DOMINATION_BUDGET)
    weights = (1,) * g.n if weights is None else tuple(weights)
    constraints = [(g.closed_neighbors(v), 2) for v in range(g.n)]
    return minimum_weight_cover(weights, constraints, budget=budget)


def exists_independent_set(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the graph has an independent set of size k, with a witness.

    Depth-first include/exclude over ascending vertex ids on an explicit
    stack, so the depth is not bounded by the recursion limit; the first
    hit is the lexicographically smallest independent set of size k.  A
    branch stops once too few candidates remain.  Each chosen prefix, the
    empty one included, counts against `budget.node_limit`.  The default
    of 2^DOMINATION_BUDGET nodes covers every graph of at most
    DOMINATION_BUDGET vertices, which has no more independent sets than
    that.  `max_vertices` does not apply here.
    """
    limit = 1 << DOMINATION_BUDGET if budget is None else budget.node_limit
    if k <= 0:
        return True, ()
    if k > g.n:
        return False, None
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]
    chosen: list[int] = []
    # stack[i]: the candidates for chosen[i] not tried yet, each larger than
    # chosen[i - 1] and adjacent to no earlier chosen vertex
    stack: list[int] = []
    cand = (1 << g.n) - 1
    nodes = 0
    while True:  # one pass per node, the prefix `chosen`
        nodes += 1
        if limit is not None and nodes > limit:
            raise BudgetExceeded(f"node limit {limit} exhausted")
        if len(chosen) == k:
            return True, tuple(chosen)
        stack.append(cand)
        while stack and stack[-1].bit_count() < k - len(chosen):
            stack.pop()
            if chosen:
                chosen.pop()
        if not stack:
            return False, None
        low = stack[-1] & -stack[-1]
        stack[-1] = cand = stack[-1] ^ low
        v = low.bit_length() - 1
        chosen.append(v)
        cand &= ~adj[v]


def exact_vertex_cover(g: Graph, budget: SearchBudget | None = None) -> Solution:
    """Minimum-cardinality vertex cover: the cover engine on unit weights
    with one ({u, v}, 1) constraint per edge, so the witness is the
    lexicographically smallest minimum cover."""
    budget = _default(budget, DOMINATION_BUDGET)
    constraints = [(frozenset(e), 1) for e in g.edges]
    return minimum_weight_cover((1,) * g.n, constraints, budget=budget)
