"""The exact baseline used as ground truth by every other solver.

Weighted edge monitoring is one weighted multi-cover problem: pick a
minimum-weight vertex set S with |S ∩ M(e)| >= c(e) for every edge e,
M(e) being the common neighbors of e's ends.  `minimum_weight_cover`
solves that form for any list of (candidates, need) constraints with one
branch-and-bound search, and `exact_gamma_m` phrases a monitoring
instance as such constraints.  The planar bands and the split solver
call the same search; the complete-graph solvers search their own levels
(`complete._CliqueLevels`).

The engine numbers its universe by (cost, id), so the lowest set bits of
a vertex mask are its cheapest vertices.  A constraint's spare at a node
is the number of its remaining candidates beyond its residual need.
When some unmet constraint has no spare, every cover below the node holds
all its remaining candidates, so the node takes those of every such
constraint in one forced step (unit propagation, as in Davis, Logemann
and Loveland, CACM 1962).  Otherwise the node branches on the cheapest
remaining candidate of the last constraint with the least spare, where
the fewest choices are left (fail-first, Haralick and Elliott, AIJ 1980).
Two bounds cut a node: one constraint's cheapest completion, or the
summed completions of a family of constraints whose remaining candidates
are pairwise disjoint, exceeds the slack below the incumbent weight.  The
incumbent weight starts at that of a `reverse_delete` cover, for which
no witness is stored (`minimum_weight_cover`).  The interval DP starts
from the same `reverse_delete`.

Determinism: the search is a fixed function of its input, so golden
values and witnesses are stable across runs.  The search is a loop over
an explicit stack, so its depth, one level per branch or forced step,
meets no recursion limit.  Each branching node pushes its exclude branch
under its include branch, so the include branch is searched to the end
first: the nodes come in the order of a depth-first recursion, each sees
the incumbent that recursion would, and node counts and witnesses are
the same.  Under positive weights the witness is the lexicographically
smallest minimum-weight sorted vertex tuple: every minimum-weight set is
minimal and holds every vertex a forced step takes on its path, no bound
cuts that path, so it is a leaf, and leaves of equal weight compare by
their sorted vertex tuples whatever the branch order.  With zero weights
the value is still the minimum, but the search only adds candidates of
constraints that are still unmet, so a zero-weight vertex no such
constraint needs is never added, even where adding it would sort first:
weights (0, 1, 0, 1) with the one constraint ({1, 3}, 2) give (1, 3),
although (0, 1, 3) weighs the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .core import (
    BudgetExceeded,
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
    at the position where that need first occurs, since a copy with a
    smaller need is met whenever that one is.  A constraint met at a node
    stays met below it, so each node scans only its parent's still unmet
    constraints, in their original order.

    The scan reads each unmet constraint's spare: its remaining
    candidates minus its residual need.  If some constraint has no spare,
    the node has one child, which takes the remaining candidates of every
    such constraint: every cover below the node holds them, so no cover
    is lost, and the child counts as one node.  Otherwise the node
    branches on the cheapest remaining candidate of the last constraint in
    scan order with the least spare: the include branch first, then the
    exclude branch.  Since ties go by scan order, where a deduplicated
    set sits shapes the search tree, but not the value, nor the witness
    under positive weights.  A node is cut when, against the slack left
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
    smallest minimum S: S is a cover below every node on its path, so it
    holds every vertex a forced step there takes, and the path takes the
    forced child.  The path is never cut, since disjoint completions sum
    to at most what S has still to pay.  It ends where no constraint is
    unmet, and there the vertices taken form a cover inside S, which is
    S itself because S is minimal.  So S is a leaf, and equal-weight
    leaves compare by `members(chosen) < members(best)` whatever the
    branch order.  With zero weights only the value is guaranteed (see
    the module docstring).

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
        forced = 0  # the remaining candidates of the constraints with no spare
        # the least spare seen, and the remaining candidates of the last
        # constraint with it
        least, least_free = len(universe), 0
        for con in unmet:
            mask, need = con
            residual = need - (mask & chosen).bit_count()
            if residual <= 0:
                continue
            remaining = mask & free
            spare = remaining.bit_count() - residual
            if spare < 0:
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
            if not spare:
                forced |= remaining
            if spare <= least:
                least, least_free = spare, remaining
        else:  # no constraint cut this node
            if forced:  # every cover below this node holds them: one step
                c = 0
                rest = forced
                while rest:
                    low = rest & -rest
                    c += ucost[low.bit_length() - 1]
                    rest ^= low
                stack.append((chosen | forced, free ^ forced, w + c, free_w - c, still))
            elif still:
                low = least_free & -least_free
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
