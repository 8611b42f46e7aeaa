"""Exact dynamic programming over interval realizations.

The solver sweeps a nice path decomposition: one introduce or forget per
step, introductions in left-endpoint order, forgets in right-endpoint
order, every bag a clique.  The paper keys each partial solution S by its
representant (`representant`): the C+2 vertices of S near the current bag
that end latest, C being the largest demand.  The table keys S by what
later demand checks can observe of that set, its signature
`(bag_mask, reaches)`:

- `bag_mask` holds the chosen vertices still in the bag, as an int whose
  bit i is the vertex of right-endpoint rank i, trimmed to the C+2
  latest-ending ones by clearing the lowest set bit;
- `reaches` is a descending tuple with one entry per chosen vertex already
  forgotten: how many bag vertices, in left-endpoint order, start before
  that vertex ends.  Entries below 2 are dropped, and only the
  min(C, C+2 - popcount(bag_mask)) largest are kept.

Why this loses nothing:

- By Helly's property, w monitors an edge uv exactly when w is neither u
  nor v and w's interval meets [max(a_u, a_v), min(b_u, b_v)].
- Each edge uv is checked when its earlier-ending endpoint u is forgotten.
  Every monitor of uv starts before b_u, so it has been introduced by then.
- A chosen bag vertex holds the point just before b_u, so it monitors every
  bag edge that does not touch it.
- A forgotten vertex w monitors a bag edge exactly when both endpoints
  start before b_w, that is, when both lie among the first reach(w) bag
  vertices.  Vertices introduced later start after b_w, so w monitors none
  of their edges, and a reach below 2 monitors nothing.
- Reaches only shrink.  Forgetting the bag vertex at position p lowers each
  reach above p by one, and the forgotten vertex, if chosen, reaches every
  vertex left in the bag.
- Trimming drops a vertex x only when C+2 later-ending vertices, or C
  forgotten ones of no smaller reach, are kept.  Each of them monitors
  every later-checked edge that x monitors, so after discounting the
  edge's two endpoints they alone meet its demand.  A check thus passes on
  the key exactly when it passes on S, partial solutions with equal keys
  have the same completions, and keeping the cheapest per key is exact.

A forget check is `(bag_mask & ~(bit_u | bit_v)).bit_count()` plus the
number of reaches above the larger bag position of u and v.

Only the current step's table is kept.  It groups the keys by their
reaches: each reaches tuple maps to a dict from bag mask to the integer
weight of the cheapest partial solution with that key and that solution
itself, as a bitmask over vertex ids, so the witness is read from the
final empty key and no earlier table is needed.  A step works out each
group's forget check and its destination groups once, so the loop over
states keys by a plain int mask.

Of two partial solutions with equal keys the table keeps the smaller
`(weight, chosen)` pair, so among optima the witness is the one with the
smallest sum(1 << v) over its vertices, whatever order a step visits
states in.  This is exact.  Two partial solutions with the same key are
decided on the same vertices, those introduced so far.  Adding the same
later vertices to both keeps their weight order, and it keeps their mask
order too, since the highest bit in which the masks differ does not
change.  So the optimum of least mask is never dropped.  The rule is not
the oracle's lexicographic one, so with several optima the two witnesses
may differ.

Introduce steps are pruned by an incumbent.  Before the sweep,
`_incumbent` finds a monitoring set by reverse delete and returns its
integer weight, the limit, and a state takes the new vertex only when its
weight plus the vertex's stays within the limit.  This keeps the value and
the witness.  Let S* be the optimum with the smallest `(weight, chosen)`
pair.  At each step the state at the key of S*'s prefix (its vertices
introduced so far) is that prefix itself: a state with a smaller pair
there would complete, as the prefix does, to a monitoring set with a
smaller pair than S*.  Weights are non-negative, so
every prefix weighs at most OPT, which is at most the limit, and no
introduce drops it.  Only states strictly heavier than the limit go: when
the reverse-delete set is optimal, the last prefix of S* weighs exactly the
limit.  So `_state_bound` stays an upper bound, and the collapse check and
`certify` see the same optimum as without the prune.

The same test also charges what a state must still pay.  From a family of
demanded edges whose monitor sets are pairwise disjoint, `_completion_bound`
gives after[h]: the c(e) cheapest monitors of each family edge that starts
after the vertex of right rank h - 1 ends.  A state takes v only when its
weight, v's and after[(mask | bit_v).bit_length()] together stay within the
limit.  This too keeps S*'s prefix:

- trimming clears the lowest bit, so the highest bit of a key is x, the
  latest-ending chosen bag vertex, and every vertex of the prefix ends by
  x's end (chosen bag vertices by rank, forgotten ones before the bag);
- every monitor of an edge that starts after x ends also ends after x, so
  no prefix vertex monitors it, and S*'s later vertices pay for its demand;
  the family's monitor sets are disjoint, so they pay at least after[h];
- the test stays strict, so ties survive;
- a state's bound only falls as the sweep goes on, because its x only
  ends later, so testing it only when its weight rises, at a take, loses
  nothing.

With the limit at the weight of all vertices nothing is pruned, since
after[h] counts only vertices outside the state.

The family is built greedily, edges by descending start.  Edges of equal
start share their later-starting endpoint, so their monitor sets overlap
and mostly only one of them can join; the worthiest is tried first, ties
going to edge order, so worth rather than vertex labels picks that one.
The argument above uses only that the family's monitor sets are pairwise
disjoint and that each edge counts only at thresholds before its start,
so it holds for any visiting order.  Monitor sets are int masks: one
sweep of the sorted endpoints gives each vertex the vertices that start
before it ends and those that end after it starts, and by Helly's
property an edge's monitors are the four masks of its endpoints ANDed,
less the endpoints.  Bits go by (cost, id), so an edge's worth is the
cost of its c(e) lowest set bits, worked out only while its mask misses
the family.

The reverse delete is `oracle.reverse_delete`, which states its visiting
order and why its tie-break keeps the limit tight under unit weights.
When even all vertices miss a demand, `_incumbent` returns None and
`solve_interval` answers infeasible without the sweep, after checking the
realization.  Otherwise the optimum survives, so an empty final table is
a fault and the collapse check raises.

Endpoints of a realization must be pairwise distinct; user-supplied
realizations with clashes are repaired by an order-preserving integer
re-coordinatization (left endpoints win ties so touching intervals keep
their edge).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from math import comb
from operator import itemgetter
from typing import Iterable

from .core import (
    Graph,
    InputError,
    Instance,
    Solution,
    certify,
    demand_checks,
    is_monitoring_set,  # noqa: F401  unused here; edgebench's tracer hooks it
    max_demand,
    monitor_table,  # noqa: F401  unused here; edgebench's tracer hooks it
    normalize_edge,
)
from .oracle import reverse_delete


@dataclass(frozen=True)
class IntervalRealization:
    """Closed integer intervals, one per vertex (vertex i gets intervals[i])."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for a, b in self.intervals:
            if a > b:
                raise InputError(f"interval [{a}, {b}] is reversed")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def endpoints_distinct(self) -> bool:
        pts = [p for ab in self.intervals for p in ab]
        return len(set(pts)) == len(pts)

    def normalize(self) -> "IntervalRealization":
        """Same intersection graph, all 2n endpoints pairwise distinct.

        Endpoints are re-coordinatized by rank; at equal coordinates left
        endpoints sort first (so intervals sharing a point stay adjacent),
        then vertex index.
        """
        if self.endpoints_distinct():
            return self
        pos: dict[tuple[int, int], int] = {}
        for rank, (_, kind, v) in enumerate(self._sweep()):
            pos[(v, kind)] = rank
        return IntervalRealization(
            tuple((pos[(v, 0)], pos[(v, 1)]) for v in range(self.n))
        )

    def _sweep(self) -> list[tuple[int, int, int]]:
        """(coordinate, kind, vertex) for all 2n endpoints in sorted order,
        kind 0 for a left end and 1 for a right one, so at equal
        coordinates left ends come first and intervals sharing a point
        meet."""
        return sorted(
            (p, kind, v) for v, ab in enumerate(self.intervals) for kind, p in enumerate(ab)
        )

    def intersection_graph(self) -> Graph:
        """A vertex meets exactly the intervals open when the sweep reaches
        its left end.  Each edge is met once and filed under its smaller
        end, so the edges come out distinct, normalized and sorted in
        O(n log n + m log n)."""
        later: list[list[int]] = [[] for _ in range(self.n)]
        open_: set[int] = set()
        for _, right, v in self._sweep():
            if right:
                open_.remove(v)
                continue
            for u in open_:
                if u < v:
                    later[u].append(v)
                else:
                    later[v].append(u)
            open_.add(v)
        return Graph._build(
            self.n, [(u, w) for u, ws in enumerate(later) for w in sorted(ws)]
        )

    def right_rank(self) -> dict[int, int]:
        """Position of each vertex in the order of right endpoints."""
        order = sorted(range(self.n), key=lambda v: (self.intervals[v][1], v))
        return {v: i for i, v in enumerate(order)}

    def unit_lengths(self) -> bool:
        spans = {b - a for a, b in self.intervals}
        return len(spans) <= 1


@dataclass(frozen=True)
class NicePathDecomposition:
    """Bags B_0..B_l with one introduce/forget event per step.

    Introductions follow the left-endpoint order of the realization,
    forgets the right-endpoint order, and every bag is a clique of the
    intersection graph.
    """

    realization: IntervalRealization
    graph: Graph
    events: tuple[tuple[str, int], ...]
    bags: tuple[frozenset[int], ...]

    @property
    def length(self) -> int:
        return len(self.events)


def nice_path_decomposition(real: IntervalRealization) -> NicePathDecomposition:
    """Sweep the sorted endpoints: a left endpoint introduces its vertex, a
    right endpoint forgets it.  Duplicate endpoints are repaired first."""
    real = real.normalize()
    events: list[tuple[str, int]] = []
    bags: list[frozenset[int]] = [frozenset()]
    current: set[int] = set()
    for _, right, v in real._sweep():
        if right:
            current.remove(v)
        else:
            current.add(v)
        events.append(("forget" if right else "introduce", v))
        bags.append(frozenset(current))
    return NicePathDecomposition(
        realization=real,
        graph=real.intersection_graph(),
        events=tuple(events),
        bags=tuple(bags),
    )


def representant(
    s: Iterable[int], i: int, decomp: NicePathDecomposition, cmax: int
) -> tuple[int, ...]:
    """Canonical summary of s at step i: its vertices near bag i (in the
    bag or adjacent to it), trimmed to the cmax+2 latest-ending ones when
    there are more than that."""
    g, bag = decomp.graph, decomp.bags[i]
    kept = frozenset(s) & bag.union(*map(g.neighbors, bag))
    if len(kept) > cmax + 2:
        rank = decomp.realization.right_rank()
        kept = sorted(kept, key=rank.__getitem__, reverse=True)[: cmax + 2]
    return tuple(sorted(kept))


@cache
def _state_bound(k: int, cmax: int) -> int:
    """Number of keys a bag of k vertices admits: p <= C+2 chosen bag
    vertices, and a descending tuple of at most min(C, C+2-p) reaches, each
    in 2..k (there are comb(m + L, L) multisets of size <= L from m
    values)."""
    values = max(k - 1, 0)
    return sum(
        comb(k, p) * comb(values + min(cmax, cmax + 2 - p), values)
        for p in range(min(k, cmax + 2) + 1)
    )


def _forget_rule(
    reaches: tuple[int, ...], checks: list[tuple[int, int, int]], p: int
) -> tuple[int, int, tuple[int, ...]]:
    """What forgetting the vertex at bag position p asks of a key with these
    reaches, and the reaches that remain.

    Each check (bit of u, max position of u and the forgotten vertex,
    demand) still needs `need` monitors once the reaches are counted.  The
    chosen bag vertices other than the forgotten one, `base` of them, give
    base minus one when u is among them, so the key passes iff base >= top
    (the largest need) and, when base == top, it holds none of `forbid`
    (the u's whose need is top)."""
    top, forbid = 0, 0
    for bu, t, c in checks:
        need = c
        for r in reaches:
            if r <= t:
                break
            need -= 1
        if need > top:
            top, forbid = need, bu
        elif need == top > 0:
            forbid |= bu
    shifted = tuple(s for r in reaches if (s := r - (r > p)) >= 2)
    return top, forbid, shifted


def _incumbent(inst: Instance) -> int | None:
    """Integer weight of a monitoring set found by `oracle.reverse_delete`
    over the demanded edges' monitor sets, or None when taking every
    vertex misses a demand."""
    return reverse_delete(inst.cost, ((mon, c) for _, mon, c in demand_checks(inst)))


def _sweep_masks(real: IntervalRealization, bit: list[int]) -> tuple[list[int], list[int]]:
    """Two masks per vertex v from one pass over the sorted endpoints, over
    the bits `bit[w]`: opened[v] holds the vertices that start before v
    ends, and closing[v] those that end after v starts, v included in both.
    Left ends sort first at equal coordinates, so touching intervals count
    as meeting.  By Helly's property the monitors of an edge uv are then
    opened[u] & opened[v] & closing[u] & closing[v] without u and v."""
    opened, closing = [0] * real.n, [0] * real.n
    full, started, ended = sum(bit), 0, 0
    for _, right, v in real._sweep():
        if right:
            opened[v] = started
            ended |= bit[v]
        else:
            started |= bit[v]
            closing[v] = full & ~ended
    return opened, closing


def _completion_bound(inst: Instance, real: IntervalRealization) -> list[int]:
    """after[h]: a lower bound, in integer weight, on the vertices that a
    monitoring set holds among those ending after the vertex of right rank
    h - 1 (after[0] counts every vertex).

    Demanded edges are visited by descending start max(a_u, a_v), and one
    is picked when none of its monitors is a monitor of an edge picked
    before, so the picked monitor sets are pairwise disjoint.  A picked edge
    is worth its c(e) cheapest monitors.  Among edges of equal start, which
    share their later-starting vertex and so mostly block one another, the
    worthiest is tried first, ties going to edge order.  Every monitor of an
    edge ends after the edge starts, so after[h] sums the picked edges that
    start after the vertex of right rank h - 1 ends.

    Monitor sets are int masks from `_sweep_masks`, bit r being the vertex
    of rank r by (cost, id), so the worth of a mask is the cost of its c(e)
    lowest set bits."""
    g, ivs, cost = inst.graph, real.intervals, inst.cost
    ranked = sorted(range(g.n), key=lambda v: (cost[v], v))
    price = [cost[v] for v in ranked]
    bit = [0] * g.n
    for r, v in enumerate(ranked):
        bit[v] = 1 << r
    opened, closing = _sweep_masks(real, bit)
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for (u, v), c in zip(g.edges, inst.demands):
        if c:
            groups.setdefault(max(ivs[u][0], ivs[v][0]), []).append((u, v, c))
    used = 0
    starts: list[int] = []
    tail = [0]  # tail[i]: worth of the i picked edges that start last
    for start in sorted(groups, reverse=True):
        fresh: list[tuple[int, int]] = []  # (worth, monitors) still disjoint
        for u, v, c in groups[start]:
            mon = opened[u] & opened[v] & closing[u] & closing[v] & ~(bit[u] | bit[v])
            if mon & used:
                continue
            worth, rest = 0, mon
            for _ in range(min(c, mon.bit_count())):
                low = rest & -rest
                worth += price[low.bit_length() - 1]
                rest ^= low
            fresh.append((worth, mon))
        fresh.sort(key=itemgetter(0), reverse=True)  # stable: ties keep edge order
        for worth, mon in fresh:
            if not mon & used:
                used |= mon
                starts.append(-start)
                tail.append(tail[-1] + worth)
    ends = sorted(b for _, b in ivs)
    return [tail[-1]] + [tail[bisect_left(starts, -b)] for b in ends]


def solve_interval(inst: Instance, real: IntervalRealization) -> Solution:
    """Exact minimum-weight monitoring set of an interval instance.

    The realization must induce exactly the instance graph.  Forget steps
    keep a key only when it meets every demand on edges between the
    forgotten vertex and the current bag; introduce steps branch on taking
    the new vertex, adding its bit to the chosen-vertex mask, unless that
    weight plus the `_completion_bound` of the new mask exceeds the
    `_incumbent` bound.  The witness is
    the mask of the one state left after the last forget.
    """
    decomp = nice_path_decomposition(real)
    real = decomp.realization
    g = inst.graph
    if real.n != g.n or decomp.graph.edges != g.edges:
        raise InputError("realization does not induce the instance graph")
    limit = _incumbent(inst)
    if limit is None:
        return Solution.infeasible()
    after = _completion_bound(inst, real)
    cmax = max_demand(inst)
    cap = cmax + 2
    # how many reaches a key keeps next to s chosen bag vertices, for each s
    widths = [min(cmax, cap - s) for s in range(cap + 1)]
    demand = inst.demand_map()
    bit = {v: 1 << r for v, r in real.right_rank().items()}

    # reaches -> {bag mask: (integer weight, chosen vertices as a bitmask)};
    # of two values for one key the smaller pair wins (module docstring)
    Table = dict[tuple[int, ...], dict[int, tuple[int, int]]]
    table: Table = {(): {0: (0, 0)}}
    order: list[int] = []  # the bag in left-endpoint order

    for kind, v in decomp.events:
        bv = bit[v]
        if kind == "forget":
            p = order.index(v)
            checks = []
            for q, u in enumerate(order):
                c = demand[normalize_edge(u, v)] if u != v else 0
                if c:
                    checks.append((bit[u], max(p, q), c))
            del order[p]
            full, keep = len(order), ~bv
            nxt: Table = {}
            for reaches, group in table.items():
                top, forbid, shifted = _forget_rule(reaches, checks, p)
                kept = nxt.setdefault(shifted, {})
                # a chosen forgotten vertex reaches the whole bag; the key
                # then depends on how many chosen bag vertices remain
                if full >= 2:
                    shifted = (full,) + shifted
                took = [nxt.setdefault(shifted[:w], {}) for w in widths[:cap]]
                for mask, value in group.items():
                    rest = mask & keep
                    base = rest.bit_count()
                    if base < top or (base == top and rest & forbid):
                        continue
                    dest = kept if rest == mask else took[base]
                    cur = dest.get(rest)
                    if cur is None or value < cur:
                        dest[rest] = value
        else:
            order.append(v)
            cv, vbit = inst.cost[v], 1 << v
            room = limit - cv  # heaviest state that may still take v
            nxt = {reaches: dict(group) for reaches, group in table.items()}
            for reaches, group in table.items():
                took = [nxt.setdefault(reaches[:w], {}) for w in widths]
                for mask, (weight, chosen) in group.items():
                    mask |= bv
                    # the key's highest bit is its latest-ending chosen
                    # vertex; what starts after it ends is still to pay
                    if weight + after[mask.bit_length()] > room:
                        continue
                    size = mask.bit_count()
                    if size > cap:
                        mask &= mask - 1
                        size = cap
                    dest = took[size]
                    value = (weight + cv, chosen | vbit)
                    cur = dest.get(mask)
                    if cur is None or value < cur:
                        dest[mask] = value
        table = {reaches: group for reaches, group in nxt.items() if group}
        if sum(map(len, table.values())) > _state_bound(len(order), cmax):
            raise RuntimeError("interval DP: more states than the key admits")

    if set(table) != {()} or set(table[()]) != {0}:
        raise RuntimeError("interval DP: states must collapse once every bag is empty")
    value, chosen = table[()][0]
    taken = [v for v in range(g.n) if chosen >> v & 1]
    return certify(inst, taken, value, "interval DP")


def clique_number(real: IntervalRealization) -> int:
    """Size of a maximum clique, via the largest bag of the sweep."""
    decomp = nice_path_decomposition(real)
    return max((len(bag) for bag in decomp.bags), default=0)


def unit_interval_bound_check(
    real: IntervalRealization, clique: Iterable[int]
) -> bool:
    """For equal-length realizations: |N[clique]| stays within 3 times the
    clique number."""
    if not real.unit_lengths():
        raise InputError("realization intervals are not all the same length")
    g = real.intersection_graph()
    clique = frozenset(clique)
    if not g.is_clique(clique):
        raise InputError("given vertex set is not a clique")
    closed = set(clique)
    for v in clique:
        closed |= g.neighbors(v)
    return len(closed) <= 3 * clique_number(real)
