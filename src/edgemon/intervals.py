"""Exact dynamic programming over interval realizations.

The solver sweeps a nice path decomposition (one introduce or forget per
step, bags are cliques) and keeps, per step, only a bounded summary of each
partial solution: the C+2 vertices of the solution that lie in the closed
neighborhood of the current bag and end latest, where C is the largest
demand.  Any edge demand a later bag can still ask about is answered
identically by the summary and by the full solution, so the table stays
polynomial without losing optima.

Endpoints of a realization must be pairwise distinct; user-supplied
realizations with clashes are repaired by an order-preserving integer
re-coordinatization (left endpoints win ties so touching intervals keep
their edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .core import (
    Graph,
    InputError,
    Instance,
    Solution,
    is_monitoring_set,
    max_demand,
    meets,
    monitor_table,
    normalize_edge,
    scaled_weights,
)


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
        tagged = []
        for v, (a, b) in enumerate(self.intervals):
            tagged.append((a, 0, v))
            tagged.append((b, 1, v))
        tagged.sort()
        pos: dict[tuple[int, int], int] = {}
        for rank, (_, kind, v) in enumerate(tagged):
            pos[(v, kind)] = rank
        return IntervalRealization(
            tuple((pos[(v, 0)], pos[(v, 1)]) for v in range(self.n))
        )

    def intersection_graph(self) -> Graph:
        edges = [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.intervals[i][0] <= self.intervals[j][1]
            and self.intervals[j][0] <= self.intervals[i][1]
        ]
        return Graph.from_edges(self.n, edges)

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
    tagged = []
    for v, (a, b) in enumerate(real.intervals):
        tagged.append((a, "introduce", v))
        tagged.append((b, "forget", v))
    tagged.sort()
    events: list[tuple[str, int]] = []
    bags: list[frozenset[int]] = [frozenset()]
    current: set[int] = set()
    for _, kind, v in tagged:
        if kind == "introduce":
            current.add(v)
        else:
            current.remove(v)
        events.append((kind, v))
        bags.append(frozenset(current))
    return NicePathDecomposition(
        realization=real,
        graph=real.intersection_graph(),
        events=tuple(events),
        bags=tuple(bags),
    )


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


def _closed_bag_neighborhood(g: Graph, bag: frozenset[int]) -> frozenset[int]:
    out = set(bag)
    for v in bag:
        out |= g.neighbors(v)
    return frozenset(out)


def _summary(
    vs: frozenset[int], near: frozenset[int], rank: dict[int, int], cap: int
) -> tuple[int, ...]:
    """The members of vs inside `near`, trimmed to the cap latest-ending
    ones (by right-endpoint rank) when there are more than that."""
    kept = vs & near
    if len(kept) > cap:
        kept = sorted(kept, key=rank.__getitem__, reverse=True)[:cap]
    return tuple(sorted(kept))


def representant(
    s: Iterable[int], i: int, decomp: NicePathDecomposition, cmax: int
) -> tuple[int, ...]:
    """Canonical summary of s at step i: its vertices near bag i, trimmed to
    the cmax+2 latest-ending ones when there are more than that."""
    near = _closed_bag_neighborhood(decomp.graph, decomp.bags[i])
    return _summary(frozenset(s), near, decomp.realization.right_rank(), cmax + 2)


def _subset_count(m: int, cap: int) -> int:
    return sum(comb(m, j) for j in range(min(m, cap) + 1))


def solve_interval(inst: Instance, real: IntervalRealization) -> Solution:
    """Exact minimum-weight monitoring set of an interval instance.

    The realization must induce exactly the instance graph.  Forget steps
    keep a state only when the summary already meets every demand on edges
    between the forgotten vertex and the current bag; introduce steps
    branch on taking the new vertex.  Witnesses are rebuilt from
    predecessor records.
    """
    decomp = nice_path_decomposition(real)
    real = decomp.realization
    g = inst.graph
    if real.n != g.n or decomp.graph.edges != g.edges:
        raise InputError("realization does not induce the instance graph")
    cap = max_demand(inst) + 2
    mon = monitor_table(inst)
    demand = inst.demand_map()
    cost, scale = scaled_weights(inst.weights)
    rank = real.right_rank()

    # state key -> (integer weight, predecessor key, vertex taken at this
    # step or None)
    tables: list[dict[tuple[int, ...], tuple[int, tuple[int, ...] | None, int | None]]]
    tables = [{(): (0, None, None)}]
    introduced: set[int] = set()

    for i, (kind, v) in enumerate(decomp.events, start=1):
        bag = decomp.bags[i]
        near = _closed_bag_neighborhood(g, bag)
        nxt: dict[tuple[int, ...], tuple[int, tuple[int, ...] | None, int | None]] = {}

        def record(key, weight, prev, taken):
            cur = nxt.get(key)
            if cur is None or weight < cur[0]:
                nxt[key] = (weight, prev, taken)

        if kind == "forget":
            edges = [normalize_edge(u, v) for u in bag if g.has_edge(u, v)]
            checks = [(mon[e], demand[e]) for e in edges if demand[e]]
            for key in sorted(tables[-1]):
                weight = tables[-1][key][0]
                kset = frozenset(key)
                if meets(checks, kset):
                    record(_summary(kset, near, rank, cap), weight, key, None)
        else:
            introduced.add(v)
            for key in sorted(tables[-1]):
                weight = tables[-1][key][0]
                kset = frozenset(key)
                record(_summary(kset, near, rank, cap), weight, key, None)
                record(
                    _summary(kset | {v}, near, rank, cap), weight + cost[v], key, v
                )
        assert len(nxt) <= _subset_count(len(near & introduced), cap)
        tables.append(nxt)

    final = tables[-1]
    if not final:
        return Solution.infeasible()
    assert set(final) == {()}, "states must collapse once every bag is empty"
    value = final[()][0]

    taken: set[int] = set()
    key: tuple[int, ...] | None = ()
    for i in range(decomp.length, 0, -1):
        _, prev, got = tables[i][key]
        if got is not None:
            taken.add(got)
        key = prev
    if sum(cost[v] for v in taken) != value:
        raise RuntimeError("interval DP: witness weight differs from its value")
    if not is_monitoring_set(inst, taken):
        raise RuntimeError("interval DP: witness misses a demand")
    return Solution.of(taken, Fraction(value, scale))


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
