"""Instance model and monitoring-set semantics.

A vertex v monitors an edge {a, b} when {a, b, v} induces a triangle.  A
vertex set S satisfies an instance when every edge e has at least c(e)
monitors inside S.  Vertex weights are exact non-negative rationals;
solution values are always compared exactly, never through floats.  Each
`Instance` also carries its weights as integers, `cost`, over one `scale`
(the LCM of the denominators), so solvers add and compare ints, and
`certify` re-checks a solver's witness and turns its integer value back
into a `Fraction`.

Graphs are immutable after construction.  Every operation in this module
is a pure function of its arguments, so concurrent use on shared instances
is safe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Collection, Iterable, Iterator, Mapping

Edge = tuple[int, int]


class InputError(ValueError):
    """An argument violates a documented precondition."""


class ParseError(InputError):
    """Malformed instance text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BudgetExceeded(RuntimeError):
    """A solver refused an instance larger than its search budget."""


class GenerationError(RuntimeError):
    """A generator could not satisfy its constraints within bounded retries."""


def normalize_edge(u: int, v: int) -> Edge:
    """Unordered pair as (min, max); loops are rejected."""
    if u == v:
        raise InputError(f"loop edge ({u}, {v}) is not allowed")
    return (u, v) if u < v else (v, u)


def as_weight(x) -> Fraction:
    """Coerce to a non-negative exact rational."""
    w = Fraction(x)
    if w < 0:
        raise InputError(f"negative weight {w}")
    return w


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    `edges` is the sorted tuple of normalized pairs and `adjacency[v]` the
    neighbor set of v; the two views are kept consistent by construction.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise InputError("vertex count must be non-negative")
        seen: set[Edge] = set()
        for u, v in edges:
            e = normalize_edge(u, v)
            if not (0 <= e[0] and e[1] < n):
                raise InputError(f"edge {e} out of range for n={n}")
            if e in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(e)
        return Graph._build(n, seen)

    @staticmethod
    def _build(n: int, edges: Collection[Edge]) -> "Graph":
        """`from_edges` without its checks: `edges` must already be
        distinct normalized pairs inside 0..n-1."""
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return Graph(
            n=n,
            edges=tuple(sorted(edges)),
            adjacency=tuple(frozenset(a) for a in adj),
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def closed_neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v] | {v}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_clique(self, vs: Iterable[int]) -> bool:
        vs = list(vs)
        return all(
            self.has_edge(vs[i], vs[j])
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        )

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(components(range(self.n), self.adjacency.__getitem__))


def components(
    vs: Iterable[int], neighbors: Callable[[int], Iterable[int]]
) -> list[tuple[int, ...]]:
    """Connected components of the graph on vs in which `neighbors(x)` are
    the vertices adjacent to x (all of them in vs).  Each component comes
    sorted; components come in the order of their first vertex in vs."""
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in vs:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in neighbors(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


@dataclass(frozen=True)
class Instance:
    """A graph with per-edge demands and per-vertex rational weights.

    `demands[i]` is the demand of `graph.edges[i]`; `demand(u, v)` finds
    one edge's demand by bisection in the sorted `graph.edges`, and keeps
    no table for it (the solvers read `demands` or `demand_checks`).
    Weights default to 1 everywhere.  `cost` and `scale` are
    derived from the weights when the instance is built, with
    `weights[v] == Fraction(cost[v], scale)`.
    """

    graph: Graph
    demands: tuple[int, ...]
    weights: tuple[Fraction, ...]
    cost: tuple[int, ...] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.demands) != self.graph.m:
            raise InputError("demand table does not match the edge set")
        if any(c < 0 for c in self.demands):
            raise InputError("demands must be non-negative integers")
        if len(self.weights) != self.graph.n:
            raise InputError("weight table does not match the vertex set")
        cost, scale = scaled_weights(self.weights)
        # cost[v] has the sign of weights[v], since scale and denominators are positive
        if any(c < 0 for c in cost):
            raise InputError("weights must be non-negative")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "scale", scale)

    @staticmethod
    def make(graph: Graph, demand=1, weight=1) -> "Instance":
        """Build from a constant or per-edge mapping demand and a constant,
        sequence, or per-vertex mapping weight."""
        if isinstance(demand, Mapping):
            table = {normalize_edge(*e): int(c) for e, c in demand.items()}
            missing = set(graph.edges) - set(table)
            extra = set(table) - set(graph.edges)
            if missing or extra:
                raise InputError(
                    f"demand map mismatch (missing {sorted(missing)}, "
                    f"unknown {sorted(extra)})"
                )
            demands = tuple(table[e] for e in graph.edges)
        else:
            demands = tuple(int(demand) for _ in graph.edges)
        if isinstance(weight, Mapping):
            weights = tuple(as_weight(weight.get(v, 1)) for v in range(graph.n))
        elif isinstance(weight, (list, tuple)):
            if len(weight) != graph.n:
                raise InputError("weight sequence does not match n")
            weights = tuple(as_weight(w) for w in weight)
        else:
            weights = tuple(as_weight(weight) for _ in range(graph.n))
        return Instance(graph=graph, demands=demands, weights=weights)

    def demand(self, u: int, v: int) -> int:
        e = normalize_edge(u, v)
        i = bisect_left(self.graph.edges, e)
        if self.graph.edges[i : i + 1] != (e,):
            raise InputError(f"unknown edge {e}")
        return self.demands[i]

    def demand_map(self) -> dict[Edge, int]:
        return dict(zip(self.graph.edges, self.demands))

    def weight_of(self, vs: Iterable[int]) -> Fraction:
        return Fraction(sum(self.cost[v] for v in vs), self.scale)

    def is_uniform(self, k: int | None = None) -> bool:
        """True when all demands are equal (to k, if given); vacuously true
        on edgeless graphs."""
        if not self.demands:
            return True
        lvl = self.demands[0]
        if any(c != lvl for c in self.demands):
            return False
        return k is None or lvl == k


@dataclass(frozen=True)
class Solution:
    """Outcome of a minimization: a vertex set and its exact weight, or the
    infeasible marker (the optimum is unbounded / +infinity)."""

    feasible: bool
    vertices: tuple[int, ...]
    value: Fraction | None

    @staticmethod
    def of(vertices: Iterable[int], value) -> "Solution":
        return Solution(True, tuple(sorted(set(vertices))), Fraction(value))

    @staticmethod
    def infeasible() -> "Solution":
        return Solution(False, (), None)

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


def monitors(g: Graph, e: tuple[int, int]) -> tuple[int, ...]:
    """The vertices forming a triangle with edge e, in ascending order."""
    u, v = normalize_edge(*e)
    if not g.has_edge(u, v):
        raise InputError(f"unknown edge {(u, v)}")
    return tuple(sorted(g.adjacency[u] & g.adjacency[v]))


def monitor_table(inst: Instance) -> dict[Edge, frozenset[int]]:
    """Monitor sets of all edges, precomputed once for solver loops."""
    adj = inst.graph.adjacency
    return {(u, v): adj[u] & adj[v] for u, v in inst.graph.edges}


def demand_checks(
    inst: Instance, within: frozenset[int] | None = None
) -> Iterator[tuple[Edge, frozenset[int], int]]:
    """(edge, monitors, demand) for each edge of positive demand, in edge
    order: the monitoring constraint, defined once for every solver and
    for `deficits`.  Each monitor set is computed when its edge is reached,
    so no table of the whole graph is built, and a reader that stops early
    computes no more of them.

    With `within`, each monitor set is M(uv) & within, read from
    adjacencies cut to `within` once per call, so an edge costs the size
    of its monitors inside `within`, not of its endpoints' neighborhoods."""
    adj = inst.graph.adjacency
    if within is not None:
        adj = [a & within for a in adj]
    for e, c in zip(inst.graph.edges, inst.demands):
        if c:
            u, v = e
            yield e, adj[u] & adj[v], c


def deficits(inst: Instance, s: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """(u, v, need, have) for every edge uv with fewer than c(uv) monitors
    inside s, in edge order, read from `demand_checks` within s."""
    s = frozenset(s)
    for v in s:
        if not (0 <= v < inst.graph.n):
            raise InputError(f"vertex {v} out of range")
    for (u, v), mon, c in demand_checks(inst, s):
        if len(mon) < c:
            yield u, v, c, len(mon)


def is_monitoring_set(inst: Instance, s: Iterable[int]) -> bool:
    """True iff every edge e has at least c(e) monitors inside s; stops at
    the first deficit."""
    return next(deficits(inst, s), None) is None


def scaled_weights(weights: Iterable[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integer weights and the scale (the LCM of the denominators) with
    weights[v] == ints[v] / scale, so search loops add and compare ints."""
    weights = tuple(weights)
    scale = lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (scale // w.denominator) for w in weights), scale


def certify(
    inst: Instance, vertices: Collection[int], value: int, who: str
) -> Solution:
    """The solution `vertices` of integer weight `value` (on `inst.scale`),
    once both claims are re-checked; a failed check is a fault of the
    solver `who`, so it raises RuntimeError, also under `python -O`."""
    if sum(inst.cost[v] for v in vertices) != value:
        raise RuntimeError(f"{who}: witness weight differs from its value")
    if not is_monitoring_set(inst, vertices):
        raise RuntimeError(f"{who}: witness misses a demand")
    return Solution.of(vertices, Fraction(value, inst.scale))


def max_demand(inst: Instance) -> int:
    """Largest edge demand; 0 on edgeless graphs."""
    return max(inst.demands, default=0)


def feasibility_precheck(inst: Instance) -> bool:
    """True iff no edge demands more monitors than it has: taking every
    vertex is feasible exactly when each demand fits its monitor set.
    Reads `demand_checks` once and stops at the first miss."""
    return all(len(mon) >= c for _, mon, c in demand_checks(inst))
