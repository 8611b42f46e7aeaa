"""Layered (1+epsilon)-approximation for planar-like instances.

Vertices are grouped into breadth-first layers; every edge stays inside a
layer or crosses to the next one.  For a width k, each band of k
consecutive layers is solved exactly inside its two-layer-padded region,
the per-band optima are unioned, and the best of the k possible band
offsets is returned.  Any band's subproblem is solved by the exact
branch-and-bound engine rather than a tree-decomposition routine; the
approximation factor (k+2)/k only needs band optimality, so the guarantee
is unaffected while worst-case polynomiality is given up.  Planarity
itself is trusted, with an edge-count sanity warning.

`solve_band` is the one band solver; the sweep calls it for each band
that holds a vertex.  It builds the band's constraints for the edges that
touch the band alone, each monitor set from the kernel
(`core._monitor_set`) and each demand from `Instance.demand`, so no table
of the whole graph is kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, Sequence

from .core import (
    Graph,
    InputError,
    Instance,
    Solution,
    _monitor_set,
    certify,
    feasibility_precheck,
    is_monitoring_set,  # noqa: F401  unused here; edgebench's tracer hooks it
    monitor_table,  # noqa: F401  unused here; edgebench's tracer hooks it
)
from .oracle import BudgetExceeded, SearchBudget, _cover
from .oracle import minimum_weight_cover  # noqa: F401  unused; edgebench's tracer hooks it


@dataclass(frozen=True)
class Layering:
    """Breadth-first layers from a root; layers[i] holds the vertices at
    distance i, and every edge spans at most one level."""

    root: int
    layers: tuple[frozenset[int], ...]
    unreached: frozenset[int]

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    def slice(self, lo: int, hi: int) -> frozenset[int]:
        """Union of layers lo..hi, indices outside the range being empty."""
        return frozenset(_union(self.layers, lo, hi))


def _union(layers: Sequence[Iterable[int]], lo: int, hi: int) -> set[int]:
    """Union of layers[lo..hi], indices outside the range being empty."""
    return set().union(*layers[max(lo, 0) : max(hi + 1, 0)])


def bfs_layering(g: Graph, root: int) -> Layering:
    if not (0 <= root < g.n):
        raise InputError(f"root {root} out of range")
    layers = _layers(g, root)
    return Layering(
        root=root,
        layers=tuple(map(frozenset, layers)),
        unreached=frozenset(range(g.n)).difference(*layers),
    )


def _layers(g: Graph, root: int) -> list[list[int]]:
    """Breadth-first layers of the component of `root`, checked at the
    component's cost to be a layering."""
    level, layers = _bfs_levels(g, root)
    if any(abs(level[u] - level[v]) > 1 for u in level for v in g.neighbors(u)):
        raise RuntimeError("breadth-first layering: an edge skips a layer")
    return layers


def _bfs_levels(g: Graph, root: int) -> tuple[dict[int, int], list[list[int]]]:
    """Distance from `root` of each vertex of its component, and the
    breadth-first layers; the cost is linear in the component alone."""
    level = {root: 0}
    frontier = [root]
    layers: list[list[int]] = []
    while frontier:
        layers.append(frontier)
        nxt: list[int] = []
        for u in frontier:
            for v in sorted(g.neighbors(u)):
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level, layers


def solve_band(
    inst: Instance,
    band: frozenset[int],
    region: frozenset[int],
    budget: SearchBudget | None = None,
) -> Solution:
    """Exact cheapest set inside `region` covering every demand on edges
    that touch `band`; edges entirely outside the band are ignored.

    The band's edges are read from its vertices' adjacency and sorted, so
    the constraints come in edge order, as the zero-weight tie-break
    needs, at the cost of the band alone."""
    band, region = frozenset(band), frozenset(region)
    if not band <= region:
        raise InputError("band must be contained in its region")
    g = inst.graph
    edges = sorted({(u, v) if u < v else (v, u) for u in band for v in g.adjacency[u]})
    constraints = [(_monitor_set(g, *e), c) for e in edges if (c := inst.demand(*e))]
    # the search takes only candidates of constraints, so a region vertex
    # that monitors no demanded band edge is never taken and is not counted
    named = region.intersection(set().union(*(cand for cand, _ in constraints)))
    try:
        return _cover(inst.cost, inst.scale, constraints, named, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"band region of {len(region)} vertices: {exc}") from exc


def ptas_planar(
    inst: Instance, epsilon, budget: SearchBudget | None = None
) -> Solution:
    """(k+2)/k-approximation with k = ceil(2/epsilon), per component.

    An edge with fewer monitors than its demand means no monitoring set
    exists at all; `feasibility_precheck` shows it.  Otherwise every band
    subproblem is feasible, each offset's union monitors the whole
    component, and the cheapest offset is kept.

    A band that holds no vertex is not solved.  It has no constraint, so
    it names no vertex that the budget counts, and its cover is empty."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    k = ceil(Fraction(2) / eps)
    g = inst.graph
    if not feasibility_precheck(inst):
        return Solution.infeasible()
    if g.n >= 3 and g.m > 3 * g.n - 6:
        warnings.warn("edge count exceeds the planar bound 3n-6", stacklevel=2)

    total = 0
    witness: set[int] = set()
    for comp in g.connected_components():
        layers = _layers(g, comp[0])
        depth = len(layers) - 1
        best_w: int | None = None
        best_set: set[int] | None = None
        for offset in range(k):
            picked: set[int] = set()
            covered: set[int] = set()
            for j in range(-1, -(-depth // k) + 1):
                start = offset + k * j
                band = _union(layers, start, start + k - 1)
                region = _union(layers, start - 1, start + k)
                covered |= band
                if not band:
                    continue
                sol = solve_band(inst, band, region, budget)
                picked.update(sol.vertices)
            if covered != set(comp):
                raise RuntimeError("planar sweep: bands of one offset miss a layer")
            w = sum(inst.cost[v] for v in picked)
            if best_w is None or w < best_w:
                best_w, best_set = w, picked
        total += best_w
        witness |= best_set

    # every band is feasible (checked above), so a miss is a solver fault
    return certify(inst, witness, total, "planar sweep")
