"""Instance transformers with machine-checkable optimum relations.

Each construction rewrites a source graph into a 1-uniform, unit-weight
monitoring instance whose optimum is pinned to a classical quantity of the
source: total domination plus three (triangle-apex construction), total
domination plus one (universal vertex over a bipartite graph), independent
sets of complete demand-graded instances, and vertex cover through
diamond-chain gadgets that embed as unit disks.  The split-graph search
exploits that a clique-side double dominating set of size at least three
is already a monitoring set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    Edge,
    Graph,
    InputError,
    Instance,
    Solution,
    certify,
    is_monitoring_set,  # noqa: F401  unused here; edgebench's tracer hooks it
)
from .oracle import DOMINATION_BUDGET, SearchBudget, minimum_weight_cover
from .planar import _bfs_levels

Point = tuple[Fraction, Fraction]


def reduce_tds_to_em(g: Graph) -> Instance:
    """Attach a triangle {u, v, w} with u adjacent to every original vertex;
    monitoring the result costs exactly total domination of g plus 3."""
    if any(not g.neighbors(v) for v in range(g.n)):
        raise InputError("source graph must have no isolated vertices")
    u, v, w = g.n, g.n + 1, g.n + 2
    edges = list(g.edges)
    edges += [(x, u) for x in range(g.n)]
    edges += [(u, v), (u, w), (v, w)]
    return Instance.make(Graph.from_edges(g.n + 3, edges), demand=1, weight=1)


def reduce_is_to_em(g: Graph, k: int) -> Instance:
    """Complete graph keeping demand k-1 on original edges and 0 elsewhere;
    a monitoring set of size <= k exists iff g has an independent set of
    size k.  g must be connected, and for k >= 2 have an edge: the image
    of one vertex has no edge, so the empty set monitors it."""
    if k < 1:
        raise InputError("k must be at least 1")
    if len(g.connected_components()) != 1:
        raise InputError("source graph must be connected")
    if k >= 2 and not g.edges:
        raise InputError("source graph must have an edge when k >= 2")
    edges = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)]
    original = set(g.edges)
    demand = {e: (k - 1 if e in original else 0) for e in edges}
    return Instance.make(Graph.from_edges(g.n, edges), demand=demand, weight=1)


def _two_color(g: Graph) -> bool:
    """Whether g is bipartite: breadth-first layers only join neighboring
    layers, so an odd cycle shows as an edge inside one layer."""
    level: dict[int, int] = {}
    for root in range(g.n):
        if root not in level:
            level.update(_bfs_levels(g, root)[0])
    return all(level[u] != level[v] for u, v in g.edges)


def reduce_bip_tds_to_comparability(g: Graph) -> Instance:
    """Add one universal vertex to a bipartite graph; the image is a
    comparability graph whose monitoring optimum is total domination of g
    plus 1.  g must have an edge: without one the image has no edge to
    monitor, so its optimum is 0."""
    if any(not g.neighbors(v) for v in range(g.n)):
        raise InputError("source graph must have no isolated vertices")
    if not g.edges:
        raise InputError("source graph must have an edge")
    if not _two_color(g):
        raise InputError("source graph must be bipartite")
    hub = g.n
    edges = list(g.edges) + [(x, hub) for x in range(g.n)]
    return Instance.make(Graph.from_edges(g.n + 1, edges), demand=1, weight=1)


def reduce_planar_vc_to_udg(
    g: Graph,
    chain_lengths: int | Mapping[Edge, int] = 1,
    embedding: Mapping[Edge, list[tuple[int, int]]] | None = None,
) -> tuple[Instance, dict[int, Point] | None]:
    """Replace each edge by a chain of 2n_i+1 diamonds.

    Edge {u, v} becomes a path of hub vertices u = a_0, ..., a_{2n_i+1} = v
    where consecutive hubs are joined through a pendant pair b, b' (each
    adjacent to both hubs and to each other); the original edge disappears.
    Monitoring the image costs vertex cover of g plus the sum of 5n_i+2.

    With an embedding (an axis-parallel polyline per edge, total length
    3*(2n_i+1), corners only at multiples of 3 along the line), vertex
    coordinates are computed and validated against the distance-2
    adjacency rule.  Straight or well-separated polylines validate; the
    exact check rejects layouts whose diamonds collide (sharp corners
    do).  The instance itself never needs coordinates.
    """
    if any(g.degree(v) > 3 for v in range(g.n)):
        raise InputError("source graph must have maximum degree 3")
    lengths: dict[Edge, int] = {}
    for e in g.edges:
        ni = chain_lengths[e] if isinstance(chain_lengths, Mapping) else chain_lengths
        if ni < 1:
            raise InputError("chain lengths must be at least 1")
        lengths[e] = int(ni)

    edges: list[Edge] = []
    next_id = g.n
    chains: dict[Edge, tuple[list[int], list[int], list[int]]] = {}
    for e in g.edges:
        u, v = e
        ni = lengths[e]
        hubs = [u] + list(range(next_id, next_id + 2 * ni)) + [v]
        next_id += 2 * ni
        pend, pend2 = [], []
        for j in range(2 * ni + 1):
            b, b2 = next_id, next_id + 1
            next_id += 2
            pend.append(b)
            pend2.append(b2)
            edges += [
                (hubs[j], b),
                (hubs[j], b2),
                (b, hubs[j + 1]),
                (b2, hubs[j + 1]),
                (b, b2),
            ]
        chains[e] = (hubs, pend, pend2)
    image = Instance.make(Graph.from_edges(next_id, edges), demand=1, weight=1)
    if embedding is None:
        return image, None
    coords = _embed_chains(image.graph, chains, lengths, embedding)
    return image, coords


def _embed_chains(
    gimage: Graph,
    chains: dict[Edge, tuple[list[int], list[int], list[int]]],
    lengths: dict[Edge, int],
    embedding: Mapping[Edge, list[tuple[int, int]]],
) -> dict[int, Point]:
    coords: dict[int, Point] = {}

    def place(vertex: int, point: Point) -> None:
        if vertex in coords and coords[vertex] != point:
            raise InputError(f"conflicting positions for vertex {vertex}")
        coords[vertex] = point

    for e, (hubs, pend, pend2) in chains.items():
        line = embedding.get(e)
        if line is None:
            raise InputError(f"embedding missing polyline for edge {e}")
        segs: list[tuple[Point, Point, int]] = []
        total = 0
        for (x1, y1), (x2, y2) in zip(line, line[1:]):
            if (x1 != x2) == (y1 != y2):
                raise InputError("polyline segments must be axis-parallel")
            if total % 3 != 0:
                raise InputError("polyline corners must sit at multiples of 3")
            length = abs(x2 - x1) + abs(y2 - y1)
            segs.append(((Fraction(x1), Fraction(y1)), (Fraction(x2), Fraction(y2)), length))
            total += length
        needed = 3 * (2 * lengths[e] + 1)
        if total != needed:
            raise InputError(
                f"polyline for {e} has length {total}, the chain needs {needed}"
            )

        def at(dist: Fraction) -> tuple[Point, Point]:
            """Point at arclength `dist`, plus the unit direction there."""
            left = dist
            for (sx, sy), (ex, ey), length in segs:
                if left <= length:
                    dx = (ex > sx) - (ex < sx)
                    dy = (ey > sy) - (ey < sy)
                    return (sx + dx * left, sy + dy * left), (Fraction(dx), Fraction(dy))
                left -= length
            raise InputError("arclength beyond polyline")

        for t, hub in enumerate(hubs):
            place(hub, at(Fraction(3 * t))[0])
        for j, (b, b2) in enumerate(zip(pend, pend2)):
            (mx, my), (dx, dy) = at(Fraction(6 * j + 3, 2))
            place(b, (mx - dy, my + dx))
            place(b2, (mx + dy, my - dx))

    if len(coords) != gimage.n:
        raise InputError("embedding does not place every vertex")
    for i in range(gimage.n):
        for j in range(i + 1, gimage.n):
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            close = dx * dx + dy * dy <= 4
            if close != gimage.has_edge(i, j):
                raise InputError(
                    f"embedding breaks the unit-disk rule between {i} and {j}"
                )
    return coords


def split_partition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Clique/independent partition of a split graph; None when the graph
    is not split.

    Hammer and Simeone's criterion (The splittance of a graph, Combinatorica
    1981): with degrees d_1 >= ... >= d_n and m the largest i such that
    d_i >= i - 1, the graph is split iff the m top-degree vertices K and the
    rest I satisfy sum_K d = m(m-1) + sum_I d.  K is then a clique and I is
    independent, whichever way degree ties are broken: sum_K d = 2e(K) +
    e(K, I) and sum_I d = 2e(I) + e(K, I), so the equality reads
    2e(K) - m(m-1) = 2e(I), whose left side is at most 0 and whose right
    side is at least 0.  `split_gamma_m` re-checks the partition anyway.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = max((i for i in range(1, g.n + 1) if degs[i - 1] >= i - 1), default=0)
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    return tuple(sorted(order[:m])), tuple(sorted(order[m:]))


def split_gamma_m(
    g: Graph,
    clique: Iterable[int],
    independent: Iterable[int],
    budget: SearchBudget | None = None,
) -> Solution:
    """Minimum 1-uniform monitoring set of a split graph.

    Searches clique-side double dominating sets of size at least 3, which
    are exactly the clique-side monitoring sets: three clique vertices
    cover every clique edge, and double domination of an independent
    vertex leaves a second neighbor for each of its edges.  An isolated
    vertex monitors nothing and has no edge to monitor, so it gets no
    constraint, and an edgeless graph has value 0.  Otherwise needs every
    other vertex of degree at least 2 and a clique side of size at least 3.
    """
    clique = frozenset(clique)
    independent = frozenset(independent)
    if clique & independent or clique | independent != set(range(g.n)):
        raise InputError("clique and independent sides must partition the vertices")
    if not g.is_clique(clique):
        raise InputError("clique side is not a clique")
    if any(g.adjacency[a] & independent for a in independent):
        raise InputError("independent side is not independent")
    if not g.m:  # nothing to monitor
        return Solution.of((), 0)
    if len(clique) < 3:
        raise InputError("clique side must have at least 3 vertices")
    if any(g.degree(v) == 1 for v in range(g.n)):
        raise InputError("minimum degree must be at least 2, isolated vertices aside")
    if budget is None:
        budget = SearchBudget(max_vertices=DOMINATION_BUDGET)
    inst = Instance.make(g, demand=1)
    constraints = [(g.closed_neighbors(v), 2) for v in range(g.n) if g.degree(v)]
    constraints.append((clique, 3))
    sol = minimum_weight_cover(inst.weights, constraints, allowed=clique, budget=budget)
    # degree >= 2 off isolated vertices makes the clique side always
    # sufficient; under unit weights the integer weight of the witness is
    # its size
    return certify(inst, sol.vertices, len(sol.vertices), "split search")
