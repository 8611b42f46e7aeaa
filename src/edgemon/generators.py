"""Seeded instance generators for every graph class the solvers cover.

Randomness comes from splitmix64, a tiny public PRNG with a fixed integer
recurrence, so a (seed, parameters) pair produces byte-identical instances
on any platform or reimplementation.  Draw order is part of the contract:
structure first, then demands over the sorted edge list, then weights in
vertex order.

Demand specs are either a constant int or an inclusive (lo, hi) range
drawn per edge.  Weight specs are a constant, or (lo, hi, denominator)
drawing lo + j/denominator uniformly on the lattice up to hi.  All weights
are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import Edge, GenerationError, Graph, InputError, Instance, as_weight
from .cographs import Cotree
from .intervals import IntervalRealization

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; two xor-multiply mixes."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform int in [0, n); plain modulo reduction (documented bias
        is irrelevant at test scale and keeps the stream portable)."""
        if n <= 0:
            raise InputError("below() needs a positive bound")
        return self.next64() % n

    def chance(self, p: Fraction) -> bool:
        """Exact Bernoulli(p) for rational p in [0, 1]."""
        if not 0 <= p <= 1:
            raise InputError("probability out of [0, 1]")
        return self.below(p.denominator) < p.numerator

    def sample_distinct(self, count: int, lo: int, hi: int) -> list[int]:
        """`count` distinct ints from [lo, hi), in draw order."""
        if hi - lo < count:
            raise InputError("range too small for distinct sample")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            x = lo + self.below(hi - lo)
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out


def _draw_demands(rng: SplitMix64, m: int, spec) -> tuple[int, ...]:
    """Demands of the m edges, in edge order."""
    if isinstance(spec, tuple):
        lo, hi = spec
        if not 0 <= lo <= hi:
            raise InputError("demand range must satisfy 0 <= lo <= hi")
        return tuple(lo + rng.below(hi - lo + 1) for _ in range(m))
    return (int(spec),) * m


def _draw_weights(rng: SplitMix64, n: int, spec) -> tuple[Fraction, ...]:
    if isinstance(spec, tuple):
        lo, hi, den = Fraction(spec[0]), Fraction(spec[1]), int(spec[2])
        if lo > hi or den <= 0:
            raise InputError("weight range must satisfy lo <= hi, denominator > 0")
        steps = int((hi - lo) * den)
        return tuple(lo + Fraction(rng.below(steps + 1), den) for _ in range(n))
    return (as_weight(spec),) * n


def _instantiate(g: Graph, rng: SplitMix64, demand, weight) -> Instance:
    demands = _draw_demands(rng, g.m, demand)
    return Instance(g, demands, _draw_weights(rng, g.n, weight))


def gen_complete(n: int, demand=1, weight=1, seed: int = 0) -> Instance:
    """Complete graph on n >= 1 vertices with drawn demands and weights."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = SplitMix64(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _instantiate(Graph.from_edges(n, edges), rng, demand, weight)


def gen_block_graph(
    blocks: Iterable[int], demand=1, weight=1, seed: int = 0
) -> Instance:
    """Connected block graph: each clique after the first is attached at a
    vertex drawn from everything built so far."""
    sizes = list(blocks)
    if not sizes or any(s < 2 for s in sizes):
        raise InputError("block sizes must all be >= 2")
    rng = SplitMix64(seed)
    edges: list[Edge] = []
    n = 0
    for i, size in enumerate(sizes):
        if i == 0:
            members = list(range(size))
            n = size
        else:
            anchor = rng.below(n)
            members = [anchor] + list(range(n, n + size - 1))
            n += size - 1
        edges.extend(
            (members[a], members[b])
            for a in range(len(members))
            for b in range(a + 1, len(members))
        )
    return _instantiate(Graph.from_edges(n, edges), rng, demand, weight)


def gen_interval(
    n: int, lengths: str = "random", demand=1, weight=1, seed: int = 0
) -> tuple[Instance, IntervalRealization]:
    """Interval instance plus its realization certificate.

    All 2n endpoints are pairwise-distinct integers by construction.  With
    lengths="unit" every interval has the same (odd) length and starts on
    even coordinates, which keeps endpoints distinct and the realization a
    unit one.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rng = SplitMix64(seed)
    if lengths == "unit":
        span = (n // 2) * 2 + 1
        starts = [2 * s for s in rng.sample_distinct(n, 0, 2 * n)]
        intervals = [(a, a + span) for a in starts]
    elif lengths == "random":
        points = rng.sample_distinct(2 * n, 0, 4 * n)
        intervals = [
            (min(points[2 * i], points[2 * i + 1]), max(points[2 * i], points[2 * i + 1]))
            for i in range(n)
        ]
    else:
        raise InputError(f"unknown length spec {lengths!r}")
    real = IntervalRealization(tuple(intervals))
    g = real.intersection_graph()
    return _instantiate(g, rng, demand, weight), real


def _random_cotree(rng: SplitMix64, ids: list[int], kind: str) -> Cotree:
    if len(ids) == 1:
        return Cotree.leaf(ids[0])
    cut = 1 + rng.below(len(ids) - 1)
    flip = "union" if kind == "join" else "join"
    return Cotree.node(
        kind,
        (_random_cotree(rng, ids[:cut], flip), _random_cotree(rng, ids[cut:], flip)),
    )


def gen_cograph(
    n: int, demand=1, weight=1, seed: int = 0
) -> tuple[Instance, Cotree]:
    """Cograph realized from a random cotree with alternating labels."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = SplitMix64(seed)
    root_kind = "union" if rng.below(2) == 0 else "join"
    tree = _random_cotree(rng, list(range(n)), root_kind)
    g = tree.realize(n)
    return _instantiate(g, rng, demand, weight), tree


def gen_split(
    clique_size: int,
    independent_size: int,
    edge_prob: Fraction = Fraction(1, 2),
    demand=1,
    weight=1,
    seed: int = 0,
    min_degree: int | None = None,
    max_tries: int = 200,
) -> Instance:
    """Split graph: complete side, edgeless side, Bernoulli cross edges.

    Vertices 0..clique_size-1 form the clique, the rest the independent
    set.  With min_degree set, cross edges are redrawn until the degree
    floor holds (GenerationError after max_tries)."""
    if clique_size < 1 or independent_size < 0:
        raise InputError("need clique_size >= 1 and independent_size >= 0")
    edge_prob = Fraction(edge_prob)
    rng = SplitMix64(seed)
    n = clique_size + independent_size
    clique_edges = [
        (u, v) for u in range(clique_size) for v in range(u + 1, clique_size)
    ]
    for _ in range(max_tries):
        cross = [
            (u, v)
            for u in range(clique_size)
            for v in range(clique_size, n)
            if rng.chance(edge_prob)
        ]
        g = Graph.from_edges(n, clique_edges + cross)
        if min_degree is None or all(g.degree(v) >= min_degree for v in range(n)):
            return _instantiate(g, rng, demand, weight)
    raise GenerationError(
        f"no graph with minimum degree {min_degree} in {max_tries} tries"
    )


def gen_planar(
    rows: int, cols: int, triangulate: bool = False, demand=1, weight=1,
    seed: int = 0,
) -> Instance:
    """Grid graph, optionally with one random diagonal per cell (planar and
    triangle-rich)."""
    if rows < 1 or cols < 1:
        raise InputError("rows and cols must be >= 1")
    rng = SplitMix64(seed)
    vid = lambda r, c: r * cols + c
    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    if triangulate:
        for r in range(rows - 1):
            for c in range(cols - 1):
                if rng.below(2) == 0:
                    edges.append((vid(r, c), vid(r + 1, c + 1)))
                else:
                    edges.append((vid(r, c + 1), vid(r + 1, c)))
    return _instantiate(Graph.from_edges(rows * cols, edges), rng, demand, weight)


UNIT_DISK_SCALE = 8


def gen_unit_disk(
    n: int, box: int = 10, demand=1, weight=1, seed: int = 0
) -> tuple[Instance, tuple[tuple[Fraction, Fraction], ...]]:
    """Points on a 1/8 lattice inside a box x box square; vertices within
    Euclidean distance 2 are adjacent.  The threshold is decided on exact
    squared distances, so boundary pairs are unambiguous."""
    if n < 1 or box < 1:
        raise InputError("need n >= 1 and box >= 1")
    rng = SplitMix64(seed)
    span = box * UNIT_DISK_SCALE
    raw = [(rng.below(span + 1), rng.below(span + 1)) for _ in range(n)]
    limit = (2 * UNIT_DISK_SCALE) ** 2
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (raw[i][0] - raw[j][0]) ** 2 + (raw[i][1] - raw[j][1]) ** 2 <= limit
    ]
    coords = tuple(
        (Fraction(x, UNIT_DISK_SCALE), Fraction(y, UNIT_DISK_SCALE)) for x, y in raw
    )
    return _instantiate(Graph.from_edges(n, edges), rng, demand, weight), coords
