"""Cotree recursion for 1-uniform monitoring on cographs.

A cograph decomposes into single vertices under disjoint union and join.
Monitoring a join costs either a full solution of one side (legal only
when that side has no isolated vertex) or a total dominating set of one
side plus any single vertex of the other, so both optima are carried
bottom-up in one pass.

The total-domination recursion used here (any cross pair totally dominates
a join; a one-sided set must totally dominate its own side) is not part of
the monitoring formula itself and is gated by oracle equivalence in the
test suite.

No walk here recurses per level, so a deep cotree meets no recursion
limit.  `Cotree._preorder` lists the nodes from an explicit stack, and
`Cotree.fold` reads that list backwards as a post-order that hands each
node its children's values left to right; the edges, the expression text
and the summaries are folds, and the leaves are read off the same list.
The edges and the certificate check (`Cotree.realizes`) read each
subtree's leaves as a range of one left-to-right leaf order, so their walk
takes time linear in the vertices and the edges; `edges` then sorts its
pairs, and the check lists no edge and sorts nothing.  `cotree_build`
splits vertex sets on an explicit stack and assembles the tree children
first, keeping each split's components in order.  So the values, the
order they are combined in, and every tree and text are those of the
plain recursion.  Only `Cotree.from_expr` still recurses, once per nesting
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from typing import Any, Callable, Iterator, Sequence

from .core import Graph, InputError, Instance, Solution, certify, components
from .core import is_monitoring_set  # noqa: F401  unused; edgebench's tracer hooks it


@dataclass(frozen=True)
class Cotree:
    """Rooted decomposition tree: leaves are vertices, internal nodes are
    labeled union or join and have at least two children."""

    kind: str
    vertex: int | None
    children: tuple["Cotree", ...]

    @staticmethod
    def leaf(v: int) -> "Cotree":
        return Cotree("leaf", v, ())

    @staticmethod
    def node(kind: str, children: Sequence["Cotree"]) -> "Cotree":
        if kind not in ("union", "join"):
            raise InputError(f"unknown cotree node kind {kind!r}")
        if len(children) < 2:
            raise InputError("internal cotree nodes need at least two children")
        return Cotree(kind, None, tuple(children))

    def leaves(self) -> tuple[int, ...]:
        """Leaf vertices, left to right."""
        order = reversed(self._preorder())
        return tuple(tree.vertex for tree in order if not tree.children)

    def realize(self, n: int) -> Graph:
        """The graph this tree describes; leaves must be exactly 0..n-1."""
        return Graph._build(n, self.edges(n))

    def _preorder(self) -> list["Cotree"]:
        """Every node in pre-order, last child first, listed from an
        explicit stack; read backwards, it is a post-order with the
        children in order."""
        order: list[Cotree] = []
        stack = [self]
        while stack:
            tree = stack.pop()
            order.append(tree)
            stack.extend(tree.children)
        return order

    def fold(self, leaf: Callable[[int], Any], node: Callable[[str, list], Any]) -> Any:
        """Post-order fold: `leaf(v)` for each leaf, left to right, and
        `node(kind, values)` for each internal node with its children's
        values in order.  No recursion: `values` holds the values of the
        finished subtrees, and each node replaces its children's values by
        its own."""
        values: list = []
        for tree in reversed(self._preorder()):
            if tree.children:
                k = len(tree.children)
                values[-k:] = [node(tree.kind, values[-k:])]
            else:
                values.append(leaf(tree.vertex))
        return values[0]

    def _links(self, n: int) -> Iterator[tuple[list[int], list[int]]]:
        """For each join and each pair of its children, in order, the two
        children's leaves: the vertex sets the join links completely.

        One fold lists the leaves left to right, and each subtree's value
        is the (start, stop) range of its leaves in that list, so no leaf
        is copied at its ancestors and the walk is linear in the size of
        the tree; each pair's slices cost no more than the pairs of
        vertices it links.  Raises InputError unless the leaves are exactly
        0..n-1, so no pair of vertices is linked twice."""
        order: list[int] = []
        joins: list[list[tuple[int, int]]] = []

        def leaf(v: int) -> tuple[int, int]:
            order.append(v)
            return len(order) - 1, len(order)

        def node(kind: str, parts: list[tuple[int, int]]) -> tuple[int, int]:
            if kind == "join":
                joins.append(parts)
            return parts[0][0], parts[-1][1]

        self.fold(leaf, node)
        if len(order) != n or set(order) != set(range(n)):
            raise InputError("cotree leaves must be exactly 0..n-1")
        for parts in joins:
            for (a, b), (c, d) in combinations(parts, 2):
                yield order[a:b], order[c:d]

    def edges(self, n: int) -> tuple[tuple[int, int], ...]:
        """The edges of `realize(n)`, as its sorted tuple of normalized
        pairs, without building the graph: the pairs of `_links`."""
        edges = [
            (u, v) if u < v else (v, u)
            for p, q in self._links(n)
            for u in p
            for v in q
        ]
        edges.sort()
        return tuple(edges)

    def realizes(self, g: Graph) -> bool:
        """Whether this tree describes g, checked without listing edges:
        every pair a join links is an edge of g, and they number g.m.
        The leaves must be exactly 0..g.n-1 (InputError otherwise), so the
        linked pairs are distinct and are then exactly the edges of g."""
        adj = g.adjacency
        pairs = 0
        for p, q in self._links(g.n):
            pairs += len(p) * len(q)
            if pairs > g.m or not all(adj[u].issuperset(q) for u in p):
                return False
        return pairs == g.m

    def to_expr(self) -> str:
        return self.fold(
            lambda v: f"(leaf {v})", lambda kind, inner: f"({kind} {' '.join(inner)})"
        )

    @staticmethod
    def from_expr(text: str) -> "Cotree":
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        pos = 0

        def parse() -> Cotree:
            nonlocal pos
            if pos >= len(tokens) or tokens[pos] != "(":
                raise InputError("cotree expression: expected '('")
            pos += 1
            if pos >= len(tokens):
                raise InputError("cotree expression: truncated")
            head = tokens[pos]
            pos += 1
            if head == "leaf":
                if pos >= len(tokens) or not tokens[pos].removeprefix("-").isdecimal():
                    raise InputError("cotree expression: leaf needs a vertex id")
                v = int(tokens[pos])
                pos += 1
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise InputError("cotree expression: expected ')'")
                pos += 1
                return Cotree.leaf(v)
            children = []
            while pos < len(tokens) and tokens[pos] == "(":
                children.append(parse())
            if pos >= len(tokens) or tokens[pos] != ")":
                raise InputError("cotree expression: expected ')'")
            pos += 1
            return Cotree.node(head, children)

        tree = parse()
        if pos != len(tokens):
            raise InputError("cotree expression: trailing tokens")
        return tree


def cotree_build(g: Graph) -> Cotree | None:
    """Decompose by connectivity of the graph and of its complement;
    returns None when the graph is not a cograph (an induced P4 survives).

    Vertex sets are split on an explicit stack, parents first, into a list
    of ("leaf", vertex) and (kind, child count) entries.  The last child
    is split first, so the list read backwards is a post-order with the
    children in order, and the tree is assembled from it on a stack."""
    if g.n == 0:
        raise InputError("cannot build a cotree for the empty graph")
    splits: list[tuple[str, int]] = []
    pending = [tuple(range(g.n))]
    while pending:
        # vs is sorted, so its components come sorted by first vertex
        vs = pending.pop()
        if len(vs) == 1:
            splits.append(("leaf", vs[0]))
            continue
        vset = set(vs)
        comps = components(vs, lambda x: g.neighbors(x) & vset)
        if len(comps) > 1:
            kind = "union"
        else:
            comps = components(vs, lambda x: vset - g.neighbors(x) - {x})
            if len(comps) == 1:
                return None
            kind = "join"
        splits.append((kind, len(comps)))
        pending.extend(comps)
    built: list[Cotree] = []
    for kind, arg in reversed(splits):
        if kind == "leaf":
            built.append(Cotree.leaf(arg))
        else:
            built[-arg:] = [Cotree.node(kind, built[-arg:])]
    return built[0]


# A subtree's cheapest qualifying set as (weight, vertices), None when no
# set qualifies.  Weights are whatever the caller sums: an instance's
# integer costs, or rationals.
Pick = tuple[Any, tuple[int, ...]] | None


@dataclass(frozen=True)
class NodeSummary:
    """Everything a parent node needs about a subtree's realized graph: its
    monitoring and total-domination optima, and its cheapest single vertex
    (least weight, then least id)."""

    gamma_m: Pick
    gamma_t: Pick
    w_min: Pick
    has_isolated: bool


def _sum(a: Pick, b: Pick) -> Pick:
    return None if a is None or b is None else (a[0] + b[0], a[1] + b[1])


def _cheapest(*picks: Pick) -> Pick:
    """The first pick of least weight, None when there is none."""
    best = None
    for pick in picks:
        if pick is not None and (best is None or pick[0] < best[0]):
            best = pick
    return best


def _combine(kind: str, a: NodeSummary, b: NodeSummary) -> NodeSummary:
    w_min = min(a.w_min, b.w_min)
    if kind == "union":
        return NodeSummary(
            gamma_m=_sum(a.gamma_m, b.gamma_m),
            gamma_t=_sum(a.gamma_t, b.gamma_t),
            w_min=w_min,
            has_isolated=a.has_isolated or b.has_isolated,
        )
    return NodeSummary(
        gamma_m=_cheapest(
            _sum(a.gamma_t, b.w_min),
            _sum(b.gamma_t, a.w_min),
            None if a.has_isolated else a.gamma_m,
            None if b.has_isolated else b.gamma_m,
        ),
        # any cross pair totally dominates the join; a one-sided set must
        # totally dominate its own side
        gamma_t=_cheapest(_sum(a.w_min, b.w_min), a.gamma_t, b.gamma_t),
        w_min=w_min,
        has_isolated=False,
    )


def _summarize(tree: Cotree, weights: Sequence) -> NodeSummary:
    return tree.fold(
        lambda v: NodeSummary(
            gamma_m=(0, ()), gamma_t=None, w_min=(weights[v], (v,)), has_isolated=True
        ),
        lambda kind, parts: reduce(partial(_combine, kind), parts),
    )


def gamma_t_cograph(tree: Cotree, weights: Sequence[Fraction]) -> Solution:
    """Minimum-weight total dominating set of the realized cograph."""
    pick = _summarize(tree, weights).gamma_t
    return Solution.infeasible() if pick is None else Solution.of(pick[1], pick[0])


def solve_cograph(inst: Instance, tree: Cotree | None = None) -> Solution:
    """Exact 1-uniform minimum-weight monitoring set of a cograph.

    A cotree certificate may be supplied; otherwise one is built from the
    graph, unless it has no vertex: the empty set then answers, with
    value 0.  Non-1-uniform demands are out of contract for this recursion.
    """
    if not inst.is_uniform(1):
        raise InputError("cograph recursion applies to 1-uniform demands only")
    if tree is None:
        if not inst.graph.n:  # nothing to monitor, and no cotree to build
            return Solution.of((), 0)
        tree = cotree_build(inst.graph)
        if tree is None:
            raise InputError("graph is not a cograph")
    if not tree.realizes(inst.graph):
        raise InputError("cotree does not realize the instance graph")
    pick = _summarize(tree, inst.cost).gamma_m
    if pick is None:
        return Solution.infeasible()
    return certify(inst, pick[1], pick[0], "cotree recursion")
