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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

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
        out: list[int] = []
        stack: list[Cotree] = [self]
        while stack:
            node = stack.pop()
            if node.kind == "leaf":
                out.append(node.vertex)
            else:
                stack.extend(reversed(node.children))
        return tuple(out)

    def realize(self, n: int) -> Graph:
        """The graph this tree describes; leaves must be exactly 0..n-1."""
        return Graph._build(n, self.edges(n))

    def edges(self, n: int) -> tuple[tuple[int, int], ...]:
        """The edges of `realize(n)`, as its sorted tuple of normalized
        pairs, without building the graph.

        A post-order walk on an explicit stack, so depth costs no
        recursion: `parts` holds the leaf tuples of the finished subtrees,
        and a finished node replaces its children's tuples by their
        concatenation, after linking every pair of them if it is a join.
        Leaves are distinct, so every pair is linked at most once."""
        if sorted(self.leaves()) != list(range(n)):
            raise InputError("cotree leaves must be exactly 0..n-1")
        edges: list[tuple[int, int]] = []
        parts: list[tuple[int, ...]] = []
        stack: list[tuple[Cotree, bool]] = [(self, False)]
        while stack:
            node, finished = stack.pop()
            if node.kind == "leaf":
                parts.append((node.vertex,))
            elif not finished:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children))
            else:
                mine = parts[-len(node.children):]
                del parts[-len(node.children):]
                if node.kind == "join":
                    for a, part in enumerate(mine):
                        for other in mine[a + 1:]:
                            edges.extend(
                                (u, v) if u < v else (v, u) for u in part for v in other
                            )
                parts.append(tuple(v for part in mine for v in part))
        edges.sort()
        return tuple(edges)

    def to_expr(self) -> str:
        if self.kind == "leaf":
            return f"(leaf {self.vertex})"
        inner = " ".join(child.to_expr() for child in self.children)
        return f"({self.kind} {inner})"

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
                if pos >= len(tokens) or not tokens[pos].lstrip("-").isdigit():
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
    returns None when the graph is not a cograph (an induced P4 survives)."""

    def build(vs: tuple[int, ...]) -> Cotree | None:
        # vs is sorted, so its components come sorted by first vertex
        if len(vs) == 1:
            return Cotree.leaf(vs[0])
        vset = set(vs)
        comps = components(vs, lambda x: g.neighbors(x) & vset)
        if len(comps) > 1:
            kind = "union"
        else:
            comps = components(vs, lambda x: vset - g.neighbors(x) - {x})
            if len(comps) == 1:
                return None
            kind = "join"
        children = []
        for comp in comps:
            child = build(comp)
            if child is None:
                return None
            children.append(child)
        return Cotree.node(kind, children)

    if g.n == 0:
        raise InputError("cannot build a cotree for the empty graph")
    if g.n == 1:
        return Cotree.leaf(0)
    return build(tuple(range(g.n)))


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


def _summarize(node: Cotree, weights: Sequence) -> NodeSummary:
    if node.kind == "leaf":
        v = node.vertex
        return NodeSummary(
            gamma_m=(0, ()), gamma_t=None, w_min=(weights[v], (v,)), has_isolated=True
        )
    acc = _summarize(node.children[0], weights)
    for child in node.children[1:]:
        acc = _combine(node.kind, acc, _summarize(child, weights))
    return acc


def gamma_t_cograph(tree: Cotree, weights: Sequence[Fraction]) -> Solution:
    """Minimum-weight total dominating set of the realized cograph."""
    pick = _summarize(tree, weights).gamma_t
    return Solution.infeasible() if pick is None else Solution.of(pick[1], pick[0])


def solve_cograph(inst: Instance, tree: Cotree | None = None) -> Solution:
    """Exact 1-uniform minimum-weight monitoring set of a cograph.

    A cotree certificate may be supplied; otherwise one is built from the
    graph.  Non-1-uniform demands are out of contract for this recursion.
    """
    if not inst.is_uniform(1):
        raise InputError("cograph recursion applies to 1-uniform demands only")
    if tree is None:
        tree = cotree_build(inst.graph)
        if tree is None:
            raise InputError("graph is not a cograph")
    if tree.edges(inst.graph.n) != inst.graph.edges:
        raise InputError("cotree does not realize the instance graph")
    pick = _summarize(tree, inst.cost).gamma_m
    if pick is None:
        return Solution.infeasible()
    return certify(inst, pick[1], pick[0], "cotree recursion")
