"""Exact solver for block graphs via leaf elimination on the block-cut tree.

Every triangle of a block graph lives inside one block, so a leaf block
can be settled by two bounded searches on its clique: the plain optimum
and the optimum forced through the articulation vertex.  The articulation
vertex then carries the price difference of those two into the remainder
as its new weight, and the remainder shrinks by one block.  Witnesses are
rebuilt afterwards by replaying the eliminations backwards.

One breadth-first walk per component, over a vertex -> blocks index, gives
every block the cut vertex that joins it to the root side; blocks are then
eliminated in post-order, so no leaf search is needed.  The monitor table
of the whole graph is built once, and each block reads its demand checks
from it once, for both searches.  Apart from sorting blocks and members,
and the clique searches, whose cost depends only on a block's size and
demands, the elimination is linear in the size of the block-cut tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    Edge,
    Graph,
    InputError,
    Instance,
    Solution,
    certify,
    is_monitoring_set,  # noqa: F401  unused here; edgebench's tracer hooks it
    monitor_table,
    normalize_edge,
)
from .complete import _cheapest, _pool
from .complete import solve_complete_cbounded  # noqa: F401  edgebench's tracer hooks it


@dataclass(frozen=True)
class BlockCutTree:
    """Maximal biconnected components plus articulation vertices.

    Isolated vertices appear as singleton blocks.  Blocks that fail the
    clique test are flagged, not rejected, so callers decide whether the
    input qualifies as a block graph.  Blocks come in post-order of the
    depth-first search: rooted at the last block of its component, every
    block comes after the blocks hanging below it.
    """

    blocks: tuple[frozenset[int], ...]
    cutpoints: frozenset[int]
    non_clique_blocks: tuple[int, ...]


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Biconnected components by depth-first search with an edge stack."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    timer = 0
    edge_stack: list[Edge] = []
    blocks: list[frozenset[int]] = []
    cutpoints: set[int] = set()

    def pop_component(marker: Edge) -> None:
        members: set[int] = set()
        while True:
            e = edge_stack.pop()
            members.update(e)
            if e == marker:
                break
        blocks.append(frozenset(members))

    def dfs(root: int) -> None:
        nonlocal timer
        # iterative DFS; each frame is (vertex, parent, neighbor iterator)
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(sorted(g.neighbors(root))))]
        root_children = 0
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if v == parent:
                    continue
                if v not in disc:
                    disc[v] = low[v] = timer
                    timer += 1
                    edge_stack.append(normalize_edge(u, v))
                    stack.append((v, u, iter(sorted(g.neighbors(v)))))
                    if u == root:
                        root_children += 1
                    advanced = True
                    break
                if disc[v] < disc[u]:
                    edge_stack.append(normalize_edge(u, v))
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    if p != root or root_children > 1:
                        cutpoints.add(p)
                    pop_component(normalize_edge(p, u))

    for v in range(g.n):
        if v not in disc:
            dfs(v)
            if not g.neighbors(v):
                blocks.append(frozenset({v}))

    non_clique = tuple(
        i for i, blk in enumerate(blocks) if not g.is_clique(blk)
    )
    return BlockCutTree(
        blocks=tuple(blocks),
        cutpoints=frozenset(cutpoints),
        non_clique_blocks=non_clique,
    )


def _walk(
    tree: BlockCutTree, blocks_at: list[list[int]], root: int, reached: list[bool]
) -> list[tuple[int, int | None]]:
    """Breadth-first order of the blocks in root's component, each paired
    with the cut vertex it was reached through (None for the root)."""
    reached[root] = True
    order: list[tuple[int, int | None]] = [(root, None)]
    for b, _ in order:
        for v in sorted(tree.blocks[b]):
            for nb in blocks_at[v]:
                if not reached[nb]:
                    reached[nb] = True
                    order.append((nb, v))
    return order


def solve_block(inst: Instance, eliminate_last: bool = False) -> Solution:
    """Exact minimum-weight monitoring set of a block graph.

    One monitor table serves every block: in a block graph the monitors of
    an edge are the rest of its block.  Each block is settled by the
    bounded clique search of `complete` over its own members: the plain
    optimum and, for a leaf, the optimum forced through its cut vertex.

    Each component is rooted at its highest-index block and eliminated in
    block order, the post-order of `block_cut_tree`.  `eliminate_last`
    roots it at the lowest-index block instead and eliminates in reverse
    breadth-first order: a second valid elimination order, rooted at the
    other end.
    """
    g = inst.graph
    tree = block_cut_tree(g)
    if tree.non_clique_blocks:
        raise InputError(
            f"not a block graph: blocks {list(tree.non_clique_blocks)} are not cliques"
        )
    blocks_at: list[list[int]] = [[] for _ in range(g.n)]
    for b, blk in enumerate(tree.blocks):
        for v in blk:
            blocks_at[v].append(b)

    mon = monitor_table(inst)
    demand = inst.demand_map()
    cost = list(inst.cost)

    def settle(b: int, cut: int | None = None):
        """Block b's cheapest (weight, set) under the current costs and, with
        `cut`, the cheapest holding it; None where no set qualifies."""
        members = sorted(tree.blocks[b])
        checks = [(mon[e], c) for e in combinations(members, 2) if (c := demand[e])]
        cap = max((c for _, c in checks), default=0) + 2
        plain = _cheapest(checks, cost, _pool(members, cap))
        if plain is None or cut is None:
            return plain, None
        return plain, _cheapest(checks, cost, _pool(members, cap, cut))

    total = 0
    witness: set[int] = set()
    reached = [False] * len(tree.blocks)
    roots = range(len(tree.blocks))
    for root in roots if eliminate_last else reversed(roots):
        if reached[root]:
            continue
        order = _walk(tree, blocks_at, root, reached)
        # both orders put every block after the blocks hanging below it, so
        # each is a leaf when its turn comes, attached by the cut vertex it
        # was reached through
        leaves = reversed(order[1:]) if eliminate_last else sorted(order[1:])
        # (cut vertex, plain and forced witnesses)
        steps: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        for b, cut in leaves:
            plain, forced = settle(b, cut)
            if plain is None:
                return Solution.infeasible()
            # forcing a vertex can neither lose feasibility nor beat the optimum
            if forced is None or forced[0] < plain[0]:
                raise RuntimeError(
                    "block elimination: forced optimum missing or below the plain one"
                )
            total += plain[0]
            steps.append((cut, plain[1], forced[1]))
            cost[cut] = forced[0] - plain[0]
        final, _ = settle(root)
        if final is None:
            return Solution.infeasible()
        total += final[0]
        comp_witness = set(final[1])
        for cut, plain_vs, forced_vs in reversed(steps):
            comp_witness.update(forced_vs if cut in comp_witness else plain_vs)
        witness |= comp_witness

    return certify(inst, witness, total, "block elimination")
