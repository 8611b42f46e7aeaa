"""Exact solver for block graphs via leaf elimination on the block-cut tree.

Every triangle of a block graph lives inside one block, so a leaf block
can be settled by two bounded searches on its clique: the plain optimum
and the optimum forced through the articulation vertex.  The articulation
vertex then carries the price difference of those two into the remainder
as its new weight, and the remainder shrinks by one block.  Witnesses are
rebuilt afterwards by replaying the eliminations backwards.

One breadth-first walk per component, over a vertex -> blocks index, gives
every block the cut vertex that joins it to the root side; blocks are then
eliminated in post-order, so no leaf search is needed, and each block's
clique sub-instance is built once, from its own members, for both
searches.  Apart from sorting blocks and members, and the clique searches,
whose cost depends only on a block's size and demands, the elimination is
linear in the size of the block-cut tree.
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
    monitor_table,  # noqa: F401  unused here; edgebench's tracer hooks it
    normalize_edge,
)
from .complete import solve_complete_cbounded


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


def _clique(
    inst: Instance, block: frozenset[int], cost: list[int]
) -> tuple[list[int], Instance]:
    """A block's sorted members and its clique sub-instance on 0..k-1,
    weighted by the current (possibly already modified) integer costs.  Its
    scale is 1, so the numerator of each value it yields is that value on
    the scale of `inst`."""
    members = sorted(block)
    pairs = list(combinations(range(len(members)), 2))
    sub = Instance(
        graph=Graph.from_edges(len(members), pairs),
        demands=tuple(inst.demand(members[i], members[j]) for i, j in pairs),
        weights=tuple(cost[v] for v in members),
    )
    return members, sub


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

    Each block's clique sub-instance is built once and settled by
    `solve_complete_cbounded`: the plain optimum and, for a leaf, the
    optimum forced through its cut vertex, so B blocks take B
    sub-instances.

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

    cost = list(inst.cost)
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
        # (cut vertex, block members, plain and forced witnesses in the
        # block's own 0..k-1 numbering)
        steps: list[tuple[int, list[int], tuple[int, ...], tuple[int, ...]]] = []
        for b, cut in leaves:
            members, sub = _clique(inst, tree.blocks[b], cost)
            plain = solve_complete_cbounded(sub)
            if not plain.feasible:
                return Solution.infeasible()
            forced = solve_complete_cbounded(sub, force=members.index(cut))
            # forcing a vertex can neither lose feasibility nor beat the optimum
            if not forced.feasible or forced.value < plain.value:
                raise RuntimeError(
                    "block elimination: forced optimum missing or below the plain one"
                )
            total += plain.value.numerator
            steps.append((cut, members, plain.vertices, forced.vertices))
            cost[cut] = (forced.value - plain.value).numerator
        members, sub = _clique(inst, tree.blocks[root], cost)
        final = solve_complete_cbounded(sub)
        if not final.feasible:
            return Solution.infeasible()
        total += final.value.numerator
        comp_witness = {members[v] for v in final.vertices}
        for cut, members, plain_vs, forced_vs in reversed(steps):
            chosen = forced_vs if cut in comp_witness else plain_vs
            comp_witness.update(members[v] for v in chosen)
        witness |= comp_witness

    return certify(inst, witness, total, "block elimination")
