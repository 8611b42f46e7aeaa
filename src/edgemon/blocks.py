"""Exact solver for block graphs via leaf elimination on the block-cut tree.

Every triangle of a block graph lives inside one block, so a leaf block
can be settled by two bounded searches on its clique: the plain optimum
and the optimum forced through the articulation vertex.  The articulation
vertex then carries the price difference of those two into the remainder
as its new weight, and the remainder shrinks by one block.  Witnesses are
rebuilt afterwards by replaying the eliminations backwards.

The depth-first search that finds the blocks (Hopcroft and Tarjan's, with
a stack of vertices) emits them in post-order and records, for each, the
cut vertex it shares with the blocks after it (`BlockCutTree.attach`);
those vertices are the cut vertices.  Eliminating blocks in that order
makes each a leaf when its turn comes, so the solver needs no walk of its
own and no leaf search.  In a block graph the monitors of an edge are
the rest of its block, so the solver computes no monitor set: it reads
the demands once into one map by edge (`Instance.demand_map`), and each
block takes its own positive demands from it once into the level tables
of `complete`'s clique search, which serve both of its searches.  Apart
from sorting blocks and members, and the clique searches, whose cost
depends only on a block's size and demands, the elimination is linear in
the size of the block-cut tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    Graph,
    InputError,
    Instance,
    Solution,
    certify,
    is_monitoring_set,  # noqa: F401  unused here; edgebench's tracer hooks it
    monitor_table,  # noqa: F401  unused here; edgebench's tracer hooks it
)
from .complete import _CliqueLevels
from .complete import solve_complete_cbounded  # noqa: F401  edgebench's tracer hooks it


@dataclass(frozen=True)
class BlockCutTree:
    """Maximal biconnected components plus articulation vertices.

    Isolated vertices appear as singleton blocks.  Blocks that fail the
    clique test are flagged, not rejected, so callers decide whether the
    input qualifies as a block graph.  Blocks come in post-order of the
    depth-first search: rooted at the last block of its component, every
    block comes after the blocks hanging below it.  `attach[i]` is the one
    vertex block i shares with the later blocks of its component, the cut
    vertex towards its parent; it is None for the last block of each
    component, singleton blocks included.  The cut vertices are exactly
    the vertices that `attach` names.
    """

    blocks: tuple[frozenset[int], ...]
    cutpoints: frozenset[int]
    non_clique_blocks: tuple[int, ...]
    attach: tuple[int | None, ...]


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Biconnected components by depth-first search with a vertex stack.

    A tree edge to v pushes v; other edges only lower `low`.  When the
    search leaves u with low[u] >= disc[p], p its parent, no edge climbs out
    of u's subtree above p: its vertices still stacked, down to u, form one
    block with p, attached at p.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[frozenset[int]] = []
    attach: list[int | None] = []
    for root in range(g.n):
        if root in disc:
            continue
        # iterative DFS; each frame is (vertex, neighbor iterator).  The
        # parent edge needs no skip: it lowers low[u] to disc[parent] at
        # most, which neither the block test nor low[parent] can see.
        disc[root] = low[root] = len(disc)
        stacked = [root]
        frames = [(root, iter(sorted(g.neighbors(root))))]
        while frames:
            u, it = frames[-1]
            for v in it:
                if v not in disc:
                    disc[v] = low[v] = len(disc)
                    stacked.append(v)
                    frames.append((v, iter(sorted(g.neighbors(v)))))
                    break
                low[u] = min(low[u], disc[v])
            else:
                frames.pop()
                if not frames:
                    break
                p = frames[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    block = {p, u}
                    while (w := stacked.pop()) != u:
                        block.add(w)
                    blocks.append(frozenset(block))
                    attach.append(p)
        if not g.neighbors(root):
            blocks.append(frozenset({root}))
            attach.append(None)
        else:  # the component's last block shares no vertex with later ones
            attach[-1] = None

    non_clique = tuple(i for i, blk in enumerate(blocks) if not g.is_clique(blk))
    return BlockCutTree(
        blocks=tuple(blocks),
        cutpoints=frozenset(a for a in attach if a is not None),
        non_clique_blocks=non_clique,
        attach=tuple(attach),
    )


def solve_block(inst: Instance) -> Solution:
    """Exact minimum-weight monitoring set of a block graph.

    One map from edge to demand serves every block: in a block graph the
    monitors of an edge are the rest of its block, so none is computed.
    Blocks are settled in the order of `block_cut_tree`, each by the
    level search of `complete` over its own members.  A block with an
    `attach` vertex is a leaf of what is left: it is settled plain, then
    forced through that vertex (unless the plain witness holds it
    already) from the same level tables, and the vertex is re-priced.  A block without one ends its
    component: it is settled plain, and the component's witness is rebuilt
    from the recorded steps.
    """
    tree = block_cut_tree(inst.graph)
    if tree.non_clique_blocks:
        raise InputError(
            f"not a block graph: blocks {list(tree.non_clique_blocks)} are not cliques"
        )
    demand_of = inst.demand_map()
    cost = list(inst.cost)

    total = 0
    witness: set[int] = set()
    # (cut vertex, plain and forced witnesses) of the component so far
    steps: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    for blk, cut in zip(tree.blocks, tree.attach):
        members = sorted(blk)
        demands = (
            (i, k, c)
            for (i, u), (k, v) in combinations(enumerate(members), 2)
            if (c := demand_of.get((u, v)))
        )
        levels = _CliqueLevels(members, demands, cost)
        plain = levels.best()
        if plain is None:
            return Solution.infeasible()
        total += plain[0]
        if cut is None:
            comp_witness = set(plain[1])
            for at, plain_vs, forced_vs in reversed(steps):
                comp_witness.update(forced_vs if at in comp_witness else plain_vs)
            witness |= comp_witness
            steps.clear()
            continue
        # a plain witness that holds the cut vertex comes first among the
        # sets that hold it too
        forced = plain if cut in plain[1] else levels.best(force=cut)
        # forcing a vertex can neither lose feasibility nor beat the optimum
        if forced is None or forced[0] < plain[0]:
            raise RuntimeError(
                "block elimination: forced optimum missing or below the plain one"
            )
        steps.append((cut, plain[1], forced[1]))
        cost[cut] = forced[0] - plain[0]

    return certify(inst, witness, total, "block elimination")
