"""Block-cut tree construction and the leaf-elimination solver."""

import hashlib

import pytest

from edgemon import (
    Graph,
    InputError,
    Instance,
    SplitMix64,
    block_cut_tree,
    exact_gamma_m,
    gen_block_graph,
    is_monitoring_set,
    solve_block,
)

import bruteforce as bf

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


# (value, witness size, witness digest) of solve_block on
# gen_block_graph(shape, demand=(0, 1), weight=(1, 4, 4), seed); the last
# key is False, the test ids' mark of the one elimination order left
PINNED_WITNESSES = {
    ("k4x160", 0, False): ("456", 206, "c55b9bba0864b1c1"),
    ("k4x160", 2, False): ("460", 200, "2d42def62041f9f5"),
    ("mixed", 0, False): ("170", 76, "bfb70ed959d74587"),
    ("mixed", 7, False): ("767/4", 82, "c3fe9171d7bc8267"),
}
SHAPES = {"k4x160": [4] * 160, "mixed": [3, 5, 4] * 20}


def witness_digest(vertices) -> str:
    text = " ".join(map(str, vertices))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_block_instance(seed: int, cmax: int = 2):
    rng = SplitMix64(seed)
    count = 2 + rng.below(3)
    sizes = [2 + rng.below(4) for _ in range(count)]
    while sum(sizes) - (len(sizes) - 1) > 14:
        sizes.pop()
    return gen_block_graph(
        sizes, demand=(0, cmax), weight=(1, 3, 4), seed=seed + 1
    )


def random_edges(rng: SplitMix64, vertices: list[int], num: int, den: int = 5):
    """Each pair of `vertices` an edge with probability num/den."""
    return [
        (u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
        if rng.below(den) < num
    ]


def definition_graphs(seed: int) -> list[Graph]:
    """A random graph, two chorded cycles sharing a vertex with a path
    hanging off, and a shuffled union of random components and isolated
    vertices; most are not block graphs."""
    rng = SplitMix64(seed + 555)
    n = 3 + rng.below(7)
    graphs = [Graph.from_edges(n, random_edges(rng, list(range(n)), 2))]

    a, b = 3 + rng.below(5), 3 + rng.below(5)
    ring_a = list(range(a))
    ring_b = [a - 1] + list(range(a, a + b - 1))
    tail = list(range(a + b - 1, a + b - 1 + rng.below(3)))
    edges = {
        tuple(sorted((ring[i], ring[(i + 1) % len(ring)])))
        for ring in (ring_a, ring_b)
        for i in range(len(ring))
    }
    edges |= set(zip([0] + tail, tail))
    for _ in range(rng.below(3)):
        u, v = rng.below(a), rng.below(a)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    graphs.append(Graph.from_edges(a + b - 1 + len(tail), sorted(edges)))

    n, edges = 0, []
    for _ in range(2 + rng.below(3)):
        size = 1 + rng.below(5)
        edges += random_edges(rng, list(range(n, n + size)), 1 + rng.below(4))
        n += size + rng.below(2)  # maybe one isolated vertex after it
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    graphs.append(Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]))
    return graphs


def tree_digest(tree) -> str:
    text = repr([sorted(b) for b in tree.blocks]) + repr(list(tree.attach))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def components_without(g: Graph, removed) -> list[set[int]]:
    """Vertex sets of the components of g minus `removed` (None: of g)."""
    seen: set[int] = set()
    comps = []
    for start in range(g.n):
        if start == removed or start in seen:
            continue
        comp, stack = {start}, [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y != removed and y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def check_against_definitions(g: Graph, tree) -> None:
    n = g.n
    splits = [components_without(g, v) for v in range(n)]

    # cutpoints are exactly the vertices whose removal splits something
    base = len(components_without(g, None))
    brute_cuts = {
        v for v in range(n) if len(splits[v]) > base - (0 if g.neighbors(v) else 1)
    }
    assert tree.cutpoints == brute_cuts

    # every edge lies in exactly one block, blocks overlap in <= 1 vertex
    owner = {}
    for e in g.edges:
        owners = [i for i, b in enumerate(tree.blocks) if set(e) <= b]
        assert len(owners) == 1
        owner[e] = owners[0]
    for i, a in enumerate(tree.blocks):
        for b in tree.blocks[i + 1 :]:
            assert len(a & b) <= 1

    # two edges share a block iff no vertex separates them: removing any
    # vertex x leaves their other endpoints in one component
    def separated(e, f, x) -> bool:
        ends = (set(e) | set(f)) - {x}
        return not any(ends <= comp for comp in splits[x])

    for i, e in enumerate(g.edges):
        for f in g.edges[i + 1 :]:
            same = not any(separated(e, f, x) for x in range(n))
            assert (owner[e] == owner[f]) == same

    # a block of two or more vertices is the vertex set of its edges
    for i, block in enumerate(tree.blocks):
        if len(block) > 1:
            assert block == {v for e, j in owner.items() if j == i for v in e}

    # post-order: ascending index is a leaf-first elimination order, so
    # every block meets the later blocks in one vertex, save the last
    # block of each component, which meets none
    later_shared = [
        sum(1 for v in a if any(v in b for b in tree.blocks[i + 1 :]))
        for i, a in enumerate(tree.blocks)
    ]
    assert max(later_shared, default=0) <= 1
    assert later_shared.count(0) == base

    # attach names that one shared vertex, or None where there is none
    for i, a in enumerate(tree.blocks):
        shared = {v for v in a if any(v in b for b in tree.blocks[i + 1 :])}
        if tree.attach[i] is None:
            assert not shared
        else:
            assert shared == {tree.attach[i]}
            assert tree.attach[i] in tree.cutpoints
    component = {v: c for c, vs in enumerate(g.connected_components()) for v in vs}
    last = {component[min(b)]: i for i, b in enumerate(tree.blocks)}
    assert [a is None for a in tree.attach] == [
        i in last.values() for i in range(len(tree.blocks))
    ]

    # vertices are covered, singletons only for isolated vertices
    covered = set().union(*tree.blocks) if tree.blocks else set()
    assert covered == set(range(n))
    for block in tree.blocks:
        if len(block) == 1:
            assert not g.neighbors(next(iter(block)))

    # cliqueness is flagged block by block
    assert tree.non_clique_blocks == tuple(
        i
        for i, b in enumerate(tree.blocks)
        if any(not g.has_edge(u, v) for u in b for v in b if u < v)
    )


# tree_digest of block_cut_tree over definition_graphs(seed)
PINNED_TREES = {
    0: ["c79a8d1a0afb138f", "eb1eceada97e6a8d", "1fe78a40a83f1119"],
    1: ["b4cd47e90f3810f4", "1f8d6a440b616f50", "0f0ccace86386141"],
    2: ["6001059ef2d7192b", "a771426ec043686b", "fda1b97da0836d56"],
    3: ["8683cae10c47a4f1", "542a5d48bad5fe6f", "f8b0f52fa4d90af0"],
}


class TestBlockCutTree:
    def test_bowtie(self):
        tree = block_cut_tree(BOWTIE)
        assert sorted(map(sorted, tree.blocks)) == [[0, 1, 2], [2, 3, 4]]
        assert tree.cutpoints == {2}

    def test_single_block_k4(self):
        tree = block_cut_tree(K4)
        assert len(tree.blocks) == 1 and not tree.cutpoints

    def test_path(self):
        tree = block_cut_tree(PATH3)
        assert sorted(map(sorted, tree.blocks)) == [[0, 1], [1, 2]]
        assert tree.cutpoints == {1}

    def test_non_clique_block_flagged(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        tree = block_cut_tree(c4)
        assert len(tree.blocks) == 1
        assert tree.non_clique_blocks == (0,)

    def test_isolated_vertices_are_singleton_blocks(self):
        g = Graph.from_edges(4, [(0, 1)])
        tree = block_cut_tree(g)
        assert sorted(map(sorted, tree.blocks)) == [[0, 1], [2], [3]]

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_block_graphs_have_clique_blocks(self, seed):
        inst = random_block_instance(seed)
        assert block_cut_tree(inst.graph).non_clique_blocks == ()

    @pytest.mark.parametrize("seed", range(20))
    def test_decomposition_against_definitions(self, seed):
        for g in definition_graphs(seed):
            check_against_definitions(g, block_cut_tree(g))

    @pytest.mark.parametrize("seed", range(4))
    def test_pinned_order_on_non_block_graphs(self, seed):
        # (blocks, attach) in emission order, captured from the edge-stack
        # search that the vertex-stack search replaced
        got = [
            tree_digest(block_cut_tree(g)) for g in definition_graphs(seed)
        ]
        assert got == PINNED_TREES[seed]


class TestSolveBlock:
    def test_bowtie_uniform_needs_everything(self):
        sol = solve_block(Instance.make(BOWTIE, demand=1))
        assert sol.value == 5 and sol.vertices == (0, 1, 2, 3, 4)
        assert sol.value == bf.brute_gamma_m(Instance.make(BOWTIE, demand=1)).value

    def test_single_block_k4(self):
        assert solve_block(Instance.make(K4, demand=1)).value == 3

    def test_bridges_are_hopeless(self):
        assert not solve_block(Instance.make(PATH3, demand=1)).feasible

    def test_rejects_non_block_graph(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(InputError):
            solve_block(Instance.make(c4, demand=1))

    def test_disconnected_sums_components(self):
        two_triangles = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        sol = solve_block(Instance.make(two_triangles, demand=1))
        assert sol.value == 6

    def test_isolated_vertex_contributes_nothing(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        sol = solve_block(Instance.make(g, demand=1))
        assert sol.value == 3 and 3 not in sol.vertices

    def test_weighted_cut_vertex_discount(self):
        # the articulation vertex is pricey; the shared triangle solutions
        # overlap on it, so the discount mechanism must kick in
        inst = Instance.make(BOWTIE, demand=1, weight=[1, 1, 100, 1, 1])
        sol = solve_block(inst)
        ref = bf.brute_gamma_m(inst)
        assert sol.value == ref.value
        assert is_monitoring_set(inst, sol.vertices)

    def test_witness_check_raises(self, monkeypatch):
        import edgemon.core

        # the witness is re-checked by core.certify
        monkeypatch.setattr(edgemon.core, "is_monitoring_set", lambda inst, s: False)
        with pytest.raises(RuntimeError):
            solve_block(Instance.make(BOWTIE, demand=1))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_oracle(self, seed):
        inst = random_block_instance(seed)
        mine = solve_block(inst)
        ref = exact_gamma_m(inst)
        assert mine.feasible == ref.feasible
        if mine.feasible:
            assert mine.value == ref.value
            assert is_monitoring_set(inst, mine.vertices)
            assert inst.weight_of(mine.vertices) == mine.value

    @pytest.mark.parametrize("seed", range(10))
    def test_elimination_order_independence(self, seed):
        # renaming v to n - 1 - v makes the search root, and so the order
        # of elimination, start at the other end
        inst = random_block_instance(seed + 40)
        first = solve_block(inst)
        other = solve_block(bf.reversed_ids(inst))
        assert first.feasible == other.feasible
        if first.feasible:
            assert first.value == other.value
            n = inst.graph.n
            assert is_monitoring_set(inst, [n - 1 - v for v in other.vertices])

    @pytest.mark.parametrize("shape,seed,order", sorted(PINNED_WITNESSES))
    def test_pinned_witnesses(self, shape, seed, order):
        inst = gen_block_graph(
            SHAPES[shape], demand=(0, 1), weight=(1, 4, 4), seed=seed
        )
        sol = solve_block(inst)
        got = (str(sol.value), len(sol.vertices), witness_digest(sol.vertices))
        assert got == PINNED_WITNESSES[shape, seed, order]

    @pytest.mark.parametrize("seed", range(12))
    def test_uniform_rule_path_agrees(self, seed):
        rng = SplitMix64(seed)
        sizes = [2 + rng.below(4) for _ in range(2 + rng.below(3))]
        inst = gen_block_graph(sizes, demand=1, weight=(1, 3, 4), seed=seed)
        mine = solve_block(inst)
        ref = exact_gamma_m(inst)
        assert mine.feasible == ref.feasible
        if mine.feasible:
            assert mine.value == ref.value
            assert is_monitoring_set(inst, mine.vertices)

    @pytest.mark.parametrize("sizes", [[4], [3, 5, 4], [3, 3, 6, 4], [4] * 10])
    def test_one_monitor_table_per_solve(self, sizes, monkeypatch):
        # the blocks read demands only, so the one constraint pass is the
        # witness re-check in `certify`; a `demand_checks` bound in
        # `blocks` would be counted too
        import edgemon.blocks
        import edgemon.core

        inst = gen_block_graph(sizes, demand=(0, 1), weight=(1, 3, 4), seed=3)
        graphs, passes = [], []
        from_edges, demand_checks = Graph.from_edges, edgemon.core.demand_checks

        def counting_graph(n, edges):
            graphs.append(n)
            return from_edges(n, edges)

        def counting_checks(name):
            def wrapped(i, *rest):
                passes.append(name)
                return demand_checks(i, *rest)

            return wrapped

        monkeypatch.setattr(Graph, "from_edges", staticmethod(counting_graph))
        for module in (edgemon.core, edgemon.blocks):
            monkeypatch.setattr(
                module, "demand_checks", counting_checks(module.__name__), raising=False
            )
        assert solve_block(inst).feasible
        assert (len(graphs), passes) == (0, ["edgemon.core"])
