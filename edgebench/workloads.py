"""Instance families, the three workloads, and the set-up that writes files.

A family is one generator configuration.  `pins.json` holds a pool of
generator seeds for each family together with the answers pinned for them.
`pin.py` chose each pool as the first feasible candidate seeds that pass the
family's structural filter (for families with known-defect slots, the first
that show the defect and the first that do not).  The workload seed changes
the inputs in one of two ways, both of which keep every pinned answer
checkable:

- bulk_files and interval_dp use their whole (small) pools in every run and
  the seed renames the vertices, which changes every file but neither the
  work nor the optimum value;
- small_exact draws, per family, which pool members fill its slots.

Workloads, and why each exists:

- bulk_files: large files through `solve` in auto mode, plus `verify` on the
  block files.  Parsing (the duplicate-edge scan) and the block solver's leaf
  rescan dominate; the 1,500-leaf caterpillar cotree is a known defect
  (RecursionError while parsing the `t` line).
- interval_dp: interval files with `i` lines through `solve` in auto mode.
  Random-length realizations have wide bags, unit-length ones more steps;
  the interval DP dominates and parsing is negligible.
- small_exact: over 100 operations on instances with at most 24 vertices:
  class solvers, the planar scheme, the oracle and `verify`.  The oracle
  dominates; 6x4 grids whose band regions exceed the default oracle budget
  are a known defect (exit 3).
"""

from __future__ import annotations

import hashlib
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Callable

from edgemon.core import Graph, Instance
from edgemon.generators import (
    gen_block_graph,
    gen_cograph,
    gen_complete,
    gen_interval,
    gen_planar,
    gen_split,
    gen_unit_disk,
)
from edgemon.intervals import IntervalRealization
from edgemon.textio import InstanceDocument, format_instance_text

WEIGHT = (1, 4, 4)  # weights 1, 5/4, ..., 4
EPSILON = "1"
_BAND = ceil(2 / Fraction(EPSILON))  # the planar scheme's k
APPROX_RATIO = Fraction(_BAND + 2, _BAND)

ARGV = {
    "solve": ("solve",),
    "solve.complete": ("solve", "--class", "complete"),
    "solve.block": ("solve", "--class", "block"),
    "solve.cograph": ("solve", "--class", "cograph"),
    "solve.split": ("solve", "--class", "split"),
    "approx.planar": ("approx", "--class", "planar", "--epsilon", EPSILON),
    "oracle": ("oracle",),
    "verify": ("verify",),
}

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The benchmark's own seeded stream (splitmix64), independent of the
    program's generator internals."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def below(self, n: int) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) % n


@dataclass(frozen=True)
class Generated:
    """One generated instance and the certificates its file carries."""

    instance: Instance
    realization: IntervalRealization | None = None
    cotree: str | None = None  # the `t` line's expression

    def text(self) -> str:
        doc = InstanceDocument(instance=self.instance, realization=self.realization)
        tail = f"t {self.cotree}\n" if self.cotree is not None else ""
        return format_instance_text(doc) + tail

    def relabeled(self, perm: list[int]) -> "Generated":
        """The same instance with vertex v renamed perm[v]."""
        g = self.instance.graph
        demand = {
            (perm[u], perm[v]): c for (u, v), c in zip(g.edges, self.instance.demands)
        }
        weights = [Fraction(0)] * g.n
        for v, w in enumerate(self.instance.weights):
            weights[perm[v]] = w
        inst = Instance.make(Graph.from_edges(g.n, demand), demand=demand, weight=weights)
        real = None
        if self.realization is not None:
            spans = [None] * g.n
            for v, span in enumerate(self.realization.intervals):
                spans[perm[v]] = span
            real = IntervalRealization(tuple(spans))
        cotree = None
        if self.cotree is not None:
            cotree = re.sub(
                r"\(leaf (\d+)\)", lambda m: f"(leaf {perm[int(m.group(1))]})", self.cotree
            )
        return Generated(inst, real, cotree)


def _blocks(sizes: list[int]) -> Callable[[int], Generated]:
    return lambda seed: Generated(
        gen_block_graph(sizes, demand=(0, 2), weight=WEIGHT, seed=seed)
    )


def _cograph(n: int, certificate: bool) -> Callable[[int], Generated]:
    def make(seed: int):
        inst, tree = gen_cograph(n, demand=1, weight=WEIGHT, seed=seed)
        return Generated(inst, cotree=tree.to_expr() if certificate else None)

    return make


def _interval(n: int, lengths: str) -> Callable[[int], Generated]:
    def make(seed: int):
        inst, real = gen_interval(
            n, lengths=lengths, demand=(0, 2), weight=WEIGHT, seed=seed
        )
        return Generated(inst, realization=real)

    return make


def _grid(rows: int, cols: int) -> Callable[[int], Generated]:
    return lambda seed: Generated(
        gen_planar(rows, cols, triangulate=True, demand=(0, 1), weight=WEIGHT, seed=seed)
    )


def _complete(seed: int):
    return Generated(gen_complete(12, demand=(0, 3), weight=WEIGHT, seed=seed))


def _split(seed: int):
    return Generated(gen_split(6, 12, demand=1, weight=1, seed=seed, min_degree=2))


def _unit_disk(seed: int):
    inst, _ = gen_unit_disk(18, box=5, demand=(0, 1), weight=WEIGHT, seed=seed)
    return Generated(inst)


CATERPILLAR_LEAVES = 1500


def _caterpillar(seed: int):
    """A cotree spine of union nodes, one leaf hanging off each, ending in a
    triangle: 1,500 vertices, 3 edges, nesting about 1,500 levels deep."""
    n = CATERPILLAR_LEAVES
    a, b, c = n - 3, n - 2, n - 1
    rng = SplitMix64(seed)
    weights = [1 + Fraction(rng.below(13), 4) for _ in range(n)]
    graph = Graph.from_edges(n, [(a, b), (a, c), (b, c)])
    inst = Instance.make(graph, demand=1, weight=weights)
    # Built as text because Cotree.to_expr recurses once per level.
    spine = "".join(f"(union (leaf {v}) " for v in range(a))
    expr = spine + f"(join (leaf {a}) (join (leaf {b}) (leaf {c})))" + ")" * a
    return Generated(inst, cotree=expr)


def _edge_band(target: int) -> Callable[[Generated], bool]:
    return lambda gen: abs(gen.instance.graph.m - target) <= target // 50


def _clique_number(target: int) -> Callable[[Generated], bool]:
    """Realizations whose largest set of pairwise overlapping intervals has
    `target` members: the interval DP's widest bag."""

    def accept(gen: Generated) -> bool:
        ends = sorted(
            (p, side) for a, b in gen.realization.intervals for p, side in ((a, 0), (b, 1))
        )
        depth = widest = 0
        for _, side in ends:
            depth += 1 if side == 0 else -1
            widest = max(widest, depth)
        return widest == target

    return accept


@dataclass(frozen=True)
class Family:
    """One generator configuration and the operations run on each file."""

    name: str
    make: Callable[[int], Generated]
    kinds: tuple[str, ...]
    slots: int
    pool_size: int
    candidates: range
    accept: Callable[[Generated], bool] = field(default=lambda gen: True)
    # Slots always filled by pool members that show a known defect, so a
    # defect neither hides nor shows depending on the seed.
    defect_slots: int = 0
    # Use the whole pool in every run and let the seed rename the vertices.
    relabel: bool = False


# Each small_exact family fills 10 slots from a pool of 12: members differ in
# cost by up to 9x, and drawing most of the pool keeps a run's total work
# close to the same for every workload seed.
_SMALL = range(120)
WORKLOADS: dict[str, tuple[Family, ...]] = {
    "bulk_files": (
        Family(
            "bulk.block80", _blocks([4] * 80), ("solve", "verify"), 2, 2, range(30),
            relabel=True,
        ),
        Family(
            "bulk.block160", _blocks([4] * 160), ("solve", "verify"), 2, 2, range(30),
            relabel=True,
        ),
        Family(
            "bulk.cograph100", _cograph(100, True), ("solve",), 2, 2, range(2000),
            _edge_band(3600), relabel=True,
        ),
        Family(
            "bulk.cograph120", _cograph(120, True), ("solve",), 2, 2, range(2000),
            _edge_band(5000), relabel=True,
        ),
        Family(
            "bulk.caterpillar", _caterpillar, ("solve",), 1, 2, range(4),
            defect_slots=1, relabel=True,
        ),
    ),
    # The clique number asked of each interval family is its median over the
    # first 60 generator seeds, so the pinned realization is a typical one.
    "interval_dp": tuple(
        Family(
            f"interval.{lengths}{n}", _interval(n, lengths), ("solve",), 1, 1,
            range(60), _clique_number(width), relabel=True,
        )
        for lengths, n, width in (
            ("random", 20, 12), ("random", 24, 14), ("unit", 32, 11), ("random", 28, 16),
            ("unit", 36, 13), ("unit", 40, 14), ("random", 32, 19),
        )
    ),
    "small_exact": (
        Family(
            "small.complete", _complete, ("solve.complete", "oracle", "verify"),
            10, 12, _SMALL,
        ),
        Family(
            "small.block", _blocks([4, 5, 4, 4, 5]), ("solve.block", "oracle", "verify"),
            10, 12, _SMALL,
        ),
        Family(
            "small.cograph", _cograph(18, False), ("solve.cograph", "oracle", "verify"),
            10, 12, _SMALL,
        ),
        Family(
            "small.split", _split, ("solve.split", "oracle", "verify"), 10, 12, _SMALL
        ),
        Family("small.interval", _interval(18, "random"), ("oracle", "verify"), 10, 12, _SMALL),
        Family("small.unitdisk", _unit_disk, ("oracle", "verify"), 10, 12, _SMALL),
        Family(
            "small.grid4x4", _grid(4, 4), ("approx.planar", "oracle", "verify"),
            10, 12, _SMALL,
        ),
        Family("small.grid8x3", _grid(8, 3), ("approx.planar", "verify"), 10, 12, _SMALL),
        # 16 of the 120 candidate 6x4 grids are refused; one slot in ten is
        # the nearest whole share
        Family(
            "small.grid6x4", _grid(6, 4), ("approx.planar", "verify"), 10, 12, _SMALL,
            defect_slots=1,
        ),
    ),
}


@dataclass(frozen=True)
class Op:
    """One `edgemon` command line call and the answer pinned for it."""

    op_id: str
    family: str
    seed: int
    kind: str
    argv: tuple[str, ...]
    expect: dict
    perm_seed: int | None = None  # vertex renaming drawn from the workload seed


def file_stem(family: str, seed: int) -> str:
    return f"{family}-{seed}"


def build_ops(workload: str, seed: int, pins: dict, workdir: str) -> list[Op]:
    """The workload's operations for one workload seed, in run order."""
    ops: list[Op] = []
    for fam in WORKLOADS[workload]:
        pool = pins["families"][fam.name]
        defective = [m for m in pool if shows_defect(m)]
        sound = [m for m in pool if not shows_defect(m)]
        rng = SplitMix64((seed << 32) ^ zlib.crc32(fam.name.encode()))
        picked = _draw(rng, defective, fam.defect_slots) + _draw(
            rng, sound, fam.slots - fam.defect_slots
        )
        for slot, member in enumerate(picked):
            perm_seed = rng.below(1 << 62) if fam.relabel else None
            stem = os.path.join(workdir, file_stem(fam.name, member["seed"]))
            for kind in fam.kinds:
                argv = ARGV[kind]
                if kind == "verify":
                    argv += ("--solution", stem + ".sol")
                ops.append(
                    Op(
                        op_id=f"{fam.name}#{slot}.{kind}",
                        family=fam.name,
                        seed=member["seed"],
                        kind=kind,
                        argv=argv + ("--in", stem + ".em"),
                        expect=member["expect"][kind],
                        perm_seed=perm_seed,
                    )
                )
    return ops


def shows_defect(member: dict) -> bool:
    return any("defect" in e for e in member["expect"].values())


def _draw(rng: SplitMix64, members: list[dict], count: int) -> list[dict]:
    """`count` distinct members, in draw order."""
    if count > len(members):
        raise ValueError(f"pool has {len(members)} members for {count} slots")
    picked: list[int] = []
    while len(picked) < count:
        i = rng.below(len(members))
        if i not in picked:
            picked.append(i)
    return [members[i] for i in picked]


def family(name: str) -> Family:
    return next(f for fams in WORKLOADS.values() for f in fams if f.name == name)


def witness_text(vertices) -> str:
    return "set" + "".join(f" {v}" for v in vertices) + "\n"


def permutation(seed: int, n: int) -> list[int]:
    perm = list(range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def setup(ops: list[Op], pins: dict, workdir: str) -> tuple[dict, str, dict]:
    """Generate, emit and write every file the operations read.

    Returns the instances as written, keyed by (family, generator seed), a
    digest of all bytes written, so repeated set-ups can be compared, and the
    seconds spent generating, formatting and writing each instance's files,
    under the same keys.  The benchmark's own vertex renaming and digest fall
    outside those seconds."""
    os.makedirs(workdir, exist_ok=True)
    digest = hashlib.sha256()
    seconds: dict[tuple[str, int], float] = {}
    instances: dict[tuple[str, int], Instance] = {}
    witnesses = {
        (name, m["seed"]): m["witness"]
        for name, pool in pins["families"].items()
        for m in pool
    }
    for op in ops:
        key = (op.family, op.seed)
        if key in instances:
            continue
        start = time.perf_counter()
        gen = family(op.family).make(op.seed)
        seconds[key] = time.perf_counter() - start
        perm = list(range(gen.instance.graph.n))
        if op.perm_seed is not None:
            perm = permutation(op.perm_seed, len(perm))
            gen = gen.relabeled(perm)
        instances[key] = gen.instance
        stem = os.path.join(workdir, file_stem(*key))
        sol = None
        if witnesses.get(key) is not None:
            sol = witness_text(sorted(perm[v] for v in witnesses[key]))
        start = time.perf_counter()
        files = [(stem + ".em", gen.text())]
        if sol is not None:
            files.append((stem + ".sol", sol))
        for path, body in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
        seconds[key] += time.perf_counter() - start
        for _, body in files:
            digest.update(body.encode())
    return instances, digest.hexdigest(), seconds
