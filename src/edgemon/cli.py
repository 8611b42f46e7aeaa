"""Command-line front end.

Subcommands: solve (exact class solvers), approx (approximation schemes),
oracle (branch-and-bound baseline), verify (check a vertex-set certificate),
generate and reduce (emit instances), bench (solver vs oracle table).

One ordered table, `CLASSES`, holds a record per graph class: its exact
solver, approximation scheme, recognizer for auto, and the document
builder that generate and bench share.  Each --class list is read from
it, in table order:

    solve     complete, block, interval, cograph, split, auto (default)
    approx    complete, planar
    generate  complete, block, interval, cograph, split, planar, unitdisk
    bench     complete, block, interval, cograph, planar; --epsilon runs
              the scheme, so only complete and planar accept it

auto runs the first class in `_AUTO_ORDER` whose recognizer accepts the
instance: interval with an 'i' certificate, cograph with a 't' one, then
complete for a complete graph, and block otherwise.  Adding a class
takes one table entry plus its test.  A second table, `REDUCTIONS`, maps
each `reduce --kind` (tds, is, comparability, udg) to its construction
and the relation line of its header.

Machine-readable output is line oriented:

    status feasible|infeasible
    value <num>[/<den>]
    set <v1> <v2> ...

Exit codes: 0 solved / verified true, 1 infeasible / verified false,
2 usage or input error, 3 budget exceeded.  Malformed arguments (specs
such as --demand, --weight, --blocks, --epsilon or --seeds), solution
files with a token that is not a vertex id, files that are not UTF-8
text, and a generator that cannot meet its constraints all exit 2.
Values print as exact rationals in lowest terms.
EM_BUDGET_VERTICES sets the vertex budget of every search that takes
one: the oracle, the planar bands, solve --class split and bench's
reference column; a value that is not a non-negative integer exits 2.

The argument parser is built once per process (`build_parser` is
cached), and `main` can be called any number of times in one process:
each call parses into a fresh namespace and leaves no state behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .blocks import solve_block
from .cographs import cotree_build, solve_cograph
from .complete import ptas_complete, solve_complete_cbounded
from .core import (
    BudgetExceeded,
    GenerationError,
    InputError,
    Solution,
    deficits,
    feasibility_precheck,
)
from .core import is_monitoring_set  # noqa: F401  unused; edgebench's tracer hooks it
from .generators import (
    gen_block_graph,
    gen_cograph,
    gen_complete,
    gen_interval,
    gen_planar,
    gen_split,
    gen_unit_disk,
)
from .intervals import solve_interval
from .oracle import SearchBudget, exact_gamma_m
from .planar import ptas_planar
from .reductions import (
    reduce_bip_tds_to_comparability,
    reduce_is_to_em,
    reduce_planar_vc_to_udg,
    reduce_tds_to_em,
    split_gamma_m,
    split_partition,
)
from .textio import InstanceDocument, format_instance_text, parse_instance_text
from .textio import text_lines

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _budget_from_env() -> SearchBudget | None:
    raw = os.environ.get("EM_BUDGET_VERTICES")
    if raw is None:
        return None
    try:
        vertices = int(raw)
    except ValueError:
        raise InputError(f"EM_BUDGET_VERTICES={raw!r} is not an integer") from None
    if vertices < 0:
        raise InputError(f"EM_BUDGET_VERTICES={raw!r} is negative")
    return SearchBudget(max_vertices=vertices)


def _read_document(path: str | None) -> InstanceDocument:
    text = sys.stdin.read() if path in (None, "-") else _read_file(path)
    return parse_instance_text(text)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def _write_out(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_solution(sol: Solution) -> int:
    print(f"status {sol.status}")
    if not sol.feasible:
        return EXIT_INFEASIBLE
    print(f"value {sol.value}")
    print("set" + "".join(f" {v}" for v in sol.vertices))
    return EXIT_OK


def _parse_demand_spec(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    return int(text)


def _parse_weight_spec(text: str):
    if ".." in text:
        lo, rest = text.split("..", 1)
        if ":" in rest:
            hi, den = rest.split(":", 1)
            return Fraction(lo), Fraction(hi), int(den)
        return Fraction(lo), Fraction(rest), 1
    return Fraction(text)


def _parse_block_sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _parse_seed_range(text: str) -> range:
    lo, hi = (int(s) for s in text.split("..", 1))
    if hi < lo:
        raise ValueError("empty seed range")
    return range(lo, hi + 1)


def _spec(parse, what: str):
    """An argparse `type` that parses with `parse`: a text it rejects with
    ValueError or ZeroDivisionError becomes argparse's usage error (exit 2),
    not a traceback."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"malformed {what} {text!r}") from None

    return convert


def _gen_spec(args) -> dict:
    return dict(demand=args.demand, weight=args.weight, seed=args.seed)


def _make_interval(args) -> InstanceDocument:
    lengths = "unit" if args.unit_lengths else "random"
    inst, real = gen_interval(args.n, lengths=lengths, **_gen_spec(args))
    return InstanceDocument(instance=inst, realization=real)


def _make_cograph(args) -> InstanceDocument:
    inst, tree = gen_cograph(args.n, **_gen_spec(args))
    return InstanceDocument(instance=inst, cotree=tree)


def _make_split(args) -> InstanceDocument:
    return InstanceDocument(gen_split(
        args.clique, args.independent, edge_prob=args.edge_prob,
        min_degree=args.min_degree, **_gen_spec(args),
    ))


def _make_unitdisk(args) -> InstanceDocument:
    inst, coords = gen_unit_disk(args.n, box=args.box, **_gen_spec(args))
    comments = tuple(f"# coord {v} {x} {y}" for v, (x, y) in enumerate(coords))
    return InstanceDocument(instance=inst, comments=comments)


def _solve_interval(doc: InstanceDocument) -> Solution:
    if doc.realization is None:
        raise InputError(
            "interval solver needs 'i' realization lines in the instance file"
        )
    return solve_interval(doc.instance, doc.realization)


def _solve_cograph(doc: InstanceDocument) -> Solution:
    tree = doc.cotree
    # a graph without vertices has no cotree; `solve_cograph` answers it
    if tree is None and doc.instance.graph.n:
        tree = cotree_build(doc.instance.graph)
        if tree is None:
            raise InputError("graph is not a cograph; supply a valid 't' line")
    return solve_cograph(doc.instance, tree)


def _solve_split(doc: InstanceDocument) -> Solution:
    inst = doc.instance
    if not inst.is_uniform(1):
        raise InputError("split solver handles 1-uniform demands only")
    if any(w != 1 for w in inst.weights):
        raise InputError("split solver handles unit weights only")
    parts = split_partition(inst.graph)
    if parts is None:
        raise InputError("graph is not a split graph")
    if not feasibility_precheck(inst):
        return Solution.infeasible()
    return split_gamma_m(inst.graph, parts[0], parts[1], budget=_budget_from_env())


# What the subcommands do with one graph class; a field left None keeps the
# class out of the subcommands that need it.
# - make(args): `generate`'s document, built from its arguments.
# - exact(doc): `solve`'s solver; scheme(doc, epsilon): `approx`'s (and
#   `bench --epsilon`'s) approximation scheme.
# - recognize(doc): whether `auto` may hand the document to `exact`.
# - bench(n): the arguments that replace `generate`'s for a bench row.
# Each callable names the solver or generator it runs as a global of this
# module, read when it is called, so a rebound `edgemon.cli` attribute (as
# edgebench's tracer makes) is the one that runs.
_Class = namedtuple("_Class", "make exact scheme recognize bench", defaults=(None,) * 4)


_COMPLETE = _Class(
    make=lambda args: InstanceDocument(gen_complete(args.n, **_gen_spec(args))),
    exact=lambda doc: solve_complete_cbounded(doc.instance),
    scheme=lambda doc, eps: ptas_complete(doc.instance, eps),
    recognize=lambda doc: doc.instance.graph.is_complete(),
    bench=lambda n: dict(n=n),
)
_BLOCK = _Class(
    make=lambda args: InstanceDocument(gen_block_graph(args.blocks, **_gen_spec(args))),
    exact=lambda doc: solve_block(doc.instance),
    recognize=lambda doc: True,
    bench=lambda n: dict(blocks=[4] * max(1, (n - 1) // 3)),
)
_INTERVAL = _Class(
    make=_make_interval,
    exact=_solve_interval,
    recognize=lambda doc: doc.realization is not None,
    bench=lambda n: dict(n=n, unit_lengths=False),
)
_COGRAPH = _Class(
    make=_make_cograph,
    exact=_solve_cograph,
    recognize=lambda doc: doc.cotree is not None,
    bench=lambda n: dict(n=n, demand=1),
)
_PLANAR = _Class(
    make=lambda args: InstanceDocument(
        gen_planar(args.rows, args.cols, triangulate=args.triangulate, **_gen_spec(args))
    ),
    scheme=lambda doc, eps: ptas_planar(doc.instance, eps, budget=_budget_from_env()),
    bench=lambda n: dict(
        rows=3, cols=max(1, n // 3), triangulate=True, demand=(0, 1), weight=1
    ),
)
# Every --class list shows the classes in this order.
CLASSES = {
    "complete": _COMPLETE, "block": _BLOCK, "interval": _INTERVAL,
    "cograph": _COGRAPH, "split": _Class(make=_make_split, exact=_solve_split),
    "planar": _PLANAR, "unitdisk": _Class(make=_make_unitdisk),
}
# `solve`'s default runs the first of these whose recognizer accepts the
# document: a certificate line first, then a complete graph, then block.
AUTO = "auto"
_AUTO_ORDER = (_INTERVAL, _COGRAPH, _COMPLETE, _BLOCK)


def _classes_with(field: str) -> list[str]:
    """The classes whose `field` is set, in table order."""
    return [name for name, c in CLASSES.items() if getattr(c, field) is not None]


def _solve(klass: str, doc: InstanceDocument, epsilon: Fraction | None) -> Solution:
    """Class `klass` solves `doc`: its exact solver, or with `epsilon` its
    scheme.  A class with only a scheme runs it at epsilon 1 by default."""
    if klass == AUTO:
        entry = next(c for c in _AUTO_ORDER if c.recognize(doc))
        try:
            return entry.exact(doc)
        except InputError as exc:
            raise InputError(
                f"auto-detection failed ({exc}); pass --class explicitly or add "
                "an 'i'/'t' certificate line"
            ) from exc
    entry = CLASSES[klass]
    if epsilon is None and entry.exact is not None:
        return entry.exact(doc)
    return entry.scheme(doc, Fraction(1) if epsilon is None else epsilon)


def _cmd_solve(args) -> int:
    doc = _read_document(args.infile)
    return _print_solution(_solve(args.klass, doc, args.epsilon))


def _cmd_oracle(args) -> int:
    doc = _read_document(args.infile)
    sol = exact_gamma_m(doc.instance, budget=_budget_from_env())
    return _print_solution(sol)


def _parse_solution_file(text: str) -> tuple[int, ...]:
    ids: list[int] = []
    for line_no, raw in enumerate(text_lines(text), 1):
        parts = raw.split()
        if not parts or parts[0].startswith(("#", "status", "value")):
            continue
        for token in parts[1:] if parts[0] == "set" else parts:
            try:
                ids.append(int(token))
            except ValueError:
                raise InputError(
                    f"solution line {line_no}: bad vertex id {token!r}"
                ) from None
    return tuple(sorted(set(ids)))


def _cmd_verify(args) -> int:
    doc = _read_document(args.infile)
    inst = doc.instance
    chosen = _parse_solution_file(_read_file(args.solution))
    bad = [v for v in chosen if not 0 <= v < inst.graph.n]
    if bad:
        raise InputError(f"solution mentions unknown vertices {bad}")
    lines = [
        f"deficit {u} {v} {need} {have}"
        for u, v, need, have in deficits(inst, chosen)
    ]
    print("verified false" if lines else "verified true", *lines, sep="\n")
    return EXIT_INFEASIBLE if lines else EXIT_OK


def _cmd_generate(args) -> int:
    doc = CLASSES[args.klass].make(args)
    header = f"# edgemon generate --class {args.klass} --seed {args.seed}\n"
    _write_out(header + format_instance_text(doc), args.out)
    return EXIT_OK


# What `reduce --kind` builds from a source graph g: the image instance,
# and the relation that pins the image's optimum to a quantity of g, as
# it reads after "gamma_m(image) " on the header line.  `--kind` lists
# the kinds in this order.
REDUCTIONS = {
    "tds": lambda g, args: (reduce_tds_to_em(g), "= gamma_t(source) + 3"),
    "is": lambda g, args: (
        reduce_is_to_em(g, args.k), f"<= {args.k} iff alpha(source) >= {args.k}"
    ),
    "comparability": lambda g, args: (
        reduce_bip_tds_to_comparability(g), "= gamma_t(source) + 1"
    ),
    "udg": lambda g, args: (
        reduce_planar_vc_to_udg(g, chain_lengths=args.chain)[0],
        f"= vc(source) + {5 * args.chain + 2} * m",
    ),
}


def _cmd_reduce(args) -> int:
    g = _read_document(args.infile).instance.graph
    image, relation = REDUCTIONS[args.kind](g, args)
    header = (
        f"# edgemon reduce --kind {args.kind} from n={g.n} m={g.m}",
        f"# relation gamma_m(image) {relation}",
    )
    _write_out(
        format_instance_text(InstanceDocument(instance=image, comments=header)),
        args.out,
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    entry = CLASSES[args.klass]
    budget = _budget_from_env()
    if args.epsilon is not None and entry.scheme is None:
        raise InputError(f"class {args.klass!r} has no approximation scheme")
    if args.epsilon is not None and args.epsilon <= 0:
        raise InputError("epsilon must be positive")
    if args.n < 1:  # the block and planar rows would clamp it
        raise InputError("n must be >= 1")
    # every row's document is made before the header, so no refusal follows it
    specs = [
        dict(demand=(0, 2), weight=(1, 4, 4), seed=seed) | entry.bench(args.n)
        for seed in args.seeds
    ]
    docs = [entry.make(argparse.Namespace(**spec)) for spec in specs]
    print("seed solver oracle ratio ms")
    for seed, doc in zip(args.seeds, docs):
        started = time.perf_counter()
        sol = _solve(args.klass, doc, args.epsilon)
        elapsed = (time.perf_counter() - started) * 1000
        try:
            reference = exact_gamma_m(doc.instance, budget=budget)
        except BudgetExceeded:  # beyond the oracle's budget: no reference
            rval = ratio = "-"
        else:
            rval = reference.value if reference.feasible else "inf"
            if not (sol.feasible and reference.feasible):
                ratio = "-"
            elif reference.value > 0:
                ratio = str(sol.value / reference.value)
            else:
                ratio = "1" if sol.value == reference.value else "inf"
        sval = sol.value if sol.feasible else "inf"
        print(f"{seed} {sval} {rval} {ratio} {elapsed:.1f}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parse puts its
    defaults and the `func` dispatch on a fresh namespace, never on the
    parser, so every `main` call shares this one."""
    parser = argparse.ArgumentParser(
        prog="edgemon",
        description="Weighted edge monitoring solvers and instance tooling.",
    )
    fraction = _spec(Fraction, "fraction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact class-specific solver")
    p_solve.add_argument(
        "--class", dest="klass", default=AUTO, choices=[*_classes_with("exact"), AUTO]
    )
    p_solve.add_argument("--in", dest="infile", default=None)
    p_solve.set_defaults(func=_cmd_solve, epsilon=None)

    p_approx = sub.add_parser("approx", help="approximation schemes")
    p_approx.add_argument(
        "--class", dest="klass", required=True, choices=_classes_with("scheme")
    )
    p_approx.add_argument("--epsilon", required=True, type=fraction)
    p_approx.add_argument("--in", dest="infile", default=None)
    p_approx.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact branch-and-bound baseline")
    p_oracle.add_argument("--in", dest="infile", default=None)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="check a vertex-set certificate")
    p_verify.add_argument("--solution", required=True)
    p_verify.add_argument("--in", dest="infile", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="emit a seeded instance")
    p_gen.add_argument("--class", dest="klass", required=True, choices=list(CLASSES))
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--demand", default="1", type=_spec(_parse_demand_spec, "demand spec"),
        help="constant or lo..hi",
    )
    p_gen.add_argument(
        "--weight", default="1", type=_spec(_parse_weight_spec, "weight spec"),
        help="constant, or lo..hi:denominator",
    )
    p_gen.add_argument(
        "--blocks", default="3,3", help="block sizes, comma separated",
        type=_spec(_parse_block_sizes, "block sizes"),
    )
    p_gen.add_argument("--unit-lengths", action="store_true")
    p_gen.add_argument("--clique", type=int, default=4)
    p_gen.add_argument("--independent", type=int, default=3)
    p_gen.add_argument("--edge-prob", default="1/2", type=fraction)
    p_gen.add_argument("--min-degree", type=int, default=None)
    p_gen.add_argument("--rows", type=int, default=3)
    p_gen.add_argument("--cols", type=int, default=3)
    p_gen.add_argument("--triangulate", action="store_true")
    p_gen.add_argument("--box", type=int, default=10)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_red = sub.add_parser("reduce", help="emit a hardness-construction image")
    p_red.add_argument("--kind", required=True, choices=list(REDUCTIONS))
    p_red.add_argument("--k", type=int, default=2)
    p_red.add_argument("--chain", type=int, default=1)
    p_red.add_argument("--in", dest="infile", default=None)
    p_red.add_argument("--out", default=None)
    p_red.set_defaults(func=_cmd_reduce)

    p_bench = sub.add_parser("bench", help="solver vs oracle over seed range")
    p_bench.add_argument(
        "--class", dest="klass", required=True, choices=_classes_with("bench")
    )
    p_bench.add_argument(
        "--seeds", default="0..9", help="inclusive range a..b",
        type=_spec(_parse_seed_range, "seed range"),
    )
    p_bench.add_argument("--n", type=int, default=10)
    p_bench.add_argument("--epsilon", default=None, type=fraction)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
