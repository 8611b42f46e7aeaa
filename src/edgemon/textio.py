"""The line-oriented instance text format.

    # free comment lines
    p em <n> <m>
    v <id> <weight>          one per vertex, weight as num or num/den
    e <u> <v> <demand>       one per edge
    i <id> <a> <b>           optional interval realization, all vertices
    t <cotree-expression>    optional cotree certificate

Ids are 0-based.  Parsing takes time linear in the file size and reports
the offending line number; emission is canonical (comments, then p, v, e,
i, t with sorted ids), so a parsed canonical file re-emits byte-identically.
Each distinct weight token is parsed once per file and its `Fraction`
reused (files repeat a few weights over many vertices), and so is each
distinct vertex id or demand token of the `v` and `e` lines (each id
recurs on every edge at its vertex, and demands take a few values).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cographs import Cotree
from .core import Edge, Graph, Instance, InputError, ParseError
from .intervals import IntervalRealization


@dataclass(frozen=True)
class InstanceDocument:
    """A parsed instance file: the instance plus optional certificates and
    the comment lines that belong to it."""

    instance: Instance
    realization: IntervalRealization | None = None
    cotree: Cotree | None = None
    comments: tuple[str, ...] = ()


def _parse_weight(token: str, line_no: int) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            w = Fraction(int(num), int(den))
        else:
            w = Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"bad weight {token!r}") from None
    if w < 0:
        raise ParseError(line_no, f"negative weight {token!r}")
    return w


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"bad {what} {token!r}") from None


def text_lines(text: str) -> list[str]:
    """The lines of `text`, ended only at \\n, \\r\\n and \\r, the line ends
    that universal newlines reads; `str.splitlines` would also end a line
    inside a comment at \\x0b, \\x0c, \\x1c-\\x1e, \\x85, U+2028 or U+2029."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_instance_text(text: str) -> InstanceDocument:
    n = m = None
    comments: list[str] = []
    weights: dict[int, Fraction] = {}
    parsed_weights: dict[str, Fraction] = {}  # weight token -> its value
    ints: dict[str, int] = {}  # id or demand token -> its value
    demand: dict[Edge, int] = {}
    interval_rows: dict[int, tuple[int, int]] = {}
    cotree_text: str | None = None
    # the lines whole-file checks name: the p line, the first i line, the t line
    p_line = interval_line = cotree_line = 0

    for line_no, raw in enumerate(text_lines(text), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag[0] == "#":
            comments.append(raw.strip())
            continue
        # edge lines first, as most lines are; one before the problem line
        # falls through to the "must come first" error below
        if tag == "e" and n is not None:
            if len(parts) != 4:
                raise ParseError(line_no, "expected 'e <u> <v> <c>'")
            try:
                u, v, c = ints[parts[1]], ints[parts[2]], ints[parts[3]]
            except KeyError:  # a new token: convert each, naming the first bad one
                u = ints[parts[1]] = _int(parts[1], line_no, "vertex id")
                v = ints[parts[2]] = _int(parts[2], line_no, "vertex id")
                c = ints[parts[3]] = _int(parts[3], line_no, "demand")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(line_no, f"edge ({u}, {v}) out of range")
            if u == v:
                raise ParseError(line_no, f"loop edge at {u}")
            if c < 0:
                raise ParseError(line_no, "demands must be non-negative")
            e = (u, v) if u < v else (v, u)
            if e in demand:
                raise ParseError(line_no, f"duplicate edge {e}")
            demand[e] = c
        elif tag == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "em":
                raise ParseError(line_no, "expected 'p em <n> <m>'")
            p_line = line_no
            n = _int(parts[2], line_no, "vertex count")
            m = _int(parts[3], line_no, "edge count")
            if n < 0 or m < 0:
                raise ParseError(line_no, "counts must be non-negative")
        elif n is None:
            raise ParseError(line_no, "problem line must come first")
        elif tag == "v":
            if len(parts) != 3:
                raise ParseError(line_no, "expected 'v <id> <weight>'")
            # a vertex has one v line, so its id is new here: kept for the e lines
            vid = ints[parts[1]] = _int(parts[1], line_no, "vertex id")
            if not 0 <= vid < n:
                raise ParseError(line_no, f"vertex id {vid} out of range")
            if vid in weights:
                raise ParseError(line_no, f"duplicate weight for vertex {vid}")
            token = parts[2]
            w = parsed_weights.get(token)
            if w is None:
                w = parsed_weights[token] = _parse_weight(token, line_no)
            weights[vid] = w
        elif tag == "i":
            if len(parts) != 4:
                raise ParseError(line_no, "expected 'i <id> <a> <b>'")
            vid = _int(parts[1], line_no, "vertex id")
            a = _int(parts[2], line_no, "endpoint")
            b = _int(parts[3], line_no, "endpoint")
            if not 0 <= vid < n:
                raise ParseError(line_no, f"vertex id {vid} out of range")
            if vid in interval_rows:
                raise ParseError(line_no, f"duplicate interval for vertex {vid}")
            if a > b:
                raise ParseError(line_no, f"reversed interval [{a}, {b}]")
            interval_rows[vid] = (a, b)
            interval_line = interval_line or line_no
        elif tag == "t":
            if cotree_text is not None:
                raise ParseError(line_no, "duplicate cotree line")
            cotree_text, cotree_line = raw.strip()[1:].strip(), line_no
            if not cotree_text:
                raise ParseError(line_no, "empty cotree expression")
        else:
            raise ParseError(line_no, f"unknown directive {tag!r}")

    if n is None:
        raise ParseError(1, "missing problem line 'p em <n> <m>'")
    if len(demand) != m:
        raise ParseError(p_line, f"problem line promises {m} edges, found {len(demand)}")
    # the keys of `demand` are already distinct, normalized and in range
    graph = Graph._build(n, demand.keys())
    one = Fraction(1)
    instance = Instance(
        graph,
        tuple(demand[e] for e in graph.edges),
        tuple(weights.get(v, one) for v in range(n)),
    )

    realization = None
    if interval_rows:
        missing = [v for v in range(n) if v not in interval_rows]
        if missing:
            raise ParseError(
                interval_line,
                f"interval lines must cover every vertex (missing {missing})",
            )
        realization = IntervalRealization(
            tuple(interval_rows[v] for v in range(n))
        )

    cotree = None
    if cotree_text is not None:
        try:
            cotree = Cotree.from_expr(cotree_text)
        except InputError as exc:
            raise ParseError(cotree_line, str(exc)) from None
        if sorted(cotree.leaves()) != list(range(n)):
            raise ParseError(cotree_line, "cotree leaves must be exactly 0..n-1")

    return InstanceDocument(
        instance=instance,
        realization=realization,
        cotree=cotree,
        comments=tuple(comments),
    )


def format_instance_text(doc: InstanceDocument) -> str:
    inst = doc.instance
    g = inst.graph
    lines = list(doc.comments)
    lines.append(f"p em {g.n} {g.m}")
    for v in range(g.n):
        lines.append(f"v {v} {inst.weights[v]}")
    for (u, v), c in zip(g.edges, inst.demands):
        lines.append(f"e {u} {v} {c}")
    if doc.realization is not None:
        for v, (a, b) in enumerate(doc.realization.intervals):
            lines.append(f"i {v} {a} {b}")
    if doc.cotree is not None:
        lines.append(f"t {doc.cotree.to_expr()}")
    return "\n".join(lines) + "\n"
