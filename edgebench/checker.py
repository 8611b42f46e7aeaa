"""Answer checking that does not rely on edgemon's own checkers.

Monitor counts and witness weights are recomputed from the generated edge
lists with exact `Fraction`s, and answers are compared with the statuses,
values, exit codes and (for `oracle`) lexicographically smallest witnesses
pinned in `pins.json`.  `approx` answers must lie in
`[optimum, (k+2)/k * optimum]`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

# Why an operation failed; `None` means it matched its pinned answer.
REASONS = ("traceback", "exit2", "exit3", "wrong", "infeasible_witness", "unstable")


@dataclass(frozen=True)
class Outcome:
    """What one command line call produced."""

    exit: int | None
    stdout: str
    error: str | None  # exception type when `cli.main` raised


class Reference:
    """An independent view of one generated instance."""

    def __init__(self, edges, demands, weights):
        self.n = len(weights)
        self.weights = [Fraction(w) for w in weights]
        self.edges = [(u, v, int(c)) for (u, v), c in zip(edges, demands)]
        self.adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v, _ in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    @staticmethod
    def of(inst) -> "Reference":
        return Reference(inst.graph.edges, inst.demands, inst.weights)

    def weight(self, vertices) -> Fraction:
        return sum((self.weights[v] for v in vertices), Fraction(0))

    def shortfalls(self, vertices) -> list[tuple[int, int, int, int]]:
        """Edges with fewer chosen monitors than demanded: (u, v, need, have)."""
        chosen = set(vertices)
        out = []
        for u, v, c in self.edges:
            have = len(self.adj[u] & self.adj[v] & chosen)
            if have < c:
                out.append((u, v, c, have))
        return out

    def optimum(self, max_component: int = 14) -> Fraction | None:
        """Exact optimum by exhaustive search inside each connected
        component; None when infeasible.  Only for small components."""
        seen: set[int] = set()
        total = Fraction(0)
        for start in range(self.n):
            if start in seen:
                continue
            comp, stack = [], [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in self.adj[x] - seen:
                    seen.add(y)
                    stack.append(y)
            if len(comp) == 1:
                continue
            if len(comp) > max_component:
                raise ValueError(f"component of {len(comp)} vertices is too large")
            best = None
            for size in range(len(comp) + 1):
                for chosen in combinations(sorted(comp), size):
                    w = self.weight(chosen)
                    if (best is None or w < best) and not self.shortfalls(chosen):
                        best = w
            if best is None:
                return None
            total += best
        return total


def parse_answer(stdout: str) -> tuple[str, Fraction | None, tuple[int, ...]]:
    """(status, value, vertices) from `status`/`value`/`set` lines."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("status "):
        raise ValueError("missing status line")
    status = lines[0].split()[1]
    if status == "infeasible":
        if len(lines) != 1:
            raise ValueError("infeasible answer with extra lines")
        return status, None, ()
    if status != "feasible" or len(lines) != 3:
        raise ValueError("malformed feasible answer")
    if not lines[1].startswith("value ") or lines[2].split()[:1] != ["set"]:
        raise ValueError("malformed value or set line")
    value = Fraction(lines[1].split()[1])
    vertices = tuple(int(t) for t in lines[2].split()[1:])
    return status, value, vertices


def classify(kind: str, expect: dict, ref: Reference, outcome: Outcome) -> str | None:
    """The reason `outcome` fails its pinned answer, or None if it passes."""
    if outcome.error is not None:
        return "traceback"
    if outcome.exit == 3:
        return "exit3"
    if outcome.exit == 2:
        return "exit2"
    if outcome.exit != expect["exit"]:
        return "wrong"
    if kind == "verify":
        return None if outcome.stdout.splitlines() == [expect["verdict"]] else "wrong"
    try:
        status, value, vertices = parse_answer(outcome.stdout)
    except ValueError:
        return "wrong"
    if status != expect["status"]:
        return "wrong"
    if status == "infeasible":
        return None
    if any(not 0 <= v < ref.n for v in vertices) or ref.shortfalls(vertices):
        return "infeasible_witness"
    if ref.weight(vertices) != value:
        return "wrong"
    if kind.startswith("approx"):
        optimum = Fraction(expect["optimum"])
        ratio = Fraction(expect["ratio"])
        return None if optimum <= value <= ratio * optimum else "wrong"
    if value != Fraction(expect["value"]):
        return "wrong"
    if "set" in expect and list(vertices) != expect["set"]:
        return "wrong"
    return None
