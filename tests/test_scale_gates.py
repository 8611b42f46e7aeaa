"""Scale gates: large or deep inputs, each run in a fresh process under a bound.

Each row of `GATES` states one gate once: how its input files are made,
the command line run on them (after the interpreter), the environment it
adds, its bound, and the lines its output must hold.  The runner starts
the command in a fresh process and kills it at its time bound, so the
time includes interpreter start-up and imports, as `timeout N` does.  A
memory bound is checked against the command's own peak RSS, which a
small launcher process reads with `os.wait4`.  Every `set` line a
command prints goes through `edgemon verify` against the input.  A new
gate is one more row.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from edgemon.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
CLI = ("-m", "edgemon.cli")


def generate(*args: str) -> Callable[[Path, Path], None]:
    """An input written by `edgemon generate` with these arguments."""

    def make(instance: Path, solution: Path) -> None:
        assert main(["generate", *args, "--out", str(instance)]) == 0

    return make


def triangles(t: int, weights: tuple[str, ...] = ()) -> Callable[[Path, Path], None]:
    """t disjoint unit-demand triangles; vertex v weighs weights[v % 3]
    when weights are given, and the solution file then names every vertex."""

    def make(instance: Path, solution: Path) -> None:
        lines = [f"p em {3 * t} {3 * t}"]
        lines += [f"v {v} {weights[v % 3]}" for v in range(3 * t) if weights]
        for v in range(0, 3 * t, 3):
            lines += [f"e {v} {v + 1} 1", f"e {v + 1} {v + 2} 1", f"e {v} {v + 2} 1"]
        instance.write_text("\n".join(lines) + "\n")
        if weights:
            solution.write_text("set" + "".join(f" {v}" for v in range(3 * t)) + "\n")

    return make


# A cotree spine of 20,001 leaves: union nodes down to a join of the last
# three vertices, so the graph is one triangle and isolated vertices.  The
# tree is built in the child, since `Cotree.from_expr` still recurses per
# level (ROADMAP item 3).
SPINE_LEAVES = 20001
SPINE = f"""
from edgemon import Cotree, Instance, solve_cograph
n = {SPINE_LEAVES}
a, b, c = n - 3, n - 2, n - 1
tree = Cotree.node("join", [Cotree.leaf(b), Cotree.leaf(c)])
tree = Cotree.node("join", [Cotree.leaf(a), tree])
for v in reversed(range(a)):
    tree = Cotree.node("union", [Cotree.leaf(v), tree])
sol = solve_cograph(Instance.make(tree.realize(n)), tree)
print(f"value {{sol.value}}")
print("set" + "".join(f" {{v}}" for v in sol.vertices))
"""


def spine(instance: Path, solution: Path) -> None:
    """The spine's graph with unit demands, as `Instance.make` gives it."""
    a, b, c = range(SPINE_LEAVES - 3, SPINE_LEAVES)
    instance.write_text(f"p em {SPINE_LEAVES} 3\ne {a} {b} 1\ne {a} {c} 1\ne {b} {c} 1\n")


@dataclass(frozen=True)
class Gate:
    make: Callable[[Path, Path], None]  # writes the instance and solution files
    argv: tuple[str, ...]  # after the interpreter; "{in}" and "{sol}" name the files
    expect: tuple[str, ...] = ()  # lines the output must hold
    seconds: float | None = None  # wall-time bound, start-up included
    mb: int | None = None  # peak-RSS bound of the child process
    env: dict[str, str] = field(default_factory=dict)


GATES = {
    "interval-n60-rss": Gate(
        generate("--class", "interval", "--n", "60", "--demand", "0..2", "--seed", "0"),
        (*CLI, "solve", "--in", "{in}"), mb=150,
    ),
    "interval-n100": Gate(
        generate("--class", "interval", "--n", "100", "--demand", "0..2", "--seed", "0"),
        (*CLI, "solve", "--in", "{in}"), ("value 4",), seconds=20,
    ),
    "interval-n130": Gate(
        generate("--class", "interval", "--n", "130", "--demand", "0..3",
                 "--weight", "1..4", "--seed", "1"),
        (*CLI, "solve", "--in", "{in}"), ("value 9",), seconds=8,
    ),
    "interval-n150": Gate(
        generate("--class", "interval", "--n", "150", "--demand", "0..3",
                 "--weight", "1..4", "--seed", "1"),
        (*CLI, "solve", "--in", "{in}"), ("value 11",), seconds=5,
    ),
    "planar-8000-triangles": Gate(
        triangles(8000),
        (*CLI, "approx", "--class", "planar", "--epsilon", "1", "--in", "{in}"), seconds=30,
    ),
    "planar-grid10": Gate(
        generate("--class", "planar", "--rows", "10", "--cols", "10", "--triangulate"),
        (*CLI, "approx", "--class", "planar", "--epsilon", "1", "--in", "{in}"),
        ("value 70",), seconds=20, env={"EM_BUDGET_VERTICES": "80"},
    ),
    "oracle-600-triangles": Gate(
        triangles(600),
        (*CLI, "oracle", "--in", "{in}"),
        ("value 1800",), seconds=20, env={"EM_BUDGET_VERTICES": "5000"},
    ),
    "verify-100002-edges": Gate(
        triangles(33334, weights=("5/4", "3/4", "1/4")),
        (*CLI, "verify", "--solution", "{sol}", "--in", "{in}"),
        ("verified true",), seconds=30,
    ),
    "complete-n450": Gate(
        generate("--class", "complete", "--n", "450", "--demand", "0..2", "--seed", "1"),
        (*CLI, "solve", "--in", "{in}"), ("value 3",), seconds=20,
    ),
    "block-60-40-30": Gate(
        generate("--class", "block", "--blocks", "60,40,30", "--demand", "0..3", "--seed", "1"),
        (*CLI, "solve", "--in", "{in}"), ("value 10",), seconds=20,
    ),
    "cograph-spine-20001": Gate(
        spine, ("-c", SPINE), ("value 3", "set 19998 19999 20000"), seconds=20,
    ),
}


# Runs argv[2:] in a child forked from this small process, writes the
# child's peak RSS in KiB to argv[1] and exits with its exit code.  Linux
# counts the memory of the process that execs a command in that command's
# peak RSS, so a command started from pytest would carry pytest's.
LAUNCH = """
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
open(sys.argv[1], "w").write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run(gate: Gate, tmp: Path) -> tuple[int, float]:
    """Run the gate's command on tmp/in.em and tmp/in.sol, with its output
    in tmp/out and tmp/err and its peak RSS in KiB in tmp/rss; returns the
    exit code and the wall time in seconds.  The command is killed once it
    outlives its time bound."""
    files = {"{in}": str(tmp / "in.em"), "{sol}": str(tmp / "in.sol")}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **gate.env}
    launch = [sys.executable, "-c", LAUNCH, str(tmp / "rss"), sys.executable]
    with open(tmp / "out", "w") as stdout, open(tmp / "err", "w") as stderr:
        start = time.monotonic()
        child = subprocess.Popen(
            launch + [files.get(a, a) for a in gate.argv],
            stdout=stdout, stderr=stderr, env=env, start_new_session=True,
        )
        try:
            child.wait(gate.seconds)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    return child.returncode, time.monotonic() - start


@pytest.mark.parametrize("name", GATES)
def test_gate(name, tmp_path, capsys):
    gate = GATES[name]
    gate.make(tmp_path / "in.em", tmp_path / "in.sol")
    code, seconds = run(gate, tmp_path)
    if gate.seconds is not None:
        assert seconds < gate.seconds, f"{name}: {seconds:.2f} s, not under {gate.seconds} s"
    assert code == 0, (tmp_path / "err").read_text()
    if gate.mb is not None:
        mb = int((tmp_path / "rss").read_text()) // 1024  # KiB on Linux
        assert mb < gate.mb, f"{name}: peak RSS {mb} MB, not under {gate.mb} MB"
    lines = (tmp_path / "out").read_text().splitlines()
    assert all(line in lines for line in gate.expect), lines
    if any(line.startswith("set") for line in lines):
        solution, instance = str(tmp_path / "out"), str(tmp_path / "in.em")
        verdict = main(["verify", "--solution", solution, "--in", instance])
        assert (verdict, capsys.readouterr().out) == (0, "verified true\n")
