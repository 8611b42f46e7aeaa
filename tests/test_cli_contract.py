"""The command-line contract, swept in-process over `cli.CLASSES`.

Every class with a generator gets 20 seeded files small enough for the
oracle.  Each file goes through `oracle`, `solve` (auto), `solve --class`
(when the class has an exact solver) and `approx --epsilon 1` (when it
has a scheme); an interval file goes through them again without its `i`
lines.  Every run exits 0, 1, 2 or 3 without an exception, exact answers
equal the oracle's, approximate ones lie within twice the optimum, and
`verify` accepts every printed set.  A run that exits 2 or 3 must be one
of the pinned refusals below, counted per class, so a change that closes
a gap fails the sweep until its count is pinned again.  Three degenerate
files go through the same commands, and each answer must be the oracle's.
Each `reduce` image is solved and verified, and its optimum must stand in
the relation its header states to the source's optimum, which the
references in `tests/bruteforce.py` compute.
"""

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import bruteforce as bf
from edgemon import cli, parse_instance_text
from edgemon.cli import main

# `generate` arguments by seed parity; each class reads only its options.
SPECS = ((), ("--n", "12", "--weight", "1..4:4", "--triangulate", "--box", "5"))
# Files that earlier one-off CI steps checked, beyond the seeded ones.
EXTRA_FILES = {
    "block": [("--blocks", "4,5,4", "--demand", "1")],
    "interval": [("--n", "14", "--demand", "0..2", "--seed", "1")],
    "cograph": [("--n", "18", "--demand", "1", "--seed", "3")],
}
AUTO_FAILED = "error: auto-detection failed (not a block graph"
# (class, command, exit code, start of stderr) -> number of files.
REFUSALS = {
    # Gaps: auto tries no split, planar or unit-disk solver, and neither
    # auto nor the interval solver reads an interval file without 'i' lines
    # (ROADMAP items 3 and 15).
    ("split", "solve", 2, AUTO_FAILED): 18,
    ("planar", "solve", 2, AUTO_FAILED): 20,
    ("unitdisk", "solve", 2, AUTO_FAILED): 10,
    ("interval", "solve", 2, AUTO_FAILED): 21,
    ("interval", "solve --class interval", 2, "error: interval solver needs"): 21,
    # Documented: the split solver takes unit weights only.
    ("split", "solve --class split", 2, "error: split solver handles unit"): 10,
}


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code, err)
    return code, out, err


def _value(path, code, out):
    """The value an answer prints, which must be the weight of the set it
    prints, or None for `status infeasible`."""
    if code == 1:
        assert out == "status infeasible\n"
        return None
    status, value, chosen = out.splitlines()
    assert status == "status feasible" and value.startswith("value ")
    assert chosen.split()[0] == "set"
    weights = parse_instance_text(path.read_text()).instance.weights
    value = Fraction(value.removeprefix("value "))
    assert value == sum(weights[int(v)] for v in chosen.split()[1:])
    return value


def _verify(capsys, path, answer):
    if answer.startswith("status feasible"):
        solution = path.with_suffix(".sol")
        solution.write_text(answer)
        verdict = _run(capsys, "verify", "--solution", solution, "--in", path)
        assert verdict[:2] == (0, "verified true\n")


def _refusal(klass, command, code, err):
    """The pinned refusal that a run exiting 2 or 3 matches, or the run."""
    for key in REFUSALS:
        if key[:3] == (klass, command, code) and err.startswith(key[3]):
            return key
    return (klass, command, code, err)


def _files(klass, tmp_path, capsys):
    specs = [("--seed", seed, *SPECS[seed % 2]) for seed in range(20)]
    for number, spec in enumerate(specs + EXTRA_FILES.get(klass, [])):
        path = tmp_path / f"{number}.em"
        code, _, err = _run(capsys, "generate", "--class", klass, *spec, "--out", path)
        assert code == 0, err
        yield path
        lines = path.read_text().splitlines(True)
        if any(line.startswith("i ") for line in lines):
            bare = tmp_path / f"{number}-bare.em"
            bare.write_text("".join(ln for ln in lines if not ln.startswith("i ")))
            yield bare


@pytest.mark.parametrize("klass", [k for k, c in cli.CLASSES.items() if c.make])
def test_every_answer_matches_the_oracle_and_verifies(klass, tmp_path, capsys):
    record = cli.CLASSES[klass]
    commands = ["solve"]
    commands += [f"solve --class {klass}"] * (record.exact is not None)
    commands += [f"approx --class {klass} --epsilon 1"] * (record.scheme is not None)
    refused = Counter()
    for path in _files(klass, tmp_path, capsys):
        code, out, _ = _run(capsys, "oracle", "--in", path)
        optimum = _value(path, code, out)
        _verify(capsys, path, out)
        for command in commands:
            code, out, err = _run(capsys, *command.split(), "--in", path)
            if code in (2, 3):
                refused[_refusal(klass, command, code, err)] += 1
                continue
            value = _value(path, code, out)
            if command.startswith("approx") and optimum is not None:
                assert optimum <= value <= 2 * optimum, (path, command)
            else:
                assert value == optimum, (path, command)
            _verify(capsys, path, out)
    assert refused == {key: n for key, n in REFUSALS.items() if key[0] == klass}


# Files at the edge of the format: no vertex, no edge, and an edge that
# no vertex can monitor.
DEGENERATE = ("p em 0 0\n", "p em 1 0\n", "p em 2 1\ne 0 1 1\n")
# Every command that solves a file; a degenerate file may meet only the
# documented refusals, keyed by command.
COMMANDS = (
    ["solve"]
    + [f"solve --class {k}" for k, c in cli.CLASSES.items() if c.exact]
    + [f"approx --class {k} --epsilon 1" for k, c in cli.CLASSES.items() if c.scheme]
)
DEGENERATE_REFUSALS = {"solve --class interval": "error: interval solver needs"}


@pytest.mark.parametrize("command", COMMANDS)
def test_degenerate_files_get_the_oracle_answer(command, tmp_path, capsys):
    path = tmp_path / "tiny.em"
    for text in DEGENERATE:
        path.write_text(text)
        expected = _run(capsys, "oracle", "--in", path)
        assert expected[0] in (0, 1), (text, expected)
        code, out, err = _run(capsys, *command.split(), "--in", path)
        if code == 2 and command in DEGENERATE_REFUSALS:
            assert err.startswith(DEGENERATE_REFUSALS[command]), (text, err)
            continue
        assert (code, out, err) == expected, text
        _verify(capsys, path, out)


# Sources of `reduce`: planar grids, as `generate` arguments, and two
# literal files with no edge.
SOURCES = {
    "path": ("--rows", "1", "--cols", "3"),
    "grid": ("--rows", "3", "--cols", "3"),
    "triangulated": ("--rows", "3", "--cols", "3", "--triangulate"),
    "no vertex": "p em 0 0\n",
    "one vertex": "p em 1 0\n",
}
REDUCE_REFUSALS = {
    ("tds", "one vertex"): "error: source graph must have no isolated vertices",
    ("is", "no vertex"): "error: source graph must be connected",
    ("is", "one vertex"): "error: source graph must have an edge when k >= 2",
    ("comparability", "triangulated"): "error: source graph must be bipartite",
    ("comparability", "no vertex"): "error: source graph must have an edge",
    ("comparability", "one vertex"): "error: source graph must have no isolated vertices",
    ("udg", "grid"): "error: source graph must have maximum degree 3",
    ("udg", "triangulated"): "error: source graph must have maximum degree 3",
}
# The relation each kind's header states, as the image's optimum (None
# when infeasible) against the moved references on the source graph g,
# under `reduce`'s defaults --k 2 and --chain 1.
RELATIONS = {
    "tds": lambda g, value: value == bf.exact_gamma_t(g).value + 3,
    "is": lambda g, value: (
        (value is not None and value <= 2) == bf.exists_independent_set(g, 2)[0]
    ),
    "comparability": lambda g, value: value == bf.exact_gamma_t(g).value + 1,
    "udg": lambda g, value: value == bf.exact_vertex_cover(g).value + 7 * g.m,
}


@pytest.mark.parametrize("source", list(SOURCES))
@pytest.mark.parametrize("kind", list(cli.REDUCTIONS))
def test_every_reduction_image_is_solved_and_verified(
    kind, source, tmp_path, capsys
):
    src, image = tmp_path / "source.em", tmp_path / "image.em"
    if isinstance(SOURCES[source], str):
        src.write_text(SOURCES[source])
    else:
        _run(capsys, "generate", "--class", "planar", *SOURCES[source], "--out", src)
    code, _, err = _run(capsys, "reduce", "--kind", kind, "--in", src, "--out", image)
    if (kind, source) in REDUCE_REFUSALS:
        assert code == 2 and err.startswith(REDUCE_REFUSALS[kind, source])
        return
    assert code == 0, err
    code, out, _ = _run(capsys, "oracle", "--in", image)
    value = _value(image, code, out)
    _verify(capsys, image, out)
    g = parse_instance_text(src.read_text()).instance.graph
    assert RELATIONS[kind](g, value)


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no check in the package may be one
    package = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
