"""Instance text round-trips and command-line behavior."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

from edgemon import (
    Instance,
    InstanceDocument,
    ParseError,
    format_instance_text,
    gen_block_graph,
    gen_cograph,
    gen_complete,
    gen_interval,
    gen_planar,
    gen_split,
    gen_unit_disk,
    parse_instance_text,
)
import edgemon.cli
from edgemon.cli import build_parser, main


SAMPLE = """\
# demo instance
p em 3 3
v 0 1
v 1 3/2
v 2 1
e 0 1 1
e 0 2 0
e 1 2 2
"""
# `str.splitlines` also ends a line at each of these; universal newlines,
# and so a file read by the CLI, does not
LINE_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestParse:
    def test_sample(self):
        doc = parse_instance_text(SAMPLE)
        inst = doc.instance
        assert inst.graph.n == 3 and inst.graph.m == 3
        assert inst.weights[1] == Fraction(3, 2)
        assert inst.demand(1, 2) == 2
        assert doc.comments == ("# demo instance",)

    def test_default_weights(self):
        doc = parse_instance_text("p em 2 1\ne 0 1 0\n")
        assert doc.instance.weights == (1, 1)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("e 0 1 1\n", 1),
            ("p em 2 1\np em 2 1\n", 2),
            ("p em 2 1\ne 0 1 1\ne 0 1 2\n", 3),
            ("p em 2 1\ne 0 2 1\n", 2),
            ("p em 2 1\ne 0 0 1\n", 2),
            ("p em 2 1\nv 0 -3\ne 0 1 1\n", 2),
            ("p em 2 1\nv 0 1/0\ne 0 1 1\n", 2),
            ("p em 2 2\ne 0 1 1\n", 1),
            ("p em 2 1\nq 0 1\n", 2),
            ("p em 2 1\ni 0 0 5\ne 0 1 1\n", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_instance_text(text)
        assert err.value.line_no == line

    @pytest.mark.parametrize(
        "text,message",
        [
            ('e 0 1 1\n', 'line 1: problem line must come first'),
            ('p em 2 1\np em 2 1\n', 'line 2: duplicate problem line'),
            ('p em 2 1\ne 0 1 1\ne 0 1 2\n', 'line 3: duplicate edge (0, 1)'),
            ('p em 2 1\ne 0 2 1\n', 'line 2: edge (0, 2) out of range'),
            ('p em 2 1\ne 0 0 1\n', 'line 2: loop edge at 0'),
            ('p em 2 1\nv 0 -3\ne 0 1 1\n', "line 2: negative weight '-3'"),
            ('p em 2 1\nv 0 1/0\ne 0 1 1\n', "line 2: bad weight '1/0'"),
            ('p em 2 2\ne 0 1 1\n', 'line 1: problem line promises 2 edges, found 1'),
            # whole-file checks name the p line and the first i line
            (
                '# c\n# d\np em 2 2\ne 0 1 1\n',
                'line 3: problem line promises 2 edges, found 1',
            ),
            ('p em 2 1\nq 0 1\n', "line 2: unknown directive 'q'"),
            (
                'p em 2 1\ni 0 0 5\ne 0 1 1\n',
                'line 2: interval lines must cover every vertex (missing [1])',
            ),
            ('p em 2 1\ne x 1 1\n', "line 2: bad vertex id 'x'"),
            ('p em 2 1\ne 0 x 1\n', "line 2: bad vertex id 'x'"),
            ('p em 2 1\ne 0 1 x\n', "line 2: bad demand 'x'"),
            ('p em 2 1\ne x 1 y\n', "line 2: bad vertex id 'x'"),
            ('p em 2 1\ne 0 1\n', "line 2: expected 'e <u> <v> <c>'"),
            ('p em 2 1\ne 0 1 1 1\n', "line 2: expected 'e <u> <v> <c>'"),
            ('p em 2 1\ne 0 1 -1\n', 'line 2: demands must be non-negative'),
            ('p em 2 1\nv 0 x\ne 0 1 1\n', "line 2: bad weight 'x'"),
            ('p em 2 1\nv 0 1/x\ne 0 1 1\n', "line 2: bad weight '1/x'"),
            ('p em 2 1\nv 0 -1/2\ne 0 1 1\n', "line 2: negative weight '-1/2'"),
            ('p em 2 1\nv 0 3/-2\ne 0 1 1\n', "line 2: negative weight '3/-2'"),
            (
                'p em 2 1\nv 0 1/2\nv 1 1/2\nv 0 1/2\ne 0 1 1\n',
                'line 4: duplicate weight for vertex 0',
            ),
            ('p em 2 1\nv 0 1 1\ne 0 1 1\n', "line 2: expected 'v <id> <weight>'"),
            ('p em 2 1\nv x 1\ne 0 1 1\n', "line 2: bad vertex id 'x'"),
            ('p em 2 1\nv 2 1\ne 0 1 1\n', 'line 2: vertex id 2 out of range'),
            ('p em 2 1\nv 0 1\nv 1 -1\ne 0 1 1\n', "line 3: negative weight '-1'"),
            (
                'p em 2 1\nv 0 1/2\nv 1 -1/2\ne 0 1 1\n',
                "line 3: negative weight '-1/2'",
            ),
            ('p em x 1\n', "line 1: bad vertex count 'x'"),
            ('p em 2 y\n', "line 1: bad edge count 'y'"),
            ('p em -1 0\n', 'line 1: counts must be non-negative'),
            ('p xx 2 1\n', "line 1: expected 'p em <n> <m>'"),
            ('p em 2\n', "line 1: expected 'p em <n> <m>'"),
            ('   \n\n', "line 1: missing problem line 'p em <n> <m>'"),
            (
                'p em 2 1\ne 0 1 1\ni 0 0 5\n',
                'line 3: interval lines must cover every vertex (missing [1])',
            ),
            (
                'p em 2 1\ne 0 1 1\ni 0 5 0\ni 1 0 1\n',
                'line 3: reversed interval [5, 0]',
            ),
            (
                'p em 2 1\ne 0 1 1\ni 0 0 5\ni 0 0 5\n',
                'line 4: duplicate interval for vertex 0',
            ),
            ('p em 2 1\ne 0 1 1\ni 3 0 5\n', 'line 3: vertex id 3 out of range'),
            ('p em 2 1\ne 0 1 1\ni 0 a 5\n', "line 3: bad endpoint 'a'"),
            ('p em 2 1\ne 0 1 1\ni 0 0\n', "line 3: expected 'i <id> <a> <b>'"),
            (
                'p em 2 1\ne 0 1 0\nt (join (leaf 0) (leaf 1))\nt (leaf 0)\n',
                'line 4: duplicate cotree line',
            ),
            ('p em 2 1\ne 0 1 0\nt\n', 'line 3: empty cotree expression'),
            (
                'p em 2 1\ne 0 1 0\nt (leaf 0)\n',
                'line 3: cotree leaves must be exactly 0..n-1',
            ),
            # a malformed expression is reported at its t line
            (
                'p em 1 0\nt (leaf x)\n',
                'line 2: cotree expression: leaf needs a vertex id',
            ),
            (
                'p em 2 1\ne 0 1 0\nt (meet (leaf 0) (leaf 1))\n',
                "line 3: unknown cotree node kind 'meet'",
            ),
            (
                'p em 1 0\n# one child\nt (join (leaf 0))\n',
                'line 3: internal cotree nodes need at least two children',
            ),
            (
                'p em 1 0\nt (leaf 0) (leaf 1)\n',
                'line 2: cotree expression: trailing tokens',
            ),
            # one optional minus sign, then decimal digits
            ('p em 1 0\nt (leaf --0)\n', 'line 2: cotree expression: leaf needs a vertex id'),
            ('p em 1 0\nt (leaf \u00b2)\n', 'line 2: cotree expression: leaf needs a vertex id'),
            ('p em 2 1\ne 0 1 1\ne 1 0 1\n', 'line 3: duplicate edge (0, 1)'),
            # each token converted once: the checks still read the values
            # of tokens seen on earlier lines
            ('p em 3 2\ne 0 1 1\ne 1 2 x\n', "line 3: bad demand 'x'"),
            ('p em 3 2\ne 0 1 1\ne x 1 1\n', "line 3: bad vertex id 'x'"),
            ('p em 2 2\ne 0 1 2\ne 0 2 1\n', 'line 3: edge (0, 2) out of range'),
            ('p em 2 2\nv 1 1\ne 0 1 1\ne 1 1 0\n', 'line 4: loop edge at 1'),
            ('p em 3 2\ne 0 1 -1\n', 'line 2: demands must be non-negative'),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_instance_text(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("first,second", [("1 3", "3 1"), ("3 1", "1 3")])
    def test_duplicate_edge_in_either_orientation(self, first, second):
        text = f"p em 4 3\ne {first} 1\ne 0 1 1\ne {second} 2\n"
        with pytest.raises(ParseError) as err:
            parse_instance_text(text)
        assert err.value.line_no == 4
        assert "duplicate edge (1, 3)" in str(err.value)

    @pytest.mark.parametrize("sep", LINE_SEPARATORS)
    def test_comment_holding_a_line_separator_is_one_line(self, sep):
        text = f"# note{sep}more\np em 2 1\nv 0 1\nv 1 1\ne 0 1 0\n"
        doc = parse_instance_text(text)
        assert doc.comments == (f"# note{sep}more",)
        assert format_instance_text(doc) == text

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_keep_line_numbers(self, eol):
        lines = ["# note\u2028more", "p em 2 1", "", "e 0 1 1", "e 1 0 1"]
        with pytest.raises(ParseError) as err:
            parse_instance_text(eol.join(lines) + eol)
        assert str(err.value) == "line 5: duplicate edge (0, 1)"

    def test_interval_lines(self):
        text = "p em 2 1\ne 0 1 1\ni 0 0 5\ni 1 3 8\n"
        doc = parse_instance_text(text)
        assert doc.realization.intervals == ((0, 5), (3, 8))

    def test_cotree_line(self):
        text = "p em 2 1\ne 0 1 0\nt (join (leaf 0) (leaf 1))\n"
        doc = parse_instance_text(text)
        assert doc.cotree.kind == "join"


class TestRoundTrip:
    def test_canonical_reemission(self):
        doc = parse_instance_text(SAMPLE)
        out = format_instance_text(doc)
        assert parse_instance_text(out).instance == doc.instance
        assert format_instance_text(parse_instance_text(out)) == out

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_instances_round_trip(self, seed):
        inst = gen_complete(6, demand=(0, 2), weight=(1, 3, 4), seed=seed)
        text = format_instance_text(InstanceDocument(instance=inst))
        again = parse_instance_text(text)
        assert again.instance == inst
        assert format_instance_text(again) == text

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_complete(7, demand=(0, 3), weight=(1, 3, 4), seed=1),
            lambda: gen_block_graph(
                [3, 5, 2, 4], demand=(0, 2), weight=(0, 2, 3), seed=2
            ),
            lambda: gen_interval(9, demand=(0, 2), weight=(1, 4, 4), seed=3)[0],
            lambda: gen_cograph(9, weight=(1, 2, 5), seed=4)[0],
            lambda: gen_split(4, 5, demand=(0, 1), seed=5),
            lambda: gen_planar(3, 4, triangulate=True, demand=(0, 1), seed=6),
            lambda: gen_unit_disk(8, demand=(0, 1), weight=(1, 3, 4), seed=7)[0],
        ],
        ids=["complete", "block", "interval", "cograph", "split", "planar", "unitdisk"],
    )
    def test_parse_builds_instance_once(self, make, monkeypatch):
        inst = make()
        text = format_instance_text(InstanceDocument(instance=inst))
        made = Instance.make(inst.graph, demand=inst.demand_map(), weight=inst.weights)
        calls = []
        make_instance = Instance.make

        def counting(*args, **kwargs):
            calls.append(args)
            return make_instance(*args, **kwargs)

        monkeypatch.setattr(Instance, "make", staticmethod(counting))
        parsed = parse_instance_text(text).instance
        assert calls == []
        assert parsed == made
        assert [parsed.demand(*e) for e in parsed.graph.edges] == list(made.demands)

    def test_certificates_round_trip(self):
        inst, real = gen_interval(6, seed=2)
        doc = InstanceDocument(instance=inst, realization=real)
        text = format_instance_text(doc)
        back = parse_instance_text(text)
        assert back.realization == real
        cinst, tree = gen_cograph(5, seed=3)
        doc2 = InstanceDocument(instance=cinst, cotree=tree)
        assert parse_instance_text(format_instance_text(doc2)).cotree == tree


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_solve_complete_golden(self, capsys, tmp_path):
        code, out = self.run(
            capsys, "generate", "--class", "complete", "--n", "5",
            "--demand", "3", "--out", str(tmp_path / "k5.em"),
        )
        assert code == 0
        code, out = self.run(
            capsys, "solve", "--class", "complete", "--in", str(tmp_path / "k5.em")
        )
        assert code == 0
        assert "status feasible" in out and "value 5" in out

    def test_solve_auto_uses_certificates(self, capsys, tmp_path):
        inst, real = gen_interval(7, seed=4, demand=(0, 2))
        from edgemon import format_instance_text as fmt

        path = self.write(
            tmp_path, "iv.em", fmt(InstanceDocument(instance=inst, realization=real))
        )
        code, out = self.run(capsys, "solve", "--in", path)
        assert code in (0, 1)
        assert out.startswith("status ")

    def test_infeasible_exit_code(self, capsys, tmp_path):
        path = self.write(tmp_path, "p3.em", "p em 3 2\ne 0 1 1\ne 1 2 1\n")
        code, out = self.run(capsys, "oracle", "--in", path)
        assert code == 1 and "status infeasible" in out

    def test_usage_error_exit_code(self, capsys, tmp_path):
        path = self.write(tmp_path, "bad.em", "p em x y\n")
        code, _ = self.run(capsys, "oracle", "--in", path)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--solution", "{bad_sol}", "--in", "{k3}"],
            ["verify", "--solution", "{binary}", "--in", "{k3}"],
            ["solve", "--in", "{binary}"],
            ["generate", "--class", "block", "--demand", "x"],
            ["generate", "--class", "block", "--weight", "1..y"],
            ["generate", "--class", "block", "--blocks", "4,z"],
            ["generate", "--class", "split", "--edge-prob", "1/x"],
            ["approx", "--class", "complete", "--epsilon", "abc", "--in", "{k3}"],
            ["approx", "--class", "complete", "--epsilon", "1/0", "--in", "{k3}"],
            ["bench", "--class", "block", "--seeds", "3"],
            ["bench", "--class", "block", "--seeds", "3..1"],
            ["--threads", "2", "oracle", "--in", "{k3}"],
            [
                "generate", "--class", "split", "--clique", "3",
                "--independent", "3", "--min-degree", "9",
            ],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_malformed_input_is_a_usage_error(self, tmp_path, argv):
        k3 = "p em 3 3\ne 0 1 1\ne 0 2 1\ne 1 2 1\n"
        files = {
            "k3": self.write(tmp_path, "k3.em", k3),
            "bad_sol": self.write(tmp_path, "bad.sol", "status feasible\nset 0 x 2\n"),
            "binary": str(tmp_path / "binary.em"),
        }
        (tmp_path / "binary.em").write_bytes(b"p em 2 1\n\xff\xfe\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "edgemon.cli", *(a.format(**files) for a in argv)],
            capture_output=True, text=True, check=False, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr and "error:" in done.stderr
        if "{bad_sol}" in argv:  # the error names the line
            assert "line 2" in done.stderr

    def test_one_parser_serves_many_calls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at this width
        inst, real = gen_interval(8, demand=(0, 2), seed=2)
        path = self.write(
            tmp_path, "iv.em",
            format_instance_text(InstanceDocument(instance=inst, realization=real)),
        )
        calls = [
            ["generate", "--class", "block", "--blocks", "4,5", "--demand", "0..2"],
            ["generate", "--class", "block"],
            ["solve", "--class", "block", "--in", path],
            ["solve", "--in", path],
            ["solve", "--class", "tree", "--in", path],
            ["generate", "--class", "block", "--blocks", "4,5", "--demand", "0..2"],
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, *capsys.readouterr()))
        src = str(Path(__file__).resolve().parents[1] / "src")
        fresh = [
            (done.returncode, done.stdout, done.stderr)
            for done in (
                subprocess.run(
                    [sys.executable, "-m", "edgemon.cli", *argv],
                    capture_output=True, text=True, check=False,
                    env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"),
                )
                for argv in calls
            )
        ]
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 0]
        # the defaults --blocks 3,3 and --demand 1, not the first call's values
        assert "p em 5 6\n" in fresh[1][1]
        assert {line[-1] for line in fresh[1][1].splitlines() if line[0] == "e"} == {"1"}
        assert "not a block graph" in fresh[2][2]  # no auto dispatch
        assert fresh[3][1].startswith("status ")  # auto picked the interval DP
        assert fresh[5] == fresh[0]
        assert build_parser() is build_parser()

    def test_duplicate_edge_exit_code(self, capsys, tmp_path):
        path = self.write(tmp_path, "dup.em", "p em 4 2\ne 1 3 1\ne 3 1 1\n")
        code, out = self.run(capsys, "solve", "--in", path)
        assert code == 2 and out == ""

    def test_budget_exit_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EM_BUDGET_VERTICES", "3")
        inst = gen_complete(6, demand=1)
        path = self.write(
            tmp_path, "big.em",
            format_instance_text(InstanceDocument(instance=inst)),
        )
        code, _ = self.run(capsys, "oracle", "--in", path)
        assert code == 3

    def k4(self, tmp_path):
        inst = gen_complete(4, demand=1)
        return self.write(
            tmp_path, "k4.em", format_instance_text(InstanceDocument(instance=inst))
        )

    @pytest.mark.parametrize("raw", ["abc", "-1"])
    def test_malformed_budget_is_an_input_error(self, capsys, tmp_path, monkeypatch, raw):
        monkeypatch.setenv("EM_BUDGET_VERTICES", raw)
        assert self.run(capsys, "oracle", "--in", self.k4(tmp_path)) == (2, "")
        bench = ("bench", "--class", "complete", "--n", "4", "--seeds", "0..1")
        assert self.run(capsys, *bench) == (2, "")

    def test_zero_budget_refuses_k4(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EM_BUDGET_VERTICES", "0")
        assert self.run(capsys, "oracle", "--in", self.k4(tmp_path)) == (3, "")

    def test_verify_true_and_false(self, capsys, tmp_path):
        inst_path = self.write(
            tmp_path, "k4.em",
            format_instance_text(
                InstanceDocument(instance=gen_complete(4, demand=1))
            ),
        )
        good = self.write(tmp_path, "good.sol", "set 0 1 2\n")
        code, out = self.run(
            capsys, "verify", "--solution", good, "--in", inst_path
        )
        assert code == 0 and "verified true" in out
        bad = self.write(tmp_path, "bad.sol", "set 0\n")
        code, out = self.run(capsys, "verify", "--solution", bad, "--in", inst_path)
        assert code == 1
        assert "verified false" in out and "deficit" in out

    @pytest.mark.parametrize(
        "certificate,code,stdout",
        [
            ("set 0 1 2\n", 0, "verified true\n"),
            (
                "set 0\n",
                1,
                "verified false\ndeficit 0 1 1 0\ndeficit 0 2 1 0\n"
                "deficit 0 3 1 0\n",
            ),
        ],
    )
    def test_verify_under_optimize_flag(self, tmp_path, certificate, code, stdout):
        # python -O strips asserts, so the verdict must not depend on one
        inst_path = self.write(
            tmp_path, "k4.em",
            format_instance_text(
                InstanceDocument(instance=gen_complete(4, demand=1))
            ),
        )
        sol_path = self.write(tmp_path, "k4.sol", certificate)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "edgemon.cli", "verify",
             "--solution", sol_path, "--in", inst_path],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (done.returncode, done.stdout) == (code, stdout)

    @pytest.mark.parametrize("sep", LINE_SEPARATORS)
    def test_solution_comment_holding_a_line_separator_is_ignored(
        self, capsys, tmp_path, sep
    ):
        sol = tmp_path / "note.sol"
        sol.write_text(f"# note{sep}more 9\nset 0 1 2\n", encoding="utf-8")
        code, out = self.run(
            capsys, "verify", "--solution", str(sol), "--in", self.k4(tmp_path)
        )
        assert code == 0 and "verified true" in out

    def test_verify_agrees_with_solver_output(self, capsys, tmp_path):
        inst_path = self.write(
            tmp_path, "g.em",
            format_instance_text(
                InstanceDocument(
                    instance=gen_complete(6, demand=(0, 2), seed=3)
                )
            ),
        )
        code, out = self.run(capsys, "solve", "--class", "complete", "--in", inst_path)
        assert code == 0
        sol_path = self.write(tmp_path, "g.sol", out)
        code, out = self.run(capsys, "verify", "--solution", sol_path, "--in", inst_path)
        assert code == 0

    def test_generate_round_trip_bytes(self, capsys, tmp_path):
        target = tmp_path / "inst.em"
        self.run(
            capsys, "generate", "--class", "interval", "--n", "6",
            "--seed", "9", "--demand", "0..2", "--weight", "1..3:4",
            "--out", str(target),
        )
        text = target.read_text()
        doc = parse_instance_text(text)
        assert format_instance_text(doc) == text

    def test_unitdisk_generate_round_trip_keeps_coords(self, capsys, tmp_path):
        target = tmp_path / "ud.em"
        self.run(
            capsys, "generate", "--class", "unitdisk", "--n", "6",
            "--seed", "2", "--out", str(target),
        )
        text = target.read_text()
        doc = parse_instance_text(text)
        assert any(line.startswith("# coord") for line in doc.comments)
        assert format_instance_text(doc) == text

    def test_verify_empty_certificate_on_zero_demands(self, capsys, tmp_path):
        inst_path = self.write(tmp_path, "z.em", "p em 3 2\ne 0 1 0\ne 1 2 0\n")
        sol = self.write(tmp_path, "empty.sol", "set\n")
        code, out = self.run(capsys, "verify", "--solution", sol, "--in", inst_path)
        assert code == 0 and "verified true" in out

    def test_reduce_emits_relation_header(self, capsys, tmp_path):
        src = self.write(tmp_path, "k2.em", "p em 2 1\ne 0 1 1\n")
        code, out = self.run(capsys, "reduce", "--kind", "udg", "--in", src)
        assert code == 0
        assert "# relation gamma_m(image) = vc(source) + 7 * m" in out
        assert "p em 10 15" in out

    def test_approx_planar(self, capsys, tmp_path):
        from edgemon import gen_planar

        inst = gen_planar(3, 3, triangulate=True, seed=1)
        demand = {
            e: (1 if inst.graph.neighbors(e[0]) & inst.graph.neighbors(e[1]) else 0)
            for e in inst.graph.edges
        }
        from edgemon import Instance

        path = self.write(
            tmp_path, "pl.em",
            format_instance_text(
                InstanceDocument(instance=Instance.make(inst.graph, demand=demand))
            ),
        )
        code, out = self.run(
            capsys, "approx", "--class", "planar", "--epsilon", "1", "--in", path
        )
        assert code == 0 and out.startswith("status feasible")

    def test_bench_table_shape(self, capsys):
        code, out = self.run(
            capsys, "bench", "--class", "cograph", "--seeds", "0..2", "--n", "7"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["seed", "solver", "oracle", "ratio", "ms"]
        assert len(lines) == 4
        for row in lines[1:]:
            cells = row.split()
            assert cells[1] == cells[2]
            assert cells[3] in ("1", "-")

    def test_bench_goes_on_past_the_oracle_budget(self, capsys):
        # 30 interval vertices exceed the oracle's budget of 20
        code, out = self.run(
            capsys, "bench", "--class", "interval", "--seeds", "0..1", "--n", "30"
        )
        assert code == 0
        rows = [row.split() for row in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "1"]
        for row in rows:
            assert row[1] != "inf" and row[2:4] == ["-", "-"]

    def test_bench_block_follows_n(self, capsys):
        def rows(*extra):
            code, out = self.run(
                capsys, "bench", "--class", "block", "--seeds", "0..9", *extra
            )
            assert code == 0
            return [row.split()[:4] for row in out.strip().splitlines()[1:]]

        assert rows("--n", "7") != rows("--n", "13")
        default = rows()
        assert len(default) == 10
        assert all("inf" not in row for row in default)

    def test_split_solve(self, capsys, tmp_path):
        from edgemon import gen_split

        inst = gen_split(4, 3, seed=9, min_degree=2)
        path = self.write(
            tmp_path, "sp.em",
            format_instance_text(InstanceDocument(instance=inst)),
        )
        code, out = self.run(capsys, "solve", "--class", "split", "--in", path)
        assert code in (0, 1)

    def test_split_answers_infeasible(self, capsys, tmp_path):
        path = self.write(tmp_path, "p3.em", "p em 3 2\ne 0 1 1\ne 1 2 1\n")
        infeasible = (1, "status infeasible\n")
        assert self.run(capsys, "solve", "--class", "split", "--in", path) == infeasible
        answered = 0
        for seed in range(20):
            self.run(
                capsys, "generate", "--class", "split", "--clique", "4",
                "--independent", "6", "--demand", "1", "--seed", str(seed),
                "--out", path,
            )
            if self.run(capsys, "oracle", "--in", path) == infeasible:
                answered += 1
                solved = self.run(capsys, "solve", "--class", "split", "--in", path)
                assert solved == infeasible, seed
        assert answered == 17

    def test_split_answers_isolated_vertices_and_edgeless_files(self, capsys, tmp_path):
        path = self.write(tmp_path, "edgeless.em", "p em 3 0\n")
        empty = (0, "status feasible\nvalue 0\nset\n")
        assert self.run(capsys, "solve", "--class", "split", "--in", path) == empty
        # seeds 1 and 6 give feasible files with an isolated vertex
        for seed in (1, 6):
            self.run(
                capsys, "generate", "--class", "split", "--clique", "4",
                "--independent", "6", "--demand", "1", "--seed", str(seed),
                "--out", path,
            )
            oracle = self.run(capsys, "oracle", "--in", path)
            assert oracle[0] == 0 and "value 3\n" in oracle[1]
            assert self.run(capsys, "solve", "--class", "split", "--in", path) == oracle


# `--help` of the top-level parser and of each subcommand at COLUMNS=80.
HELP_TEXTS = {
    "": """\
usage: edgemon [-h] {solve,approx,oracle,verify,generate,reduce,bench} ...

Weighted edge monitoring solvers and instance tooling.

positional arguments:
  {solve,approx,oracle,verify,generate,reduce,bench}
    solve               exact class-specific solver
    approx              approximation schemes
    oracle              exact branch-and-bound baseline
    verify              check a vertex-set certificate
    generate            emit a seeded instance
    reduce              emit a hardness-construction image
    bench               solver vs oracle over seed range

options:
  -h, --help            show this help message and exit
""",
    "solve": """\
usage: edgemon solve [-h]
                     [--class {complete,block,interval,cograph,split,auto}]
                     [--in INFILE]

options:
  -h, --help            show this help message and exit
  --class {complete,block,interval,cograph,split,auto}
  --in INFILE
""",
    "approx": """\
usage: edgemon approx [-h] --class {complete,planar} --epsilon EPSILON
                      [--in INFILE]

options:
  -h, --help            show this help message and exit
  --class {complete,planar}
  --epsilon EPSILON
  --in INFILE
""",
    "oracle": """\
usage: edgemon oracle [-h] [--in INFILE]

options:
  -h, --help   show this help message and exit
  --in INFILE
""",
    "verify": """\
usage: edgemon verify [-h] --solution SOLUTION [--in INFILE]

options:
  -h, --help           show this help message and exit
  --solution SOLUTION
  --in INFILE
""",
    "generate": """\
usage: edgemon generate [-h] --class
                        {complete,block,interval,cograph,split,planar,unitdisk}
                        [--n N] [--seed SEED] [--demand DEMAND]
                        [--weight WEIGHT] [--blocks BLOCKS] [--unit-lengths]
                        [--clique CLIQUE] [--independent INDEPENDENT]
                        [--edge-prob EDGE_PROB] [--min-degree MIN_DEGREE]
                        [--rows ROWS] [--cols COLS] [--triangulate]
                        [--box BOX] [--out OUT]

options:
  -h, --help            show this help message and exit
  --class {complete,block,interval,cograph,split,planar,unitdisk}
  --n N
  --seed SEED
  --demand DEMAND       constant or lo..hi
  --weight WEIGHT       constant, or lo..hi:denominator
  --blocks BLOCKS       block sizes, comma separated
  --unit-lengths
  --clique CLIQUE
  --independent INDEPENDENT
  --edge-prob EDGE_PROB
  --min-degree MIN_DEGREE
  --rows ROWS
  --cols COLS
  --triangulate
  --box BOX
  --out OUT
""",
    "reduce": """\
usage: edgemon reduce [-h] --kind {tds,is,comparability,udg} [--k K]
                      [--chain CHAIN] [--in INFILE] [--out OUT]

options:
  -h, --help            show this help message and exit
  --kind {tds,is,comparability,udg}
  --k K
  --chain CHAIN
  --in INFILE
  --out OUT
""",
    "bench": """\
usage: edgemon bench [-h] --class {complete,block,interval,cograph,planar}
                     [--seeds SEEDS] [--n N] [--epsilon EPSILON]

options:
  -h, --help            show this help message and exit
  --class {complete,block,interval,cograph,planar}
  --seeds SEEDS         inclusive range a..b
  --n N
  --epsilon EPSILON
""",
}


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def _dispatch_files():
    inst, real = gen_interval(7, demand=(0, 2), seed=4)
    cinst, tree = gen_cograph(6, seed=3)
    docs = {
        "complete": InstanceDocument(instance=gen_complete(5, demand=1)),
        "block": InstanceDocument(instance=gen_block_graph([3, 4], demand=1)),
        "interval": InstanceDocument(instance=inst, realization=real),
        "cograph": InstanceDocument(instance=cinst),
        "cotree": InstanceDocument(instance=cinst, cotree=tree),
        "split": InstanceDocument(instance=gen_split(4, 3, seed=9, min_degree=2)),
        "planar": InstanceDocument(instance=gen_planar(3, 3, triangulate=True)),
    }
    return {name: format_instance_text(doc) for name, doc in docs.items()}


# The `edgemon.cli` globals the dispatch calls, which edgebench's tracer rebinds.
SOLVER_GLOBALS = (
    "solve_complete_cbounded", "ptas_complete", "solve_block", "solve_interval",
    "cotree_build", "solve_cograph", "split_partition", "split_gamma_m",
    "ptas_planar",
)


class TestClassTable:
    @pytest.mark.parametrize(
        "command,file,called",
        [
            ("solve --class complete", "complete", ["solve_complete_cbounded"]),
            ("solve --class block", "block", ["solve_block"]),
            ("solve --class interval", "interval", ["solve_interval"]),
            ("solve --class cograph", "cograph", ["cotree_build", "solve_cograph"]),
            ("solve --class split", "split", ["split_partition", "split_gamma_m"]),
            ("approx --class complete --epsilon 1", "complete", ["ptas_complete"]),
            ("approx --class planar --epsilon 1", "planar", ["ptas_planar"]),
            ("solve", "complete", ["solve_complete_cbounded"]),
            ("solve --class auto", "block", ["solve_block"]),
            ("solve", "interval", ["solve_interval"]),
            ("solve", "cotree", ["solve_cograph"]),
        ],
        ids=str,
    )
    def test_solvers_are_called_through_cli_globals(
        self, capsys, tmp_path, monkeypatch, command, file, called
    ):
        calls = []
        for name in SOLVER_GLOBALS:
            fn = getattr(edgemon.cli, name)
            monkeypatch.setattr(edgemon.cli, name, _counting(calls, name, fn))
        path = tmp_path / f"{file}.em"
        path.write_text(_dispatch_files()[file])
        code = main([*command.split(), "--in", str(path)])
        assert code in (0, 1), capsys.readouterr().err
        assert calls == called

    @pytest.mark.parametrize("klass", ["block", "interval", "cograph"])
    def test_bench_epsilon_needs_a_scheme(self, capsys, klass):
        code = main(["bench", "--class", klass, "--epsilon", "1", "--seeds", "0..1"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: class {klass!r} has no approximation scheme\n"

    @pytest.mark.parametrize("klass", ["complete", "planar"])
    def test_bench_checks_epsilon_before_the_header(self, capsys, klass):
        code = main(
            ["bench", "--class", klass, "--epsilon", "0", "--n", "6", "--seeds", "0..0"]
        )
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: epsilon must be positive\n")

    def test_bench_checks_n_before_the_header(self, capsys):
        for klass in ("complete", "block", "planar"):
            code = main(["bench", "--class", klass, "--n", "0", "--seeds", "0..1"])
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", "error: n must be >= 1\n"), klass

    def test_bench_epsilon_runs_the_scheme(self, capsys):
        argv = ["bench", "--class", "complete", "--epsilon", "1", "--seeds", "0..1"]
        code = main(argv)
        rows = capsys.readouterr().out.splitlines()
        assert code == 0 and len(rows) == 3

    @pytest.mark.parametrize("command", list(HELP_TEXTS))
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == HELP_TEXTS[command]

    def test_class_names_are_written_once(self):
        tree = ast.parse(Path(edgemon.cli.__file__).read_text())
        names = [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        for name in (
            "complete", "block", "interval", "cograph", "split", "planar",
            "unitdisk", "auto", "tds", "is", "comparability", "udg",
        ):
            assert names.count(name) == 1, name
