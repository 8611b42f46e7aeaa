"""Tests of the benchmark itself: inputs, checker, tracer and smoke runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from edgebench import run

run.import_program()

from edgebench.checker import Outcome, Reference, classify  # noqa: E402
from edgebench.tracing import Tracer  # noqa: E402
from edgebench.workloads import WORKLOADS, build_ops, setup, shows_defect  # noqa: E402

PINS = run.load_pins()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_writes_identical_files(workload, tmp_path):
    for name in ("a", "b"):
        ops = build_ops(workload, 7, PINS, str(tmp_path / name))
        setup(ops, PINS, str(tmp_path / name))
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")


def test_other_seed_draws_other_files(tmp_path):
    for seed in (0, 1):
        ops = build_ops("small_exact", seed, PINS, str(tmp_path / str(seed)))
        setup(ops, PINS, str(tmp_path / str(seed)))
    assert _files(tmp_path / "0") != _files(tmp_path / "1")


@pytest.mark.parametrize("seed", range(12))
def test_every_seed_has_pinned_ops_and_its_known_defects(seed, tmp_path):
    for workload, families in WORKLOADS.items():
        ops = build_ops(workload, seed, PINS, str(tmp_path))
        assert len(ops) == sum(f.slots * len(f.kinds) for f in families)
        assert len({op.op_id for op in ops}) == len(ops)
        defects = [op for op in ops if "defect" in op.expect]
        assert len(defects) == sum(f.defect_slots for f in families)
    assert len(build_ops("small_exact", seed, PINS, str(tmp_path))) >= 100


def test_pool_members_show_defects_only_where_listed():
    for workload, families in WORKLOADS.items():
        for fam in families:
            pool = PINS["families"][fam.name]
            assert len(pool) >= fam.slots
            if not fam.defect_slots:
                assert not any(shows_defect(m) for m in pool)
            else:
                rate = PINS["defect_rates"][fam.name]
                assert 0 < rate["shown"] <= rate["feasible"]


def test_pool_members_pass_their_family_filter():
    for workload, families in WORKLOADS.items():
        for fam in families:
            for member in PINS["families"][fam.name]:
                assert fam.accept(fam.make(member["seed"])), (fam.name, member["seed"])


# A triangle {0, 1, 2} with a pendant edge {2, 3}: only vertex 2 monitors
# {0, 1}, and the pendant edge has no monitor at all.
REF = Reference([(0, 1), (0, 2), (1, 2), (2, 3)], [1, 1, 1, 0], [1, 2, Fraction(1, 2), 3])
PINNED = {"exit": 0, "status": "feasible", "value": "7/2", "set": [0, 1, 2]}


def _answer(value, vertices, code=0):
    text = f"status feasible\nvalue {value}\nset" + "".join(f" {v}" for v in vertices)
    return Outcome(code, text + "\n", None)


def test_checker_accepts_the_pinned_answer():
    assert REF.optimum() == Fraction(7, 2)
    assert classify("oracle", PINNED, REF, _answer("7/2", [0, 1, 2])) is None


def test_checker_rejects_a_wrong_value():
    assert classify("oracle", PINNED, REF, _answer("9/2", [0, 1, 2, 3])) == "wrong"
    # a consistent answer that is not the pinned optimum
    assert classify("solve", dict(PINNED, value="3"), REF, _answer("7/2", [0, 1, 2])) == "wrong"
    # a printed value that is not the set's weight
    assert classify("oracle", PINNED, REF, _answer("3", [0, 1, 2])) == "wrong"


def test_checker_rejects_an_infeasible_set():
    assert classify("oracle", PINNED, REF, _answer("5/2", [1, 2])) == "infeasible_witness"
    assert classify("oracle", PINNED, REF, _answer("1", [7])) == "infeasible_witness"


def test_checker_rejects_a_wrong_exit_code():
    assert classify("oracle", PINNED, REF, _answer("7/2", [0, 1, 2], code=1)) == "wrong"
    assert classify("oracle", PINNED, REF, Outcome(3, "", None)) == "exit3"
    assert classify("oracle", PINNED, REF, Outcome(2, "", None)) == "exit2"
    assert classify("oracle", PINNED, REF, Outcome(None, "", "RecursionError")) == "traceback"
    verify = {"exit": 0, "verdict": "verified true"}
    assert classify("verify", verify, REF, Outcome(1, "verified false\n", None)) == "wrong"


def test_checker_bounds_approx_answers_by_the_ratio():
    expect = {"exit": 0, "status": "feasible", "optimum": "7/2", "ratio": "2"}
    assert classify("approx.planar", expect, REF, _answer("13/2", [0, 1, 2, 3])) is None
    assert classify(
        "approx.planar", dict(expect, optimum="3"), REF, _answer("13/2", [0, 1, 2, 3])
    ) == "wrong"


def test_missing_hook_is_reported_not_raised(monkeypatch):
    import edgebench.tracing as tracing
    import edgemon.cli

    original = edgemon.cli.parse_instance_text
    monkeypatch.setattr(
        tracing, "HOOKS",
        tracing.HOOKS + (("edgemon.cli", "no_such_function", "textio"),),
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert edgemon.cli.parse_instance_text is not original
    finally:
        tracer.uninstall()
    assert edgemon.cli.parse_instance_text is original
    assert tracer.missing == ["edgemon.cli.no_such_function"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("EM_BUDGET_VERTICES", raising=False)
    argv = [
        "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace,
        "--smoke", "3", "--workdir", str(tmp_path),
    ]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup_metric = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_metric["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    """A directory holding only the benchmark cannot produce a result."""
    bench = tmp_path / "edgebench"
    bench.mkdir()
    for path in run.HERE.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "edgebench/run.py", "--workload", "small_exact",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
