"""Traced smoke runs of edgebench: every seed-0 operation once, hooks probed.

Each row runs `edgebench/run.py --smoke N --trace 1` on one workload in a
fresh process, with its files under pytest's temporary directory.  N is
the workload's whole operation list.  A traced run makes a plain pass and
a traced pass, and the outcomes of both are judged (two that differ read
`unstable`), so `correct` covers the plain pass too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "edgebench" / "run.py"

# workload -> (operations at seed 0, per-layer metrics that must be positive)
SMOKE = {
    "interval_dp": (7, ()),
    "bulk_files": (13, ()),
    # Only hooks on edgemon.cli globals feed the last three; they read 0
    # when the dispatch calls a solver it bound at import.
    "small_exact": (
        230,
        ("planar.bands", "complete.solve_calls", "cographs.cotree_depth",
         "reductions.split_s"),
    ),
}


@pytest.mark.parametrize("workload", SMOKE)
def test_traced_smoke_run(workload, tmp_path):
    ops, positive = SMOKE[workload]
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--smoke", str(ops), "--trace", "1",
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    head, last = done.stdout.splitlines()[-2:]
    provenance = json.loads(head.removeprefix("provenance "))
    faults = {k: provenance[k] for k in ("failed_ops", "missing_hooks")}
    result = json.loads(last)
    metrics = result["metrics"]
    assert result["attempted"] == ops
    assert result["correct"] is True, faults
    assert metrics["trace.missing_hooks"]["value"] == 0, faults
    for name in positive:
        assert metrics[name]["value"] > 0, (name, faults)
