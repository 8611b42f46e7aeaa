"""Run one benchmark measurement of the edgemon command line.

    python3 edgebench/run.py --workload bulk_files --seed 0 --seconds 20 --trace 0

The workload's files are generated from `--seed` (set-up, repeated and timed
separately), then the operations run as in-process `edgemon.cli.main(argv)`
calls, pass after pass, for `--seconds` (at least three passes).  With
`--trace 1` every pass is followed by a traced pass of the same operations,
and per-layer metrics are reported instead of end-to-end ones.  `--smoke N`
runs only the first N operations once, for tests.

The program is imported from `src/` next to this directory and nowhere else;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
if str(ROOT) not in sys.path:  # run as a script
    sys.path.insert(0, str(ROOT))

from edgebench.checker import (  # noqa: E402
    REASONS, Outcome, Reference, classify, parse_answer,
)
from edgebench.tracing import LAYER_CALLS, LAYER_SECONDS, Tracer  # noqa: E402

MIN_REPEATS = 3
# The timed set-ups before each pass take about this long in all, so set-up samples
# are spread over the run like the passes are.
SETUP_SLICE_S = 0.3


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def import_program():
    """Import edgemon from this checkout's `src/` only."""
    if not (SRC / "edgemon" / "__init__.py").is_file():
        raise BenchError(f"no edgemon sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edgemon.cli

    if Path(edgemon.cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"edgemon was imported from {edgemon.cli.__file__}")
    return edgemon.cli


def call_cli(main, argv) -> tuple[float, Outcome]:
    """One timed `cli.main(argv)` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught error is a traceback for a user
        error = type(exc).__name__
    elapsed = time.perf_counter() - start
    return elapsed, Outcome(code, out.getvalue(), error)


def commit_id() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "edgemon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def load_pins() -> dict:
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        return json.load(fh)


class Setup:
    """Timed set-ups of one run; every one must write identical bytes."""

    def __init__(self, ops, pins, workdir):
        self.ops, self.pins, self.workdir = ops, pins, workdir
        self.times: list[float] = []  # seconds of each whole set-up
        self.per_instance: dict[tuple[str, int], list[float]] = {}
        self.digests: set[str] = set()
        self.instances = None

    def __call__(self) -> None:
        from edgebench.workloads import setup

        gc.collect()
        self.instances, digest, seconds = setup(self.ops, self.pins, self.workdir)
        self.times.append(sum(seconds.values()))
        for key, s in seconds.items():
            self.per_instance.setdefault(key, []).append(s)
        self.digests.add(digest)
        if len(self.digests) != 1:
            raise BenchError("the same seed produced different input files")

    def seconds(self) -> float:
        """Sum over instances of each one's median set-up time, as `pass_s`
        sums per-operation medians: a stall in one set-up moves one sample
        of one instance, not the whole figure."""
        return sum(statistics.median(v) for v in self.per_instance.values())


def run_pass(main, ops, times, outcomes, tracer=None) -> None:
    # Freeze what the harness holds and start every operation from an empty
    # young generation, so that collections during an operation scan only its
    # own objects and fall at the same points, as in a fresh `edgemon` process.
    gc.collect()
    gc.freeze()
    for op in ops:
        gc.collect()
        if tracer is not None:
            tracer.begin_op(op.op_id)
        try:
            elapsed, outcome = call_cli(main, op.argv)
        finally:
            if tracer is not None:
                tracer.end_op()
        times[op.op_id].append(elapsed)
        outcomes.setdefault(op.op_id, set()).add(outcome)


def measure(main, ops, seconds, repeats_min, setup, tracer=None):
    """Passes until `seconds` have elapsed, each after a slice of set-ups;
    with a tracer, each untraced pass is followed by a traced one."""
    plain = {op.op_id: [] for op in ops}
    traced = {op.op_id: [] for op in ops}
    outcomes: dict[str, set] = {}
    setup()
    per_slice = max(1, round(SETUP_SLICE_S / setup.times[0])) if seconds else 0
    start = time.perf_counter()
    repeats = 0
    while repeats < repeats_min or time.perf_counter() - start < seconds:
        for _ in range(per_slice):
            setup()
        run_pass(main, ops, plain, outcomes)
        if tracer is not None:
            tracer.install()
            try:
                run_pass(main, ops, traced, outcomes, tracer)
            finally:
                tracer.uninstall()
        repeats += 1
    gc.unfreeze()
    return plain, traced, outcomes, repeats


def judge(ops, outcomes, instances):
    """Failure reason per operation (None when it passed)."""
    refs = {key: Reference.of(inst) for key, inst in instances.items()}
    reasons = {}
    for op in ops:
        seen = outcomes[op.op_id]
        if len(seen) > 1:
            reasons[op.op_id] = "unstable"
            continue
        outcome = next(iter(seen))
        reasons[op.op_id] = classify(
            op.kind, op.expect, refs[(op.family, op.seed)], outcome
        )
    return reasons


def latency(ops, times, reasons):
    """Per-operation median seconds of the operations that passed."""
    return {
        op.op_id: statistics.median(times[op.op_id])
        for op in ops
        if reasons[op.op_id] is None
    }


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def approx_ratio_max(ops, outcomes, reasons) -> Fraction:
    worst = Fraction(0)
    for op in ops:
        if op.kind.startswith("approx") and reasons[op.op_id] is None:
            _, value, _ = parse_answer(next(iter(outcomes[op.op_id])).stdout)
            worst = max(worst, value / Fraction(op.expect["optimum"]))
    return worst


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(medians, setup_s):
    per_op_ms = [s * 1000 for s in medians.values()]
    return {
        "pass_s": metric(sum(medians.values()), "s"),
        "op_ms_p50": metric(statistics.median(per_op_ms), "ms"),
        "op_ms_p90": metric(p90(per_op_ms), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer_metrics(tracer, plain_medians, traced_medians, reasons, ratio):
    last = tracer.passes[-1]
    out = {}
    for layer, name in LAYER_SECONDS.items():
        seconds = statistics.median(p.self_ns[layer] for p in tracer.passes) / 1e9
        out[name] = metric(seconds, "s")
    for layer, name in LAYER_CALLS.items():
        out[name] = metric(last.calls[layer], "count")
    edges = last.counts["textio.edges"]
    out["textio.parse_us_per_edge"] = metric(
        out["textio.parse_s"]["value"] * 1e6 / edges if edges else 0.0, "us"
    )
    for name, unit in (
        ("textio.bytes", "B"), ("textio.edges", "count"),
        ("oracle.refusals", "count"), ("blocks.blocks", "count"),
        ("intervals.steps", "count"), ("planar.bands", "count"),
    ):
        out[name] = metric(last.counts[name], unit)
    for name in (
        "oracle.candidates_max", "intervals.bag_width_max",
        "cographs.cotree_depth", "planar.region_max",
    ):
        out[name] = metric(last.peaks.get(name, 0), "count")
    out["planar.approx_ratio_max"] = metric(float(ratio), "ratio")
    failed = [r for r in reasons.values() if r is not None]
    out["cli.failed_frac"] = metric(len(failed) / len(reasons), "ratio")
    for reason in REASONS:
        out[f"cli.failed_{reason}"] = metric(failed.count(reason), "count")
    untraced = sum(plain_medians.values())
    out["trace.overhead_frac"] = metric(
        sum(traced_medians.values()) / untraced - 1 if untraced else 0.0, "ratio"
    )
    out["trace.missing_hooks"] = metric(len(tracer.missing), "count")
    return out


def layer_shares(tracer) -> dict[str, float]:
    totals = {
        layer: statistics.median(p.self_ns[layer] for p in tracer.passes)
        for layer in LAYER_SECONDS
    }
    whole = sum(totals.values()) or 1
    return {layer: round(ns / whole, 4) for layer, ns in totals.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, default=None, metavar="N")
    parser.add_argument("--workdir", default=str(WORK), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args) -> tuple[dict, dict]:
    os.environ.pop("EM_BUDGET_VERTICES", None)
    cli = import_program()
    from edgebench.workloads import WORKLOADS, build_ops

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    load_start = os.getloadavg()
    pins = load_pins()
    workdir = str(Path(args.workdir) / args.workload)
    ops = build_ops(args.workload, args.seed, pins, workdir)
    smoke = args.smoke is not None
    if smoke:
        ops = ops[: args.smoke]
    setup = Setup(ops, pins, workdir)
    tracer = Tracer() if args.trace else None
    plain, traced, outcomes, repeats = measure(
        cli.main, ops, 0 if smoke else args.seconds, 1 if smoke else MIN_REPEATS,
        setup, tracer,
    )
    reasons = judge(ops, outcomes, setup.instances)
    medians = latency(ops, plain, reasons)
    if not medians:
        raise BenchError("every operation failed; there is nothing to time")
    ratio = approx_ratio_max(ops, outcomes, reasons)
    if tracer is None:
        metrics = end_to_end_metrics(medians, setup.seconds())
    else:
        metrics = per_layer_metrics(
            tracer, medians, latency(ops, traced, reasons), reasons, ratio
        )

    failures = {op_id: r for op_id, r in reasons.items() if r is not None}
    known = {
        op.op_id for op in ops
        if op.op_id in failures and failures[op.op_id] == op.expect.get("defect")
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "operations": len(ops),
        "repeats": repeats,
        "setup_repeats": len(setup.times),
        "setup_s_quartiles": statistics.quantiles(setup.times, n=4)
        if len(setup.times) > 1 else setup.times,
        "latency_samples": len(medians),
        "p50_samples_beyond": len(medians) // 2,
        "p90_samples_beyond": len(medians) // 10,
        "failures_by_reason": dict(Counter(failures.values())),
        "pool_defect_rates": pins["defect_rates"],
        "failed_ops": failures,
        "known_defects": sorted(known),
        "approx_ratio_max": str(ratio),
    }
    if tracer is not None:
        provenance["missing_hooks"] = tracer.missing
        provenance["layer_shares"] = layer_shares(tracer)
    result = {
        "correct": set(failures) <= known,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    results = Path(args.workdir) / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": provenance}, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    return result, provenance


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, provenance = run(args)
    except BenchError as exc:
        print(f"edgebench: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
