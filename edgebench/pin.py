"""Regenerate `pins.json`: the seed pools and the answers pinned for them.

    python3 edgebench/pin.py

Every family is regenerated and `pins.json` is written afresh.  For each
family, the candidate generator seeds are tried in increasing order; a
candidate that fails the family's structural filter, or whose answer is
infeasible, is skipped.  The pool is the first `pool_size` candidates that
remain, so no timing enters the choice.  Families with known-defect slots
scan every candidate; their pool is the first candidates that show the
defect and the first that do not, in the proportion of the family's slots,
and the share of candidates that show it is recorded under `defect_rates`.

Pinned answers are this commit's outputs after independent checks:
witnesses are re-checked from the edge lists, class solvers must agree with
the oracle where both run, complete graphs and the caterpillar are
re-solved by exhaustive search, and the optimum behind each `approx` answer
comes from the oracle with its vertex budget raised to the instance size.
A failure is only accepted where it is a listed known defect; any other
failure stops the script.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from edgebench.checker import Reference, classify, parse_answer  # noqa: E402
from edgebench.run import HERE, WORK, call_cli, import_program  # noqa: E402

# Family -> (operation kind, failure reason) accepted as a known defect.
KNOWN_DEFECTS = {
    "bulk.caterpillar": ("solve", "traceback"),
    "small.grid6x4": ("approx.planar", "exit3"),
}


class PinError(RuntimeError):
    pass


def _failure(outcome, ref) -> str | None:
    """Why an outcome cannot be pinned as an answer, if it cannot."""
    if outcome.error is not None:
        return "traceback"
    if outcome.exit in (2, 3):
        return f"exit{outcome.exit}"
    status, _, vertices = parse_answer(outcome.stdout)
    if status == "feasible" and (
        any(not 0 <= v < ref.n for v in vertices) or ref.shortfalls(vertices)
    ):
        return "infeasible_witness"
    return None


def pin_member(cli, fam, seed, inst, text, workdir):
    """Run one candidate; return (witness, expectations), or None when an
    answer is infeasible."""
    from edgemon.oracle import SearchBudget, exact_gamma_m

    from edgebench.workloads import APPROX_RATIO, ARGV, file_stem, witness_text

    where = f"{fam.name} seed {seed}"
    ref = Reference.of(inst)
    stem = os.path.join(workdir, file_stem(fam.name, seed))
    with open(stem + ".em", "w", encoding="utf-8") as fh:
        fh.write(text)
    expect: dict[str, dict] = {}
    answers = {}  # kind -> (value, vertices, exit code)
    for kind in fam.kinds:
        if kind == "verify":
            continue
        _, outcome = call_cli(cli.main, ARGV[kind] + ("--in", stem + ".em"))
        failure = _failure(outcome, ref)
        if failure is not None:
            if KNOWN_DEFECTS.get(fam.name) != (kind, failure):
                raise PinError(f"{where} {kind}: {failure} {outcome}")
            expect[kind] = {"defect": failure}
            continue
        status, value, vertices = parse_answer(outcome.stdout)
        if status != "feasible":
            return None
        if ref.weight(vertices) != value:
            raise PinError(f"{where} {kind}: printed value is not the set's weight")
        answers[kind] = (value, list(vertices), outcome.exit)

    optimum = answers.get("oracle")
    if optimum is None and any(k.startswith("approx") for k in fam.kinds):
        sol = exact_gamma_m(inst, budget=SearchBudget(max_vertices=inst.graph.n))
        optimum = (sol.value, list(sol.vertices), 0)
    if fam.name in ("small.complete", "bulk.caterpillar"):
        brute = ref.optimum()
        if optimum is None:
            optimum = (brute, None, 0)
        elif optimum[0] != brute:
            raise PinError(f"{where}: optimum {optimum[0]} != exhaustive {brute}")

    for kind in fam.kinds:
        if kind == "verify":
            continue
        entry = expect.setdefault(kind, {})
        if kind.startswith("approx"):
            entry.update(exit=0, status="feasible", optimum=str(optimum[0]),
                         ratio=str(APPROX_RATIO))
            continue
        # a known defect has no answer of its own; the optimum stands in
        value, vertices, code = answers.get(kind, optimum)
        if optimum is not None and value != optimum[0]:
            raise PinError(f"{where} {kind}: {value} != optimum {optimum[0]}")
        entry.update(exit=code, status="feasible", value=str(value))
        if kind == "oracle":
            entry["set"] = vertices

    witness = None
    if "verify" in fam.kinds:
        value, witness, _ = optimum if optimum is not None else next(iter(answers.values()))
        if ref.shortfalls(witness) or ref.weight(witness) != value:
            raise PinError(f"{where}: pinned witness fails the checker")
        with open(stem + ".sol", "w", encoding="utf-8") as fh:
            fh.write(witness_text(witness))
        _, outcome = call_cli(
            cli.main,
            ARGV["verify"] + ("--solution", stem + ".sol", "--in", stem + ".em"),
        )
        expect["verify"] = {"exit": 0, "verdict": "verified true"}
        if classify("verify", expect["verify"], ref, outcome) is not None:
            raise PinError(f"{where}: verify rejects the pinned witness")
    return witness, expect


def pin_family(cli, fam, workdir):
    """The family's pool, and (members showing the known defect, feasible
    candidates) when the family has defect slots, else None."""
    from edgebench.workloads import shows_defect

    shown = -(-fam.pool_size * fam.defect_slots // fam.slots)
    defective, sound, feasible = [], [], 0
    for seed in fam.candidates:
        gen = fam.make(seed)
        if not fam.accept(gen):
            continue
        pinned = pin_member(cli, fam, seed, gen.instance, gen.text(), workdir)
        if pinned is None:
            continue
        feasible += 1
        witness, expect = pinned
        member = {"seed": seed, "witness": witness, "expect": expect}
        if not fam.defect_slots:
            sound.append(member)
            if len(sound) == fam.pool_size:
                break
        elif shows_defect(member):
            defective.append(member)
        else:
            sound.append(member)
    if fam.defect_slots:
        rate = (len(defective), feasible)
        pool = defective[:shown] + sound[: fam.pool_size - shown]
    else:
        rate = None
        pool = sound
    shown = sum(1 for m in pool if shows_defect(m))
    if shown < fam.defect_slots or len(pool) - shown < fam.slots - fam.defect_slots:
        raise PinError(f"{fam.name}: too few candidates ({feasible} feasible)")
    return sorted(pool, key=lambda m: m["seed"]), rate


def dump(pins: dict) -> str:
    """pins.json text with one pool member per line."""
    families = sorted(pins["families"].items())
    lines = ['{"defect_rates": ' + json.dumps(pins["defect_rates"], sort_keys=True) + ",",
             ' "families": {']
    for i, (name, pool) in enumerate(families):
        lines.append(f" {json.dumps(name)}: [")
        lines += [
            "  " + json.dumps(m, sort_keys=True) + ("," if j < len(pool) - 1 else "")
            for j, m in enumerate(pool)
        ]
        lines.append(" ]" + ("," if i < len(families) - 1 else ""))
    return "\n".join(lines + ["}}"]) + "\n"


def main() -> int:
    os.environ.pop("EM_BUDGET_VERTICES", None)
    cli = import_program()
    from edgebench.workloads import WORKLOADS

    pins = {"defect_rates": {}, "families": {}}
    workdir = WORK / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    for fams in WORKLOADS.values():
        for fam in fams:
            pool, rate = pin_family(cli, fam, str(workdir))
            pins["families"][fam.name] = pool
            note = ""
            if rate is not None:
                pins["defect_rates"][fam.name] = {"shown": rate[0], "feasible": rate[1]}
                note = f"; known defect in {rate[0]} of {rate[1]} feasible candidates"
            print(f"{fam.name}: seeds {[m['seed'] for m in pool]}{note}", flush=True)
    (HERE / "pins.json").write_text(dump(pins))
    return 0


if __name__ == "__main__":
    sys.exit(main())
