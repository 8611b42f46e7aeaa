"""End-to-end benchmark for the edgemon command line.

Run one measurement from the repository root:

    python3 edgebench/run.py --workload small_exact --seed 0 --seconds 20 --trace 0

Every operation is one in-process `edgemon.cli.main(argv)` call on an
instance file that the benchmark generated from the workload seed.  Answers
are checked against `pins.json` by a checker that does not use edgemon's
own checkers; `pin.py` regenerates the pins.  The last line of standard
output is a JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.
"""
