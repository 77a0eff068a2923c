#!/usr/bin/env python3
"""Solve the (1,2) Jordan, weighted and two-sided spaces of a fixed algebra
ladder, each solve in a fresh interpreter, and check every dimension
against its closed form.

    python3 scripts/solve_rungs.py

The rungs are the group algebras of S4 (order 24), S4 x C2 (order 48),
S5 (order 120) and S5 x C2 (order 240), the matrix algebra M5 and
Q[x]/(x^24). Each is unital and semiprime or commutative, so all three
spaces are the multiplications by its center: the class counts 5, 10, 7
and 14, 1 for M5 and 24 for Q[x]/(x^24). Besides the three standalone
solves, J+W+Z runs the three in one process. There the two-sided space is
solved first, the Jordan solve starts from the span of the p L_t + q R_t
and stops once it is down to the two-sided space, and the weighted solve
reuses the Jordan space and evaluates no row.

On S4, S4 x C2 and S5 it then runs the check battery in a fresh
interpreter:
every check of `CHECK_IDS` at each pair of `DEFAULT_WEIGHT_PAIRS`, as the
suite runs it on a catalog algebra.

Each line gives the CPU seconds of building the algebra (the Cayley table
and its validation, which builds and scans the group algebra once, or the
fixture), the CPU seconds of the solves alone, and the process's peak RSS.
The exit status is 1 when a dimension is wrong or a check report FAILs.
"""

import json
import os
import resource
import subprocess
import sys
import time
from itertools import permutations

from pqcent.centralizers import (
    Weights,
    pq_centralizers,
    pq_jordan_centralizers,
    two_sided_centralizers,
)
from pqcent.fixtures import matrix_algebra, truncated_poly
from pqcent.groups import cayley_table, group_algebra
from pqcent.reports import FAIL
from pqcent.verify import CHECK_IDS, DEFAULT_WEIGHT_PAIRS


def _sym_times(k: int, order: int):
    """The group algebra of S_k x C_order."""
    elems = [(p, c) for p in permutations(range(k)) for c in range(order)]
    index = {e: i for i, e in enumerate(elems)}
    return group_algebra(cayley_table([
        [index[(tuple(p[x] for x in p2), (c + c2) % order)] for p2, c2 in elems]
        for p, c in elems
    ], f"s{k}xc{order}"))


# name -> (builder, closed-form dimension of every space)
RUNGS = {
    "S4": (lambda: _sym_times(4, 1), 5),
    "M5": (lambda: matrix_algebra(5), 1),
    "Q[x]/(x^24)": (lambda: truncated_poly(24), 24),
    "S4xC2": (lambda: _sym_times(4, 2), 10),
    "S5": (lambda: _sym_times(5, 1), 7),
    "S5xC2": (lambda: _sym_times(5, 2), 14),
}
W12 = Weights(1, 2)
SOLVES = {
    "J": lambda a: pq_jordan_centralizers(a, W12),
    "W": lambda a: pq_centralizers(a, W12),
    "Z": two_sided_centralizers,
}
RUNS = ("J", "W", "Z", "JWZ")
BATTERY_RUNGS = ("S4", "S4xC2", "S5")


def _solve(rung: str, run: str) -> None:
    """One run in this process: print its dimensions, the CPU s of the
    build and of the solves, and the peak MB."""
    start = time.process_time()
    a = RUNGS[rung][0]()
    build = time.process_time() - start
    start = time.process_time()
    dims = [SOLVES[kind](a).dim for kind in run]
    cpu = time.process_time() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"dims": dims, "build_s": build, "cpu_s": cpu,
                      "peak_mb": peak_mb}))


def _battery(rung: str) -> None:
    """Every check at every default weight pair on one rung, in this
    process: print the number of reports, the (check, weights) of each
    FAIL, the CPU s of the build and of the checks, and the peak MB."""
    start = time.process_time()
    a = RUNGS[rung][0]()
    build = time.process_time() - start
    start = time.process_time()
    reports = [check(a, Weights(*pair)) for pair in DEFAULT_WEIGHT_PAIRS
               for check in CHECK_IDS.values()]
    cpu = time.process_time() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "reports": len(reports),
        "failed": [f"{r.check_id} {r.weights}" for r in reports
                   if r.status == FAIL],
        "build_s": build, "cpu_s": cpu, "peak_mb": peak_mb}))


def _child(*args: str) -> dict:
    """The JSON line this script prints when run with `args`."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> int:
    failed = False
    print(f"{'rung':<12} {'run':<4} {'dims':<12} {'build s':>7} {'cpu s':>7} "
          f"{'peak MB':>8}")
    for rung, (_, expected) in RUNGS.items():
        for run in RUNS:
            result = _child("--solve", rung, run)
            ok = result["dims"] == [expected] * len(run)
            failed |= not ok
            dims = ",".join(map(str, result["dims"]))
            print(f"{rung:<12} {run:<4} {dims:<12} {result['build_s']:>7.2f} "
                  f"{result['cpu_s']:>7.2f} {result['peak_mb']:>8.1f}"
                  f"{'' if ok else f'  expected {expected}'}")
    print(f"\n{'rung':<12} {'reports':>7} {'fail':>4} {'build s':>7} "
          f"{'cpu s':>7} {'peak MB':>8}")
    for rung in BATTERY_RUNGS:
        result = _child("--battery", rung)
        failed |= bool(result["failed"])
        print(f"{rung:<12} {result['reports']:>7} {len(result['failed']):>4} "
              f"{result['build_s']:>7.2f} {result['cpu_s']:>7.2f} "
              f"{result['peak_mb']:>8.1f}"
              + "".join(f"\n  FAIL {x}" for x in result["failed"]))
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--solve"]:
        _solve(*sys.argv[2:4])
        sys.exit(0)
    if sys.argv[1:2] == ["--battery"]:
        _battery(sys.argv[2])
        sys.exit(0)
    sys.exit(main())
