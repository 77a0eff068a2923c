"""Deterministic check suite over the fixture catalog and random algebras.

`run_suite(seed)` is the one entry: it executes every applicable check on
the fixture catalog, the group tables and the seeded random algebras, at
every pair of `DEFAULT_WEIGHT_PAIRS`, in a fixed order, and collects the
reports. The random algebras are drawn from `Random(seed)`, so identical
seeds give byte-identical output. A caller that needs the battery on its
own algebras loops over `CHECK_IDS`, as `_run_algebra_checks` does; one
target is served by `pqcent verify`. The exit-code convention: 0 unless
some check FAILed; unmet preconditions are recorded but do not fail a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from random import Random

from .algebras import Algebra
from .centralizers import Weights
from .fixtures import fixtures, random_algebra, random_poly_quotient
from .groups import group_tables, verify_group_centralizer_structure
from .reports import FAIL, PASS, PRECONDITION_UNMET, Assertion, Report
from .verify import (
    CHECK_IDS,
    DEFAULT_WEIGHT_PAIRS,
    inclusion_chain_check,
    verify_commutative_weights_coincide,
)

RANDOM_MIXED_COUNT = 50
RANDOM_COMMUTATIVE_COUNT = 25


@dataclass(frozen=True)
class RunReport:
    """One suite run: the configuration and every check report, in order."""

    seed: int
    weight_pairs: tuple
    reports: tuple[Report, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, PRECONDITION_UNMET: 0}
        for r in self.reports:
            out[r.status] += 1
        return out

    @property
    def has_failures(self) -> bool:
        return any(r.status == FAIL for r in self.reports)

    @property
    def exit_code(self) -> int:
        return 1 if self.has_failures else 0

    def to_json(self) -> str:
        """The run as JSON: byte for byte `json.dumps(doc, indent=2,
        sort_keys=True)` and a newline, for the document {seed,
        weight_pairs, summary, checks}, each check a `Report` as
        {check_id, target, weights, status, assertions, note}, each
        assertion {name, passed, witness}, witness left out when None.
        Only the header goes through `json.dumps`, which `indent` keeps
        off its C encoder; the checks are written from the fixed schema
        with the C string encoder. `tests/test_suite.py` checks these
        bytes against `json.dumps` of the document `tests/report_ref.py`
        builds."""
        header = json.dumps({
            "seed": self.seed,
            "weight_pairs": [list(p) for p in self.weight_pairs],
            "summary": self.counts,
        }, indent=2, sort_keys=True)
        # "checks" sorts first, so it opens the document
        checks = ",\n".join(map(_report_json, self.reports))
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        return f'{{\n  "checks": {checks},\n{header[2:]}\n'

    def text_lines(self, verbose: bool = False) -> list[str]:
        counts = self.counts
        out = [
            f"suite seed={self.seed} "
            f"weights={','.join(f'({p},{q})' for p, q in self.weight_pairs)}",
            f"checks={len(self.reports)} pass={counts[PASS]} "
            f"fail={counts[FAIL]} precondition_unmet={counts[PRECONDITION_UNMET]}",
        ]
        for r in self.reports:
            if verbose or r.status == FAIL:
                out.extend(r.lines(verbose))
        return out


def _assertion_json(a: Assertion) -> str:
    witness = ("" if a.witness is None
               else f',\n          "witness": {_json_str(a.witness)}')
    return (f'        {{\n          "name": {_json_str(a.name)},\n'
            f'          "passed": {"true" if a.passed else "false"}'
            f'{witness}\n        }}')


def _report_json(r: Report) -> str:
    """One element of the report's "checks" list, keys in sorted order."""
    assertions = ",\n".join(map(_assertion_json, r.assertions))
    assertions = f"[\n{assertions}\n      ]" if assertions else "[]"
    weights = ("null" if not r.weights else
               "[\n" + ",\n".join(f"        {x}" for x in r.weights)
               + "\n      ]")
    return (f'    {{\n      "assertions": {assertions},\n'
            f'      "check_id": {_json_str(r.check_id)},\n'
            f'      "note": {_json_str(r.note)},\n'
            f'      "status": {_json_str(r.status)},\n'
            f'      "target": {_json_str(r.target)},\n'
            f'      "weights": {weights}\n    }}')


def _run_algebra_checks(a: Algebra) -> list[Report]:
    """Every algebra-valued check, in `CHECK_IDS` order, at each pair of
    `DEFAULT_WEIGHT_PAIRS`."""
    out = []
    for pair in DEFAULT_WEIGHT_PAIRS:
        w = Weights(*pair)
        for check in CHECK_IDS.values():
            out.append(check(a, w))
    return out


def run_suite(seed: int = 0) -> RunReport:
    """Run the full battery: every check on the fixture catalog, check 4.2
    on the group tables, then the seeded random algebras, each at every
    pair of `DEFAULT_WEIGHT_PAIRS`."""
    reports: list[Report] = []
    for a in fixtures().values():
        reports.extend(_run_algebra_checks(a))
    for t in group_tables().values():
        for pair in DEFAULT_WEIGHT_PAIRS:
            reports.append(verify_group_centralizer_structure(t, Weights(*pair)))

    rng = Random(seed)
    for i in range(RANDOM_COMMUTATIVE_COUNT):
        a = random_poly_quotient(rng, name=f"rand_poly_{i:02d}")
        for pair in DEFAULT_WEIGHT_PAIRS:
            w = Weights(*pair)
            reports.append(inclusion_chain_check(a, w))
            reports.append(verify_commutative_weights_coincide(a, w))
    for i in range(RANDOM_MIXED_COUNT):
        a = random_algebra(rng, name=f"rand_mix_{i:02d}")
        for pair in DEFAULT_WEIGHT_PAIRS:
            reports.append(inclusion_chain_check(a, Weights(*pair)))

    return RunReport(seed, DEFAULT_WEIGHT_PAIRS, tuple(reports))
