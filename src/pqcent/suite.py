"""Deterministic check suite over the fixture catalog and random algebras.

A run executes every applicable check on every target at every weight pair,
in a fixed order, and collects the reports. Randomized targets are drawn
from a seeded generator, so identical seeds give byte-identical output.
The exit-code convention: 0 unless some check FAILed; unmet preconditions
are recorded but do not fail a run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from .algebras import Algebra, NonAssociativeError
from .centralizers import Weights
from .fileio import _FormatError, _parse_either_file
from .fixtures import fixtures, random_algebra, random_poly_quotient
from .groups import CayleyTable, group_tables, verify_group_centralizer_structure
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
        doc = {
            "seed": self.seed,
            "weight_pairs": [list(p) for p in self.weight_pairs],
            "summary": self.counts,
            "checks": [r.to_dict() for r in self.reports],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

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


def _run_algebra_checks(a: Algebra, weight_pairs) -> list[Report]:
    """Every algebra-valued check, in `CHECK_IDS` order, at each weight pair."""
    out = []
    for pair in weight_pairs:
        w = Weights(*pair)
        for check in CHECK_IDS.values():
            out.append(check(a, w))
    return out


def _resolve_targets(targets: Sequence[str]):
    """Fixture names, group-table names, or file paths, in given order.

    Files that cannot be read or parsed (a directory, bad syntax or
    non-associative tables) become FAIL reports instead of exceptions, so
    one bad target cannot abort a run. Unknown names still raise.
    """
    algebras: list[Algebra] = []
    tables: list[CayleyTable] = []
    rejected: list[Report] = []
    named = fixtures()
    named_tables = group_tables()
    for target in targets:
        if target in named:
            algebras.append(named[target])
        elif target in named_tables:
            tables.append(named_tables[target])
        elif os.path.exists(target):
            try:
                parsed = _parse_either_file(target)
            except (OSError, _FormatError, NonAssociativeError) as exc:
                rejected.append(Report(
                    "parse", target, None, FAIL,
                    (Assertion("target parses as a valid input", False,
                               str(exc)),),
                    "parse-stage rejection",
                ))
            else:
                (tables if isinstance(parsed, CayleyTable) else algebras).append(parsed)
        else:
            raise ValueError(
                f"unknown fixture name and unreadable file: '{target}'")
    return algebras, tables, rejected


def run_suite(targets: Optional[Sequence[str]] = None,
              weight_pairs: Sequence[tuple[int, int]] = DEFAULT_WEIGHT_PAIRS,
              seed: int = 0,
              random_mixed: int = RANDOM_MIXED_COUNT,
              random_commutative: int = RANDOM_COMMUTATIVE_COUNT) -> RunReport:
    """Run the full battery.

    With explicit `targets` (fixture names, group names, or files), only
    those targets are checked. The default run covers the whole fixture
    catalog, the group tables, and the seeded random algebras.
    """
    weight_pairs = tuple(tuple(p) for p in weight_pairs)
    reports: list[Report] = []

    if targets is None:
        algebra_targets = list(fixtures().values())
        table_targets = list(group_tables().values())
        randomized = True
    else:
        algebra_targets, table_targets, rejected = _resolve_targets(targets)
        reports.extend(rejected)
        randomized = False

    for a in algebra_targets:
        reports.extend(_run_algebra_checks(a, weight_pairs))
    for t in table_targets:
        for pair in weight_pairs:
            reports.append(verify_group_centralizer_structure(t, Weights(*pair)))

    if randomized:
        rng = Random(seed)
        for i in range(random_commutative):
            a = random_poly_quotient(rng, name=f"rand_poly_{i:02d}")
            for pair in weight_pairs:
                w = Weights(*pair)
                reports.append(inclusion_chain_check(a, w))
                reports.append(verify_commutative_weights_coincide(a, w))
        for i in range(random_mixed):
            a = random_algebra(rng, name=f"rand_mix_{i:02d}")
            for pair in weight_pairs:
                reports.append(inclusion_chain_check(a, Weights(*pair)))

    return RunReport(seed, weight_pairs, tuple(reports))
