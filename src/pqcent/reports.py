"""Structured pass/fail reports for the verification checks.

A check produces a `Report` made of named `Assertion`s. Failing assertions
always carry a witness string (typically the basis pair and the residual
vector) so a broken property is diagnosable from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

PASS = "PASS"
FAIL = "FAIL"
PRECONDITION_UNMET = "PRECONDITION_UNMET"


def target_name(a) -> str:
    """Report target label of an algebra: its name, or its dimension."""
    return a.name or f"algebra(dim={a.dim})"


def fmt_vector(v: Sequence) -> str:
    return "(" + ", ".join(str(Fraction(c)) for c in v) + ")"


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    witness: Optional[str] = None

    def __post_init__(self):
        if not self.passed and not self.witness:
            raise ValueError("failed assertions must carry a witness")


@dataclass(frozen=True)
class Report:
    check_id: str
    target: str
    weights: Optional[tuple[int, int]]
    status: str
    assertions: tuple[Assertion, ...] = ()
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def lines(self, verbose: bool = False) -> list[str]:
        w = f" weights=({self.weights[0]},{self.weights[1]})" if self.weights else ""
        out = [f"{self.status} check={self.check_id} target={self.target}{w}"]
        if self.note and (verbose or self.status != PASS):
            out.append(f"  note: {self.note}")
        for a in self.assertions:
            if verbose or not a.passed:
                mark = "ok" if a.passed else "FAILED"
                line = f"  [{mark}] {a.name}"
                if a.witness and not a.passed:
                    line += f": {a.witness}"
                out.append(line)
        return out


def report_from_assertions(check_id: str, target: str,
                           weights: Optional[tuple[int, int]],
                           assertions: Sequence[Assertion],
                           note: str = "") -> Report:
    status = FAIL if any(not a.passed for a in assertions) else PASS
    return Report(check_id, target, weights, status, tuple(assertions), note)


def precondition_unmet(check_id: str, target: str,
                       weights: Optional[tuple[int, int]],
                       reason: str) -> Report:
    return Report(check_id, target, weights, PRECONDITION_UNMET, (), reason)
