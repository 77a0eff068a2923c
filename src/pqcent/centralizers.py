"""Solvers for weighted, Jordan, and one-sided centralizer spaces.

For a fixed weight pair (p, q) the weighted centralizers are the linear
operators T with

    (p+q) T(ab) = p T(a)b + q a T(b)      for all a, b,

the Jordan variant imposes the same identity only on squares, and the
one-sided spaces impose T(ab) = T(a)b (left) or T(ab) = a T(b) (right).
Each space is cut out by linear equations on the n^2 matrix entries of T,
obtained by letting a, b run over basis pairs, and is solved exactly as a
nullspace. Operators are stored as matrices whose columns are the images
of the basis vectors; an operator T corresponds to the flat vector of its
row-major entries, so operator spaces are canonical subspaces of n^2-space.

The defining conditions quantify over additive maps, but an additive map on
a Q-vector space is automatically Q-linear, so solving for linear operators
loses nothing. The Jordan condition is solved through its polarized form
(p+q)T(ab+ba) = pT(a)b + pT(b)a + qaT(b) + qbT(a), which is equivalent to
the square condition for linear T because 2 is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .algebras import Algebra, multiply
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    apply_matrix,
    basis_vector,
    identity_matrix,
    matmul,
    nullspace_of_rows,
    subspace_contains,
    zero_matrix,
)

_ZERO = Fraction(0)


def _int_tables(a: Algebra) -> tuple:
    """`products`, `by_right_factor` and `by_left_factor` of a with every
    constant multiplied by the lcm of all their denominators, as ints.

    Every identity solved here is homogeneous in the structure constants, so
    this scales each equation row by a nonzero constant and leaves its
    solutions alone: denominators are cleared once per algebra, not per row.
    """
    scale = lcm(*(c.denominator for plane in a.products
                  for pairs in plane for _, c in pairs))

    def scaled(table):
        return tuple(
            tuple(tuple((m, c.numerator * (scale // c.denominator))
                        for m, c in pairs) for pairs in row)
            for row in table
        )

    return scaled(a.products), scaled(a.by_right_factor), scaled(a.by_left_factor)


def _emit(rows: list, terms) -> None:
    """Append the {col: coeff} row summing the (col, coeff) `terms`,
    unless it vanishes."""
    row: dict[int, int] = {}
    for col, c in terms:
        row[col] = row.get(col, 0) + c
    row = {col: c for col, c in row.items() if c}
    if row:
        rows.append(row)


@dataclass(frozen=True)
class Weights:
    """A pair of positive integer weights.

    The defining convention takes p != q; equal weights are accepted only
    with an explicit opt-in, because the (1,1) space is a genuinely
    different object and an accidental p = q would silently test it.
    """

    p: int
    q: int
    allow_equal: bool = False

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("weights must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError("weights must be positive")
        if self.p == self.q and not self.allow_equal:
            raise ValueError(
                "equal weights rejected by convention; pass allow_equal=True"
            )

    @property
    def pair(self) -> tuple[int, int]:
        return (self.p, self.q)


@dataclass(frozen=True)
class OperatorSpace:
    """A linear space of operators on an algebra, canonically represented.

    The backing subspace lives in n^2-space via row-major flattening, so
    equality of operator spaces is exact span equality.
    """

    algebra_dim: int
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.algebra_dim ** 2:
            raise ValueError("backing subspace must live in n^2-space")

    @property
    def dim(self) -> int:
        return self.space.dim

    def operators(self) -> tuple[Matrix, ...]:
        n = self.algebra_dim
        return tuple(Matrix(n, n, v) for v in self.space.basis)

    def contains_operator(self, t: Matrix) -> bool:
        return self.space.contains_vector(t.entries)


def operator_space(n: int, flats: Sequence[Sequence]) -> OperatorSpace:
    return OperatorSpace(n, Subspace.span(n * n, flats))


def identity_operator(n: int) -> Matrix:
    return identity_matrix(n)


def zero_operator(n: int) -> Matrix:
    return zero_matrix(n, n)


def apply_operator(t: Matrix, x: Sequence) -> Vector:
    return apply_matrix(t, x)


def compose(s: Matrix, t: Matrix) -> Matrix:
    """The operator x -> s(t(x))."""
    return matmul(s, t)


def right_mul(a: Algebra, x: Sequence) -> Matrix:
    """Right multiplication operator b -> b*x."""
    n = a.dim
    entries = [_ZERO] * (n * n)
    for j, xj in enumerate(x):
        if not xj:
            continue
        for k in range(n):
            for m, c in a.by_right_factor[j][k]:
                entries[k * n + m] += xj * c
    return Matrix(n, n, tuple(entries))


def left_mul(a: Algebra, x: Sequence) -> Matrix:
    """Left multiplication operator b -> x*b."""
    n = a.dim
    entries = [_ZERO] * (n * n)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for k in range(n):
            for m, c in a.by_left_factor[i][k]:
                entries[k * n + m] += xi * c
    return Matrix(n, n, tuple(entries))


@lru_cache(maxsize=None)
def right_mul_space(a: Algebra) -> OperatorSpace:
    """All right multiplication operators, as an operator space."""
    n = a.dim
    return operator_space(
        n, [right_mul(a, basis_vector(n, i)).entries for i in range(n)]
    )


@lru_cache(maxsize=None)
def left_mul_space(a: Algebra) -> OperatorSpace:
    n = a.dim
    return operator_space(
        n, [left_mul(a, basis_vector(n, i)).entries for i in range(n)]
    )


def right_mul_image(a: Algebra, s: Subspace) -> OperatorSpace:
    """The operator space of right multiplications by elements of s."""
    return operator_space(a.dim, [right_mul(a, v).entries for v in s.basis])


@lru_cache(maxsize=None)
def two_sided_mul_elements(a: Algebra) -> Subspace:
    """Elements v whose right multiplication is a two-sided centralizer.

    Right multiplication is always a right centralizer by associativity;
    the extra condition is (xy)v = (xv)y on all basis pairs. On a unital
    algebra this is exactly the center; without a unit it can be larger.
    """
    n = a.dim
    prods, by_right, by_left = _int_tables(a)
    rows: list = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _emit(rows, chain(
                    ((m, c1 * c2) for l, c1 in prods[i][j]
                     for m, c2 in by_left[l][k]),
                    ((m, -c1 * c2) for l, c2 in by_right[j][k]
                     for m, c1 in by_left[i][l]),
                ))
    return nullspace_of_rows(rows, n)


# ---------------------------------------------------------------------------
# space solvers
#
# Unknowns are the flat entries t[k*n + m] = coefficient of b_k in T(b_m).
# One scalar equation per basis pair (i, j) and output coordinate k, built
# as a sparse {col: int} row from the integer-scaled structure constants.
# ---------------------------------------------------------------------------

def _solve_rows(n: int, rows: list) -> OperatorSpace:
    unique = {frozenset(row.items()): row for row in rows}
    return OperatorSpace(n, nullspace_of_rows(list(unique.values()), n * n))


def _weighted_rows(a: Algebra, p: int, q: int) -> list:
    n = a.dim
    prods, by_right, by_left = _int_tables(a)
    s = p + q
    rows: list = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _emit(rows, chain(
                    ((k * n + m, s * c) for m, c in prods[i][j]),
                    ((m * n + i, -p * c) for m, c in by_right[j][k]),
                    ((m * n + j, -q * c) for m, c in by_left[i][k]),
                ))
    return rows


@lru_cache(maxsize=None)
def pq_centralizers(a: Algebra, w: Weights) -> OperatorSpace:
    """The space of (p, q)-weighted centralizers of a."""
    return _solve_rows(a.dim, _weighted_rows(a, w.p, w.q))


@lru_cache(maxsize=None)
def pq_jordan_centralizers(a: Algebra, w: Weights) -> OperatorSpace:
    """Weighted Jordan centralizers, via the polarized identity."""
    n = a.dim
    prods, by_right, by_left = _int_tables(a)
    p, q = w.p, w.q
    s = p + q
    rows: list = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                _emit(rows, chain(
                    ((k * n + m, s * c) for m, c in prods[i][j]),
                    ((k * n + m, s * c) for m, c in prods[j][i]),
                    ((m * n + i, -p * c) for m, c in by_right[j][k]),
                    ((m * n + j, -p * c) for m, c in by_right[i][k]),
                    ((m * n + j, -q * c) for m, c in by_left[i][k]),
                    ((m * n + i, -q * c) for m, c in by_left[j][k]),
                ))
    return _solve_rows(n, rows)


def _left_rows(a: Algebra) -> list:
    """Rows of T(ab) = T(a)b."""
    n = a.dim
    prods, by_right, _ = _int_tables(a)
    rows: list = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _emit(rows, chain(
                    ((k * n + m, c) for m, c in prods[i][j]),
                    ((m * n + i, -c) for m, c in by_right[j][k]),
                ))
    return rows


def _right_rows(a: Algebra) -> list:
    """Rows of T(ab) = a T(b)."""
    n = a.dim
    prods, _, by_left = _int_tables(a)
    rows: list = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _emit(rows, chain(
                    ((k * n + m, c) for m, c in prods[i][j]),
                    ((m * n + j, -c) for m, c in by_left[i][k]),
                ))
    return rows


@lru_cache(maxsize=None)
def left_centralizers(a: Algebra) -> OperatorSpace:
    """Solutions of T(ab) = T(a)b."""
    return _solve_rows(a.dim, _left_rows(a))


@lru_cache(maxsize=None)
def right_centralizers(a: Algebra) -> OperatorSpace:
    """Solutions of T(ab) = a T(b)."""
    return _solve_rows(a.dim, _right_rows(a))


@lru_cache(maxsize=None)
def two_sided_centralizers(a: Algebra) -> OperatorSpace:
    """Operators that are left and right centralizers at once: one solve of
    the stacked left and right rows."""
    return _solve_rows(a.dim, _left_rows(a) + _right_rows(a))


# ---------------------------------------------------------------------------
# membership predicates
#
# Direct identity checks on basis pairs, independent of the solvers; each
# returns the first failing (i, j, residual) for use as a report witness.
# ---------------------------------------------------------------------------

def _columns(t: Matrix) -> list[Vector]:
    n = t.rows
    return [tuple(t.entries[k * n + m] for k in range(n)) for m in range(n)]


def pq_residual(a: Algebra, t: Matrix, w: Weights
                ) -> Optional[tuple[int, int, Vector]]:
    n = a.dim
    cols = _columns(t)
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(n):
            ej = basis_vector(n, j)
            lhs = apply_matrix(t, multiply(a, ei, ej))
            r1 = multiply(a, cols[i], ej)
            r2 = multiply(a, ei, cols[j])
            res = tuple(
                (w.p + w.q) * l - w.p * x - w.q * y
                for l, x, y in zip(lhs, r1, r2)
            )
            if any(res):
                return i, j, res
    return None


def jordan_residual(a: Algebra, t: Matrix, w: Weights
                    ) -> Optional[tuple[int, int, Vector]]:
    n = a.dim
    cols = _columns(t)
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(i, n):
            ej = basis_vector(n, j)
            both = tuple(
                x + y for x, y in
                zip(multiply(a, ei, ej), multiply(a, ej, ei))
            )
            lhs = apply_matrix(t, both)
            res = tuple(
                (w.p + w.q) * l
                - w.p * (x1 + x2) - w.q * (y1 + y2)
                for l, x1, x2, y1, y2 in zip(
                    lhs,
                    multiply(a, cols[i], ej),
                    multiply(a, cols[j], ei),
                    multiply(a, ei, cols[j]),
                    multiply(a, ej, cols[i]),
                )
            )
            if any(res):
                return i, j, res
    return None


def left_residual(a: Algebra, t: Matrix) -> Optional[tuple[int, int, Vector]]:
    n = a.dim
    cols = _columns(t)
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(n):
            ej = basis_vector(n, j)
            lhs = apply_matrix(t, multiply(a, ei, ej))
            rhs = multiply(a, cols[i], ej)
            res = tuple(l - r for l, r in zip(lhs, rhs))
            if any(res):
                return i, j, res
    return None


def right_residual(a: Algebra, t: Matrix) -> Optional[tuple[int, int, Vector]]:
    n = a.dim
    cols = _columns(t)
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(n):
            ej = basis_vector(n, j)
            lhs = apply_matrix(t, multiply(a, ei, ej))
            rhs = multiply(a, ei, cols[j])
            res = tuple(l - r for l, r in zip(lhs, rhs))
            if any(res):
                return i, j, res
    return None


def is_pq_centralizer(a: Algebra, t: Matrix, w: Weights) -> bool:
    return pq_residual(a, t, w) is None


def is_pq_jordan_centralizer(a: Algebra, t: Matrix, w: Weights) -> bool:
    return jordan_residual(a, t, w) is None


def is_left_centralizer(a: Algebra, t: Matrix) -> bool:
    return left_residual(a, t) is None


def is_right_centralizer(a: Algebra, t: Matrix) -> bool:
    return right_residual(a, t) is None


def is_two_sided_centralizer(a: Algebra, t: Matrix) -> bool:
    return left_residual(a, t) is None and right_residual(a, t) is None


def inclusion_chain_holds(a: Algebra, w: Weights) -> bool:
    """two-sided inside weighted inside weighted-Jordan."""
    cts = two_sided_centralizers(a).space
    cpq = pq_centralizers(a, w).space
    cj = pq_jordan_centralizers(a, w).space
    return subspace_contains(cpq, cts) and subspace_contains(cj, cpq)
