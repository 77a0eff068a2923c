"""Dense Fraction matrices, kept for the tests as reference code.

The package has one operator type, the canonical integer form
`pqcent.centralizers.IntOperator`. The tests keep the dense matrix as their
reference value type: `Matrix` is a row-major Fraction matrix,
`int_operator` and `operator_matrix` convert a square one to and from the
integer form, and the `_ref_` helpers are the straightforward dense
versions of the matrix operations the tests still need: building vectors
and matrices, products, transposes and matrix-vector products, all in exact
Fraction arithmetic, and the Fraction views of the structure constants by
one factor, walked from the dense table.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from pqcent.centralizers import IntOperator
from pqcent.linalg import DimensionMismatch, clear_denominators

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix, row-major immutable storage."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != rows*cols "
                f"{self.rows}*{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(Fraction(v) for v in r)
        return cls(nrows, ncols, tuple(flat))

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]


def int_operator(t: Matrix) -> IntOperator:
    """The integer form of the n x n Matrix t.

    Scaling by the lcm d of the denominators leaves no factor common to d
    and every entry, so the form is canonical without a gcd.
    """
    n = t.rows
    if t.cols != n:
        raise DimensionMismatch(f"operator is {t.rows}x{t.cols}, not square")
    den, ints = clear_denominators(t.entries)
    return IntOperator(den, tuple(
        tuple((k, ints[k * n + m]) for k in range(n) if ints[k * n + m])
        for m in range(n)))


def operator_matrix(t: IntOperator) -> Matrix:
    """The n x n Matrix of t, entry (k, m) the b_k coordinate of T(b_m)."""
    n = len(t.cols)
    entries = [_ZERO] * (n * n)
    for m, col in enumerate(t.cols):
        for k, v in col:
            entries[k * n + m] = Fraction(v, t.den)
    return Matrix(n, n, tuple(entries))


def _ref_vec(values):
    return tuple(Fraction(v) for v in values)


def _ref_identity_matrix(n):
    return Matrix(n, n, tuple(
        Fraction(1 if i == j else 0) for i in range(n) for j in range(n)
    ))


def _ref_zero_matrix(rows, cols):
    return Matrix(rows, cols, (_ZERO,) * (rows * cols))


def _ref_transpose(m):
    return Matrix(m.cols, m.rows, tuple(
        m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows)
    ))


def _ref_matmul(a, b):
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    flat = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            flat.append(sum(
                (arow[k] * b.entries[k * b.cols + j]
                 for k in range(a.cols) if arow[k]),
                _ZERO,
            ))
    return Matrix(a.rows, b.cols, tuple(flat))


def _ref_apply_matrix(m, v):
    if m.cols != len(v):
        raise DimensionMismatch(
            f"matrix has {m.cols} columns, vector has {len(v)}")
    return tuple(
        sum((m.entries[i * m.cols + j] * vj for j, vj in enumerate(v) if vj),
            _ZERO)
        for i in range(m.rows)
    )


def _ref_by_right_factor(n, table):
    return tuple(
        tuple(
            tuple(
                (m, table[m][j][k]) for m in range(n)
                if table[m][j][k]
            )
            for k in range(n)
        )
        for j in range(n)
    )


def _ref_by_left_factor(n, table):
    return tuple(
        tuple(
            tuple(
                (m, table[i][m][k]) for m in range(n)
                if table[i][m][k]
            )
            for k in range(n)
        )
        for i in range(n)
    )
