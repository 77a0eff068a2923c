"""Dense Fraction matrix helpers, kept for the tests as reference code.

The package computes with operators in their integer form
(`pqcent.centralizers.IntOperator`) and keeps `Matrix` only as a value
type. These helpers are the straightforward dense versions of the matrix
operations the tests still need: building vectors and matrices, products,
transposes and matrix-vector products, all in exact Fraction arithmetic,
and the Fraction views of the structure constants by one factor, walked
from the dense table.
"""

from fractions import Fraction

from pqcent.linalg import DimensionMismatch, Matrix

_ZERO = Fraction(0)


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
