"""The canonical integer operator form that every check reads.

`OperatorSpace.int_operators` reads each operator off a primitive row of the
solved subspace, and `int_operator` converts a dense `Matrix`; the two must
agree, be primitive, and compare equal exactly when the operators do. The
multiplication builders and `apply_operator` are checked against the dense
Fraction code they replaced, kept here as `_ref_` oracles.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd
from random import Random

import pytest

from dense_ref import (_ref_apply_matrix, _ref_by_left_factor,
                       _ref_by_right_factor)
from pqcent.algebras import make_algebra
from pqcent.centralizers import (
    IntOperator,
    Weights,
    apply_operator,
    int_operator,
    left_mul,
    left_mul_int,
    pq_centralizers,
    pq_jordan_centralizers,
    right_mul,
    right_mul_int,
    two_sided_centralizers,
)
from pqcent.fixtures import fixtures
from pqcent.groups import cayley_table, group_algebra
from pqcent.linalg import DimensionMismatch, Matrix
from pqcent.verify import DEFAULT_WEIGHT_PAIRS

_ZERO = Fraction(0)


def _ref_mul_operator(a, x, by_factor):
    """sum_j x_j M_j in Fractions, M_j the matrix with sparse rows
    by_factor[j][k]."""
    n = a.dim
    entries = [_ZERO] * (n * n)
    for j, xj in enumerate(x):
        if not xj:
            continue
        for k in range(n):
            for m, c in by_factor[j][k]:
                entries[k * n + m] += xj * c
    return Matrix(n, n, tuple(entries))


def _s4():
    perms = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return group_algebra(cayley_table([
        [index[tuple(g[h[x]] for x in range(4))] for h in perms] for g in perms
    ], "s4"))


def _rescaled(a, s):
    """a in the basis e_i = s[i] b_i, whose structure constants are fractions."""
    n = a.dim
    return make_algebra(n, [[[a.table[i][j][k] * s[i] * s[j] / s[k]
                              for k in range(n)] for j in range(n)]
                            for i in range(n)], name=f"rescaled {a.name}")


def _algebras():
    algebras = dict(fixtures())
    algebras["s4"] = _s4()
    a = algebras["group_s3"]
    algebras["rescaled group_s3"] = _rescaled(
        a, [Fraction((-1) ** i * (i + 2), 2 * i + 3) for i in range(a.dim)])
    return algebras


ALGEBRAS = _algebras()
NAMES = sorted(ALGEBRAS)


def _spaces(a):
    for pair in DEFAULT_WEIGHT_PAIRS:
        yield pq_centralizers(a, Weights(*pair))
        yield pq_jordan_centralizers(a, Weights(*pair))
    yield two_sided_centralizers(a)


def _assert_canonical(t, n):
    assert isinstance(t, IntOperator)
    assert t.den > 0 and len(t.cols) == n
    entries = [v for col in t.cols for _, v in col]
    assert gcd(t.den, *entries) == 1
    for col in t.cols:
        rows = [k for k, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= k < n for k in rows)
        assert all(v for _, v in col)


def test_inputs_cover_fractional_constants():
    assert any(c.denominator != 1
               for plane in ALGEBRAS["rescaled group_s3"].products
               for pairs in plane for _, c in pairs)


@pytest.mark.parametrize("name", NAMES)
def test_space_operators_match_the_matrix_conversion(name):
    a = ALGEBRAS[name]
    for space in _spaces(a):
        forms = space.int_operators
        assert len(forms) == space.dim
        assert forms == tuple(map(int_operator, space.operators())), name
        for t in forms:
            _assert_canonical(t, a.dim)


@pytest.mark.parametrize("name", NAMES)
def test_multiplication_forms_match_the_dense_operators(name):
    a = ALGEBRAS[name]
    n = a.dim
    rng = Random(name)
    for _ in range(3):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             if rng.random() < 0.7 else _ZERO for _ in range(n)]
        for build, dense, by_factor in (
                (right_mul_int, right_mul, _ref_by_right_factor(n, a.table)),
                (left_mul_int, left_mul, _ref_by_left_factor(n, a.table))):
            t = build(a, x)
            _assert_canonical(t, n)
            assert dense(a, x) == _ref_mul_operator(a, x, by_factor), name
            assert t == int_operator(dense(a, x)), name
            y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(n)]
            assert apply_operator(t, y) == _ref_apply_matrix(dense(a, x), y)


def test_zero_and_identity_forms():
    n = 3
    zero = int_operator(Matrix(n, n, (_ZERO,) * (n * n)))
    assert zero == IntOperator(1, ((),) * n)
    half = Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert int_operator(half) == IntOperator(2, (((0, 1),), ((1, 1),)))
    assert int_operator(zero) is zero
    with pytest.raises(DimensionMismatch):
        int_operator(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(DimensionMismatch):
        apply_operator(zero, (1, 2))


@pytest.mark.parametrize("name", ["group_s3", "matrix2", "rescaled group_s3"])
def test_an_entry_moved_by_a_third_compares_unequal(name):
    a = ALGEBRAS[name]
    n = a.dim
    rng = Random(name)
    for t in pq_centralizers(a, Weights(1, 2)).operators():
        entries = list(t.entries)
        entries[rng.randrange(n * n)] += Fraction(1, 3)
        moved = int_operator(Matrix(n, n, tuple(entries)))
        _assert_canonical(moved, n)
        assert moved != int_operator(t)
        assert int_operator(Matrix(n, n, t.entries)) == int_operator(t)
