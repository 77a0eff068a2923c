import copy
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import gcd, lcm
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dense_ref import (
    Matrix,
    _ref_apply_matrix,
    _ref_identity_matrix,
    _ref_matmul,
    _ref_transpose,
    _ref_vec,
    basis_vector,
)
from solver_ref import _full_rows
from pqcent.centralizers import LEFT, RIGHT, Weights, jordan, weighted
from pqcent.fixtures import fixtures
from pqcent.groups import cayley_table, group_algebra
from pqcent.linalg import (
    DimensionMismatch,
    _echelon_insert,
    _eliminate,
    _normalize,
    _reduce,
    _sparse_row,
    Subspace,
    column_index,
    full_space,
    lift,
    nullspace_of_rows,
    solve_affine_rows,
    subspace_contains,
    subspace_equal,
    subspace_intersect,
    zero_vector,
)

F = Fraction


def _pivots(s):
    return tuple(p for p, _ in s.rows)


def _sum(s, t):
    return Subspace.span(s.ambient_dim, s.basis + t.basis)

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Matrix.from_rows)
        )
    )


def subspaces(ambient=4, max_vecs=4):
    return st.lists(
        st.lists(rationals, min_size=ambient, max_size=ambient),
        min_size=0,
        max_size=max_vecs,
    ).map(lambda vs: Subspace.span(ambient, vs))


# ---------------------------------------------------------------------------
# row echelon form: the canonical basis of the row space
# ---------------------------------------------------------------------------

def _rref_entries(s, nrows):
    """The RREF of a matrix with `nrows` rows whose row space is s: the
    basis of s, then zero rows."""
    return [e for row in s.basis for e in row] + [0] * (
        (nrows - s.dim) * s.ambient_dim)


def _from_basis(n, basis):
    """The Subspace whose dense RREF basis is `basis`, built from integer
    rows without the elimination core: a row with pivot entry 1, times the
    lcm of its denominators, is the primitive integer row of the form."""
    rows = []
    for row in basis:
        d = lcm(*(F(v).denominator for v in row))
        pairs = tuple((i, int(v * d)) for i, v in enumerate(row) if v)
        rows.append((pairs[0][0], pairs))
    return Subspace(n, tuple(rows))


def test_rref_identity():
    s = Subspace.span(2, [[1, 0], [0, 1]])
    assert s.basis == ((1, 0), (0, 1)) and s.dim == 2 and _pivots(s) == (0, 1)


def test_rref_zero():
    s = Subspace.span(2, [[0, 0], [0, 0]])
    assert s.basis == () and s.dim == 0 and _pivots(s) == ()


def test_rref_rank_one():
    s = Subspace.span(2, [[2, 4], [1, 2]])
    assert _rref_entries(s, 2) == [1, 2, 0, 0]
    assert s.dim == 1 and _pivots(s) == (0,)


def test_rref_fractional_entries():
    s = Subspace.span(2, [[F(1, 2), F(1, 3)], [F(3, 2), 1]])
    assert s.dim == 1
    assert s.basis[0] == (F(1), F(2, 3))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_sympy(m):
    s = Subspace.span(m.cols, m.to_rows())
    sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(e) for e in m.entries])
    sr, spivots = sm.rref()
    assert _pivots(s) == spivots
    assert s.dim == len(spivots)
    assert [sympy.Rational(e) for e in _rref_entries(s, m.rows)] == list(sr)


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_single_row():
    s = nullspace_of_rows([[1, 1]], 2)
    assert s.basis == ((F(1), F(-1)),)


def test_nullspace_identity_and_zero():
    assert nullspace_of_rows([[1, 0], [0, 1]], 2) == Subspace(2, ())
    assert nullspace_of_rows([[0, 0], [0, 0]], 2) == full_space(2)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity_and_exact_kernel(m):
    rank = Subspace.span(m.cols, m.to_rows()).dim
    ns = nullspace_of_rows(m.to_rows(), m.cols)
    assert rank + ns.dim == m.cols
    for v in ns.basis:
        for i in range(m.rows):
            assert sum(a * b for a, b in zip(m.row(i), v)) == 0


# ---------------------------------------------------------------------------
# solve_affine
# ---------------------------------------------------------------------------

def test_solve_affine_identity():
    sol = solve_affine_rows([[1, 0], [0, 1]], [3, 5], 2)
    assert sol is not None
    particular, homo = sol
    assert particular == _ref_vec([3, 5]) and homo.dim == 0


def test_solve_affine_underdetermined():
    sol = solve_affine_rows([[1, 1]], [1], 2)
    assert sol is not None
    particular, homo = sol
    assert particular == _ref_vec([1, 0])
    assert homo.basis == ((F(1), F(-1)),)


def test_solve_affine_inconsistent():
    assert solve_affine_rows([[0, 0]], [1], 2) is None


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_affine_residual(m, data):
    b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    sol = solve_affine_rows(m.to_rows(), b, m.cols)
    if sol is None:
        # cross-check with sympy: the system really is inconsistent
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(e) for e in m.entries])
        sb = sympy.Matrix([sympy.Rational(x) for x in b])
        assert sympy.linsolve((sm, sb)) == sympy.EmptySet
        return
    particular, homo = sol
    for i in range(m.rows):
        assert sum(a * x for a, x in zip(m.row(i), particular)) == Fraction(b[i])
    for v in homo.basis:
        shifted = tuple(p + h for p, h in zip(particular, v))
        for i in range(m.rows):
            assert sum(a * x for a, x in zip(m.row(i), shifted)) == Fraction(b[i])


# ---------------------------------------------------------------------------
# subspace lattice
# ---------------------------------------------------------------------------

def test_subspace_canonical_examples():
    s = Subspace.span(2, [[1, 0]])
    t = Subspace.span(2, [[1, 0]])
    assert subspace_equal(s, t)
    assert subspace_equal(Subspace.span(2, [[1, 1]]), Subspace.span(2, [[2, 2]]))


def test_subspace_sum_and_intersection_of_axes():
    s = Subspace.span(2, [[1, 0]])
    t = Subspace.span(2, [[0, 1]])
    assert subspace_intersect(s, t) == Subspace(2, ())
    assert _sum(s, t) == full_space(2)


def test_subspace_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        subspace_intersect(Subspace.span(2, [[1, 0]]), Subspace.span(3, [[1, 0, 0]]))


def test_subspace_rejects_non_canonical_basis():
    # the one constructor takes the canonical integer rows: a dense Fraction
    # basis is not that form, even when it is the reduced one
    for basis in (((F(1), F(0)),),
                  ((F(1), F(0)), (F(0), F(1))),
                  ((F(2), F(0)),),
                  ((F(0), F(1)), (F(1), F(0))),
                  ((F(1), F(1)), (F(0), F(1))),   # entry in a pivot column
                  ((F(0), F(0)),),                # zero row
                  ((F(1), F(0)), (F(1), F(0))),   # repeated pivot
                  ((F(-1), F(2)),),               # negative pivot entry
                  ((F(1), F(0), F(0)),)):         # wrong length
        with pytest.raises(ValueError):
            Subspace(2, basis)


@settings(max_examples=60, deadline=None)
@given(subspaces())
def test_canonicalization_idempotent(s):
    assert Subspace.span(s.ambient_dim, s.basis) == s


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_modular_dimension_law(s, t):
    total = _sum(s, t)
    meet = subspace_intersect(s, t)
    assert s.dim + t.dim == total.dim + meet.dim
    assert subspace_contains(total, s) and subspace_contains(total, t)
    assert subspace_contains(s, meet) and subspace_contains(t, meet)


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_containment_consistent_with_sum(s, t):
    assert subspace_contains(s, t) == (_sum(s, t) == s)


# ---------------------------------------------------------------------------
# the dense reference matrix helpers of the tests
# ---------------------------------------------------------------------------

def test_matmul_example():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert _ref_matmul(a, b) == Matrix.from_rows([[2, 1], [4, 3]])
    assert _ref_matmul(a, _ref_identity_matrix(2)) == a


def test_transpose_involution_and_apply():
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert _ref_transpose(_ref_transpose(a)) == a
    assert _ref_apply_matrix(a, _ref_vec([1, 0, -1])) == _ref_vec([-2, -2])


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3), matrices(3, 3), st.data())
def test_matmul_compatible_with_apply(a, b, data):
    if a.cols != b.rows:
        b = Matrix(a.cols, b.cols, tuple(
            b.entries[(i % b.rows) * b.cols + j]
            for i in range(a.cols) for j in range(b.cols)
        ))
    v = _ref_vec(data.draw(st.lists(rationals, min_size=b.cols, max_size=b.cols)))
    assert _ref_apply_matrix(_ref_matmul(a, b), v) == \
        _ref_apply_matrix(a, _ref_apply_matrix(b, v))
    assert _ref_transpose(_ref_matmul(a, b)) == \
        _ref_matmul(_ref_transpose(b), _ref_transpose(a))


# ---------------------------------------------------------------------------
# differential tests of the sparse integer core
#
# The reference oracle is the dense elimination the package used before its
# sparse core: integer-scaled dense list rows, reduced against the pivots
# found so far, then back-substituted into Fraction RREF rows. It stays here
# only as an independent second implementation; sympy is the third.
# ---------------------------------------------------------------------------

def _dense_int_row(row):
    fracs = [Fraction(v) for v in row]
    scale = lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs]


def _dense_normalize(row, lead):
    g = 0
    for v in row:
        g = gcd(g, v)
    if g == 0:
        return row
    if row[lead] < 0:
        g = -g
    return [v // g for v in row]


def _dense_first_nonzero(row, start=0):
    return next((i for i in range(start, len(row)) if row[i]), None)


def oracle_rref(rows, ncols):
    """(RREF rows as Fraction tuples, pivot columns) of dense `rows`."""
    pivot_rows = {}
    for r in rows:
        row = _dense_int_row(r)
        assert len(row) == ncols
        c = _dense_first_nonzero(row)
        while c is not None:
            p = pivot_rows.get(c)
            if p is None:
                pivot_rows[c] = _dense_normalize(row, c)
                break
            g = gcd(p[c], row[c])
            am, bm = p[c] // g, row[c] // g
            row = [am * x - bm * y for x, y in zip(row, p)]
            c = _dense_first_nonzero(row, c + 1)
    cols = sorted(pivot_rows)
    reduced = [pivot_rows[c] for c in cols]
    for i in range(len(reduced) - 1, -1, -1):
        c, p = cols[i], reduced[i]
        for j in range(i):
            b = reduced[j][c]
            if b:
                g = gcd(p[c], b)
                am, bm = p[c] // g, b // g
                combined = [am * x - bm * y for x, y in zip(reduced[j], p)]
                reduced[j] = _dense_normalize(combined, cols[j])
    out = [tuple(Fraction(v, r[c]) for v in r) for c, r in zip(cols, reduced)]
    return out, tuple(cols)


def oracle_nullspace(rows, ncols):
    """Canonical (RREF) basis of the solutions of the dense system `rows`."""
    reduced, pivots = oracle_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            v[p] = -r[f]
        basis.append(v)
    return tuple(oracle_rref(basis, ncols)[0])


def oracle_solve_affine(rows, rhs, ncols):
    reduced, pivots = oracle_rref([[*r, b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for r, p in zip(reduced, pivots):
        particular[p] = r[ncols]
    return tuple(particular), oracle_nullspace(rows, ncols)


def sympy_canonical_span(vectors, ncols):
    """RREF basis of the span of sympy column or row vectors."""
    if not vectors:
        return ()
    reduced, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i))
        for i in range(len(pivots))
    )


def sympy_matrix(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(Fraction(v)) for r in rows for v in r])


# entries lean towards zero so rows are sparse, mixing the all-int fast path
# with rows that carry denominators
entries = st.one_of(
    st.just(0), st.just(0), st.integers(-4, 4), st.just(F(0)), rationals
)


@st.composite
def systems(draw, max_rows=6, max_cols=6):
    """(ncols, dense rows) with optional duplicate and all-zero rows."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols), max_size=max_rows
    ))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return ncols, rows


def as_sparse(rows, keep_zeros):
    """The same rows as {col: value} dicts, explicit zeros kept or dropped."""
    return [{c: v for c, v in enumerate(r) if keep_zeros or v} for r in rows]


@settings(max_examples=80, deadline=None)
@given(systems())
def test_rref_agrees_with_dense_oracle_and_sympy(system):
    ncols, rows = system
    if not rows:
        return
    s = Subspace.span(ncols, rows)
    ours = _rref_entries(s, len(rows))
    expected, expected_pivots = oracle_rref(rows, ncols)
    assert _pivots(s) == expected_pivots and s.dim == len(expected)
    assert list(s.basis) == expected
    assert all(v == 0 for v in ours[s.dim * ncols:])
    sr, spivots = sympy_matrix(rows, ncols).rref()
    assert _pivots(s) == spivots
    assert [sympy.Rational(e) for e in ours] == list(sr)


@settings(max_examples=80, deadline=None)
@given(systems(), st.booleans())
def test_nullspace_of_rows_agrees_dense_sparse_oracle_sympy(system, keep_zeros):
    ncols, rows = system
    dense = nullspace_of_rows(rows, ncols)
    sparse = nullspace_of_rows(as_sparse(rows, keep_zeros), ncols)
    assert dense == sparse
    assert dense.basis == oracle_nullspace(rows, ncols)
    assert dense.basis == sympy_canonical_span(
        sympy_matrix(rows, ncols).nullspace(), ncols
    )


@settings(max_examples=80, deadline=None)
@given(systems(), st.booleans())
def test_span_agrees_dense_sparse_oracle_sympy(system, keep_zeros):
    ncols, rows = system
    s = Subspace.span(ncols, rows)
    assert s == Subspace.span(ncols, as_sparse(rows, keep_zeros))
    assert s.basis == tuple(oracle_rref(rows, ncols)[0])
    nonzero = [sympy_matrix([r], ncols).T for r in rows if any(r)]
    assert s.basis == sympy_canonical_span(nonzero, ncols)


@settings(max_examples=80, deadline=None)
@given(systems(), st.booleans(), st.data())
def test_solve_affine_rows_agrees_dense_sparse_oracle_sympy(system, keep_zeros, data):
    ncols, rows = system
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    ours = solve_affine_rows(rows, rhs, ncols)
    assert ours == solve_affine_rows(as_sparse(rows, keep_zeros), rhs, ncols)
    expected = oracle_solve_affine(rows, rhs, ncols)
    if expected is None:
        assert ours is None
    else:
        assert ours is not None
        assert ours[0] == expected[0] and ours[1].basis == expected[1]
    a = sympy_matrix(rows, ncols)
    aug, spivots = a.row_join(sympy_matrix([[b] for b in rhs], 1)).rref()
    assert (ours is None) == (ncols in spivots)
    if ours is not None:
        particular = [Fraction(0)] * ncols
        for i, p in enumerate(spivots):
            particular[p] = Fraction(int(aug[i, ncols].p), int(aug[i, ncols].q))
        assert ours[0] == tuple(particular)
        assert ours[1].basis == sympy_canonical_span(a.nullspace(), ncols)


def test_solve_affine_rows_inconsistent_sparse_and_dense():
    # x0 + x1 = 1 and 2x0 + 2x1 = 3 cannot both hold
    assert solve_affine_rows([{0: 1, 1: 1}, {0: 2, 1: 2}], [1, 3], 2) is None
    assert solve_affine_rows([[F(1, 2), F(1, 2)], [1, 1]], [1, 1], 2) is None
    assert solve_affine_rows([{}], [1], 3) is None


def test_duplicate_and_zero_sparse_rows():
    rows = [{1: F(1, 3)}, {1: F(1, 3)}, {}, {0: 0, 2: 0}, {1: 2}]
    s = nullspace_of_rows(rows, 3)
    assert s.basis == ((F(1), F(0), F(0)), (F(0), F(0), F(1)))


@pytest.mark.parametrize("bad", [{3: 1}, {-1: 1}, {0: 1, 7: F(1, 2)}])
def test_sparse_row_column_out_of_range(bad):
    with pytest.raises(DimensionMismatch):
        nullspace_of_rows([bad], 3)
    with pytest.raises(DimensionMismatch):
        Subspace.span(3, [bad])
    with pytest.raises(DimensionMismatch):
        solve_affine_rows([bad], [1], 3)


def test_dense_row_of_wrong_length():
    with pytest.raises(DimensionMismatch):
        nullspace_of_rows([[1, 2]], 3)
    with pytest.raises(DimensionMismatch):
        solve_affine_rows([[1, 2, 3, 4]], [0], 3)


# ---------------------------------------------------------------------------
# differential tests of the integer kernel
#
# The `_ref_` oracle is the kernel path the package used before kernel rows
# were built in integers: back-substitute every pivot row into a dense
# Fraction RREF row, read each free column's kernel vector off those rows,
# and canonicalize the vectors with a second elimination in `Subspace.span`.
# ---------------------------------------------------------------------------

def _ref_back_eliminate(pivot_rows, ncols):
    cols = sorted(pivot_rows)
    rows = [pivot_rows[c] for c in cols]
    for i in range(len(rows) - 1, -1, -1):
        c, p = cols[i], rows[i]
        for j in range(i):
            if c in rows[j]:
                rows[j] = _normalize(_eliminate(rows[j], p, c), cols[j])
    out = []
    for c, r in zip(cols, rows):
        dense = list(zero_vector(ncols))
        for k, v in r.items():
            dense[k] = Fraction(v, r[c])
        out.append(tuple(dense))
    return out, tuple(cols)


def _ref_rref_of_rows(rows, ncols):
    pivot_rows = {}
    for r in rows:
        _echelon_insert(_sparse_row(r, ncols), pivot_rows)
    return _ref_back_eliminate(pivot_rows, ncols)


def _ref_span(vectors, ncols):
    """The dense Fraction RREF basis of the span of `vectors`."""
    return tuple(_ref_rref_of_rows(vectors, ncols)[0])


def _ref_kernel_basis(reduced, pivots, ncols):
    pivot_set = set(pivots)
    basis = [{f: 1, **{p: -r[f] for r, p in zip(reduced, pivots) if r[f]}}
             for f in range(ncols) if f not in pivot_set]
    return _ref_span(basis, ncols)


def _ref_kernel(reduced, pivots, ncols):
    return _from_basis(ncols, _ref_kernel_basis(reduced, pivots, ncols))


def _ref_nullspace_of_rows(rows, ncols):
    return _ref_kernel(*_ref_rref_of_rows(rows, ncols), ncols)


def _ref_solve_affine_rows(rows, rhs, ncols):
    augmented = [{**r, ncols: b} if isinstance(r, dict) else [*r, b]
                 for r, b in zip(rows, rhs)]
    reduced, pivots = _ref_rref_of_rows(augmented, ncols + 1)
    if ncols in pivots:
        return None
    particular = list(zero_vector(ncols))
    for r, p in zip(reduced, pivots):
        particular[p] = r[ncols]
    return tuple(particular), _ref_kernel(reduced, pivots, ncols)


@settings(max_examples=80, deadline=None)
@given(systems(), st.booleans(), st.data())
def test_integer_kernel_matches_the_dense_kernel(system, keep_zeros, data):
    ncols, rows = system
    sparse = as_sparse(rows, keep_zeros)
    expected = _ref_nullspace_of_rows(rows, ncols)
    assert nullspace_of_rows(rows, ncols) == expected
    assert nullspace_of_rows(sparse, ncols) == expected
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    assert solve_affine_rows(rows, rhs, ncols) == \
        _ref_solve_affine_rows(rows, rhs, ncols)
    assert solve_affine_rows(sparse, rhs, ncols) == \
        _ref_solve_affine_rows(rows, rhs, ncols)


# ---------------------------------------------------------------------------
# kernel refinement
#
# ker(rows) within S is S * ker(rows * S): each row is projected through
# `column_index(S)` onto the primitive rows of S, the projected rows are
# solved by `nullspace_of_rows` in S.dim unknowns, and `lift` maps the
# kernel back. The systems are long, up to 2 * ncols + 8 rows; the oracle is
# the full dense kernel, intersected with S by Zassenhaus.
# ---------------------------------------------------------------------------

@st.composite
def long_systems(draw, max_cols=4):
    """(ncols, dense rows) with between 2 * ncols + 1 and 2 * ncols + 8 rows."""
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(2 * ncols + 1, 2 * ncols + 8))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return ncols, rows


def _refined(rows, within):
    """ker(rows) within `within`, by projection, kernel and lift."""
    index = column_index(within)
    projected = []
    for r in rows:
        row = {}
        for c, v in (r.items() if isinstance(r, dict) else enumerate(r)):
            for i, x in index[c]:
                row[i] = row.get(i, 0) + v * x
        projected.append(row)
    return lift(within, nullspace_of_rows(projected, within.dim))


@settings(max_examples=80, deadline=None)
@given(long_systems(), st.booleans(), st.data())
def test_refined_kernel_is_the_kernel_met_with_within(system, keep_zeros, data):
    ncols, rows = system
    sparse = as_sparse(rows, keep_zeros)
    kernel = _ref_nullspace_of_rows(rows, ncols)
    assert nullspace_of_rows(rows, ncols) == kernel
    assert nullspace_of_rows(sparse, ncols) == kernel
    assert nullspace_of_rows(iter(sparse), ncols) == kernel
    vectors = st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                       max_size=ncols)
    other = Subspace.span(ncols, data.draw(vectors))
    # a random space, which may miss kernel vectors, and one that holds the
    # whole kernel
    for within in (other, _sum(kernel, other)):
        expected = subspace_intersect(kernel, within)
        assert _refined(rows, within) == expected
        assert _refined(sparse, within) == expected
    assert _refined(rows, kernel) == kernel
    assert _refined([], other) == other


def test_kernel_and_lift_validate_dimensions():
    # a bad row is caught wherever it comes in a long system
    rows = [[1, 0]] * 4 + [{0: 1, 2: 1}]
    with pytest.raises(DimensionMismatch):
        nullspace_of_rows(rows, 2)
    # a kernel is lifted only from the unknowns of its enclosing space
    with pytest.raises(DimensionMismatch):
        lift(full_space(3), full_space(2))


def _ref_reduce_pairs(pivot_rows):
    """Back-elimination over every pair of pivot rows, as `_reduce` did
    before it indexed the rows meeting each pivot column."""
    cols = sorted(pivot_rows)
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        p = pivot_rows[c]
        for j in range(i):
            r = pivot_rows[cols[j]]
            if c in r:
                pivot_rows[cols[j]] = _normalize(_eliminate(r, p, c), cols[j])


def _pivot_map(rows, ncols):
    pivot_rows = {}
    for r in rows:
        _echelon_insert(_sparse_row(r, ncols), pivot_rows)
    return pivot_rows


def _copy_map(pivot_rows):
    return {c: dict(r) for c, r in pivot_rows.items()}


def _check_back_elimination(pivot_rows):
    expected = _copy_map(pivot_rows)
    _reduce(pivot_rows)
    _ref_reduce_pairs(expected)
    assert pivot_rows == expected


@settings(max_examples=80, deadline=None)
@given(systems(max_rows=10, max_cols=8))
def test_indexed_back_elimination_gives_the_pairwise_pivot_map(system):
    ncols, rows = system
    _check_back_elimination(_pivot_map(rows, ncols))


def test_kernel_rows_are_scaled_by_the_lcm_of_their_leads():
    # x0 = -x2/2 and x1 = -x2/3: the free column's kernel vector needs
    # both leads cleared, (-3, -2, 6) up to scale
    rows = [[2, 0, 1], [0, 3, 1]]
    expected = ((F(1), F(2, 3), F(-2)),)
    assert nullspace_of_rows(rows, 3).basis == expected
    assert _ref_nullspace_of_rows(rows, 3).basis == expected
    particular, homogeneous = solve_affine_rows(rows, [1, 1], 3)
    assert particular == (F(1, 2), F(1, 3), F(0))
    assert homogeneous.basis == expected


def _s4():
    perms = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return group_algebra(cayley_table([
        [index[tuple(g[h[x]] for x in range(4))] for h in perms] for g in perms
    ], "s4"))


def _solver_systems():
    """(label, deduplicated solver rows, n^2) of the weighted, Jordan and
    two-sided identities at (1, 2), on the catalog and on S4."""
    w = Weights(1, 2)
    algebras = {**fixtures(), "s4": _s4()}
    out = []
    for name, a in algebras.items():
        for label, ids in (("weighted", (weighted(w),)),
                           ("jordan", (jordan(w),)),
                           ("two-sided", (LEFT, RIGHT))):
            unique = {frozenset(row.items()): row
                      for e in ids for row in _full_rows(a, e)}
            out.append((f"{name} {label}", list(unique.values()), a.dim ** 2))
    return out


SOLVER_SYSTEMS = _solver_systems()


@cache
def _solver_pivot_map(label):
    """The echelon pivot map of a solver system, before back-elimination;
    callers reduce a copy."""
    _, rows, ncols = next(x for x in SOLVER_SYSTEMS if x[0] == label)
    return _pivot_map(rows, ncols)


@cache
def _ref_solver_kernel(label):
    """The dense RREF basis of the solution space of a solver system."""
    ncols = next(x for x in SOLVER_SYSTEMS if x[0] == label)[2]
    return _ref_kernel_basis(
        *_ref_back_eliminate(_copy_map(_solver_pivot_map(label)), ncols), ncols)


@pytest.mark.parametrize("label, rows, ncols", SOLVER_SYSTEMS,
                         ids=[label for label, _, _ in SOLVER_SYSTEMS])
def test_integer_kernel_matches_the_dense_kernel_on_solver_rows(
        label, rows, ncols):
    before = copy.deepcopy(rows)
    assert nullspace_of_rows(rows, ncols).basis == _ref_solver_kernel(label), label
    _check_back_elimination(_copy_map(_solver_pivot_map(label)))
    # a consistent right-hand side, rows * x for a seeded integer x, and
    # one that is inconsistent whenever the rows are dependent
    rng = Random(label)
    x = [rng.randint(-2, 2) for _ in range(ncols)]
    for rhs in ([sum(v * x[c] for c, v in r.items()) for r in rows],
                [F(1, 1 + i % 3) for i in range(len(rows))]):
        assert solve_affine_rows(rows, rhs, ncols) == \
            _ref_solve_affine_rows(rows, rhs, ncols), label
    assert rows == before, label


@settings(max_examples=60, deadline=None)
@given(systems(), st.booleans(), st.data())
def test_solvers_do_not_mutate_dict_rows(system, keep_zeros, data):
    ncols, rows = system
    sparse = as_sparse(rows, keep_zeros)
    before = copy.deepcopy(sparse)
    nullspace_of_rows(sparse, ncols)
    assert sparse == before
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    solve_affine_rows(sparse, rhs, ncols)
    assert sparse == before


def _dense_contains(s, t):
    return not any(x for v in t.basis for x in s.reduce_vector(v))


@settings(max_examples=80, deadline=None)
@given(subspaces(), subspaces(), st.lists(rationals, min_size=4, max_size=4))
def test_sparse_containment_matches_dense_reduction(s, t, v):
    assert subspace_contains(s, t) == _dense_contains(s, t)
    assert subspace_contains(t, s) == _dense_contains(t, s)
    for x in [v, *t.basis]:
        assert s.contains_vector(x) == (not any(s.reduce_vector(x)))


def test_sparse_containment_of_a_larger_subspace():
    line = Subspace.span(3, [[1, 1, 0]])
    plane = Subspace.span(3, [[1, 1, 0], [0, 0, 1]])
    assert subspace_contains(plane, line) and _dense_contains(plane, line)
    assert not subspace_contains(line, plane)
    assert not _dense_contains(line, plane)
    assert subspace_contains(full_space(3), plane)
    assert not subspace_contains(Subspace(3, ()), line)
    assert subspace_contains(line, Subspace(3, ()))


@pytest.mark.parametrize("v", [[1, 0], [1, 0, 0, 0], []])
def test_contains_vector_of_the_wrong_length(v):
    s = Subspace.span(3, [[1, 2, 0]])
    with pytest.raises(DimensionMismatch):
        s.contains_vector(v)
    with pytest.raises(DimensionMismatch):
        s.reduce_vector(v)


# ---------------------------------------------------------------------------
# differential tests of the integer-canonical Subspace
#
# The oracle is the dense Fraction path `Subspace` stored before it kept its
# canonical integer rows: `_ref_back_eliminate` gives the RREF basis, and
# containment, sums and Zassenhaus intersections are dense Fraction
# reductions of those rows. sympy gives the intersection dimensions.
# ---------------------------------------------------------------------------

def _ref_pivots(basis):
    return tuple(next(i for i, x in enumerate(r) if x) for r in basis)


def _ref_reduce(basis, v):
    w = list(_ref_vec(v))
    for row, p in zip(basis, _ref_pivots(basis)):
        c = w[p]
        if c:
            w = [x - c * r for x, r in zip(w, row)]
    return tuple(w)


def _ref_contains(basis, v):
    return not any(_ref_reduce(basis, v))


def _ref_intersect(sb, tb, n):
    zero = [F(0)] * n
    stacked = [list(v) + list(v) for v in sb] + [list(w) + zero for w in tb]
    reduced, _ = _ref_rref_of_rows(stacked, 2 * n)
    return _ref_span([r[n:] for r in reduced if not any(r[:n])], n)


def _check_against_dense(s, t, sb, tb, probes):
    """The integer subspaces s and t against their dense RREF bases."""
    n = s.ambient_dim
    for space, basis in ((s, sb), (t, tb)):
        assert space.basis == basis
        assert space.dim == len(basis)
        assert _pivots(space) == _ref_pivots(basis)
        rebuilt = _from_basis(n, basis)
        assert space == rebuilt and hash(space) == hash(rebuilt)
    assert (s == t) == (sb == tb) == subspace_equal(s, t)
    if sb == tb:
        assert hash(s) == hash(t)
    assert subspace_contains(s, t) == all(_ref_contains(sb, v) for v in tb)
    assert subspace_contains(t, s) == all(_ref_contains(tb, v) for v in sb)
    for v in [*probes, *tb]:
        assert s.contains_vector(v) == _ref_contains(sb, v)
        assert s.reduce_vector(v) == _ref_reduce(sb, v)
    assert _sum(s, t).basis == _ref_span([*sb, *tb], n)
    meet = subspace_intersect(s, t)
    assert meet.basis == _ref_intersect(sb, tb, n)
    rank = sympy_matrix([*sb, *tb], n).rank() if sb or tb else 0
    assert meet.dim == len(sb) + len(tb) - rank


@settings(max_examples=80, deadline=None)
@given(systems(), st.data())
def test_integer_subspace_matches_the_dense_subspace(system, data):
    ncols, rows = system
    vectors = st.lists(entries, min_size=ncols, max_size=ncols)
    other = data.draw(st.lists(vectors, max_size=5))
    probes = data.draw(st.lists(vectors, max_size=3))
    s, t = Subspace.span(ncols, rows), Subspace.span(ncols, other)
    sb = _ref_span(rows, ncols)
    _check_against_dense(s, t, sb, _ref_span(other, ncols), probes)
    # a subspace against one of its own subspaces and against itself
    inner = Subspace.span(ncols, rows[::2])
    _check_against_dense(s, inner, sb, _ref_span(rows[::2], ncols), probes)
    _check_against_dense(s, s, sb, sb, probes)


SOLVER_ALGEBRAS = sorted({label.rsplit(" ", 1)[0] for label, _, _ in SOLVER_SYSTEMS})


@pytest.mark.parametrize("name", SOLVER_ALGEBRAS)
def test_integer_subspace_matches_the_dense_subspace_on_solver_spaces(name):
    labels = [f"{name} {kind}" for kind in ("weighted", "jordan", "two-sided")]
    spaces = {}
    for label, rows, ncols in SOLVER_SYSTEMS:
        if label in labels:
            spaces[label] = nullspace_of_rows(rows, ncols)
    for first, second in ((0, 1), (2, 0), (2, 1)):
        s, t = spaces[labels[first]], spaces[labels[second]]
        sb, tb = (_ref_solver_kernel(labels[first]),
                  _ref_solver_kernel(labels[second]))
        n = s.ambient_dim
        # an off-span probe: a basis vector of t with one entry moved
        probes = [basis_vector(n, 0), basis_vector(n, n - 1)]
        if tb:
            moved = list(tb[-1])
            moved[-1] += F(1, 3)
            probes.append(moved)
        _check_against_dense(s, t, sb, tb, probes)


@settings(max_examples=60, deadline=None)
@given(systems(), st.data())
def test_two_spanning_sets_of_one_span_are_equal_and_hash_equal(system, data):
    ncols, rows = system
    scales = data.draw(st.lists(st.sampled_from([F(-3), F(1, 2), F(2, 5), 7]),
                                min_size=len(rows), max_size=len(rows)))
    # the rows reversed and rescaled, with their sum added: the same span
    other = [[c * x for x in r] for c, r in zip(scales, reversed(rows))]
    other.append([sum(col, F(0)) for col in zip(*rows)] if rows else [0] * ncols)
    s, t = Subspace.span(ncols, rows), Subspace.span(ncols, as_sparse(other, False))
    assert s == t and hash(s) == hash(t) and s.rows == t.rows
    assert _from_basis(ncols, s.basis) == s == Subspace.span(ncols, s.basis)
    assert hash(_from_basis(ncols, s.basis)) == hash(s)


def test_two_spanning_sets_example():
    s = Subspace.span(3, [[1, 2, 0], [0, 1, 1]])
    t = Subspace.span(3, [[1, 3, 1], [2, 5, 1], [0, 0, 0]])
    u = Subspace.span(3, [{0: F(-1, 2), 1: -1}, {1: F(2, 3), 2: F(2, 3)}])
    assert s == t == u and hash(s) == hash(t) == hash(u)
    # the reduced basis (1, 0, -2), (0, 1, 1) is stored as primitive rows
    assert s.rows == ((0, ((0, 1), (2, -2))), (1, ((1, 1), (2, 1))))
    assert s.basis == ((F(1), F(0), F(-2)), (F(0), F(1), F(1)))


def test_canonical_rows_are_primitive_with_a_positive_pivot():
    # the RREF rows are (1, -2, 0, 3), already primitive, and
    # (0, 0, 1, -2/3), stored as (0, 0, 3, -2)
    s = Subspace.span(4, [[F(2, 3), F(-4, 3), 0, 2], [0, 0, -6, 4]])
    assert s.rows == ((0, ((0, 1), (1, -2), (3, 3))),
                      (2, ((2, 3), (3, -2))))
    assert s == Subspace.span(4, [[-1, 2, 0, -3], [0, 0, 9, -6]])
    assert s.basis[1] == (F(0), F(0), F(1), F(-2, 3))


@pytest.mark.parametrize("rows", [
    ((0, ((0, 2), (1, 4))),),                     # gcd 2
    ((0, ((0, -1), (1, 2))),),                    # negative pivot entry
    ((1, ((0, 1), (1, 2))),),                     # first entry is not the pivot
    ((0, ((0, 1), (1, 0))),),                     # explicit zero
    ((0, ((1, 1), (0, 1))),),                     # columns not increasing
    ((0, ((0, 1), (2, 1))),),                     # column outside [0, 2)
    ((1, ((1, 1),)), (0, ((0, 1),))),             # pivots not increasing
    ((0, ((0, 1), (1, 1))), (1, ((1, 1),))),      # entry in a pivot column
    ((0, ()),),                                   # empty row
    ((0, ((0, 1),)), (0, ((0, 1),))),             # repeated pivot
    ((0, ((0, 2),)),),                            # unit row, not primitive
    ((0, ((0, -1),)),),                           # unit row, negative
    ((0, ((1, 1),)),),                            # unit row off its pivot
    ((2, ((2, 1),)),),                            # unit row outside [0, 2)
    ((0, ((0, True),)),),                         # unit row, bool entry
    ((0, ("a",)),),                               # a string, not a pair
    ((0, ((0, F(1)),)),),                         # Fraction entry
    ((0, ((F(0), 1),)),),                         # Fraction column
    ((F(0), ((0, 1),)),),                         # Fraction pivot
    ((0, ((True, 1),)),),                         # bool column
    ((0, ((0, 1, 2),)),),                         # a triple, not a pair
    ((0, [(0, 1)]),),                             # a list of pairs
    ((0, ([0, 1],)),),                            # a list pair
    ([0, ((0, 1),)],),                            # a list row
    [(0, ((0, 1),))],                             # a list of rows
    (([0], ((0, 1),)),),                          # an unhashable pivot
    ((0,),),                                      # a row without pairs
    (0,),                                         # a bare int
    "ab",
    None,
])
def test_integer_form_validation_rejects_non_canonical_rows(rows):
    with pytest.raises(ValueError):
        Subspace(2, rows)


@pytest.mark.parametrize("n", [-1, True, 2.0, None])
def test_integer_form_validation_rejects_a_bad_ambient_dimension(n):
    with pytest.raises(ValueError):
        Subspace(n, ())


def test_integer_form_round_trips_through_the_constructor():
    s = Subspace.span(4, [[F(2, 3), F(-4, 3), 0, 2], [0, 0, -6, 4]])
    assert Subspace(4, s.rows) == s and hash(Subspace(4, s.rows)) == hash(s)
    assert Subspace(3, ()) == Subspace.span(3, [])
    assert Subspace(2, ((0, ((0, 1),)), (1, ((1, 1),)))) == full_space(2)


def test_basis_is_built_on_first_read_only():
    s = Subspace.span(3, [[2, 4, 0], [0, 3, 3]])
    assert "basis" not in vars(s)
    assert subspace_contains(s, Subspace.span(3, [[1, 3, 1]]))
    assert s.contains_vector((F(1), F(3), F(1)))
    assert s == Subspace.span(3, [[1, 0, -2], [0, 1, 1]])
    assert "basis" not in vars(s)
    assert s.basis == ((F(1), F(0), F(-2)), (F(0), F(1), F(1)))
    assert "basis" in vars(s)
