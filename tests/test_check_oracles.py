"""Differential tests of the sparse integer check helpers against the dense
Fraction code they replaced, kept here verbatim as `_ref_` oracles: the
adjoint scan and the dense samples of check 2.4, `residual`,
`Subspace.reduce_vector`, check 2.3's multiplicativity scan, and check
5.2's reconstruction residual. `radical` and check 5.3's central-image cut
are compared with the routes through `subspace_intersect` they replaced.

The helpers read operators in their canonical integer form, so each test
passes `int_operator(t)` where its oracle takes the dense `Matrix` t, and
reads solved operators as `operator_matrix` of the package's integer forms;
the matrix type, both conversions and the dense matrix products of the
oracles come from `dense_ref`."""

from fractions import Fraction
from functools import cache
from random import Random

import pytest

from dense_ref import (
    Matrix,
    _ref_apply_matrix,
    _ref_matmul,
    _ref_transpose,
    _ref_vec,
    int_operator,
    operator_matrix,
)
from pqcent.algebras import (
    center,
    identity,
    make_algebra,
    multiply,
    radical,
    right_identity_samples,
)
from pqcent.arens import (
    _adjoint_witness,
    _sample_holds,
    _staged_samples,
    functional_times_element,
)
from pqcent.centralizers import (
    LEFT,
    RIGHT,
    Identity,
    Weights,
    jordan,
    left_centralizers,
    pq_centralizers,
    pq_jordan_centralizers,
    residual,
    right_centralizers,
    two_sided_centralizers,
    weighted,
)
from pqcent.fixtures import fixtures, random_algebra, random_poly_quotient
from pqcent.linalg import (
    Subspace,
    basis_vector,
    nullspace_of_rows,
    subspace_intersect,
)
from pqcent.verify import (
    DEFAULT_WEIGHT_PAIRS,
    _central_image_part,
    _nonmultiplicative_pair,
    _reconstruction_residual,
)

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# oracles: the dense Fraction versions
# ---------------------------------------------------------------------------

def _ref_adjoint_scan(a, t, p, q):
    n = a.dim
    basis = [basis_vector(n, i) for i in range(n)]
    tstar = _ref_transpose(t)
    t_basis = [_ref_apply_matrix(t, e) for e in basis]
    bad_adj = None
    for r, f in enumerate(basis):
        tstar_f = _ref_apply_matrix(tstar, f)
        for i, (e, te) in enumerate(zip(basis, t_basis)):
            lhs = tuple(
                (p + q) * v for v in functional_times_element(a, tstar_f, e)
            )
            rhs = tuple(
                p * x + q * y
                for x, y in zip(
                    functional_times_element(a, f, te),
                    _ref_apply_matrix(
                        tstar, functional_times_element(a, f, e)
                    ),
                )
            )
            if lhs != rhs:
                bad_adj = (r, i)
                break
        if bad_adj:
            break
    return bad_adj


def _ref_dense_sample(bidual, t, big_f, big_h, fh, p, q):
    lhs = tuple((p + q) * v for v in _ref_apply_matrix(t, fh))
    rhs = tuple(
        p * x + q * y
        for x, y in zip(
            multiply(bidual, _ref_apply_matrix(t, big_f), big_h),
            multiply(bidual, big_f, _ref_apply_matrix(t, big_h)),
        )
    )
    return lhs == rhs


def _ref_pairs(n, e):
    for i in range(n):
        for j in range(i if e.symmetric else 0, n):
            yield i, j, ((i, j), (j, i)) if e.symmetric else ((i, j),)


def _ref_columns(t):
    n = t.rows
    return [tuple(t.entries[k * n + m] for k in range(n)) for m in range(n)]


def _ref_residual(a, t, e):
    n = a.dim
    prods = a.products
    nonzero = [[(m, v) for m, v in enumerate(col) if v]
               for col in _ref_columns(t)]
    s_cols, p_cols, q_cols = (
        [[(m, w * v) for m, v in col] for col in nonzero] if w else None
        for w in (e.s, e.p, e.q)
    )
    for i, j, orders in _ref_pairs(n, e):
        res = [_ZERO] * n
        for x, y in orders:
            if s_cols is not None:
                for m, c in prods[x][y]:
                    for k, v in s_cols[m]:
                        res[k] += c * v
            if p_cols is not None:
                for m, v in p_cols[x]:
                    for k, c in prods[m][y]:
                        res[k] -= v * c
            if q_cols is not None:
                for m, v in q_cols[y]:
                    for k, c in prods[x][m]:
                        res[k] -= v * c
        if any(res):
            return i, j, tuple(res)
    return None


def _ref_pivots(s):
    return tuple(
        next(i for i, v in enumerate(row) if v != 0) for row in s.basis
    )


def _ref_reduce_vector(s, v):
    w = list(_ref_vec(v))
    for row, p in zip(s.basis, _ref_pivots(s)):
        c = w[p]
        if c:
            for i, rv in enumerate(row):
                if rv:
                    w[i] -= c * rv
    return tuple(w)


def _ref_nonmultiplicative_pair(a, ops, one):
    images = [_ref_apply_matrix(t, one) for t in ops]
    return next(
        (
            (r, s)
            for r in range(len(ops))
            for s in range(len(ops))
            if _ref_apply_matrix(_ref_matmul(ops[r], ops[s]), one)
            != multiply(a, images[r], images[s])
        ),
        None,
    )


def _ref_reconstruction_residual(a, t, u):
    n = a.dim
    tu = _ref_apply_matrix(t, u)
    for i in range(n):
        e = basis_vector(n, i)
        lhs = _ref_apply_matrix(t, e)
        v = tuple(x - y for x, y in zip(e, multiply(a, u, e)))
        res = tuple(x - y - z for x, y, z in zip(
            lhs, multiply(a, v, tu), multiply(a, u, lhs)))
        if any(res):
            return i, res
    return None


def _ref_radical(a):
    n = a.dim
    prods = a.int_products
    s = [sum(c for k in range(n) for l, c in prods[m][k] if l == k)
         for m in range(n)]
    gram = [[n + 1] + s]
    for i in range(n):
        gram.append([s[i]] + [sum(c * s[m] for m, c in prods[i][j])
                              for j in range(n)])
    null = nullspace_of_rows(gram, n + 1)
    embedded = Subspace.span(
        n + 1, [basis_vector(n + 1, i + 1) for i in range(n)]
    )
    inside = subspace_intersect(null, embedded)
    return Subspace.span(n, [{c - 1: v for c, v in pairs}
                             for _, pairs in inside.rows])


def _ref_central_part(a, space, one):
    n = a.dim
    z = center(a)
    proj_cols = [z.reduce_vector(basis_vector(n, i)) for i in range(n)]
    support = [(m, om) for m, om in enumerate(one) if om]
    rows = []
    for r in range(n):
        row = {i * n + m: proj_cols[i][r] * om
               for i in range(n) if proj_cols[i][r] for m, om in support}
        if row:
            rows.append(row)
    return subspace_intersect(space.space, nullspace_of_rows(rows, n * n))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rescaled(a, s):
    """a in the basis e_i = s[i] b_i, whose structure constants are fractions."""
    n = a.dim
    return make_algebra(n, [[[a.table[i][j][k] * s[i] * s[j] / s[k]
                              for k in range(n)] for j in range(n)]
                            for i in range(n)])


def _algebras():
    algebras = dict(fixtures())
    rng = Random(8080)
    for d in range(15):
        algebras[f"random_algebra {d}"] = random_algebra(rng)
        algebras[f"random_poly {d}"] = random_poly_quotient(rng)
    for name in ("matrix2", "colmat3", "dual_numbers", "group_s3"):
        a = algebras[name]
        s = [Fraction((-1) ** i * (i + 2), 2 * i + 3) for i in range(a.dim)]
        algebras[f"rescaled {name}"] = _rescaled(a, s)
    return algebras


ALGEBRAS = _algebras()

IDENTITIES = tuple(
    [f(Weights(*pair)) for pair in DEFAULT_WEIGHT_PAIRS
     for f in (weighted, jordan)]
    + [LEFT, RIGHT, Identity(0, 1, -1)]
)


def _partial_member(a, pair, rng, keep):
    """A random operator that satisfies the weighted identity at the pairs
    (b_i, b_j) and output coordinates k with keep(i, k) only. With i == 0
    it passes the first pair row of `residual`; with k == 0 it passes the
    first functional row of the adjoint scan, so a scan that swaps p and q
    fails before the true one."""
    n = a.dim
    p, q = pair
    c = a.table
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not keep(i, k):
                    continue
                row = {}
                for m in range(n):
                    for col, v in ((k * n + m, (p + q) * c[i][j][m]),
                                   (m * n + i, -p * c[m][j][k]),
                                   (m * n + j, -q * c[i][m][k])):
                        row[col] = row.get(col, 0) + v
                rows.append(row)
    basis = nullspace_of_rows(rows, n * n).basis
    coeffs = [rng.randint(-2, 2) for _ in basis]
    return Matrix(n, n, tuple(
        sum((x * v[col] for x, v in zip(coeffs, basis)), _ZERO)
        for col in range(n * n)))


def _dense(space):
    """The solved operators of `space` as dense matrices."""
    return [operator_matrix(t) for t in space.int_operators]


@cache
def _operators(name):
    """Solved members, three of them perturbed by 1/3 in one entry, seeded
    random Fraction matrices, partial members, and zero, without repeats."""
    a = ALGEBRAS[name]
    n = a.dim
    rng = Random(name)
    members = [t for pair in DEFAULT_WEIGHT_PAIRS
               for t in _dense(pq_centralizers(a, Weights(*pair)))]
    members += _dense(pq_jordan_centralizers(a, Weights(1, 2)))
    members += _dense(two_sided_centralizers(a))
    members = list(dict.fromkeys(members))
    perturbed = []
    for t in members[:3]:
        k = rng.randrange(n * n)
        entries = list(t.entries)
        entries[k] += Fraction(1, 3)
        perturbed.append(Matrix(n, n, tuple(entries)))
    randoms = [
        Matrix(n, n, tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if rng.random() < 0.6 else _ZERO
            for _ in range(n * n)))
        for _ in range(2)
    ]
    partial = [_partial_member(a, pair, rng, keep)
               for pair in DEFAULT_WEIGHT_PAIRS
               for keep in (lambda i, k: i == 0, lambda i, k: k == 0)]
    zero = Matrix(n, n, (_ZERO,) * (n * n))
    return list(dict.fromkeys(
        members + perturbed + randoms + partial + [zero]))


def test_inputs_cover_fractional_constants_and_failures():
    assert any(c.denominator != 1
               for pairs in ALGEBRAS["rescaled group_s3"].products[0]
               for _, c in pairs)
    a = ALGEBRAS["matrix2"]
    ops = _operators("matrix2")
    holds = {residual(a, int_operator(t), weighted(Weights(1, 2))) is None
             for t in ops}
    assert holds == {True, False}
    _, samples, bidual = _staged_samples(a)
    assert {_sample_holds(bidual, int_operator(t), s, 1, 2)
            for t in ops for s in samples} == {True, False}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_sparse_adjoint_scan_matches_the_dense_scan(name):
    a = ALGEBRAS[name]
    _, _, bidual = _staged_samples(a)
    for t in _operators(name):
        for p, q in DEFAULT_WEIGHT_PAIRS:
            assert _adjoint_witness(bidual, int_operator(t), p, q) == \
                _ref_adjoint_scan(a, t, p, q), (name, t, p, q)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_integer_dense_samples_match_the_fraction_samples(name):
    a = ALGEBRAS[name]
    _, samples, bidual = _staged_samples(a)
    for t in _operators(name):
        it = int_operator(t)
        for s in samples:
            fh = tuple(Fraction(v, s.den) for v in s.fh)
            for p, q in DEFAULT_WEIGHT_PAIRS:
                assert _sample_holds(bidual, it, s, p, q) == \
                    _ref_dense_sample(bidual, t, _ref_vec(s.f), _ref_vec(s.h),
                                      fh, p, q), \
                    (name, t, p, q)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_integer_residual_matches_the_fraction_residual(name):
    a = ALGEBRAS[name]
    for t in _operators(name):
        for e in IDENTITIES:
            assert residual(a, int_operator(t), e) == _ref_residual(a, t, e), \
                (name, t, e)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_sparse_reduce_vector_matches_the_dense_reduction(name):
    a = ALGEBRAS[name]
    vectors = [t.entries for t in _operators(name)]
    spaces = [solve(a, Weights(*pair)).space for pair in DEFAULT_WEIGHT_PAIRS
              for solve in (pq_centralizers, pq_jordan_centralizers)]
    spaces.append(two_sided_centralizers(a).space)
    for s in spaces:
        assert tuple(p for p, _ in s.rows) == _ref_pivots(s), name
        for v in vectors:
            assert s.reduce_vector(v) == _ref_reduce_vector(s, v), name


UNITAL = sorted(name for name, a in ALGEBRAS.items() if identity(a) is not None)


def test_unital_inputs_cover_the_unital_catalog():
    unital_catalog = {name for name, a in fixtures().items()
                      if identity(a) is not None}
    assert unital_catalog and unital_catalog <= set(UNITAL)


@pytest.mark.parametrize("name", UNITAL)
def test_multiplicativity_scan_matches_the_matmul_scan(name):
    a = ALGEBRAS[name]
    n = a.dim
    one = identity(a)
    rng = Random(name)
    solved = [_dense(pq_centralizers(a, Weights(*pair)))
              for pair in DEFAULT_WEIGHT_PAIRS]
    # each solved list with one operator moved by 1/3 in an entry of a
    # column that T(1) reads
    support = [m for m in range(n) if one[m]]
    mutated = []
    for ops in solved:
        r = rng.randrange(len(ops))
        entries = list(ops[r].entries)
        entries[rng.randrange(n) * n + rng.choice(support)] += Fraction(1, 3)
        mutated.append(ops[:r] + [Matrix(n, n, tuple(entries))] + ops[r + 1:])
    for ops in solved + mutated + [_operators(name)]:
        images = [_ref_apply_matrix(t, one) for t in ops]
        assert _nonmultiplicative_pair(
            a, [int_operator(t) for t in ops], images) == \
            _ref_nonmultiplicative_pair(a, ops, one), name
    assert all(_nonmultiplicative_pair(
        a, [int_operator(t) for t in ops],
        [_ref_apply_matrix(t, one) for t in ops]) is None for ops in solved)


def test_multiplicativity_scan_finds_the_mutated_operator():
    a = ALGEBRAS["group_s3"]
    n = a.dim
    one = identity(a)
    ops = _dense(pq_centralizers(a, Weights(1, 2)))
    # T_1 with b_0 added to T(b_3): every pair before (1, 2), in row-major
    # order, still multiplies
    entries = list(ops[1].entries)
    entries[0 * n + 3] += 1
    ops[1] = Matrix(n, n, tuple(entries))
    images = [_ref_apply_matrix(t, one) for t in ops]
    assert _nonmultiplicative_pair(
        a, [int_operator(t) for t in ops], images) == (1, 2)
    assert _ref_nonmultiplicative_pair(a, ops, one) == (1, 2)


RIGHT_UNITAL = sorted(name for name, a in ALGEBRAS.items()
                      if right_identity_samples(a))


@pytest.mark.parametrize("name", RIGHT_UNITAL)
def test_integer_reconstruction_matches_the_fraction_reconstruction(name):
    a = ALGEBRAS[name]
    ops = _operators(name) + [t for pair in DEFAULT_WEIGHT_PAIRS for t in
                              _dense(pq_jordan_centralizers(a, Weights(*pair)))]
    found = set()
    for t in ops:
        for u in right_identity_samples(a):
            got = _reconstruction_residual(a, int_operator(t), u)
            assert got == _ref_reconstruction_residual(a, t, u), (name, t, u)
            found.add(got is None)
    # with a unit u = 1 the split is T(a) = 0 T(1) + T(a) for every T;
    # without one, the random operators give witnesses
    assert found == ({True} if identity(a) is not None else {True, False}), name


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_radical_matches_the_intersection_route(name):
    a = ALGEBRAS[name]
    assert radical(a) == _ref_radical(a), name


def test_radical_inputs_cover_a_proper_nonzero_radical():
    dims = {(radical(a).dim, a.dim) for a in ALGEBRAS.values()}
    assert any(0 < r < n for r, n in dims)


# the cut is strict on the one-sided spaces of these unital algebras, and
# the rescaled group_s3 has primitive rows whose dens differ, so it tells
# R_i(1) from T_i(1)
STRICT_CUTS = {"matrix2": (4, 1), "group_s3": (6, 3), "group_q8": (8, 5),
               "rescaled group_s3": (6, 3)}


@pytest.mark.parametrize("name", UNITAL)
def test_central_image_cut_matches_the_intersection_route(name):
    a = ALGEBRAS[name]
    one = identity(a)
    spaces = [left_centralizers(a), right_centralizers(a)]
    spaces += [pq_jordan_centralizers(a, Weights(*pair))
               for pair in DEFAULT_WEIGHT_PAIRS]
    for space in spaces:
        got = _central_image_part(space, one, center(a))
        assert got == _ref_central_part(a, space, one), name
    if name in STRICT_CUTS:
        for space in spaces[:2]:
            assert (space.dim, _central_image_part(space, one, center(a)).dim) \
                == STRICT_CUTS[name], name


def test_strict_cut_inputs_are_unital():
    assert set(STRICT_CUTS) <= set(UNITAL)
