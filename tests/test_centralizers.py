import time
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cache_ref import own_store
from dense_ref import (
    Matrix,
    _ref_apply_matrix,
    _ref_identity_matrix,
    _ref_matmul,
    _ref_mul_span,
    _ref_vec,
    _ref_zero_matrix,
    basis_vector,
    int_operator,
    operator_matrix,
)
from solver_ref import (
    RIGHT_IDENTITY_SEMIGROUPS,
    SEMIGROUP_GAPS,
    _full_rows,
    _ref_center,
    _ref_units,
    _table_algebra,
)
from pqcent.algebras import (
    center,
    generators,
    identity,
    is_commutative,
    make_algebra,
    multiply,
    radical,
    right_identities,
    subspace_product,
)
from pqcent.centralizers import (
    LEFT,
    RIGHT,
    OperatorSpace,
    Weights,
    _enclosure,
    _mul_span,
    _solve,
    jordan,
    left_centralizers,
    left_mul_int,
    left_mul_space,
    operator_space,
    pq_centralizers,
    pq_jordan_centralizers,
    residual,
    right_centralizers,
    right_mul_image,
    right_mul_int,
    right_mul_space,
    two_sided_centralizers,
    weighted,
)
from pqcent.fixtures import (
    colmat,
    dual_numbers,
    fixtures,
    matrix_algebra,
    random_algebra,
    random_poly_quotient,
    zero_product,
)
from pqcent.groups import cayley_table, group_algebra
from pqcent.linalg import (
    DimensionMismatch,
    Subspace,
    _echelon,
    _kernel,
    _reduce,
    full_space,
    nullspace_of_rows,
    subspace_contains,
    subspace_intersect,
)
from pqcent.verify import DEFAULT_WEIGHT_PAIRS, inclusion_chain_check

F = Fraction

WEIGHT_PAIRS = ((1, 2), (2, 1), (3, 5), (7, 2))


def flat_identity(n):
    return _ref_identity_matrix(n).entries


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(1, 1)
    with pytest.raises(ValueError):
        Weights(0, 2)
    with pytest.raises(ValueError):
        Weights(1, -1)
    with pytest.raises(TypeError):
        Weights(F(1, 2), 1)
    assert Weights(1, 1, allow_equal=True).pair == (1, 1)
    assert Weights(3, 5).pair == (3, 5)


@pytest.mark.parametrize("p, q", [(True, 2), (1, False), (True, True)])
def test_weights_reject_booleans(p, q):
    # True == 1 and hash(True) == hash(1): accepted, Weights(True, 2) would
    # share the cache entry of Weights(1, 2) and report "weights": [true, 2]
    with pytest.raises(TypeError):
        Weights(p, q)
    with pytest.raises(TypeError):
        Weights(p, q, allow_equal=True)


# ---------------------------------------------------------------------------
# multiplication operators
# ---------------------------------------------------------------------------

def test_right_mul_of_zero_and_identity():
    a = matrix_algebra(2)
    assert operator_matrix(right_mul_int(a, _ref_vec([0] * 4))) == \
        _ref_zero_matrix(4, 4)
    assert operator_matrix(right_mul_int(a, identity(a))) == \
        _ref_identity_matrix(4)


def test_colmat_right_mul_is_scalar():
    a = colmat(2)
    # b*(alpha f1 + beta f2) = alpha b for every b
    op = operator_matrix(right_mul_int(a, _ref_vec([3, 7])))
    assert op == Matrix.from_rows([[3, 0], [0, 3]])


def test_right_mul_image_and_space():
    a = colmat(2)
    assert right_mul_space(a).dim == 1
    assert right_mul_space(a) == operator_space(2, [flat_identity(2)])
    m = matrix_algebra(2)
    assert right_mul_space(m).dim == 4
    assert right_mul_image(m, center(m)).dim == 1


def test_mul_operators_are_one_sided_centralizers():
    for name, a in fixtures().items():
        for i in range(a.dim):
            e = basis_vector(a.dim, i)
            assert residual(a, right_mul_int(a, e), RIGHT) is None, name
            assert residual(a, left_mul_int(a, e), LEFT) is None, name


# ---------------------------------------------------------------------------
# solved spaces: frozen expectations
# ---------------------------------------------------------------------------

def test_identity_operator_is_always_a_centralizer():
    for name, a in fixtures().items():
        ident = int_operator(_ref_identity_matrix(a.dim))
        for p, q in WEIGHT_PAIRS:
            w = Weights(p, q)
            assert residual(a, ident, weighted(w)) is None, name
            assert pq_centralizers(a, w).contains_operator(ident), name


def test_matrix_algebra_centralizers_are_scalars():
    a = matrix_algebra(2)
    space = pq_centralizers(a, Weights(2, 3))
    assert space.dim == 1
    assert space == operator_space(4, [flat_identity(4)])


def test_zero_product_centralizers_are_everything():
    a = zero_product(2)
    w = Weights(1, 2)
    assert pq_centralizers(a, w).dim == 4
    assert pq_jordan_centralizers(a, w).dim == 4


def test_colmat_centralizers_are_scalars():
    a = colmat(2)
    space = pq_centralizers(a, Weights(2, 3))
    assert space == operator_space(2, [flat_identity(2)])


def test_dual_numbers_centralizers():
    a = dual_numbers()
    space = pq_centralizers(a, Weights(1, 2))
    x = _ref_vec([0, 1])
    expected = operator_space(
        2, [flat_identity(2), operator_matrix(right_mul_int(a, x)).entries])
    assert space == expected
    assert space.dim == 2


def test_two_sided_of_matrix_algebra():
    a = matrix_algebra(2)
    assert two_sided_centralizers(a) == operator_space(4, [flat_identity(4)])
    # one-sided spaces are the full multiplication images
    assert right_centralizers(a) == right_mul_space(a)
    assert left_centralizers(a) == left_mul_space(a)


def _assert_solved_bases_satisfy_identities(a, weights):
    """Every basis operator of the solved J and W at each weight pair, and
    of Z, passes `residual` on every pair of its identities."""
    for w in weights:
        for t in pq_centralizers(a, w).int_operators:
            assert residual(a, t, weighted(w)) is None, w
        for t in pq_jordan_centralizers(a, w).int_operators:
            assert residual(a, t, jordan(w)) is None, w
    for t in two_sided_centralizers(a).int_operators:
        assert residual(a, t, LEFT) is None
        assert residual(a, t, RIGHT) is None


def test_solved_bases_satisfy_defining_identities():
    # the catalog, S4 and the right-identity semigroups, at every chain weight
    for name, a in UPPER_ALGEBRAS.items():
        _assert_solved_bases_satisfy_identities(a, CHAIN_WEIGHTS)


def test_membership_rejects_non_centralizers():
    a = matrix_algebra(2)
    w = Weights(1, 2)
    e11 = basis_vector(4, 0)
    assert residual(a, right_mul_int(a, e11), weighted(w)) is not None
    assert residual(a, right_mul_int(a, e11), RIGHT) is None


def test_residual_witnesses_on_matrix2():
    # first failing (i, j, residual) of each operator under each identity;
    # values pinned from the per-variant residual functions this one replaced
    a = fixtures()["matrix2"]
    e0 = basis_vector(4, 0)
    identities = (weighted(Weights(1, 2)), jordan(Weights(2, 1)), LEFT, RIGHT)
    expected = [
        (right_mul_int(a, e0), [(0, 1, (0, -1, 0, 0)), (0, 1, (0, -2, 0, 0)),
                                (0, 1, (0, -1, 0, 0)), None]),
        (left_mul_int(a, e0), [(1, 2, (2, 0, 0, 0)), (0, 2, (0, 0, -1, 0)),
                               None, (1, 2, (1, 0, 0, 0))]),
    ]
    for t, cells in expected:
        assert [residual(a, t, e) for e in identities] == cells


def test_zero_operator_in_all_variants():
    a = matrix_algebra(2)
    z = int_operator(_ref_zero_matrix(4, 4))
    assert residual(a, z, weighted(Weights(1, 2))) is None
    assert residual(a, z, jordan(Weights(1, 2))) is None
    assert residual(a, z, LEFT) is None
    assert residual(a, z, RIGHT) is None


def test_residual_rejects_operator_of_wrong_size():
    with pytest.raises(DimensionMismatch):
        residual(matrix_algebra(2), int_operator(_ref_identity_matrix(3)), LEFT)


def test_contains_operator_rejects_operator_of_wrong_size():
    space = pq_centralizers(fixtures()["trunc_poly3"], Weights(1, 2))
    for t in (_ref_zero_matrix(2, 2), _ref_identity_matrix(4)):
        with pytest.raises(DimensionMismatch):
            space.contains_operator(int_operator(t))
    assert space.contains_operator(int_operator(_ref_zero_matrix(3, 3)))
    assert space.contains_operator(int_operator(_ref_identity_matrix(3)))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_inclusion_chain_on_catalog():
    for name, a in fixtures().items():
        for p, q in WEIGHT_PAIRS:
            assert inclusion_chain_check(a, Weights(p, q)).passed, (name, p, q)


def test_weight_independence_under_right_identity():
    targets = ["colmat2", "colmat3", "matrix2", "dual_numbers", "group_s3"]
    cat = fixtures()
    for name in targets:
        a = cat[name]
        cts = two_sided_centralizers(a)
        for p, q in WEIGHT_PAIRS:
            assert pq_centralizers(a, Weights(p, q)) == cts, (name, p, q)


def test_unital_dimension_matches_center():
    for name, a in fixtures().items():
        if identity(a) is None:
            continue
        assert pq_centralizers(a, Weights(1, 2)).dim == center(a).dim, name


def test_two_sided_space_is_the_two_sided_right_multiplications():
    # with a right identity the two-sided space is solved inside the right
    # multiplications: on a unital algebra it is the multiplications by
    # central elements, and on colmat2 every right multiplication
    m = matrix_algebra(2)
    assert two_sided_centralizers(m) == right_mul_image(m, center(m))
    c = colmat(2)
    assert two_sided_centralizers(c) == right_mul_space(c)


def test_two_sided_is_meet_of_one_sided_spaces():
    for name, a in fixtures().items():
        meet = subspace_intersect(
            left_centralizers(a).space, right_centralizers(a).space
        )
        assert two_sided_centralizers(a).space == meet, name


def rescaled(a, s):
    """a in the basis e_i = s[i] b_i, whose structure constants are fractions."""
    n = a.dim
    return make_algebra(n, [[[a.table[i][j][k] * s[i] * s[j] / s[k]
                              for k in range(n)] for j in range(n)]
                            for i in range(n)])


def test_fractional_constants_give_the_rescaled_spaces():
    # T(e_m) = sum_k t[k*n+m] s[m]/s[k] e_k, and an element v has coordinates
    # v[k]/s[k] in the new basis; every solved space must transform that way
    for name in ("matrix2", "colmat3", "dual_numbers", "group_s3"):
        a = fixtures()[name]
        n = a.dim
        s = [F((-1) ** i * (i + 2), 2 * i + 3) for i in range(n)]
        b = rescaled(a, s)
        assert any(c.denominator != 1 for plane in b.table
                   for row in plane for c in row), name
        for solve in (lambda x: pq_centralizers(x, Weights(1, 2)),
                      lambda x: pq_jordan_centralizers(x, Weights(3, 5)),
                      left_centralizers, right_centralizers,
                      two_sided_centralizers):
            moved = [[t[k * n + m] * s[m] / s[k] for k in range(n) for m in range(n)]
                     for t in solve(a).space.basis]
            assert solve(b) == operator_space(n, moved), name

        # the structure functions, read directly on the fractional constants
        def move(v):
            return tuple(x / sk for x, sk in zip(v, s))

        def moved_space(space):
            return Subspace.span(n, [move(v) for v in space.basis])

        sol = right_identities(a)
        assert sol is not None, name
        assert right_identities(b) == (move(sol[0]), moved_space(sol[1])), name
        e = identity(a)
        assert identity(b) == (None if e is None else move(e)), name
        for structure in (center, radical):
            assert structure(b) == moved_space(structure(a)), name
        rng = Random(name)
        xs = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
              for _ in range(4)]
        for x in xs:
            for y in xs:
                assert multiply(b, move(x), move(y)) == move(multiply(a, x, y)), name
        spaces = [Subspace.span(n, xs[:2]), Subspace.span(n, xs[2:3]),
                  center(a), radical(a), full_space(n)]
        for left in spaces:
            for right in spaces:
                assert subspace_product(b, moved_space(left), moved_space(right)) \
                    == moved_space(subspace_product(a, left, right)), name


def test_operator_space_wraps_canonical_subspace():
    with pytest.raises(ValueError):
        OperatorSpace(2, Subspace.span(3, [[1, 0, 0]]))
    s = operator_space(2, [[1, 0, 0, 1], [2, 0, 0, 2]])
    assert s.dim == 1
    assert operator_matrix(s.int_operators[0]) == _ref_identity_matrix(2)


# ---------------------------------------------------------------------------
# the solve chain against full-row solves
#
# `_ref_solve` is the solve from before spaces were solved inside one
# another: the deduplicated rows of every identity, eliminated in all n^2
# columns at once, with no prefix kernel and no enclosing space.
# ---------------------------------------------------------------------------

def _ref_solve(a, *identities):
    n = a.dim
    unique = {frozenset(row.items()): row
              for e in identities for row in _full_rows(a, e)}
    pivot_rows = _echelon(unique.values(), n * n)
    _reduce(pivot_rows)
    return OperatorSpace(n, _kernel(pivot_rows, n * n))


# `_ref_two_sided_mul_elements` is how check 2.1 found the two-sided right
# multiplications before they were solved: the elements v with
# (xy)v = (xv)y, from all n^3 basis triples at once, eliminated in the n
# coordinates of v. With a right identity their right multiplications are
# the two-sided space.

def _solve_each(a, *identities):
    """Each identity imposed in turn, each solved inside the space of the
    ones before it."""
    space = None
    for e in identities:
        space = _solve(a, e, within=space)
    return space


def _ref_two_sided_mul_elements(a):
    n = a.dim
    prods, by_right, by_left = (
        a.int_products, a.int_by_right_factor, a.int_by_left_factor)
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # the b_k coordinate of (b_i b_j) v - (b_i v) b_j
                row = {}
                for l, c1 in prods[i][j]:
                    for m, c2 in by_left[l][k]:
                        row[m] = row.get(m, 0) + c1 * c2
                for l, c2 in by_right[j][k]:
                    for m, c1 in by_left[i][l]:
                        row[m] = row.get(m, 0) - c1 * c2
                row = {m: v for m, v in row.items() if v}
                if row:
                    rows.append(row)
    return nullspace_of_rows(rows, n)


def _s4():
    perms = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return group_algebra(cayley_table([
        [index[tuple(g[h[x]] for x in range(4))] for h in perms] for g in perms
    ], "s4"))


CHAIN_ALGEBRAS = {**fixtures(), "s4": _s4()}
CHAIN_WEIGHTS = tuple(Weights(p, q, allow_equal=p == q)
                      for p, q in (*DEFAULT_WEIGHT_PAIRS, (1, 1)))


@pytest.mark.parametrize("name", sorted(CHAIN_ALGEBRAS))
def test_chained_solves_match_full_row_solves(name):
    a = CHAIN_ALGEBRAS[name]
    two_sided = _ref_solve(a, LEFT, RIGHT)
    assert two_sided_centralizers(a) == two_sided
    for w in CHAIN_WEIGHTS:
        j, pq = _ref_solve(a, jordan(w)), _ref_solve(a, weighted(w))
        assert pq_jordan_centralizers(a, w) == j, w
        assert pq_centralizers(a, w) == pq, w
        # the two-sided floor of both walks lies inside both spaces
        assert subspace_contains(pq.space, two_sided.space), w
        # a weighted row is p times a left row plus q times a right row, so
        # inside any weighted space the left rows alone cut out the
        # two-sided space
        assert _solve(a, LEFT, within=pq_centralizers(a, w)) == two_sided, w


def _sympy_nullity(a, *identities):
    rows = [row for e in identities for row in _full_rows(a, e)]
    n2 = a.dim ** 2
    return n2 - sympy.Matrix([[r.get(c, 0) for c in range(n2)]
                              for r in rows]).rank()


@pytest.mark.parametrize("name", RIGHT_IDENTITY_SEMIGROUPS)
def test_semigroup_algebras_with_a_strict_jordan_gap(name):
    table = RIGHT_IDENTITY_SEMIGROUPS[name]
    a = _table_algebra(table)
    assert all(table[i][3] == i for i in range(4))
    assert right_identities(a) is not None
    assert identity(a) is None and not is_commutative(a)
    w = Weights(1, 2)
    spaces = ((two_sided_centralizers(a), (LEFT, RIGHT)),
              (pq_centralizers(a, w), (weighted(w),)),
              (pq_jordan_centralizers(a, w), (jordan(w),)))
    assert tuple(space.dim for space, _ in spaces) == (3, 3, 4)
    for space, identities in spaces:
        assert space == _ref_solve(a, *identities)
        assert space.dim == _sympy_nullity(a, *identities)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 30), st.booleans())
def test_staged_solves_match_full_row_solves(seed, commutative):
    import random
    rng = random.Random(seed)
    a = random_poly_quotient(rng) if commutative else random_algebra(rng)
    two_sided = _ref_solve(a, LEFT, RIGHT)
    assert _solve_each(a, LEFT, RIGHT) == two_sided
    assert _solve_each(a, RIGHT, LEFT) == two_sided
    assert two_sided_centralizers(a) == two_sided
    assert _solve(a, LEFT) == _ref_solve(a, LEFT) == left_centralizers(a)
    assert _solve(a, RIGHT) == _ref_solve(a, RIGHT) == right_centralizers(a)
    for w in CHAIN_WEIGHTS:
        j, pq = _ref_solve(a, jordan(w)), _ref_solve(a, weighted(w))
        assert _solve(a, jordan(w)) == j, w
        assert _solve(a, weighted(w)) == pq, w
        assert _solve(a, weighted(w), within=j, upper=True) == pq, w
        assert pq_centralizers(a, w) == pq, w
    if right_identities(a) is not None:
        assert two_sided == \
            right_mul_image(a, _ref_two_sided_mul_elements(a))


def test_solve_takes_one_identity():
    # a second identity is no longer a positional argument
    with pytest.raises(TypeError):
        _solve(dual_numbers(), LEFT, RIGHT)


UPPER_ALGEBRAS = {**CHAIN_ALGEBRAS, **{
    name: _table_algebra(table)
    for name, table in RIGHT_IDENTITY_SEMIGROUPS.items()}}


@pytest.mark.parametrize("name", sorted(UPPER_ALGEBRAS))
def test_weighted_refine_on_pairs_above_the_diagonal(name):
    # inside the Jordan space the weighted row of (j, i) is minus that of
    # (i, j) and the row of (i, i) vanishes, so the pairs i < j suffice
    a = UPPER_ALGEBRAS[name]
    for w in CHAIN_WEIGHTS:
        j = pq_jordan_centralizers(a, w)
        assert _solve(a, weighted(w), within=j, upper=True) == \
            _solve(a, weighted(w), within=j), w


@pytest.mark.parametrize("name", sorted(
    name for name, a in UPPER_ALGEBRAS.items()
    if right_identities(a) is not None))
def test_two_sided_space_matches_the_element_solve(name):
    # with a right identity, check 2.1 reads the two-sided space as the
    # right multiplications that are two-sided centralizers
    a = UPPER_ALGEBRAS[name]
    assert two_sided_centralizers(a) == \
        right_mul_image(a, _ref_two_sided_mul_elements(a))


# the structure solves and the one-sided rows quantify over the generating
# set alone; the references quantify over every basis element or pair
GENERATOR_ALGEBRAS = {**UPPER_ALGEBRAS, **{
    name: _table_algebra(((0,) * 4, (0,) * 4) + rows)
    for name, rows in SEMIGROUP_GAPS.items()}}


def test_generator_inputs_have_proper_generating_sets():
    proper = [name for name, a in GENERATOR_ALGEBRAS.items()
              if len(generators(a)) < a.dim]
    assert {"s4", "matrix2", "matrix3", "group_q8"} <= set(proper)


@pytest.mark.parametrize("name", sorted(GENERATOR_ALGEBRAS))
def test_generator_quantifiers_match_every_basis_element(name):
    a = GENERATOR_ALGEBRAS[name]
    assert center(a) == _ref_center(a)
    assert right_identities(a) == _ref_units(a, a.int_by_left_factor)
    unit = _ref_units(a, a.int_by_left_factor, a.int_by_right_factor)
    assert identity(a) == (None if unit is None else unit[0])
    assert left_centralizers(a) == _ref_solve(a, LEFT)
    assert right_centralizers(a) == _ref_solve(a, RIGHT)
    # the floors of the one-sided walks lie inside the full-row solves
    assert subspace_contains(_ref_solve(a, LEFT).space, left_mul_space(a).space)
    assert subspace_contains(_ref_solve(a, RIGHT).space, right_mul_space(a).space)
    assert two_sided_centralizers(a) == _ref_solve(a, LEFT, RIGHT)
    if right_identities(a) is not None:
        assert two_sided_centralizers(a) == \
            right_mul_image(a, _ref_two_sided_mul_elements(a))


def _recorded_systems(monkeypatch, a, e):
    """(rows, unknowns) of each system a root solve of e hands to
    `nullspace_of_rows`, and the solved space."""
    import pqcent.centralizers as centralizers
    systems = []
    real = centralizers.nullspace_of_rows

    def recording(rows, ncols):
        systems.append((len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(centralizers, "nullspace_of_rows", recording)
    space = _solve(a, e)
    monkeypatch.undo()
    return systems, space


def test_solves_hand_linalg_one_block_at_a_time(monkeypatch):
    # every system a solve eliminates is one block of rows, the pairs with
    # one first index, in the unknowns of the current enclosing space. A
    # root with the unit its enclosure needs starts from that span of n
    # operators, so it never eliminates in n^2 unknowns; a root without one
    # starts from every operator, and the first block it eliminates cuts
    # that space down
    w = Weights(1, 2)
    full_blocks = 0
    for name, a in GENERATOR_ALGEBRAS.items():
        n = a.dim
        unital = identity(a) is not None
        for e, expected, enclosed in (
                (jordan(w), pq_jordan_centralizers(a, w), unital),
                (weighted(w), pq_centralizers(a, w), unital),
                (LEFT, left_centralizers(a), unital),
                (RIGHT, right_centralizers(a), right_identities(a) is not None)):
            systems, space = _recorded_systems(monkeypatch, a, e)
            assert space == expected, (name, e)
            unknowns = [ncols for _, ncols in systems]
            assert all(rows <= n * n for rows, _ in systems), (name, e)
            assert all(ncols < n * n for ncols in unknowns[1:]), (name, e)
            if enclosed:
                assert all(ncols <= n for ncols in unknowns), (name, e)
            full_blocks += unknowns[:1] == [n * n]
    assert full_blocks


def test_solves_enter_linalg_through_its_public_entries(monkeypatch):
    # every elimination of the structure and centralizer solves goes through
    # nullspace_of_rows or solve_affine_rows, as bound in the calling module
    import pqcent.algebras as algebras
    import pqcent.centralizers as centralizers
    calls = []
    for module in (algebras, centralizers):
        for name in ("nullspace_of_rows", "solve_affine_rows"):
            real = getattr(module, name, None)
            if real is not None:
                def recording(*args, real=real, where=f"{module.__name__}.{name}"):
                    calls.append(where)
                    return real(*args)

                monkeypatch.setattr(module, name, recording)
    # empty stores, so no solve below is cached: M2 is unital, the gap
    # table is not
    unital = own_store(matrix_algebra(2))
    gap = own_store(
        _table_algebra(((0,) * 4, (0,) * 4) + SEMIGROUP_GAPS["sg4_nil"]))
    for a in (unital, gap):
        for solve, entry in (
                (center, "pqcent.algebras.nullspace_of_rows"),
                (right_identities, "pqcent.algebras.solve_affine_rows"),
                (identity, "pqcent.algebras.solve_affine_rows"),
                (left_centralizers, "pqcent.centralizers.nullspace_of_rows"),
                (two_sided_centralizers, "pqcent.centralizers.nullspace_of_rows")):
            calls.clear()
            solve(a)
            assert set(calls) <= {entry}, solve.__name__
            # the unit enclosure of a unital left solve is its answer, so
            # that solve is the one that eliminates nothing
            assert bool(calls) != (a is unital and solve is left_centralizers), \
                solve.__name__


# ---------------------------------------------------------------------------
# the unit enclosure and the two-sided floor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["matrix2", "group_s3", "group_q8"])
def test_mul_span_matches_the_dense_span(name):
    a = fixtures()[name]
    for p, q in ((1, 2), (2, 1), (3, 5), (1, 0), (0, 1)):
        assert _mul_span(a, p, q) == _ref_mul_span(a, p, q), (p, q)
    # the orientation shows: the span with p and q swapped is another space
    assert _ref_mul_span(a, 1, 2) != _ref_mul_span(a, 2, 1)
    assert left_mul_space(a) == _ref_mul_span(a, 1, 0)
    assert right_mul_space(a) == _ref_mul_span(a, 0, 1)


@pytest.mark.parametrize("name", sorted(GENERATOR_ALGEBRAS))
def test_unit_enclosures_contain_the_full_row_solves(name):
    # (p+q) T = p L_{T(1)} + q R_{T(1)} for a Jordan centralizer, T = L_{T(1)}
    # for a left or weighted one, T = R_{T(u)} for a right one with a right
    # identity u: each root solve starts from that span when it exists
    a = GENERATOR_ALGEBRAS[name]
    unital = identity(a) is not None
    w = Weights(3, 5)
    for e, expected, exists in (
            (jordan(w), _ref_mul_span(a, 3, 5), unital),
            (weighted(w), _ref_mul_span(a, 1, 0), unital),
            (LEFT, _ref_mul_span(a, 1, 0), unital),
            (RIGHT, _ref_mul_span(a, 0, 1), right_identities(a) is not None)):
        enclosure = _enclosure(a, e)
        assert enclosure == (expected if exists else None), e
        if exists:
            assert subspace_contains(enclosure.space, _ref_solve(a, e).space), e


def _walked_blocks(monkeypatch, solve):
    """The first index of each block a solve walks, and its result."""
    import pqcent.centralizers as centralizers
    walked = []
    real = centralizers._block

    def recording(n, e, i, upper=False):
        walked.append(i)
        return real(n, e, i, upper)

    monkeypatch.setattr(centralizers, "_block", recording)
    space = solve()
    monkeypatch.undo()
    return walked, space


@pytest.mark.parametrize("name", sorted(RIGHT_IDENTITY_SEMIGROUPS))
def test_floor_does_not_stop_a_jordan_walk_above_it(monkeypatch, name):
    # J != Z here, so the Jordan walk must impose every block
    a = _table_algebra(RIGHT_IDENTITY_SEMIGROUPS[name])
    w = Weights(1, 2)
    z = two_sided_centralizers(a)
    walked, j = _walked_blocks(
        monkeypatch, lambda: _solve(a, jordan(w), floor=z))
    assert walked == list(range(a.dim))
    assert j == _ref_solve(a, jordan(w)) and j.dim > z.dim


@pytest.mark.parametrize("name", sorted(GENERATOR_ALGEBRAS))
def test_one_sided_walks_stop_at_the_multiplications(monkeypatch, name):
    # the left and right multiplications lie inside the left and right
    # centralizers and are the floors of their walks; with the unit its
    # enclosure needs, the enclosure is the floor and no block is walked
    a = GENERATOR_ALGEBRAS[name]
    fresh = own_store(make_algebra(a.dim, a.table))  # nothing of it is cached
    for solve, e, enclosed in (
            (left_centralizers, LEFT, identity(a) is not None),
            (right_centralizers, RIGHT, right_identities(a) is not None)):
        walked, space = _walked_blocks(monkeypatch, lambda: solve(fresh))
        assert space == _ref_solve(a, e), e
        assert len(walked) <= len(generators(a)), e
        if enclosed:
            assert walked == [], e


def test_floor_stops_the_walks_at_the_two_sided_space(monkeypatch):
    # on S4 every Jordan and weighted space is the two-sided one: the Jordan
    # walk stops before its last block, and the weighted walk inside it
    # evaluates no row
    a = _s4()
    w = Weights(1, 2)
    z = two_sided_centralizers(a)
    walked, j = _walked_blocks(
        monkeypatch, lambda: _solve(a, jordan(w), floor=z))
    assert j == z and len(walked) < a.dim
    walked, pq = _walked_blocks(
        monkeypatch,
        lambda: _solve(a, weighted(w), within=j, upper=True, floor=z))
    assert pq == z and walked == []


def _fresh(a):
    """A copy of a with nothing cached on it."""
    return own_store(make_algebra(a.dim, a.table, name=a.name))


def _recorded_mul_spans(monkeypatch, solve):
    """The (p, q) of each span `_mul_span` builds during solve(), and its
    result."""
    import pqcent.centralizers as centralizers
    built = []
    real = centralizers._mul_span

    def recording(a, p, q):
        built.append((p, q))
        return real(a, p, q)

    monkeypatch.setattr(centralizers, "_mul_span", recording)
    space = solve()
    monkeypatch.undo()
    return built, space


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_jordan_solve_skips_the_enclosure_when_the_floor_fills_it(
        monkeypatch, seed):
    # on a commutative unital algebra dim Z = n, the Jordan enclosure's
    # dimension, so the Jordan space is Z and its span is never built
    if seed is None:
        algebras = [_fresh(fixtures()[name])
                    for name in ("trunc_poly3", "group_c3")]
    else:
        rng = Random(seed)
        algebras = [own_store(random_poly_quotient(rng)) for _ in range(3)]
    for a in algebras:
        z = two_sided_centralizers(a)
        assert z.dim == a.dim
        for pair in DEFAULT_WEIGHT_PAIRS:
            built, j = _recorded_mul_spans(
                monkeypatch, lambda: pq_jordan_centralizers(a, Weights(*pair)))
            assert built == [] and j == z, (a.name, pair)


@pytest.mark.parametrize("name", ["group_s3", "group_q8", "matrix2"])
def test_jordan_solve_builds_the_enclosure_below_full_dimension(
        monkeypatch, name):
    a = _fresh(fixtures()[name])
    assert two_sided_centralizers(a).dim < a.dim
    for pair in DEFAULT_WEIGHT_PAIRS:
        w = Weights(*pair)
        built, j = _recorded_mul_spans(
            monkeypatch, lambda: pq_jordan_centralizers(a, w))
        assert built == [pair] and j == _ref_solve(a, jordan(w)), pair


@pytest.mark.parametrize("first, second", [(RIGHT, LEFT), (LEFT, RIGHT)])
def test_residual_is_cached_per_identity(first, second):
    # R_{e11} on M2 is a right centralizer and not a left one: whichever
    # identity is asked first, the other reads its own entry
    a = matrix_algebra(2)
    t = right_mul_int(a, basis_vector(4, 0))
    expect = {RIGHT: None, LEFT: residual(_fresh(a), t, LEFT)}
    assert expect[LEFT] is not None
    assert residual(a, t, first) == expect[first]
    assert residual(a, t, second) == expect[second]


# ---------------------------------------------------------------------------
# hypothesis: multiplication operators compose contravariantly
# ---------------------------------------------------------------------------

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30), st.data())
def test_right_mul_antihomomorphism(seed, data):
    import random
    a = random_algebra(random.Random(seed))
    elem = st.lists(small_fraction, min_size=a.dim, max_size=a.dim).map(_ref_vec)
    x, y = data.draw(elem), data.draw(elem)
    def dense(z):
        return operator_matrix(right_mul_int(a, z))
    assert _ref_matmul(dense(x), dense(y)) == dense(multiply(a, y, x))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30), st.data())
def test_left_mul_homomorphism(seed, data):
    import random
    a = random_algebra(random.Random(seed))
    elem = st.lists(small_fraction, min_size=a.dim, max_size=a.dim).map(_ref_vec)
    x, y = data.draw(elem), data.draw(elem)
    def dense(z):
        return operator_matrix(left_mul_int(a, z))
    assert _ref_matmul(dense(x), dense(y)) == dense(multiply(a, x, y))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_random_algebra_chain(seed):
    import random
    a = random_algebra(random.Random(seed))
    assert inclusion_chain_check(a, Weights(1, 2)).passed
    _assert_solved_bases_satisfy_identities(a, CHAIN_WEIGHTS)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30), st.booleans(), st.data())
def test_residual_agrees_with_solved_space(seed, commutative, data):
    # an operator satisfies every identity of a space exactly when the
    # solved space contains it: members and perturbed members alike
    import random
    rng = random.Random(seed)
    a = random_poly_quotient(rng) if commutative else random_algebra(rng)
    n = a.dim
    w = data.draw(st.sampled_from([Weights(1, 2), Weights(2, 1), Weights(3, 5)]))
    small = st.integers(-3, 3)
    for identities in ((weighted(w),), (jordan(w),), (LEFT,), (RIGHT,),
                       (LEFT, RIGHT)):
        space = _solve_each(a, *identities)
        coeffs = data.draw(st.lists(small, min_size=space.dim,
                                    max_size=space.dim))
        member = [sum((c * v[k] for c, v in zip(coeffs, space.space.basis)),
                      F(0)) for k in range(n * n)]
        bump = data.draw(st.lists(small, min_size=n * n, max_size=n * n))
        for flat in (member, [x + d for x, d in zip(member, bump)]):
            t = int_operator(Matrix(n, n, tuple(flat)))
            satisfied = all(residual(a, t, e) is None for e in identities)
            assert satisfied == space.contains_operator(t), identities


def test_apply_operator_matches_columns():
    a = matrix_algebra(2)
    op = operator_matrix(right_mul_int(a, _ref_vec([1, 2, 3, 4])))
    for i in range(4):
        e = basis_vector(4, i)
        assert _ref_apply_matrix(op, e) == multiply(a, e, _ref_vec([1, 2, 3, 4]))


def test_solver_performance_on_matrix3():
    a = matrix_algebra(3)
    start = time.perf_counter()
    space = pq_centralizers(a, Weights(5, 11))
    elapsed = time.perf_counter() - start
    assert space.dim == 1
    assert elapsed < 5.0
