import gc
import hashlib
import random
import tracemalloc
import weakref
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dense_ref import (_ref_by_left_factor, _ref_by_right_factor, _ref_vec,
                       basis_vector)
from solver_ref import RIGHT_IDENTITY_SEMIGROUPS, _table_algebra
from pqcent.algebras import (
    Algebra,
    NonAssociativeError,
    _check_associativity,
    algebra_from_terms,
    center,
    generators,
    identity,
    is_commutative,
    is_nilpotent_subspace,
    is_unital,
    make_algebra,
    multiply,
    normalize_products,
    radical,
    relative_center,
    right_identities,
    right_identity_samples,
    subspace_product,
)
from pqcent.arens import verify_bidual_extension
from pqcent.centralizers import Weights, pq_centralizers
from pqcent.fileio import parse_algebra_text, serialize_algebra
from pqcent.fixtures import (
    colmat,
    direct_sum,
    dual_numbers,
    field,
    fixtures,
    matrix_algebra,
    opposite,
    poly_quotient,
    random_algebra,
    random_poly_quotient,
    truncated_poly,
    zero_product,
)
from pqcent.groups import cyclic_table, group_algebra
from pqcent.linalg import (
    Subspace,
    full_space,
    nullspace_of_rows,
    subspace_contains,
    subspace_equal,
    subspace_intersect,
)

F = Fraction

# matrix-unit indices in matrix_algebra(2): row-major E11, E12, E21, E22
E11, E12, E21, E22 = range(4)


def basis(a, i):
    return basis_vector(a.dim, i)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_field_is_the_rationals():
    a = field()
    assert a.dim == 1
    assert multiply(a, _ref_vec([3]), _ref_vec([F(1, 2)])) == _ref_vec([F(3, 2)])


def test_make_algebra_rejects_non_associative():
    # b0*b0 = b1, b1*b1 = b0: (b0 b0) b1 = b0 but b0 (b0 b1) = 0
    table = [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]
    with pytest.raises(NonAssociativeError) as exc:
        make_algebra(2, table)
    i, j, k = exc.value.triple
    assert (i, j, k) == (0, 0, 1)


def test_make_algebra_rejects_bad_shape():
    with pytest.raises(ValueError):
        make_algebra(2, [[[1, 0], [0, 0]]])
    with pytest.raises(ValueError):
        make_algebra(0, [])


@pytest.mark.parametrize("terms, pair, index", [
    ({(-1, 0): [(0, 1)]}, (-1, 0), -1),  # would write b1*b0
    ({(0, 0): [(-1, 1)]}, (0, 0), -1),  # would store k = -1
    ({(0, 0): [(5, 1)]}, (0, 0), 5),
    ({(2, 0): [(0, 1)]}, (2, 0), 2),
])
def test_algebra_from_terms_rejects_an_index_out_of_range(terms, pair, index):
    with pytest.raises(ValueError) as exc:
        algebra_from_terms(2, terms)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (
        f"product {pair}: index {index} out of range for dimension 2")


def test_catalog_constructs():
    cat = fixtures()
    assert set(cat) >= {
        "field", "matrix2", "matrix3", "colmat2", "colmat3",
        "dual_numbers", "trunc_poly3", "zero2", "group_s3", "group_q8",
    }
    for name, a in cat.items():
        assert a.dim >= 1, name


def test_colmat_products_match_definition():
    a = colmat(2)
    f1, f2 = basis(a, 0), basis(a, 1)
    assert multiply(a, f1, f1) == f1
    assert multiply(a, f2, f1) == f2
    assert multiply(a, f1, f2) == _ref_vec([0, 0])
    assert multiply(a, f2, f2) == _ref_vec([0, 0])


def test_matrix_units_multiply():
    a = matrix_algebra(2)
    assert multiply(a, basis(a, E11), basis(a, E12)) == basis(a, E12)
    assert multiply(a, basis(a, E12), basis(a, E21)) == basis(a, E11)
    assert multiply(a, basis(a, E12), basis(a, E12)) == _ref_vec([0] * 4)


def test_dual_numbers_square():
    a = dual_numbers()
    one_plus_x = _ref_vec([1, 1])
    assert multiply(a, one_plus_x, one_plus_x) == _ref_vec([1, 2])


def test_multiply_by_zero():
    a = colmat(3)
    assert multiply(a, _ref_vec([1, 2, 3]), _ref_vec([0, 0, 0])) == _ref_vec([0, 0, 0])


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_right_identities_unique_for_matrix_algebra():
    a = matrix_algebra(2)
    particular, homogeneous = right_identities(a)
    assert particular == _ref_vec([1, 0, 0, 1])
    assert homogeneous.dim == 0
    assert identity(a) == _ref_vec([1, 0, 0, 1])


def test_right_identities_affine_for_colmat():
    a = colmat(2)
    particular, homogeneous = right_identities(a)
    assert particular == _ref_vec([1, 0])
    assert homogeneous == Subspace.span(2, [[0, 1]])
    # every f1 + beta f2 really is a right identity
    for beta in (0, 1, -2, F(1, 3)):
        u = _ref_vec([1, beta])
        for i in range(2):
            assert multiply(a, basis(a, i), u) == basis(a, i)
    assert identity(a) is None
    assert not is_unital(a)


def test_right_identity_samples_cover_extremes():
    samples = right_identity_samples(colmat(3))
    assert _ref_vec([1, 0, 0]) in samples
    assert _ref_vec([1, 1, 0]) in samples
    assert _ref_vec([1, 0, 1]) in samples
    assert _ref_vec([1, 1, 1]) in samples
    assert right_identity_samples(zero_product(2)) == ()


def test_zero_product_has_no_right_identity():
    assert right_identities(zero_product(1)) is None


def test_unital_fixtures():
    assert identity(dual_numbers()) == _ref_vec([1, 0])
    assert identity(truncated_poly(3)) == _ref_vec([1, 0, 0])
    assert identity(fixtures()["group_s3"]) == _ref_vec([1, 0, 0, 0, 0, 0])


# ---------------------------------------------------------------------------
# center, relative center
# ---------------------------------------------------------------------------

def test_center_of_matrix_algebra_is_scalars():
    a = matrix_algebra(2)
    z = center(a)
    assert z.dim == 1
    assert z.contains_vector(_ref_vec([1, 0, 0, 1]))
    assert center(matrix_algebra(3)).dim == 1


def test_center_of_commutative_is_everything():
    a = truncated_poly(3)
    assert subspace_equal(center(a), full_space(3))


def test_center_of_colmat_is_zero():
    assert center(colmat(2)) == Subspace(2, ())


def test_relative_center_whole_algebra():
    a = matrix_algebra(2)
    assert relative_center(a, full_space(4), full_space(4)) == center(a)


def test_relative_center_empty_condition():
    a = matrix_algebra(2)
    s = Subspace.span(4, [basis(a, E12)])
    assert relative_center(a, s, Subspace(4, ())) == s


def test_relative_center_commutant_of_matrix_unit():
    a = matrix_algebra(2)
    t = Subspace.span(4, [basis(a, E11)])
    w = relative_center(a, full_space(4), t)
    assert w == Subspace.span(4, [basis(a, E11), basis(a, E22)])


def test_relative_center_antitone():
    a = matrix_algebra(2)
    small = Subspace.span(4, [basis(a, E11)])
    assert subspace_contains(
        relative_center(a, full_space(4), small),
        relative_center(a, full_space(4), full_space(4)),
    )


# ---------------------------------------------------------------------------
# radical, products, nilpotency
# ---------------------------------------------------------------------------

def test_radical_of_simple_algebra_is_zero():
    assert radical(matrix_algebra(2)) == Subspace(4, ())


def test_radical_of_dual_numbers():
    assert radical(dual_numbers()) == Subspace.span(2, [[0, 1]])


def test_radical_of_colmat():
    assert radical(colmat(2)) == Subspace.span(2, [[0, 1]])


def test_radical_of_zero_product_is_everything():
    assert radical(zero_product(3)) == full_space(3)


def test_radical_is_nilpotent_ideal_on_catalog():
    for name, a in fixtures().items():
        rad = radical(a)
        whole = full_space(a.dim)
        assert subspace_contains(rad, subspace_product(a, whole, rad)), name
        assert subspace_contains(rad, subspace_product(a, rad, whole)), name
        nil, _ = is_nilpotent_subspace(a, rad)
        assert nil, name


def test_subspace_product_examples():
    a = matrix_algebra(2)
    s = Subspace.span(4, [basis(a, E12)])
    t = Subspace.span(4, [basis(a, E21)])
    assert subspace_product(a, s, t) == Subspace.span(4, [basis(a, E11)])
    assert subspace_product(a, s, Subspace(4, ())) == Subspace(4, ())
    d = dual_numbers()
    x = Subspace.span(2, [[0, 1]])
    assert subspace_product(d, x, x) == Subspace(2, ())


def _ref_commutant_rows(a, elements):
    """The commutant rows as they were built before the integer-scaled
    constants: dense Fraction rows of x t - t x, one per output coordinate
    and element t, each t given by its nonzero (j, t_j) pairs."""
    n = a.dim
    by_right = _ref_by_right_factor(n, a.table)
    by_left = _ref_by_left_factor(n, a.table)
    rows = []
    for t in elements:
        for k in range(n):
            row = [F(0)] * n
            for j, tj in t:
                for m, c in by_right[j][k]:
                    row[m] += tj * c
                for m, c in by_left[j][k]:
                    row[m] -= tj * c
            if any(row):
                rows.append(row)
    return rows


def _ref_relative_center(a, s, t):
    rows = _ref_commutant_rows(
        a, [[(j, tj) for j, tj in enumerate(tv) if tj] for tv in t.basis])
    return subspace_intersect(s, nullspace_of_rows(rows, a.dim))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30), st.booleans(), st.data())
def test_center_and_relative_center_match_the_fraction_rows(seed, commutative, data):
    rng = random.Random(seed)
    a = random_poly_quotient(rng) if commutative else random_algebra(rng)
    n = a.dim
    # a rescaled basis e_i = s_i b_i gives fractional structure constants
    b = make_algebra(n, _rescaled(a, [Fraction(rng.choice([-3, 1, 2, 5]),
                                               rng.choice([1, 2, 7]))
                                      for _ in range(n)]))
    vectors = st.lists(st.lists(st.fractions(-3, 3, max_denominator=4),
                                min_size=n, max_size=n), max_size=3)
    s = Subspace.span(n, data.draw(vectors))
    t = Subspace.span(n, data.draw(vectors))
    for x in (a, b):
        assert center(x) == nullspace_of_rows(
            _ref_commutant_rows(x, [((j, 1),) for j in range(n)]), n)
        for left, right in ((s, t), (full_space(n), t), (s, full_space(n))):
            assert relative_center(x, left, right) == \
                _ref_relative_center(x, left, right)


def test_center_matches_the_fraction_rows_on_the_catalog():
    for name, a in fixtures().items():
        n = a.dim
        expected = nullspace_of_rows(
            _ref_commutant_rows(a, [((j, 1),) for j in range(n)]), n)
        assert center(a) == expected, name
        assert relative_center(a, full_space(n), full_space(n)) == expected, name


def _ref_subspace_product(a, s, t):
    """The span of the dense products of the Fraction bases."""
    return Subspace.span(a.dim, [multiply(a, u, v) for u in s.basis for v in t.basis])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30), st.data())
def test_subspace_product_matches_the_dense_products(seed, data):
    rng = random.Random(seed)
    a = random_algebra(rng)
    # a rescaled basis e_i = s_i b_i gives fractional structure constants
    scales = [Fraction(rng.choice([-3, 1, 2, 5]), rng.choice([1, 2, 7]))
              for _ in range(a.dim)]
    b = make_algebra(a.dim, [[[a.table[i][j][k] * scales[i] * scales[j] / scales[k]
                               for k in range(a.dim)] for j in range(a.dim)]
                             for i in range(a.dim)])
    vectors = st.lists(st.lists(st.fractions(-3, 3, max_denominator=4),
                                min_size=a.dim, max_size=a.dim), max_size=3)
    s = Subspace.span(a.dim, data.draw(vectors))
    t = Subspace.span(a.dim, data.draw(vectors))
    for x in (a, b):
        for left, right in ((s, t), (t, s), (s, full_space(a.dim))):
            assert subspace_product(x, left, right) == \
                _ref_subspace_product(x, left, right)


def test_nilpotency_examples():
    a = dual_numbers()
    assert is_nilpotent_subspace(a, Subspace(2, ())) == (True, 1)
    assert is_nilpotent_subspace(a, Subspace.span(2, [[0, 1]])) == (True, 2)
    m = matrix_algebra(2)
    ident = Subspace.span(4, [_ref_vec([1, 0, 0, 1])])
    assert is_nilpotent_subspace(m, ident) == (False, None)
    t4 = truncated_poly(4)
    assert is_nilpotent_subspace(t4, Subspace.span(4, [[0, 1, 0, 0]])) == (True, 4)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_opposite_swaps_one_sided_identities():
    op = opposite(colmat(2))
    assert right_identities(op) is None
    # left identities of the opposite are the right identities of the original
    u = _ref_vec([1, 5])
    for i in range(2):
        assert multiply(op, u, basis(op, i)) == basis(op, i)


def test_opposite_is_involutive():
    for name, a in fixtures().items():
        assert opposite(opposite(a)).table == a.table, name


def test_direct_sum_of_fields():
    a = direct_sum(field(), field())
    assert is_commutative(a)
    assert identity(a) == _ref_vec([1, 1])
    assert subspace_equal(center(a), full_space(2))


def test_commutativity_flags():
    assert is_commutative(truncated_poly(5))
    assert not is_commutative(matrix_algebra(2))
    assert not is_commutative(colmat(2))


def test_poly_quotient_reduces_modulus():
    # x^2 = x + 1 in Q[x]/(x^2 - x - 1)
    a = poly_quotient([-1, -1])
    x = _ref_vec([0, 1])
    assert multiply(a, x, x) == _ref_vec([1, 1])


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_random_poly_quotients_are_commutative_unital(seed):
    import random
    a = random_poly_quotient(random.Random(seed))
    assert is_commutative(a)
    assert identity(a) is not None
    assert subspace_equal(center(a), full_space(a.dim))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_random_algebras_construct_and_oppose(seed):
    import random
    a = random_algebra(random.Random(seed))
    assert 1 <= a.dim <= 6
    assert opposite(opposite(a)).table == a.table


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30), st.data())
def test_multiplication_is_bilinear_and_associative(seed, data):
    import random
    a = random_algebra(random.Random(seed))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    elem = st.lists(coeff, min_size=a.dim, max_size=a.dim).map(_ref_vec)
    x, y, z = data.draw(elem), data.draw(elem), data.draw(elem)
    s = data.draw(coeff)
    lhs = multiply(a, multiply(a, x, y), z)
    rhs = multiply(a, x, multiply(a, y, z))
    assert lhs == rhs
    scaled = multiply(a, _ref_vec([s * c for c in x]), y)
    assert scaled == _ref_vec([s * c for c in multiply(a, x, y)])


# ---------------------------------------------------------------------------
# integer-scaled associativity scan against the Fraction scan
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


# the scan on Fraction constants, kept verbatim as the reference
def _ref_check_associativity(a: Algebra) -> None:
    n = a.dim
    prod = a.products
    for i in range(n):
        for j in range(n):
            left_factors = prod[i][j]
            for k in range(n):
                acc: dict[int, Fraction] = {}
                for m, c in left_factors:
                    for l, c2 in prod[m][k]:
                        acc[l] = acc.get(l, _ZERO) + c * c2
                for m, c in prod[j][k]:
                    for l, c2 in prod[i][m]:
                        acc[l] = acc.get(l, _ZERO) - c * c2
                if any(acc.values()):
                    raise NonAssociativeError((i, j, k))


def _dense_terms(table):
    return {(i, j): enumerate(row)
            for i, plane in enumerate(table) for j, row in enumerate(plane)}


def _witness(check, table):
    """The triple `check` raises on for an unvalidated algebra, or None."""
    n = len(table)
    try:
        check(Algebra(dim=n,
                      products=normalize_products(n, _dense_terms(table))[0]))
    except NonAssociativeError as exc:
        return exc.triple
    return None


def _rescaled(a, s):
    """a's table in the basis e_i = s[i] b_i."""
    n = a.dim
    return [[[a.table[i][j][k] * s[i] * s[j] / s[k] for k in range(n)]
             for j in range(n)] for i in range(n)]


def _scan_inputs():
    tables = {name: a.table for name, a in fixtures().items()}
    rng = random.Random(606)
    for d in range(15):
        tables[f"random_algebra {d}"] = random_algebra(rng).table
        tables[f"random_poly {d}"] = random_poly_quotient(rng).table
    for name in ("matrix2", "colmat3", "group_s3", "trunc_poly3"):
        a = fixtures()[name]
        s = [F((-1) ** i * (i + 2), 2 * i + 3) for i in range(a.dim)]
        tables[f"rescaled {name}"] = _rescaled(a, s)
    return tables


def test_integer_scan_matches_fraction_scan():
    tables = _scan_inputs()
    assert any(c.denominator != 1 and c < 0 for _, c in normalize_products(
        4, _dense_terms(tables["rescaled matrix2"]))[0][1][2])
    for name, table in tables.items():
        assert _witness(_check_associativity, table) is None, name
        assert _witness(_ref_check_associativity, table) is None, name
    rng = random.Random(2718)
    names = sorted(tables)
    values = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4), F(5, 3)]
    verdicts = set()
    for _ in range(320):
        name = rng.choice(names)
        table = [[list(row) for row in plane] for plane in tables[name]]
        n = len(table)
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        table[i][j][k] = rng.choice([v for v in values if v != table[i][j][k]])
        got = _witness(_check_associativity, table)
        assert got == _witness(_ref_check_associativity, table), (name, i, j, k)
        verdicts.add(got is None)
    assert verdicts == {True, False}


SCAN_TABLES = _scan_inputs()
_MUTATION = st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16),
                      st.integers(0, 2 ** 16),
                      st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2),
                                       F(-3, 4), F(5, 3)]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SCAN_TABLES)), st.lists(_MUTATION, max_size=3))
def test_generator_scan_names_the_full_scans_triple(name, mutations):
    # Light's test decides on the generator triples alone; a failure there
    # must still be reported as the full row-major scan's first triple
    table = [[list(row) for row in plane] for plane in SCAN_TABLES[name]]
    n = len(table)
    for i, j, k, v in mutations:
        table[i % n][j % n][k % n] = v
    assert _witness(_check_associativity, table) == \
        _witness(_ref_check_associativity, table)


def test_scaled_products_are_integer_multiples():
    for name, table in _scan_inputs().items():
        a = make_algebra(len(table), table)
        for plane, int_plane in zip(a.products, a.int_products):
            for pairs, int_pairs in zip(plane, int_plane):
                assert [(m, F(c, a.scale)) for m, c in int_pairs] == list(pairs)
        assert all(type(c) is int for plane in a.int_by_left_factor
                   for row in plane for _, c in row), name


def test_normalize_table_keeps_fractions_and_converts_the_rest():
    class Half(Fraction):
        pass

    class Count(int):
        pass

    half, two = F(1, 2), F(2)
    ((((_, c),),),) = normalize_products(1, {(0, 0): [(0, half)]})[0]
    assert c is half
    ((((_, c),),),) = normalize_products(1, {(0, 0): [(0, Half(1, 2))]})[0]
    assert type(c) is Fraction and c == half
    for value in (2, Count(2), Half(2), two):
        products, scale, ints = normalize_products(1, {(0, 0): [(0, value)]})
        ((((_, c),),),), ((((_, v),),),) = products, ints
        assert type(c) is Fraction and c == two and scale == 1
        assert type(v) is int and v == 2


@pytest.mark.parametrize("value", [0.1, 0.0, "1/2", True, False,
                                   float("inf"), None],
                         ids=repr)
def test_inexact_constants_are_rejected_naming_the_pair(value):
    table = [[[0, 0], [0, 0]], [[value, 0], [0, 0]]]
    with pytest.raises(TypeError, match=r"product \(1, 0\)"):
        make_algebra(2, table)
    with pytest.raises(TypeError, match=r"product \(1, 0\)"):
        normalize_products(2, {(1, 0): [(0, value)]})


def test_integer_form_comes_from_the_normalising_pass():
    # the constructor fills scale and int_products in its one pass; an
    # algebra built directly from the same products derives both alike
    algebras = dict(fixtures())
    for name, table in _scan_inputs().items():
        algebras[f"table {name}"] = make_algebra(len(table), table)
    rng = random.Random(29)
    for d in range(20):
        algebras[f"random_algebra {d}"] = random_algebra(rng)
    assert any(a.scale > 1 for a in algebras.values())
    for name, a in algebras.items():
        assert {"scale", "int_products"} <= set(vars(a)), name
        direct = Algebra(a.dim, a.products)
        assert a.scale == direct.scale, name
        assert a.int_products == direct.int_products, name
        assert all(type(c) is Fraction for row in a.products
                   for pairs in row for _, c in pairs), name


def test_constants_are_summed_before_scaling():
    a = parse_algebra_text("dim 1\nmul 0 0 = 1/2 @0 + 1/2 @0\n")
    assert a.products == ((((0, Fraction(1)),),),)
    assert a.scale == 1 and a.int_products == ((((0, 1),),),)
    assert type(a.int_products[0][0][0][1]) is int
    z = parse_algebra_text("dim 1\nmul 0 0 = 1 @0 + -1 @0\n")
    assert z.products == (((),),) and z.int_products == (((),),)
    assert z.scale == 1
    # a sum with a denominator sets the scale; one that cancels does not
    b = parse_algebra_text("dim 2\nmul 0 0 = 1 @0\nmul 0 1 = 1 @1\n"
                           "mul 1 0 = 1 @1\nmul 1 1 = 1/3 @1 + 2/3 @1\n")
    assert b.scale == 1
    c = parse_algebra_text("dim 2\nmul 0 0 = 1 @0\nmul 0 1 = 1 @1\n"
                           "mul 1 0 = 1 @1\nmul 1 1 = 1/6 @1 + 1/6 @1\n")
    assert c.scale == 3 and c.int_products[1][1] == ((1, 1),)
    assert c.int_products[0][0] == ((0, 3),)


# ---------------------------------------------------------------------------
# sparse products against the dense table and its walks
# ---------------------------------------------------------------------------

# the dense table and the sparse views walked from it, kept verbatim from
# when `Algebra` stored the table, as the reference for the sparse form
def _ref_normalize_table(dim: int, constants):
    if len(constants) != dim:
        raise ValueError(f"expected {dim} planes of structure constants")
    planes = []
    for plane in constants:
        if len(plane) != dim:
            raise ValueError("structure constants must be dim x dim x dim")
        rows = []
        for row in plane:
            if len(row) != dim:
                raise ValueError("structure constants must be dim x dim x dim")
            rows.append(tuple(
                c if type(c) is Fraction else Fraction(c) for c in row))
        planes.append(tuple(rows))
    return tuple(planes)


def _ref_products(table):
    return tuple(
        tuple(
            tuple((k, c) for k, c in enumerate(row) if c)
            for row in plane
        )
        for plane in table
    )


def _ref_scale(products):
    return lcm(*(c.denominator for plane in products
                 for pairs in plane for _, c in pairs))


def _ref_scaled(s, table):
    return tuple(
        tuple(tuple((m, c.numerator * (s // c.denominator))
                    for m, c in pairs) for pairs in row)
        for row in table
    )


def _assert_matches_reference(a, constants, label):
    n = a.dim
    table = _ref_normalize_table(n, constants)
    products = _ref_products(table)
    right = _ref_by_right_factor(n, table)
    left = _ref_by_left_factor(n, table)
    s = _ref_scale(products)
    assert a.table == table, label
    assert a.products == products, label
    assert a.scale == s, label
    assert a.int_products == _ref_scaled(s, products), label
    assert a.int_by_right_factor == _ref_scaled(s, right), label
    assert a.int_by_left_factor == _ref_scaled(s, left), label


def _sparse_terms(a):
    return {(i, j): pairs
            for i, row in enumerate(a.products) for j, pairs in enumerate(row)}


def _sparse_inputs():
    """The catalog, 15 seeded draws of each random family, and the four
    rescaled bases built through `make_algebra`."""
    algebras = dict(fixtures())
    rng = random.Random(606)
    for d in range(15):
        algebras[f"random_algebra {d}"] = random_algebra(rng, name=f"r{d}")
        algebras[f"random_poly {d}"] = random_poly_quotient(rng)
    for name in ("matrix2", "colmat3", "group_s3", "trunc_poly3"):
        a = fixtures()[name]
        s = [F((-1) ** i * (i + 2), 2 * i + 3) for i in range(a.dim)]
        algebras[f"rescaled {name}"] = make_algebra(
            a.dim, _rescaled(a, s), name=f"rescaled {name}")
    return algebras


def _messy_text(a):
    """a in the text format with each product's terms in descending k, each
    coefficient c written as (c + 1) @k + -1 @k, and a cancelling pair on
    every basis pair, including those whose product is zero."""
    lines = [f"dim {a.dim}"]
    for i, row in enumerate(a.products):
        for j, pairs in enumerate(row):
            terms = [f"{c + 1} @{k} + -1 @{k}" for k, c in reversed(pairs)]
            terms.append(f"1 @{j} + -1 @{j}")
            lines.append(f"mul {i} {j} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def test_sparse_products_match_the_dense_reference():
    algebras = _sparse_inputs()
    # bytes measured when `Algebra` stored the dense table
    tables = repr([a.table for a in algebras.values()])
    assert hashlib.sha256(tables.encode()).hexdigest() == (
        "c1d5dbe18aee25444c4d9bcb2e44874f732850b5f2a563ba884562a7436b82f4")
    text = "".join(serialize_algebra(a) for a in algebras.values())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1c36c527fd5b19ce74cef1efcf3eed28d30aec01c521ec9bbab873347d1ed117")
    assert any(len(pairs) > 1 for a in algebras.values()
               for row in a.products for pairs in row)
    for name, a in algebras.items():
        _assert_matches_reference(a, a.table, name)
        _assert_matches_reference(make_algebra(a.dim, a.table), a.table, name)
        again = parse_algebra_text(_messy_text(a), name=a.name)
        _assert_matches_reference(again, a.table, f"parsed {name}")
        assert serialize_algebra(again) == serialize_algebra(a), name


def test_parsed_terms_are_summed_sorted_and_cancelled():
    assert parse_algebra_text("dim 1\nmul 0 0 = 1 @0 + -1 @0\n").products \
        == (((),),)
    a = parse_algebra_text(
        "dim 2\nmul 0 0 = 1 @0\nmul 0 1 = 1/2 @1 + 1/2 @1 + 0 @0\n"
        "mul 1 0 = 3 @1 + -2 @1\nmul 1 1 = 2 @1 + -2 @1\n")
    assert a.products == ((((0, 1),), ((1, 1),)), (((1, 1),), ()))
    _assert_matches_reference(a, dual_numbers().table, "dual numbers")


def test_parsing_a_large_dimension_allocates_no_dense_table():
    # a dense dim-120 table holds 120^3 references, about 14 MB; parsing
    # this text peaked at 29.5 MB when `Algebra` stored one
    tracemalloc.start()
    try:
        a = parse_algebra_text("dim 120\nmul 0 0 = 1 @0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.products[0][0] == ((0, 1),) and a.products[0][1] == ()
    assert peak < 1_000_000, peak


def test_identity_implies_unique_right_identity():
    for name, a in fixtures().items():
        e = identity(a)
        if e is None:
            continue
        particular, homogeneous = right_identities(a)
        assert homogeneous.dim == 0, name
        assert particular == e, name


# ---------------------------------------------------------------------------
# per-object cache
# ---------------------------------------------------------------------------

def test_cached_results_are_freed_with_their_object():
    a = matrix_algebra(2)
    pq_centralizers(a, Weights(1, 2))
    center(a)
    radical(a)
    right_identities(a)
    verify_bidual_extension(a, Weights(1, 2))
    t = cyclic_table(3)
    g = group_algebra(t)
    refs = [weakref.ref(x) for x in (a, t, g)]
    del a, t, g
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_cache_is_keyed_by_object_and_argument_values():
    a = matrix_algebra(2)
    assert pq_centralizers(a, Weights(1, 2)) is pq_centralizers(a, Weights(1, 2))
    assert pq_centralizers(a, Weights(2, 1)) is not pq_centralizers(a, Weights(1, 2))
    twin = algebra_from_terms(a.dim, _sparse_terms(a), name=a.name)
    assert pq_centralizers(twin, Weights(1, 2)) is not pq_centralizers(a, Weights(1, 2))
    assert pq_centralizers(twin, Weights(1, 2)) == pq_centralizers(a, Weights(1, 2))


# ---------------------------------------------------------------------------
# the generating set, against a dense closure over sympy
# ---------------------------------------------------------------------------

def _ref_word_span(a, gens):
    """A basis of the span of the left-normed words in the basis elements
    `gens`: the span of the b_g, closed under right multiplication by every
    b_g, each step a dense sympy rref."""
    n = a.dim
    table = [[[sympy.Rational(c.numerator, c.denominator) for c in row]
              for row in plane] for plane in a.table]
    span = sympy.zeros(0, n)
    todo = [[int(i == g) for i in range(n)] for g in gens]
    while todo:
        reduced, pivots = span.col_join(sympy.Matrix(todo)).rref()
        if len(pivots) == span.rows:
            break
        span = reduced[:len(pivots), :]
        todo = [[sum(span[r, i] * table[i][g][k] for i in range(n))
                 for k in range(n)] for r in range(span.rows) for g in gens]
    return span


def _generator_inputs():
    algebras = dict(fixtures())
    for name, table in RIGHT_IDENTITY_SEMIGROUPS.items():
        algebras[name] = _table_algebra(table)
    rng = random.Random(1202)
    for d in range(10):
        algebras[f"random_algebra {d}"] = random_algebra(rng)
        algebras[f"random_poly {d}"] = random_poly_quotient(rng)
    return algebras


GENERATOR_INPUTS = _generator_inputs()


@pytest.mark.parametrize("name", sorted(GENERATOR_INPUTS))
def test_generators_span_the_algebra(name):
    a = GENERATOR_INPUTS[name]
    gens = generators(a)
    assert list(gens) == sorted(set(gens)) and gens[0] == 0
    assert _ref_word_span(a, gens).rows == a.dim
    # greedy: no generator lies in the word span of the ones before it
    for r, g in enumerate(gens[1:], 1):
        span = _ref_word_span(a, gens[:r])
        b_g = sympy.Matrix([[int(i == g) for i in range(a.dim)]])
        assert span.col_join(b_g).rank() > span.rows, (name, g)
