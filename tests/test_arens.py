"""Staged bidual product: action oracles, embedding, and the lifted checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqcent.algebras import identity, multiply
from pqcent.arens import (
    adjoint,
    arens_basis_products,
    arens_product,
    bidual_times_functional,
    double_adjoint,
    dual_pairing,
    functional_times_element,
    verify_bidual_extension,
)
from pqcent.centralizers import Weights
from pqcent.fixtures import fixtures
from pqcent.linalg import Matrix, basis_vector, matmul, vec
from pqcent.reports import PASS, PRECONDITION_UNMET

W12 = Weights(1, 2)


@pytest.fixture(scope="module")
def catalog():
    return fixtures()


def test_functional_action_on_matrix_units(catalog):
    # basis order E11, E12, E21, E22; pairing f = dual of E11 with x = E12:
    # (f.x)(y) = f(x y) picks the E21 coordinate of y since E12 E21 = E11
    a = catalog["matrix2"]
    f = basis_vector(4, 0)
    x = basis_vector(4, 1)
    assert functional_times_element(a, f, x) == basis_vector(4, 2)


def test_functional_action_is_right_module_action(catalog):
    # (f.(xy)) = ((f.x).y) on all basis triples of a noncommutative algebra
    a = catalog["matrix2"]
    n = a.dim
    for fk in range(n):
        f = basis_vector(n, fk)
        for i in range(n):
            x = basis_vector(n, i)
            for j in range(n):
                y = basis_vector(n, j)
                assert functional_times_element(a, f, multiply(a, x, y)) == \
                    functional_times_element(
                        a, functional_times_element(a, f, x), y
                    )


def test_embedded_identity_acts_trivially_on_dual(catalog):
    for name in ("matrix2", "dual_numbers", "group_s3", "trunc_poly3"):
        a = catalog[name]
        one = identity(a)
        assert one is not None
        for k in range(a.dim):
            f = basis_vector(a.dim, k)
            assert bidual_times_functional(a, one, f) == f, name


def test_staged_product_extends_algebra_product(catalog):
    for name, a in catalog.items():
        n = a.dim
        products = arens_basis_products(a)
        for i in range(n):
            for j in range(n):
                assert products[i][j] == multiply(
                    a, basis_vector(n, i), basis_vector(n, j)
                ), (name, i, j)


def test_staged_product_is_associative_on_small_fixtures(catalog):
    for name in ("colmat2", "dual_numbers", "zero2", "matrix2"):
        a = catalog[name]
        n = a.dim
        basis = [basis_vector(n, i) for i in range(n)]
        for x in basis:
            for y in basis:
                for z in basis:
                    left = arens_product(a, arens_product(a, x, y), z)
                    right = arens_product(a, x, arens_product(a, y, z))
                    assert left == right, name


def test_staged_product_is_bilinear(catalog):
    a = catalog["colmat3"]
    f = vec([1, 2, 3])
    g = vec([Fraction(1, 2), 0, -1])
    h = vec([0, 1, 1])
    lhs = arens_product(a, vec(x + y for x, y in zip(f, g)), h)
    rhs = vec(
        x + y
        for x, y in zip(arens_product(a, f, h), arens_product(a, g, h))
    )
    assert lhs == rhs


def test_dual_pairing_is_the_coordinate_dot():
    assert dual_pairing((1, 2), (3, 4)) == 11
    assert dual_pairing((Fraction(1, 2), 0), (4, 9)) == 2


def test_adjoint_is_contravariant():
    s = Matrix.from_rows([[1, 2], [0, 1]])
    t = Matrix.from_rows([[3, 0], [1, 1]])
    assert adjoint(matmul(s, t)) == matmul(adjoint(t), adjoint(s))


@given(st.lists(st.integers(-5, 5), min_size=9, max_size=9))
@settings(max_examples=50, deadline=None)
def test_double_adjoint_restores_matrix(entries):
    t = Matrix(3, 3, tuple(Fraction(v) for v in entries))
    assert double_adjoint(t) == t
    assert adjoint(adjoint(t)) == t


def test_bidual_extension_passes_on_colmat2(catalog):
    rep = verify_bidual_extension(catalog["colmat2"], Weights(2, 3))
    assert rep.status == PASS
    assert rep.check_id == "2.4"
    names = [x.name for x in rep.assertions]
    assert "staged product extends the algebra product on embedded basis pairs" \
        in names
    assert any("dense pipeline sample" in n for n in names)
    assert any("adjoint satisfies the transposed" in n for n in names)


def test_bidual_extension_passes_on_matrix2(catalog):
    rep = verify_bidual_extension(catalog["matrix2"], W12)
    assert rep.status == PASS
    assert "space dim 1" in rep.note


def test_bidual_extension_passes_on_group_algebras(catalog):
    for name in ("group_c3", "group_s3"):
        rep = verify_bidual_extension(catalog[name], W12)
        assert rep.status == PASS, name


def test_bidual_extension_needs_right_identity(catalog):
    for name in ("zero2", "opposite_colmat2"):
        rep = verify_bidual_extension(catalog[name], W12)
        assert rep.status == PRECONDITION_UNMET, name


def test_basis_product_table_is_cached(catalog):
    a = catalog["colmat2"]
    assert arens_basis_products(a) is arens_basis_products(a)
