"""Staged bidual product: action oracles, embedding, and the lifted checks."""

import hashlib
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import Matrix, _ref_matmul, _ref_transpose, _ref_vec
from pqcent import arens
from pqcent.algebras import identity, make_algebra, multiply
from pqcent.arens import (
    arens_basis_products,
    arens_product,
    bidual_times_functional,
    dual_pairing,
    functional_times_element,
    verify_bidual_extension,
)
from pqcent.centralizers import Weights
from pqcent.fixtures import (
    fixtures,
    matrix_algebra,
    random_algebra,
    random_poly_quotient,
)
from pqcent.linalg import DimensionMismatch, basis_vector
from pqcent.reports import FAIL, PASS, PRECONDITION_UNMET
from pqcent.verify import DEFAULT_WEIGHT_PAIRS

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


def test_staged_product_extends_algebra_product():
    # on a finite-dimensional algebra the first Arens product is its
    # product, so the staged table equals the structure constants
    for name, a in _oracle_algebras().items():
        n = a.dim
        products = arens_basis_products(a)
        for i in range(n):
            for j in range(n):
                assert products[i][j] == tuple(a.table[i][j]), (name, i, j)
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
    f = _ref_vec([1, 2, 3])
    g = _ref_vec([Fraction(1, 2), 0, -1])
    h = _ref_vec([0, 1, 1])
    lhs = arens_product(a, _ref_vec(x + y for x, y in zip(f, g)), h)
    rhs = _ref_vec(
        x + y
        for x, y in zip(arens_product(a, f, h), arens_product(a, g, h))
    )
    assert lhs == rhs


def test_dual_pairing_is_the_coordinate_dot():
    assert dual_pairing((1, 2), (3, 4)) == 11
    assert dual_pairing((Fraction(1, 2), 0), (4, 9)) == 2


# the adjoint of an operator has the transposed matrix against the dual
# basis, so check 2.4 takes an operator's own matrix as its double adjoint
def test_adjoint_is_contravariant():
    s = Matrix.from_rows([[1, 2], [0, 1]])
    t = Matrix.from_rows([[3, 0], [1, 1]])
    assert _ref_transpose(_ref_matmul(s, t)) == \
        _ref_matmul(_ref_transpose(t), _ref_transpose(s))


@given(st.lists(st.integers(-5, 5), min_size=9, max_size=9))
@settings(max_examples=50, deadline=None)
def test_double_adjoint_restores_matrix(entries):
    t = Matrix(3, 3, tuple(Fraction(v) for v in entries))
    assert _ref_transpose(_ref_transpose(t)) == t


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


def test_bidual_holds_the_dual_module_and_a_second_check_runs_no_stage(
        monkeypatch):
    calls = []

    def counted(stage):
        return lambda a, x, y: calls.append(1) or stage(a, x, y)

    for name in ("functional_times_element", "bidual_times_functional",
                 "arens_product"):
        monkeypatch.setattr(arens, name, counted(getattr(arens, name)))
    a = matrix_algebra(2)
    n = a.dim
    verify_bidual_extension(a, W12)
    assert calls
    calls.clear()
    assert verify_bidual_extension(a, W12).status == PASS
    assert not calls
    # e_r*.e_i is the functional e_j -> e_r*(e_i e_j), read from the bidual
    # by left factor i and output r, times the bidual's scale
    rescaled = _rescaled(a, [Fraction(1, 2), 3, Fraction(-2, 5), 1])
    for b in (a, rescaled):
        _, _, bidual = arens._staged_samples(b)
        for r in range(n):
            for i in range(n):
                stage_one = functional_times_element(
                    b, basis_vector(n, r), basis_vector(n, i))
                assert bidual.int_by_left_factor[i][r] == tuple(
                    (j, bidual.scale * c) for j, c in enumerate(stage_one) if c)
    assert bidual.scale > 1


# ---------------------------------------------------------------------------
# reference: the unoptimised staged pipeline, kept as a differential oracle
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _ref_dual_pairing(f, x):
    return sum((fk * xk for fk, xk in zip(f, x)), _ZERO)


def _ref_functional_times_element(a, f, x):
    n = a.dim
    out = [_ZERO] * n
    for j in range(n):
        acc = _ZERO
        for i, xi in enumerate(x):
            if xi:
                for k, c in a.products[i][j]:
                    acc += f[k] * xi * c
        out[j] = acc
    return _ref_vec(out)


def _ref_bidual_times_functional(a, h, f):
    n = a.dim
    return _ref_vec(
        _ref_dual_pairing(
            h, _ref_functional_times_element(a, f, basis_vector(n, j))
        )
        for j in range(n)
    )


def _ref_arens_product(a, big_f, big_h):
    n = a.dim
    return _ref_vec(
        _ref_dual_pairing(
            big_f, _ref_bidual_times_functional(a, big_h, basis_vector(n, i))
        )
        for i in range(n)
    )


def _ref_arens_basis_products(a):
    n = a.dim
    return tuple(
        tuple(
            _ref_arens_product(a, basis_vector(n, i), basis_vector(n, j))
            for j in range(n)
        )
        for i in range(n)
    )


def _rescaled(a, s):
    """a in the basis e_i = s[i] b_i, whose structure constants are fractions."""
    n = a.dim
    return make_algebra(n, [[[a.table[i][j][k] * s[i] * s[j] / s[k]
                              for k in range(n)] for j in range(n)]
                            for i in range(n)])


def _oracle_algebras():
    algebras = dict(fixtures())
    rng = Random(20240)
    for d in range(10):
        algebras[f"random_algebra {d}"] = random_algebra(rng)
        algebras[f"random_poly {d}"] = random_poly_quotient(rng)
    for name in ("matrix2", "group_s3"):
        a = algebras[name]
        s = [Fraction((-1) ** i * (i + 2), 2 * i + 3) for i in range(a.dim)]
        algebras[f"rescaled {name}"] = _rescaled(a, s)
    return algebras


def _dense_with_zeros(n, shift):
    """A dense Fraction vector with a zero in every third coordinate."""
    return _ref_vec(
        0 if (k + shift) % 3 == 0 else Fraction((-1) ** k * (k + shift), k + 2)
        for k in range(n)
    )


def test_staged_actions_match_the_reference_pipeline():
    algebras = _oracle_algebras()
    assert any(c.denominator != 1 for plane in algebras["rescaled matrix2"].table
               for row in plane for c in row)
    for name, a in algebras.items():
        n = a.dim
        assert arens_basis_products(a) == _ref_arens_basis_products(a), name
        f, x = _dense_with_zeros(n, 1), _dense_with_zeros(n, 2)
        assert any(v == 0 for v in f + x) or n < 2, name
        assert functional_times_element(a, f, x) == \
            _ref_functional_times_element(a, f, x), name
        assert bidual_times_functional(a, x, f) == \
            _ref_bidual_times_functional(a, x, f), name
        assert arens_product(a, f, x) == _ref_arens_product(a, f, x), name
        assert dual_pairing(f, x) == _ref_dual_pairing(f, x), name


def test_dual_pairing_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        dual_pairing((1, 2, 3), (1,))


def test_functional_times_element_rejects_wrong_length(catalog):
    a = catalog["matrix2"]
    with pytest.raises(DimensionMismatch):
        functional_times_element(a, basis_vector(4, 0), (1, 0))
    with pytest.raises(DimensionMismatch):
        functional_times_element(a, (1, 0), basis_vector(4, 0))


def test_bidual_times_functional_rejects_wrong_length(catalog):
    a = catalog["matrix2"]
    with pytest.raises(DimensionMismatch):
        bidual_times_functional(a, (1, 0), basis_vector(4, 0))
    with pytest.raises(DimensionMismatch):
        bidual_times_functional(a, basis_vector(4, 0), (1, 0, 0, 0, 0))


def test_arens_product_rejects_wrong_length(catalog):
    a = catalog["matrix2"]
    with pytest.raises(DimensionMismatch):
        arens_product(a, basis_vector(4, 0), (1,))
    with pytest.raises(DimensionMismatch):
        arens_product(a, (1, 0, 0), basis_vector(4, 0))


# ---------------------------------------------------------------------------
# stage mutations: check 2.4 must notice a wrong stage
# ---------------------------------------------------------------------------

def _opposite_action(a, f, x):
    """(f.x)(y) = f(y x), the opposite of stage 1."""
    n = a.dim
    out = [_ZERO] * n
    for j in range(n):
        for i, xi in enumerate(x):
            for k, c in a.products[j][i]:
                out[j] += f[k] * xi * c
    return tuple(out)


def _swapped(stage):
    return lambda a, first, second: stage(a, second, first)


# the basis table is built from stages 1 and 2 and reads stage 3 as a
# pairing, so a wrong stage 1 or 2 must break the table assertion itself;
# the full stage 3 runs on the dense samples
@pytest.mark.parametrize("stage, mutant, failing", [
    ("functional_times_element", lambda stage: _opposite_action,
     "staged product extends the algebra product"),
    ("bidual_times_functional", _swapped,
     "staged product extends the algebra product"),
    ("arens_product", _swapped, "dense pipeline sample"),
])
def test_bidual_extension_fails_on_a_mutated_stage(
        monkeypatch, stage, mutant, failing):
    monkeypatch.setattr(arens, stage, mutant(getattr(arens, stage)))
    # a fresh algebra, so its basis table is built by the mutated stages
    rep = verify_bidual_extension(matrix_algebra(2), W12)
    assert rep.status == FAIL, stage
    assert any(failing in x.name and not x.passed for x in rep.assertions), stage


# re-pinned when the "double adjoint has the original matrix" assertion was
# dropped: the double adjoint's matrix is the operator's by definition
def test_bidual_extension_report_bytes_are_pinned():
    reports = [
        verify_bidual_extension(a, Weights(*p)).to_dict()
        for a in fixtures().values()
        for p in DEFAULT_WEIGHT_PAIRS
    ]
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "26e0475241ba90a94b4c0e78588944dd70c25c3cc92a28596255f7caa91c820f"
    )
