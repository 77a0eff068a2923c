"""Staged bidual product: action oracles, embedding, and the lifted checks."""

import hashlib
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cache_ref import own_store
from dense_ref import (Matrix, _ref_matmul, _ref_rescaled, _ref_transpose,
                       _ref_vec, basis_vector)
from report_ref import report_doc
from pqcent import arens
from pqcent.algebras import identity, multiply
from pqcent.arens import (
    arens_basis_products,
    arens_product,
    bidual_times_functional,
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
from pqcent.linalg import DimensionMismatch
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
        products = _rational_table(a, arens_basis_products(a))
        for i in range(n):
            for j in range(n):
                assert products[i][j] == tuple(a.table[i][j]), (name, i, j)
                assert products[i][j] == multiply(
                    a, basis_vector(n, i), basis_vector(n, j)
                ), (name, i, j)
        assert arens_basis_products(a) == a.int_products, name


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
    calls = {"_stage_one": 0, "_stage_two": 0, "_stage_three": 0}

    def counted(name, stage):
        def run(*args):
            calls[name] += 1
            return stage(*args)
        return run

    for name in calls:
        monkeypatch.setattr(arens, name, counted(name, getattr(arens, name)))
    a = own_store(matrix_algebra(2))
    n = a.dim
    verify_bidual_extension(a, W12)
    # stage 1 once per (basis functional, basis element); the basis table
    # and the dense samples read those results
    assert calls["_stage_one"] == n * n
    assert calls["_stage_two"] and calls["_stage_three"]
    calls.update(dict.fromkeys(calls, 0))
    assert verify_bidual_extension(a, W12).status == PASS
    assert not any(calls.values())
    # e_r*.e_i is the functional e_j -> e_r*(e_i e_j), which the adjoint
    # scan reads from the algebra by left factor i and output r, times the
    # algebra's scale
    rescaled = _ref_rescaled(a, [Fraction(1, 2), 3, Fraction(-2, 5), 1])
    for b in (a, rescaled):
        for r in range(n):
            for i in range(n):
                stage_one = functional_times_element(
                    b, basis_vector(n, r), basis_vector(n, i))
                assert b.int_by_left_factor[i][r] == tuple(
                    (j, b.scale * c) for j, c in enumerate(stage_one) if c)
    assert rescaled.scale > 1


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


def _rational_table(a, products):
    """The staged integer table as dense Fraction vectors: [i][j] is
    e_i** * e_j**, the (k, c) pairs divided by a.scale."""
    n = a.dim
    table = []
    for row in products:
        plane = []
        for pairs in row:
            line = [_ZERO] * n
            for k, c in pairs:
                line[k] = Fraction(c, a.scale)
            plane.append(tuple(line))
        table.append(tuple(plane))
    return tuple(table)


def _oracle_algebras():
    algebras = dict(fixtures())
    rng = Random(20240)
    for d in range(10):
        algebras[f"random_algebra {d}"] = random_algebra(rng)
        algebras[f"random_poly {d}"] = random_poly_quotient(rng)
    for name in ("matrix2", "group_s3"):
        a = algebras[name]
        s = [Fraction((-1) ** i * (i + 2), 2 * i + 3) for i in range(a.dim)]
        algebras[f"rescaled {name}"] = _ref_rescaled(a, s)
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
        assert _rational_table(a, arens_basis_products(a)) == \
            _ref_arens_basis_products(a), name
        f, x = _dense_with_zeros(n, 1), _dense_with_zeros(n, 2)
        assert any(v == 0 for v in f + x) or n < 2, name
        assert functional_times_element(a, f, x) == \
            _ref_functional_times_element(a, f, x), name
        assert bidual_times_functional(a, x, f) == \
            _ref_bidual_times_functional(a, x, f), name
        assert arens_product(a, f, x) == _ref_arens_product(a, f, x), name


def test_dense_samples_are_the_reference_products():
    algebras = _oracle_algebras()
    assert algebras["rescaled group_s3"].scale > 1
    for name, a in algebras.items():
        _, samples = arens._staged_samples(a)
        for s in samples:
            assert tuple(Fraction(v, a.scale) for v in s.fh) == \
                _ref_arens_product(a, _ref_vec(s.f), _ref_vec(s.h)), name


@pytest.mark.parametrize("name", ["matrix2", "group_s3"])
def test_bidual_extension_is_unchanged_by_fractional_constants(name):
    algebras = _oracle_algebras()
    a, b = algebras[name], algebras[f"rescaled {name}"]
    assert b.scale > 1
    for pair in DEFAULT_WEIGHT_PAIRS:
        ra = verify_bidual_extension(a, Weights(*pair))
        rb = verify_bidual_extension(b, Weights(*pair))
        assert rb.status == ra.status, pair
        assert [x.passed for x in rb.assertions] == \
            [x.passed for x in ra.assertions], pair


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
    """a.scale * (f.x) with (f.x)(y) = f(y x), the opposite of stage 1."""
    out = [0] * a.dim
    for i, xi in x:
        for k, fk in f:
            for j, c in a.int_by_right_factor[i][k]:
                out[j] += xi * fk * c
    return out


def _transposed(h, f_actions):
    """(H.f)_j = H read off the j-th coordinates of f.e_m: stage 2 with its
    stage-1 results transposed."""
    n = len(f_actions)
    return [sum(v * f_actions[m][j] for m, v in h) for j in range(n)]


def _swapped(stage):
    return lambda first, second, actions: stage(second, first, actions)


# the basis table is built from stages 1 and 2 and reads stage 3 as a
# pairing, so a wrong stage 1 or 2 must break the table assertion itself;
# the full stage 3 runs on the dense samples
STAGE_MUTANTS = [
    ("_stage_one", lambda stage: _opposite_action,
     "staged product extends the algebra product"),
    ("_stage_two", lambda stage: _transposed,
     "staged product extends the algebra product"),
    ("_stage_three", _swapped, "dense pipeline sample"),
]


@pytest.mark.parametrize("stage, mutant, failing", STAGE_MUTANTS)
def test_bidual_extension_fails_on_a_mutated_stage(
        monkeypatch, stage, mutant, failing):
    monkeypatch.setattr(arens, stage, mutant(getattr(arens, stage)))
    # an empty store, so its basis table is built by the mutated stages
    rep = verify_bidual_extension(own_store(matrix_algebra(2)), W12)
    assert rep.status == FAIL, stage
    assert any(failing in x.name and not x.passed for x in rep.assertions), stage


# re-pinned when the "double adjoint has the original matrix" assertion was
# dropped: the double adjoint's matrix is the operator's by definition
def test_bidual_extension_report_bytes_are_pinned():
    reports = [
        report_doc(verify_bidual_extension(a, Weights(*p)))
        for a in fixtures().values()
        for p in DEFAULT_WEIGHT_PAIRS
    ]
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "26e0475241ba90a94b4c0e78588944dd70c25c3cc92a28596255f7caa91c820f"
    )
