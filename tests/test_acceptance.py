"""Acceptance battery: ten zero-tolerance criteria, one printed line each.

Every assertion runs in exact rational arithmetic. The module name sorts
first in the test directory, so the timed criteria start from cold caches.
"""

import hashlib
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from dense_ref import (
    _ref_apply_matrix,
    _ref_identity_matrix,
    _ref_matmul,
    _ref_zero_matrix,
    basis_vector,
    int_operator,
    operator_matrix,
)
from pqcent.algebras import center, identity, is_commutative, is_unital, \
    is_nilpotent_subspace, multiply, radical
from pqcent.arens import arens_basis_products, verify_bidual_extension
from pqcent.centralizers import (
    Weights,
    pq_centralizers,
    right_mul_image,
    right_mul_int,
    right_mul_space,
    two_sided_centralizers,
)
from pqcent.fixtures import fixtures, random_algebra, random_poly_quotient
from pqcent.groups import (
    class_sums,
    conjugacy_classes,
    group_tables,
    verify_group_centralizer_structure,
)
from pqcent.linalg import (
    Subspace,
    full_space,
    subspace_contains,
)
from pqcent.suite import run_suite
from pqcent.verify import (
    inclusion_chain_check,
    run_range_conditions_check,
    run_square_zero_check,
    verify_commutative_weights_coincide,
    verify_equivalent_range_conditions,
    verify_jordan_reconstruction,
    verify_right_identity_collapse,
    verify_square_zero_iff_nilpotent_range,
    verify_unital_center_correspondence,
)

WEIGHT_PAIRS = ((1, 2), (2, 1), (3, 5), (7, 2))


@pytest.fixture
def announce(capfd):
    @contextmanager
    def _criterion(num, desc):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {num:2d}: FAIL - {desc}")
            raise
        with capfd.disabled():
            print(f"criterion {num:2d}: PASS - {desc}")
    return _criterion


@pytest.fixture(scope="module")
def catalog():
    return fixtures()


def test_criterion_01_right_identity_collapse(announce, catalog):
    names = ("colmat2", "colmat3", "matrix2", "matrix3",
             "dual_numbers", "trunc_poly3", "group_s3")
    with announce(1, "right-identity fixtures collapse to two-sided "
                     "right multiplications under all four weight pairs"):
        start = time.perf_counter()
        for name in names:
            a = catalog[name]
            for pair in WEIGHT_PAIRS:
                report = verify_right_identity_collapse(a, Weights(*pair))
                assert report.status == "PASS", (name, pair, report.lines())
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_center_bijection_dimensions(announce, catalog):
    expected_dims = {"matrix2": 1, "dual_numbers": 2,
                     "group_s3": 3, "group_q8": 5}
    with announce(2, "evaluation at the identity is a multiplicative "
                     "bijection onto the center, with pinned dimensions"):
        for name, a in catalog.items():
            if not is_unital(a):
                continue
            for pair in WEIGHT_PAIRS:
                report = verify_unital_center_correspondence(a, Weights(*pair))
                assert report.status == "PASS", (name, pair)
            dim = pq_centralizers(a, Weights(1, 2)).dim
            assert dim == center(a).dim, name
            if name in expected_dims:
                assert dim == expected_dims[name], name
        for key, table in group_tables().items():
            algebra_dim = pq_centralizers(
                catalog[f"group_{key}"], Weights(1, 2)).dim
            assert algebra_dim == len(conjugacy_classes(table)), key


def test_criterion_03_inclusion_chain(announce, catalog):
    rng = Random(20260815)
    with announce(3, "two-sided inside weighted inside Jordan, on the "
                     "catalog and fifty seeded random algebras"):
        for name, a in catalog.items():
            for pair in WEIGHT_PAIRS:
                report = inclusion_chain_check(a, Weights(*pair))
                assert report.status == "PASS", (name, pair)
        for i in range(50):
            a = random_algebra(rng, name=f"acc_mix_{i:02d}")
            for pair in ((1, 2), (7, 2)):
                report = inclusion_chain_check(a, Weights(*pair))
                assert report.status == "PASS", (a.name, pair)


def test_criterion_04_commutative_collapse(announce, catalog):
    rng = Random(4)
    with announce(4, "commutative fixtures and twenty-five random "
                     "polynomial quotients collapse at all four weight pairs"):
        for name, a in catalog.items():
            if not is_commutative(a):
                continue
            report = verify_commutative_weights_coincide(a, Weights(1, 2))
            assert report.status == "PASS", name
            checked = {x.name for x in report.assertions}
            for p, q in WEIGHT_PAIRS:
                assert f"({p},{q}) space equals two-sided space" in checked
        for i in range(25):
            a = random_poly_quotient(rng, name=f"acc_poly_{i:02d}")
            report = verify_commutative_weights_coincide(a, Weights(1, 2))
            assert report.status == "PASS", a.name


def test_criterion_05_jordan_reconstruction(announce, catalog):
    with announce(5, "Jordan values split as (a-ua)T(u) + uT(a) on the "
                     "column algebras at every sampled right identity"):
        expected_samples = {"colmat2": 2, "colmat3": 4}
        for name in ("colmat2", "colmat3"):
            for pair in WEIGHT_PAIRS:
                report = verify_jordan_reconstruction(
                    catalog[name], Weights(*pair))
                assert report.status == "PASS", (name, pair)
                assert f"{expected_samples[name]} right identity samples" \
                    in report.note


def test_criterion_06_square_zero(announce, catalog):
    dual = catalog["dual_numbers"]
    m2 = catalog["matrix2"]
    with announce(6, "multiplication by x has zero square, range nilpotent "
                     "of index 2 inside the radical; both sides false for "
                     "the identity on the 2x2 matrix algebra"):
        rho_x = right_mul_int(dual, basis_vector(2, 1))
        dense = operator_matrix(rho_x)
        assert _ref_matmul(dense, dense) == _ref_zero_matrix(2, 2)
        ran = Subspace.span(2, [(dense.entry(0, j), dense.entry(1, j))
                                for j in range(2)])
        nilpotent, index = is_nilpotent_subspace(dual, ran)
        assert nilpotent and index == 2
        assert subspace_contains(radical(dual), ran)
        report = verify_square_zero_iff_nilpotent_range(
            dual, Weights(1, 2), rho_x)
        assert report.status == "PASS"

        ident = _ref_identity_matrix(4)
        assert _ref_matmul(ident, ident) != _ref_zero_matrix(4, 4)
        assert is_nilpotent_subspace(m2, full_space(4)) == (False, None)
        report = verify_square_zero_iff_nilpotent_range(
            m2, Weights(1, 2), int_operator(ident))
        assert report.status == "PASS"
        assert "square zero: False" in report.note
        for pair in WEIGHT_PAIRS:
            for name in ("dual_numbers", "matrix2"):
                assert run_square_zero_check(
                    catalog[name], Weights(*pair)).status == "PASS"


def test_criterion_07_bidual_pipeline(announce, catalog):
    with announce(7, "double adjoints satisfy the weighted identity for "
                     "the staged bidual product; the embedding is "
                     "multiplicative on every fixture"):
        for name in ("colmat2", "matrix2"):
            for pair in WEIGHT_PAIRS:
                report = verify_bidual_extension(catalog[name], Weights(*pair))
                assert report.status == "PASS", (name, pair)
        for name, a in catalog.items():
            n = a.dim
            # the staged table holds a.scale * e_i** * e_j** as (k, c) pairs
            products = arens_basis_products(a)
            for i in range(n):
                for j in range(n):
                    staged = [0] * n
                    for k, c in products[i][j]:
                        staged[k] = Fraction(c, a.scale)
                    assert tuple(staged) == multiply(
                        a, basis_vector(n, i), basis_vector(n, j)
                    ), (name, i, j)


def test_criterion_08_group_algebras(announce, catalog):
    expected = {"c2": 2, "c3": 3, "s3": 3, "q8": 5}
    with announce(8, "group-algebra centralizer dimensions equal conjugacy "
                     "class counts and come from class-sum multiplications"):
        for key, table in group_tables().items():
            a = catalog[f"group_{key}"]
            classes = conjugacy_classes(table)
            assert len(classes) == expected[key], key
            sums = class_sums(table)
            for pair in WEIGHT_PAIRS:
                w = Weights(*pair)
                report = verify_group_centralizer_structure(table, w)
                assert report.status == "PASS", (key, pair)
                space = pq_centralizers(a, w)
                assert space.dim == expected[key], (key, pair)
                assert space == right_mul_image(a, sums), (key, pair)
            if is_commutative(a):
                assert center(a) == full_space(a.dim), key


def test_criterion_09_range_conditions(announce, catalog):
    a = catalog["colmat2"]
    with announce(9, "the four range conditions share one truth value for "
                     "zero, identity, and every solved basis operator"):
        for pair in WEIGHT_PAIRS:
            report = run_range_conditions_check(a, Weights(*pair))
            assert report.status == "PASS", pair
        u = basis_vector(2, 0)
        single = verify_equivalent_range_conditions(
            a, Weights(1, 2), int_operator(_ref_identity_matrix(2)), u)
        assert single.status == "PASS"
        assert "T(u) central: False" in single.note


def test_criterion_10_full_suite(announce):
    with announce(10, "full deterministic suite exits zero in under a "
                      "minute"):
        start = time.perf_counter()
        first = run_suite()
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f} s"
        assert first.exit_code == 0
        assert first.counts["FAIL"] == 0
        second = run_suite()
        assert first.to_json() == second.to_json()
        # the seed-0 report is pinned byte for byte: solver changes must not
        # move a single canonical basis entry or witness (re-pinned when
        # check 5.1 stopped asserting (1,1) = two-sided on non-unital zero2,
        # and when check 2.4 dropped its double-adjoint tautology)
        assert hashlib.sha256(first.to_json().encode()).hexdigest() == (
            "c95ceef4f38abc56657330c63d37820ca911365abadd20f007cf72f18fac7247"
        )


def test_acceptance_epilogue_consistency(catalog):
    """The solved spaces behind the criteria agree with direct predicates."""
    for name in ("colmat2", "matrix2", "group_s3"):
        a = catalog[name]
        w = Weights(3, 5)
        space = pq_centralizers(a, w)
        assert space == two_sided_centralizers(a), name
        assert subspace_contains(right_mul_space(a).space, space.space), name
        one = identity(a)
        if one is not None:
            for t in space.int_operators:
                value = _ref_apply_matrix(operator_matrix(t), one)
                assert right_mul_int(a, value) == t, name
