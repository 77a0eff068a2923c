"""Structural checks: frozen oracle cases plus catalog-wide status sweeps."""

from fractions import Fraction

import pytest

from dense_ref import (Matrix, _ref_identity_matrix, _ref_zero_matrix,
                       basis_vector, int_operator)
from report_ref import report_doc
from solver_ref import SEMIGROUP_GAPS
from pqcent import verify
from pqcent.algebras import (
    identity,
    is_commutative,
    make_algebra,
    multiply,
    radical,
    right_identity_samples,
    subspace_product,
)
from pqcent.centralizers import (
    Weights,
    pq_centralizers,
    residual,
    right_mul_int,
    two_sided_centralizers,
    weighted,
)
from pqcent.fixtures import (
    colmat,
    direct_sum,
    dual_numbers,
    field,
    fixtures,
    matrix_algebra,
)
from pqcent.linalg import Subspace
from pqcent.reports import PASS, PRECONDITION_UNMET, Assertion
from pqcent.verify import (
    CHECK_DESCRIPTIONS,
    CHECK_IDS,
    DEFAULT_WEIGHT_PAIRS,
    _operator_candidates,
    inclusion_chain_check,
    run_range_conditions_check,
    run_square_zero_check,
    verify_central_image_implies_two_sided,
    verify_commutative_weights_coincide,
    verify_equivalent_range_conditions,
    verify_jordan_reconstruction,
    verify_right_identity_collapse,
    verify_square_zero_iff_nilpotent_range,
    verify_unital_center_correspondence,
)

W12 = Weights(1, 2)
W23 = Weights(2, 3)


@pytest.fixture(scope="module")
def catalog():
    return fixtures()


def _assertion_names(report):
    return [a.name for a in report.assertions]


# ---------------------------------------------------------------------------
# 2.1
# ---------------------------------------------------------------------------

def test_collapse_passes_on_colmat2(catalog):
    rep = verify_right_identity_collapse(catalog["colmat2"], W23)
    assert rep.status == PASS
    assert "2 right identity samples" in rep.note


def test_collapse_passes_on_matrix3(catalog):
    rep = verify_right_identity_collapse(catalog["matrix3"], W12)
    assert rep.status == PASS
    assert rep.check_id == "2.1"
    assert rep.weights == (1, 2)


def test_collapse_needs_right_identity(catalog):
    rep = verify_right_identity_collapse(catalog["zero2"], W12)
    assert rep.status == PRECONDITION_UNMET
    assert "right identity" in rep.note
    assert rep.assertions == ()


def test_collapse_statuses_across_catalog(catalog):
    for name, a in catalog.items():
        rep = verify_right_identity_collapse(a, Weights(3, 5))
        expected = (
            PRECONDITION_UNMET
            if name in ("zero2", "opposite_colmat2")
            else PASS
        )
        assert rep.status == expected, name


# ---------------------------------------------------------------------------
# 2.3
# ---------------------------------------------------------------------------

def test_center_correspondence_dual_numbers(catalog):
    rep = verify_unital_center_correspondence(catalog["dual_numbers"], W12)
    assert rep.status == PASS
    assert "center dim 2" in rep.note


def test_center_correspondence_matrix2(catalog):
    rep = verify_unital_center_correspondence(catalog["matrix2"], W23)
    assert rep.status == PASS
    assert "center dim 1" in rep.note
    names = _assertion_names(rep)
    assert "space dimension equals center dimension" in names
    assert "evaluation at the identity is multiplicative on basis pairs" in names


def test_center_correspondence_needs_identity(catalog):
    rep = verify_unital_center_correspondence(catalog["colmat2"], W12)
    assert rep.status == PRECONDITION_UNMET


# ---------------------------------------------------------------------------
# 3.1
# ---------------------------------------------------------------------------

def test_range_conditions_all_false_on_colmat2(catalog):
    a = catalog["colmat2"]
    u = basis_vector(2, 0)
    rep = verify_equivalent_range_conditions(
        a, W12, int_operator(_ref_identity_matrix(2)), u)
    assert rep.status == PASS
    assert "range in u*A: False" in rep.note
    assert "T(u) central: False" in rep.note


def test_range_conditions_all_true_when_unital(catalog):
    a = catalog["matrix2"]
    one = identity(a)
    rep = verify_equivalent_range_conditions(
        a, W23, int_operator(_ref_identity_matrix(4)), one)
    assert rep.status == PASS
    assert "False" not in rep.note


def test_range_conditions_reject_bad_right_identity(catalog):
    a = catalog["colmat2"]
    rep = verify_equivalent_range_conditions(
        a, W12, int_operator(_ref_identity_matrix(2)), basis_vector(2, 1)
    )
    assert rep.status == PRECONDITION_UNMET
    assert "not a right identity" in rep.note


def test_range_conditions_reject_non_centralizer(catalog):
    a = catalog["colmat2"]
    t = int_operator(Matrix.from_rows([[0, 0], [1, 0]]))
    assert residual(a, t, weighted(W12)) is not None
    rep = verify_equivalent_range_conditions(a, W12, t, basis_vector(2, 0))
    assert rep.status == PRECONDITION_UNMET


def test_range_conditions_driver(catalog):
    for name in ("colmat2", "colmat3", "matrix2", "sum_field_colmat2"):
        rep = run_range_conditions_check(catalog[name], W12)
        assert rep.status == PASS, name
    assert run_range_conditions_check(catalog["zero2"], W12).status \
        == PRECONDITION_UNMET


@pytest.mark.parametrize("pair", [(1, 2), (7, 2)])
@pytest.mark.parametrize("name", ["colmat3", "sum_field_colmat2", "matrix2"])
def test_range_conditions_driver_relabels_one_report_per_pair(
        catalog, monkeypatch, name, pair):
    # the driver's assertions are those of one
    # `verify_equivalent_range_conditions` report per (operator, sample)
    a, w = catalog[name], Weights(*pair)
    samples = right_identity_samples(a)
    assert len(samples) == {"colmat3": 4, "sum_field_colmat2": 2, "matrix2": 1}[name]
    candidates = _operator_candidates(a, pq_centralizers(a, w))
    expected = [
        Assertion(f"{label}, right identity sample {k}: {asrt.name}",
                  asrt.passed, asrt.witness)
        for label, t in candidates for k, u in enumerate(samples)
        for asrt in verify_equivalent_range_conditions(a, w, t, u).assertions
    ]
    calls = []

    def counted(*args):
        calls.append(args)
        return verify_equivalent_range_conditions(*args)

    monkeypatch.setattr(verify, "verify_equivalent_range_conditions", counted)
    rep = run_range_conditions_check(a, w)
    assert rep.status == PASS and list(rep.assertions) == expected
    assert calls == [(a, w, t, u) for _, t in candidates for u in samples]


@pytest.mark.parametrize("build", [
    lambda: colmat(3), lambda: direct_sum(field(), colmat(2)),
    lambda: matrix_algebra(2)], ids=["colmat3", "sum_field_colmat2", "matrix2"])
def test_range_conditions_driver_runs_residual_once_per_operator(
        monkeypatch, build):
    # what depends on the operator alone, `residual` first, is evaluated
    # once per distinct operator and weight pair, not once per (operator,
    # sample); the identity operator is also the solved basis of a space of
    # scalars
    a, w = build(), W12  # fresh, so nothing of check 3.1 is cached
    operators = dict.fromkeys(
        t for _, t in _operator_candidates(a, pq_centralizers(a, w)))
    calls = []

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(verify, "residual", counted)
    assert run_range_conditions_check(a, w).status == PASS
    assert calls == [(a, t, weighted(w)) for t in operators]
    calls.clear()
    assert run_range_conditions_check(a, w).status == PASS
    assert calls == []


# ---------------------------------------------------------------------------
# 3.2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: colmat(3), lambda: direct_sum(field(), colmat(2)),
    lambda: matrix_algebra(2), dual_numbers],
    ids=["colmat3", "sum_field_colmat2", "matrix2", "dual_numbers"])
def test_square_zero_driver_runs_operator_half_once_per_operator(
        monkeypatch, build):
    # the half of check 3.2 that reads no weight (range, range products,
    # nilpotency, radical, squares of images) runs once per distinct
    # operator over the four weight pairs; it takes one range product
    a = build()  # fresh, so nothing of check 3.2 is cached
    operators = dict.fromkeys(
        t for pair in DEFAULT_WEIGHT_PAIRS
        for _, t in _operator_candidates(a, pq_centralizers(a, Weights(*pair))))
    ranges = []

    def counted(b, s, t):
        ranges.append(s)
        return subspace_product(b, s, t)

    monkeypatch.setattr(verify, "subspace_product", counted)
    for pair in DEFAULT_WEIGHT_PAIRS:
        assert run_square_zero_check(a, Weights(*pair)).status == PASS
    assert ranges == [Subspace.span(a.dim, map(dict, t.cols))
                      for t in operators]


def test_square_zero_on_dual_numbers(catalog):
    a = catalog["dual_numbers"]
    rho_x = right_mul_int(a, basis_vector(2, 1))
    rep = verify_square_zero_iff_nilpotent_range(a, W12, rho_x)
    assert rep.status == PASS
    assert "square zero: True" in rep.note
    assert "range nilpotency index 2" in rep.note
    names = _assertion_names(rep)
    assert "range lies inside the radical" in names
    assert "images of basis vectors square to zero" in names


def test_square_zero_both_false_on_matrix2(catalog):
    a = catalog["matrix2"]
    rep = verify_square_zero_iff_nilpotent_range(
        a, W23, int_operator(_ref_identity_matrix(4)))
    assert rep.status == PASS
    assert _assertion_names(rep) == [
        "square is zero iff all products of range elements vanish"
    ]
    assert "square zero: False" in rep.note


def test_square_zero_nonequivalence_needs_small_index(catalog):
    # multiplication by x on Q[x]/(x^3): range is nilpotent of index 3 but
    # the square is not zero, so only the product-free form is equivalent
    a = catalog["trunc_poly3"]
    rho_x = right_mul_int(a, basis_vector(3, 1))
    rep = verify_square_zero_iff_nilpotent_range(a, W12, rho_x)
    assert rep.status == PASS
    assert "square zero: False" in rep.note


def test_square_zero_without_right_identity_checks_forward_only(catalog):
    a = catalog["zero2"]
    rep = verify_square_zero_iff_nilpotent_range(
        a, W12, int_operator(_ref_identity_matrix(2)))
    assert rep.status == PASS
    assert all("iff" not in name for name in _assertion_names(rep))


def test_square_zero_rejects_non_centralizer(catalog):
    a = catalog["colmat2"]
    t = int_operator(Matrix.from_rows([[0, 0], [1, 0]]))
    rep = verify_square_zero_iff_nilpotent_range(a, W12, t)
    assert rep.status == PRECONDITION_UNMET


def test_square_zero_driver_passes_across_catalog(catalog):
    for name, a in catalog.items():
        rep = run_square_zero_check(a, W23)
        assert rep.status == PASS, name


def test_zero_operator_square_zero_case(catalog):
    a = catalog["dual_numbers"]
    rep = verify_square_zero_iff_nilpotent_range(
        a, W12, int_operator(_ref_zero_matrix(2, 2)))
    assert rep.status == PASS
    assert "range dim 0" in rep.note


# ---------------------------------------------------------------------------
# 5.1
# ---------------------------------------------------------------------------

def test_commutative_weights_on_trunc_poly(catalog):
    rep = verify_commutative_weights_coincide(catalog["trunc_poly3"], Weights(3, 5))
    assert rep.status == PASS
    assert "common dimension 3" in rep.note


def test_commutative_weights_on_sum_field_field(catalog):
    rep = verify_commutative_weights_coincide(catalog["sum_field_field"], W12)
    assert rep.status == PASS
    assert "common dimension 2" in rep.note
    names = _assertion_names(rep)
    assert "(7,2) space equals two-sided space" in names


def _semigroup_algebra(rows):
    s = ((0,) * 4, (0,) * 4) + rows
    return make_algebra(4, [[[int(s[i][j] == k) for k in range(4)]
                             for j in range(4)] for i in range(4)])


@pytest.mark.parametrize("name", SEMIGROUP_GAPS)
def test_commutative_weights_without_identity(name):
    a = _semigroup_algebra(SEMIGROUP_GAPS[name])
    assert is_commutative(a) and identity(a) is None
    assert pq_centralizers(a, Weights(1, 1, allow_equal=True)).dim == 5
    assert two_sided_centralizers(a).dim == 4
    for w in (W12, Weights(3, 5)):
        rep = verify_commutative_weights_coincide(a, w)
        assert rep.status == PASS
        names = _assertion_names(rep)
        assert "Jordan space equals equal-weights space" in names
        assert "equal-weights space equals two-sided space" not in names
        assert f"({w.p},{w.q}) space equals two-sided space" in names
        assert "(7,2) space equals two-sided space" in names
        assert "not compared with the two-sided space: no identity" in rep.note
        assert "(dims 5 and 4)" in rep.note


def test_commutative_weights_compare_equal_weights_when_unital(catalog):
    rep = verify_commutative_weights_coincide(catalog["trunc_poly3"], W12)
    assert "equal-weights space equals two-sided space" in _assertion_names(rep)
    assert "not compared" not in rep.note


def test_commutative_weights_need_commutativity(catalog):
    rep = verify_commutative_weights_coincide(catalog["matrix2"], W12)
    assert rep.status == PRECONDITION_UNMET


# ---------------------------------------------------------------------------
# 5.2
# ---------------------------------------------------------------------------

def test_jordan_reconstruction_on_colmat(catalog):
    for name, w in (("colmat2", W12), ("colmat3", Weights(2, 5))):
        rep = verify_jordan_reconstruction(catalog[name], w)
        assert rep.status == PASS, name


def test_jordan_reconstruction_unital(catalog):
    rep = verify_jordan_reconstruction(catalog["matrix2"], W12)
    assert rep.status == PASS


def test_jordan_reconstruction_needs_right_identity(catalog):
    rep = verify_jordan_reconstruction(catalog["zero2"], W12)
    assert rep.status == PRECONDITION_UNMET


def test_jordan_reconstruction_manual_split(catalog):
    # the identity operator on colmat(2) against u = f1 + f2:
    # T(a) = (a - ua)T(u) + uT(a) must reduce to a itself
    a = catalog["colmat2"]
    u = (Fraction(1), Fraction(1))
    for i in range(2):
        e = basis_vector(2, i)
        ua = multiply(a, u, e)
        v = tuple(x - y for x, y in zip(e, ua))
        rhs = tuple(
            x + y
            for x, y in zip(multiply(a, v, u), multiply(a, u, e))
        )
        assert rhs == e


# ---------------------------------------------------------------------------
# 5.3
# ---------------------------------------------------------------------------

def test_central_image_on_dual_numbers(catalog):
    rep = verify_central_image_implies_two_sided(catalog["dual_numbers"], W12)
    assert rep.status == PASS
    assert "central-image part dim 2" in rep.note


def test_central_image_on_matrix2(catalog):
    rep = verify_central_image_implies_two_sided(catalog["matrix2"], Weights(1, 3))
    assert rep.status == PASS
    assert "two-sided dim 1" in rep.note


def test_central_image_needs_identity(catalog):
    rep = verify_central_image_implies_two_sided(catalog["colmat2"], W12)
    assert rep.status == PRECONDITION_UNMET


def test_central_image_part_between_two_sided_and_jordan(catalog):
    for name in ("matrix2", "matrix3", "group_s3", "trunc_poly3"):
        rep = verify_central_image_implies_two_sided(catalog[name], W23)
        assert rep.status == PASS, name
        assert all(a.passed for a in rep.assertions), name


# ---------------------------------------------------------------------------
# chain and registry
# ---------------------------------------------------------------------------

def test_inclusion_chain_reports(catalog):
    rep = inclusion_chain_check(catalog["group_q8"], W12)
    assert rep.status == PASS
    assert "dims 5 <= 5 <= 5" in rep.note


def test_check_registry_complete():
    assert set(CHECK_IDS) == {
        "2.1", "2.3", "2.4", "3.1", "3.2", "5.1", "5.2", "5.3", "chain",
    }
    assert set(CHECK_DESCRIPTIONS) == set(CHECK_IDS) | {"4.2"}


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_checks_read_no_other_entry_of_the_algebra_cache(catalog, name):
    # the checks cache what reads neither the weights nor the sample on the
    # algebra; each report on an algebra that ran every check at every pair
    # must equal the report on a fresh copy of it
    a = catalog[name]

    def fresh():
        return make_algebra(a.dim, a.table, name=a.name)

    warm = fresh()
    for pair in DEFAULT_WEIGHT_PAIRS:
        for check in CHECK_IDS.values():
            check(warm, Weights(*pair))
    for pair in DEFAULT_WEIGHT_PAIRS:
        w = Weights(*pair)
        for cid, check in CHECK_IDS.items():
            assert check(warm, w) == check(fresh(), w), (cid, pair)


def test_registry_dispatch_matches_direct_call(catalog):
    a = catalog["dual_numbers"]
    via_registry = CHECK_IDS["2.3"](a, W12)
    direct = verify_unital_center_correspondence(a, W12)
    assert report_doc(via_registry) == report_doc(direct)


def test_report_serialization_shape(catalog):
    rep = verify_right_identity_collapse(catalog["colmat2"], W12)
    d = report_doc(rep)
    assert d["check_id"] == "2.1"
    assert d["status"] == PASS
    assert d["weights"] == [1, 2]
    assert isinstance(d["assertions"], list)
    assert all(
        {"name", "passed"} <= set(x) <= {"name", "passed", "witness"}
        for x in d["assertions"]
    )


def test_collapse_space_agrees_with_solver(catalog):
    a = catalog["matrix2"]
    assert pq_centralizers(a, W12) == two_sided_centralizers(a)
    rep = verify_right_identity_collapse(a, W12)
    assert "space dim 1" in rep.note


def test_radical_containment_uses_solver_radical(catalog):
    a = catalog["dual_numbers"]
    assert radical(a).dim == 1
