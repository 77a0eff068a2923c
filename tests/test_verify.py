"""Structural checks: frozen oracle cases plus catalog-wide status sweeps."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cache_ref import own_store
from dense_ref import (Matrix, _ref_identity_matrix, _ref_zero_matrix,
                       basis_vector, int_operator)
from report_ref import report_doc
from solver_ref import SEMIGROUP_GAPS
from pqcent import centralizers, verify
from pqcent.algebras import (
    cached,
    center,
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
    left_centralizers,
    pq_centralizers,
    pq_jordan_centralizers,
    residual,
    right_centralizers,
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
    poly_quotient,
    random_algebra,
)
from pqcent.linalg import Subspace
from pqcent.reports import (
    PASS,
    PRECONDITION_UNMET,
    Assertion,
    report_from_assertions,
)
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
    # `verify_equivalent_range_conditions` report per (operator, sample),
    # relabelled, and the driver builds no report but its own
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
    built = []

    def counted(*args):
        built.append(args[0])
        return report_from_assertions(*args)

    monkeypatch.setattr(verify, "report_from_assertions", counted)
    rep = run_range_conditions_check(a, w)
    assert rep.status == PASS and list(rep.assertions) == expected
    assert built == ["3.1"]


@pytest.mark.parametrize("build", [
    lambda: colmat(3), lambda: direct_sum(field(), colmat(2)),
    lambda: matrix_algebra(2)], ids=["colmat3", "sum_field_colmat2", "matrix2"])
def test_range_conditions_driver_evaluates_each_operator_once(
        monkeypatch, build):
    # the weighted-centralizer test reads the operator's record of left
    # and right parts, which is evaluated once per distinct operator over
    # every weight pair, not once per (operator, sample) or per pair; the
    # identity operator is also the solved basis of a space of scalars
    a = own_store(build())  # nothing of check 3.1 is cached
    operators = dict.fromkeys(
        t for pair in DEFAULT_WEIGHT_PAIRS
        for _, t in _operator_candidates(a, pq_centralizers(a, Weights(*pair))))
    evaluated = []
    body = centralizers._left_right_parts.__wrapped__

    def counted(b, t):
        evaluated.append(t)
        return body(b, t)

    monkeypatch.setattr(centralizers, "_left_right_parts", cached(counted))
    for _ in range(2):
        for pair in DEFAULT_WEIGHT_PAIRS:
            assert run_range_conditions_check(a, Weights(*pair)).status == PASS
    assert evaluated == list(operators)


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
    # operator over the four weight pairs; it decides the range products
    # without spanning them, as no witness asks their dimension
    a = own_store(build())  # nothing of check 3.2 is cached
    operators = dict.fromkeys(
        t for pair in DEFAULT_WEIGHT_PAIRS
        for _, t in _operator_candidates(a, pq_centralizers(a, Weights(*pair))))
    facts, spanned = [], []
    body = verify._square_zero_facts.__wrapped__

    def counted_facts(b, t):
        facts.append(t)
        return body(b, t)

    def counted_span(b, s, t):
        spanned.append(s)
        return subspace_product(b, s, t)

    monkeypatch.setattr(verify, "_square_zero_facts", cached(counted_facts))
    monkeypatch.setattr(verify, "subspace_product", counted_span)
    for pair in DEFAULT_WEIGHT_PAIRS:
        assert run_square_zero_check(a, Weights(*pair)).status == PASS
    assert facts == list(operators) and spanned == []


def _product_free_agrees(a, s) -> bool:
    """Whether the early-exit scan agrees with the spanned products on s;
    returns its verdict."""
    free = verify._product_free(a, s)
    assert free == (subspace_product(a, s, s).dim == 0), (a, s)
    return free


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_product_free_scan_matches_the_spanned_products(catalog, name):
    # check 3.2 decides "products of range elements vanish" by the first
    # nonzero product of two range rows; on every candidate range of the
    # solved spaces, on the radical, and on the span of each two basis
    # elements, whose squares may vanish while their products do not
    # (E12 and E21 in M2), it agrees with spanning them
    a = catalog[name]
    n = a.dim
    spaces = [pq_centralizers(a, W12), two_sided_centralizers(a),
              left_centralizers(a), right_centralizers(a)]
    ranges = [Subspace.span(n, map(dict, t.cols))
              for space in spaces for _, t in _operator_candidates(a, space)]
    ranges += [Subspace.span(n, [{i: 1}, {j: 1}])
               for i in range(n) for j in range(i, n)]
    for s in ranges + [radical(a)]:
        _product_free_agrees(a, s)


def test_product_free_inputs_meet_both_verdicts(catalog):
    verdicts = {verify._product_free(a, s) for a in catalog.values()
                for s in (radical(a), Subspace.span(a.dim, [[1] * a.dim]))}
    assert verdicts == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.data())
def test_product_free_scan_matches_on_random_algebras(seed, data):
    a = random_algebra(random.Random(seed))
    n = a.dim
    # integer vectors, some drawn from the radical, whose products often
    # vanish
    small = st.integers(-2, 2)
    vectors = data.draw(st.lists(st.lists(small, min_size=n, max_size=n),
                                 max_size=3))
    rad = radical(a).basis
    coeffs = data.draw(st.lists(st.lists(small, min_size=len(rad),
                                         max_size=len(rad)), max_size=3))
    vectors += [[sum((c * v[k] for c, v in zip(cs, rad)), Fraction(0))
                 for k in range(n)] for cs in coeffs]
    _product_free_agrees(a, Subspace.span(n, vectors))


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
    # must equal the report on a fresh copy of it, with a store of its own
    a = catalog[name]

    def fresh():
        return own_store(make_algebra(a.dim, a.table, name=a.name))

    warm = fresh()
    for pair in DEFAULT_WEIGHT_PAIRS:
        for check in CHECK_IDS.values():
            check(warm, Weights(*pair))
    for pair in DEFAULT_WEIGHT_PAIRS:
        w = Weights(*pair)
        for cid, check in CHECK_IDS.items():
            assert check(warm, w) == check(fresh(), w), (cid, pair)


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_reports_depend_on_the_constants_not_the_name(catalog, name):
    # a copy with equal constants and another name shares the original's
    # cached results; its reports are the original's with its own target,
    # and equal those on a copy that solves everything afresh, so no cached
    # result carries the name it was first computed under
    a = catalog[name]
    twin = make_algebra(a.dim, a.table, name=f"twin of {name}")
    alone = own_store(make_algebra(a.dim, a.table, name=twin.name))
    for pair in DEFAULT_WEIGHT_PAIRS:
        w = Weights(*pair)
        for cid, check in CHECK_IDS.items():
            rep = check(a, w)
            assert check(twin, w) == replace(rep, target=twin.name), (cid, pair)
            assert check(alone, w) == check(twin, w), (cid, pair)
        assert pq_centralizers(twin, w) is pq_centralizers(a, w)
        assert pq_jordan_centralizers(twin, w) is pq_jordan_centralizers(a, w)
    assert two_sided_centralizers(twin) is two_sided_centralizers(a)
    assert radical(twin) is radical(a)
    # the constants divided by 7: the same int_products at scale 7
    scaled = make_algebra(a.dim, [[[c / 7 for c in line] for line in plane]
                                  for plane in a.table])
    if scaled.scale != a.scale:
        assert scaled.int_products == a.int_products
        assert pq_centralizers(scaled, W12) is not pq_centralizers(a, W12)
        assert two_sided_centralizers(scaled) is not two_sided_centralizers(a)


def test_algebras_one_constant_apart_share_no_solve(catalog):
    # Q[x]/(x^2 - x) differs from the dual numbers only in c[1][1][1]
    a, b = catalog["dual_numbers"], poly_quotient([0, -1])
    assert [(i, j) for i in range(2) for j in range(2)
            if a.int_products[i][j] != b.int_products[i][j]] == [(1, 1)]
    for pair in DEFAULT_WEIGHT_PAIRS:
        w = Weights(*pair)
        assert pq_centralizers(b, w) is not pq_centralizers(a, w)
    assert two_sided_centralizers(b) is not two_sided_centralizers(a)
    assert center(b) is not center(a)


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
