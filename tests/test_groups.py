from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from dense_ref import basis_vector
from pqcent import algebras
from pqcent.algebras import (
    Algebra,
    center,
    generators,
    identity,
    is_commutative,
    multiply,
    normalize_products,
)
from pqcent.groups import (
    cayley_table,
    class_sums,
    conjugacy_classes,
    cyclic_table,
    find_identity,
    group_algebra,
    group_tables,
    is_valid_group,
    quaternion_table,
    symmetric3_table,
    validate_group,
    verify_group_centralizer_structure,
)
from pqcent.centralizers import (
    Weights,
    pq_centralizers,
    pq_jordan_centralizers,
    two_sided_centralizers,
)
from pqcent.linalg import full_space, subspace_contains, subspace_equal
from pqcent.reports import FAIL, PASS


def test_c2_is_valid_with_identity_zero():
    report = validate_group(cyclic_table(2))
    assert report.status == PASS
    assert "identity index 0" in report.note


def test_non_latin_column_rejected():
    t = cayley_table([[0, 1], [0, 1]])
    report = validate_group(t)
    assert report.status == FAIL
    failed = {a.name for a in report.assertions if not a.passed}
    assert "every column is a permutation" in failed


def test_shape_validation():
    with pytest.raises(ValueError):
        cayley_table([[0, 1]])
    with pytest.raises(ValueError):
        cayley_table([[0, 2], [2, 0]])


@pytest.mark.parametrize("rows", [[[False]], [[0, True], [True, 0]]])
def test_bool_entries_are_not_indices(rows):
    # bool is an int subclass; a table of bools would serialize as text
    # that the parser rejects
    with pytest.raises(ValueError, match="must be an index"):
        cayley_table(rows)


def test_associativity_witness():
    # subtraction mod 3 is a Latin square but not associative
    t = cayley_table([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    report = validate_group(t)
    names = {a.name: a.passed for a in report.assertions}
    assert names["every row is a permutation"]
    assert names["every column is a permutation"]
    assert not names["multiplication is associative"]
    assert report.status == FAIL


def test_s3_and_q8_are_valid():
    assert is_valid_group(symmetric3_table())
    assert is_valid_group(quaternion_table())


def test_find_identity():
    assert find_identity(cyclic_table(5)) == 0
    # [[1,0],[0,1]] is c2 with the identity relabeled to index 1
    assert find_identity(cayley_table([[1, 0], [0, 1]])) == 1
    assert find_identity(cayley_table([[1, 1], [0, 0]])) is None


def test_conjugacy_classes_abelian_are_singletons():
    for n in (1, 2, 3, 4):
        classes = conjugacy_classes(cyclic_table(n))
        assert len(classes) == n
        assert all(len(c) == 1 for c in classes)


def test_conjugacy_classes_s3():
    classes = conjugacy_classes(symmetric3_table())
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_q8():
    classes = conjugacy_classes(quaternion_table())
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 2, 2, 2]


def test_class_sums_span_center():
    for name, t in group_tables().items():
        a = group_algebra(t)
        assert subspace_equal(class_sums(t), center(a)), name


def test_group_algebra_c2():
    a = group_algebra(cyclic_table(2))
    assert is_commutative(a)
    b1 = basis_vector(2, 1)
    assert multiply(a, b1, b1) == basis_vector(2, 0)
    assert identity(a) == basis_vector(2, 0)


def test_group_algebra_s3_noncommutative_unital():
    a = group_algebra(symmetric3_table())
    assert not is_commutative(a)
    assert identity(a) == basis_vector(6, 0)


def test_group_algebra_is_named_after_its_table():
    a = group_algebra(symmetric3_table())
    assert a.name == "group[s3]"
    assert group_algebra(cayley_table([[0]])).name == "group[1]"


def test_group_algebra_rejects_invalid_table():
    with pytest.raises(ValueError):
        group_algebra(cayley_table([[0, 1], [0, 1]]))


def test_abelian_detection():
    assert is_commutative(group_algebra(cyclic_table(6)))
    assert not is_commutative(group_algebra(symmetric3_table()))
    assert not is_commutative(group_algebra(quaternion_table()))


def test_validation_builds_the_group_algebra_once(monkeypatch):
    real = algebras._nonassociative
    scans = []

    def counting(a, middles):
        scans.append(a)
        return real(a, middles)

    monkeypatch.setattr(algebras, "_nonassociative", counting)
    t = cyclic_table(4)
    assert is_valid_group(t) and scans
    scans.clear()
    a = group_algebra(t)
    assert group_algebra(t) is a and not scans


def test_verify_group_centralizer_structure():
    w = Weights(1, 2)
    for name, t in group_tables().items():
        report = verify_group_centralizer_structure(t, w)
        assert report.status == PASS, (name, report.lines(True))


def test_verify_group_centralizer_dimensions():
    expected = {"c2": 2, "c3": 3, "s3": 3, "q8": 5}
    for name, t in group_tables().items():
        assert len(conjugacy_classes(t)) == expected[name]


def test_verify_rejects_invalid_group():
    report = verify_group_centralizer_structure(
        cayley_table([[0, 1], [0, 1]]), Weights(1, 2)
    )
    assert report.status == FAIL


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10))
def test_cyclic_groups_valid_with_n_classes(n):
    t = cyclic_table(n)
    assert is_valid_group(t)
    assert len(conjugacy_classes(t)) == n
    assert class_sums(t) == full_space(n)


def s4_table():
    perms = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    # g_i * g_j is the composite x -> g_i(g_j(x))
    return cayley_table([
        [index[tuple(g[h[x]] for x in range(4))] for h in perms] for g in perms
    ], "s4")


def test_s4_centralizer_dimensions_equal_class_count():
    t = s4_table()
    assert is_valid_group(t)
    assert len(conjugacy_classes(t)) == 5
    a = group_algebra(t)
    cts = two_sided_centralizers(a).space
    for w in (Weights(1, 2), Weights(2, 1)):
        cpq = pq_centralizers(a, w).space
        assert cpq.dim == 5 and subspace_contains(cpq, cts)
    cj = pq_jordan_centralizers(a, Weights(1, 2)).space
    cpq = pq_centralizers(a, Weights(1, 2)).space
    assert cj.dim == 5 and subspace_contains(cj, cpq)


# ---------------------------------------------------------------------------
# Light's test on the Cayley table against the full scan
# ---------------------------------------------------------------------------

def _ref_failing_triple(table):
    """The first (i, j, k), in row-major order, with
    (g_i g_j) g_k != g_i (g_j g_k): the scan over every triple."""
    n = len(table)
    return next(((i, j, k) for i in range(n) for j in range(n)
                 for k in range(n)
                 if table[table[i][j]][k] != table[i][table[j][k]]), None)


LATIN_BASES = {"c5": cyclic_table(5), "c6": cyclic_table(6),
               "s3": symmetric3_table(), "q8": quaternion_table(),
               "s4": s4_table()}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(LATIN_BASES)), st.data())
def test_generator_scan_names_the_full_scans_triple(name, data):
    # an isotope (rows, columns and symbols permuted) of a group table is a
    # Latin square that is associative only for some permutations; a
    # changed entry may also break the Latin property
    base = LATIN_BASES[name].table
    n = len(base)
    rows, cols, symbols = (data.draw(st.permutations(range(n)))
                           for _ in range(3))
    table = [[symbols[base[rows[i]][cols[j]]] for j in range(n)]
             for i in range(n)]
    for i, j, v in data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3),
                                      max_size=2)):
        table[i][j] = v
    expected = _ref_failing_triple(table)
    (got,) = (a for a in validate_group(cayley_table(table)).assertions
              if a.name == "multiplication is associative")
    assert got.passed == (expected is None)
    assert got.witness == (None if expected is None
                           else f"failing triple {expected}")


def _ref_words(table, gens):
    """The elements reached by left-normed products of `gens`: the set of
    gens closed under right multiplication by each of them."""
    reached = set(gens)
    while True:
        more = {table[x][g] for x in reached for g in gens} - reached
        if not more:
            return reached
        reached |= more


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LATIN_BASES)), st.data())
def test_table_generators_reach_every_element(name, data):
    base = LATIN_BASES[name].table
    n = len(base)
    rows, cols = (data.draw(st.permutations(range(n))) for _ in range(2))
    table = [[base[rows[i]][cols[j]] for j in range(n)] for i in range(n)]
    # the isotope's algebra, unvalidated: a Latin square need not associate,
    # and generators reads products only
    gens = generators(Algebra(n, *normalize_products(n, {
        (i, j): ((k, 1),) for i, row in enumerate(table)
        for j, k in enumerate(row)})))
    assert _ref_words(table, gens) == set(range(n))
    # greedy: no generator is reached from the ones before it
    for r, g in enumerate(gens):
        assert g not in _ref_words(table, gens[:r]), (name, g)


def test_generator_scan_inputs_cover_both_verdicts():
    # with identity permutations the isotope is the group itself; with its
    # columns shifted by one it is a Latin square that is not associative
    s3 = [list(row) for row in symmetric3_table().table]
    assert _ref_failing_triple(s3) is None
    shifted = [row[1:] + row[:1] for row in s3]
    assert _ref_failing_triple(shifted) is not None
    assert not is_valid_group(cayley_table(shifted))


def test_late_failure_is_named_by_the_full_scan():
    # rows 0..n-2 all 0 and the last row all 1: every triple associates
    # until i = n - 1, so the full scan walks n^2 rows before the witness
    n = 48
    table = [[0] * n for _ in range(n - 1)] + [[1] * n]
    expected = _ref_failing_triple(table)
    assert expected == (n - 1, 0, 0)
    (got,) = (a for a in validate_group(cayley_table(table)).assertions
              if a.name == "multiplication is associative")
    assert got.witness == f"failing triple {expected}"
