"""The per-operator left/right record of the check layer against the
per-weight scans.

An identity (p+q) T(ab) = p T(a)b + q a T(b) has the residual
p (T(ab) - T(a)b) + q (T(ab) - aT(b)), its polarized form the sum of that
over ab and ba, and check 2.4's adjoint scan reads the same two parts
regrouped, while its dense samples are linear in (p, q) the same way. So
one record of the two parts per operator
(`centralizers._left_right_parts`) answers every identity. Here
`residual`, `_adjoint_witness` and `_sample_holds` are compared with the
scans they replaced (`scan_ref`) on hypothesis integer operators: members
of solved spaces, the same bumped in a few entries, and arbitrary sparse
ones, so failing pairs and their witnesses are exercised. The checks'
space-keyed facts are compared with their uncached bodies on several
spaces of one algebra.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_ref import Matrix, int_operator
from scan_ref import _ref_scan_adjoint, _ref_scan_residual, _ref_scan_sample
from solver_ref import (
    RIGHT_IDENTITY_SEMIGROUPS,
    SEMIGROUP_GAPS,
    _table_algebra,
)
from pqcent import verify
from pqcent.algebras import identity, right_identity_samples
from pqcent.arens import _adjoint_witness, _sample_holds, _staged_samples
from pqcent.centralizers import (
    LEFT,
    RIGHT,
    Identity,
    Weights,
    _left_right_parts,
    jordan,
    left_centralizers,
    left_mul_space,
    pq_centralizers,
    pq_jordan_centralizers,
    residual,
    right_centralizers,
    right_mul_space,
    two_sided_centralizers,
    weighted,
)
from pqcent.fixtures import fixtures
from pqcent.verify import DEFAULT_WEIGHT_PAIRS

# the default pairs, equal weights, and pairs no check asks, with a zero
# or a negative weight: the record answers every (p, q)
PAIRS = DEFAULT_WEIGHT_PAIRS + ((1, 1),)
OTHER_PAIRS = ((1, 0), (0, 1), (1, -1), (2, -3), (-1, -2), (0, 0))
IDENTITIES = (
    (LEFT, RIGHT, Identity(1, -1))
    + tuple(weighted(Weights(p, q, allow_equal=True)) for p, q in PAIRS)
    + tuple(Identity(p, q) for p, q in OTHER_PAIRS)
    + tuple(jordan(Weights(p, q, allow_equal=True)) for p, q in PAIRS)
    + tuple(Identity(p, q, symmetric=True) for p, q in OTHER_PAIRS)
)


def _algebras():
    algebras = dict(fixtures())
    algebras.update((name, _table_algebra(table))
                    for name, table in RIGHT_IDENTITY_SEMIGROUPS.items())
    # Q[S] for the commutative semigroups whose (1,1) space is larger than
    # the two-sided one: their (1,1) members cancel both parts at (1, 1)
    algebras.update((name, _table_algebra(((0,) * 4, (0,) * 4) + rows))
                    for name, rows in SEMIGROUP_GAPS.items())
    return algebras


ALGEBRAS = _algebras()


def _spaces(a):
    """Solved spaces whose members pass different identities."""
    return list(dict.fromkeys(
        [pq_centralizers(a, Weights(p, q, allow_equal=True)) for p, q in PAIRS]
        + [pq_jordan_centralizers(a, Weights(1, 2)), two_sided_centralizers(a),
           left_centralizers(a), right_centralizers(a)]))


@st.composite
def operators(draw):
    """(algebra name, integer operator): a member of a solved space, plus
    a few integer bumps, or a sparse integer matrix."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    a = ALGEBRAS[name]
    n = a.dim
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        space = draw(st.sampled_from(_spaces(a))).space
        coeffs = draw(st.lists(small, min_size=space.dim, max_size=space.dim))
        flat = [sum((c * v[k] for c, v in zip(coeffs, space.basis)),
                    Fraction(0)) for k in range(n * n)]
    else:
        flat = [Fraction(0)] * (n * n)
    for k, v in draw(st.lists(st.tuples(st.integers(0, n * n - 1), small),
                              max_size=3)):
        flat[k] += v
    return name, int_operator(Matrix(n, n, tuple(flat)))


@settings(max_examples=200, deadline=None)
@given(operators())
def test_record_residual_matches_the_scan(op):
    name, t = op
    a = ALGEBRAS[name]
    for e in IDENTITIES:
        assert residual(a, t, e) == _ref_scan_residual(a, t, e), (name, t, e)


@settings(max_examples=200, deadline=None)
@given(operators())
def test_adjoint_and_sample_parts_match_the_scans(op):
    name, t = op
    a = ALGEBRAS[name]
    _, samples = _staged_samples(a)
    for p, q in PAIRS + OTHER_PAIRS:
        assert _adjoint_witness(a, t, p, q) == _ref_scan_adjoint(a, t, p, q), \
            (name, t, p, q)
        for k, s in enumerate(samples):
            assert _sample_holds(a, t, k, p, q) == \
                _ref_scan_sample(a, t, s, p, q), (name, t, p, q, k)


def test_identity_takes_two_weights_and_a_keyword():
    # an old (s, p, q) call is refused, not read as a symmetric identity
    with pytest.raises(TypeError):
        Identity(1, 1, 1)
    assert jordan(Weights(1, 2)) == Identity(1, 2, symmetric=True)
    assert (LEFT, RIGHT) == (Identity(1, 0), Identity(0, 1))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_record_holds_nonzero_int_triples(name):
    # row-major basis pairs, each with its coordinates r ascending as int
    # triples (r, L_r, R_r), L_r and R_r not both zero
    a = ALGEBRAS[name]
    n = a.dim
    bumped = int_operator(Matrix(n, n, tuple(map(Fraction, range(n * n)))))
    for t in [t for space in _spaces(a) for t in space.int_operators] + [bumped]:
        record = _left_right_parts(a, t)
        assert list(record) == sorted(record)
        for (i, j), coords in record.items():
            assert 0 <= i < n and 0 <= j < n and coords
            assert [r for r, *_ in coords] == sorted({r for r, *_ in coords})
            for triple in coords:
                assert len(triple) == 3
                assert all(type(x) is int for x in triple)
                assert triple[1] or triple[2]


def _kind(coords):
    """How the parts L and R of one pair meet: one side only, cancelled
    by the weights (1, 1), or independent."""
    ls, rs = [x for _, x, _ in coords], [y for *_, y in coords]
    if not any(rs):
        return "left only"
    if not any(ls):
        return "right only"
    if all(x + y == 0 for x, y in zip(ls, rs)):
        return "cancelled by (1, 1)"
    if any(ls[u] * rs[v] != ls[v] * rs[u]
           for u in range(len(ls)) for v in range(u)):
        return "independent"
    return "proportional"


def test_inputs_meet_every_kind_of_parts():
    # parts on one side only, parts cancelled by the weights (1, 1) of the
    # semigroup gaps, and on a bumped operator, independent ones
    kinds = set()
    for name in ("matrix2", "sg4_swap"):
        a = ALGEBRAS[name]
        for space in _spaces(a):
            for t in space.int_operators:
                kinds.update(map(_kind, _left_right_parts(a, t).values()))
    a = ALGEBRAS["matrix2"]
    bumped = int_operator(Matrix(4, 4, tuple(map(Fraction, range(16)))))
    kinds.update(map(_kind, _left_right_parts(a, bumped).values()))
    assert {"left only", "right only", "cancelled by (1, 1)",
            "independent"} <= kinds


# each space-keyed fact of the checks, with the precondition its check
# takes before asking it
FACTS = {
    "2.1": (verify._right_identity_collapse, right_identity_samples),
    "2.3": (verify._center_correspondence, identity),
    "5.2": (verify._jordan_reconstruction, right_identity_samples),
    "5.3": (verify._central_image_facts, identity),
}


@pytest.mark.parametrize("cid, name", [
    (cid, name) for cid, (_, precondition) in sorted(FACTS.items())
    for name, a in sorted(ALGEBRAS.items()) if precondition(a)])
def test_space_keyed_facts_follow_their_space(cid, name):
    # the cached fact of each space is the one its body computes for that
    # space, whichever space was asked before on the algebra
    fact, _ = FACTS[cid]
    a = ALGEBRAS[name]
    spaces = _spaces(a) + [left_mul_space(a), right_mul_space(a)]
    for space in spaces:
        assert fact(a, space) == fact.__wrapped__(a, space), (cid, name)


def test_space_keyed_inputs_give_different_facts():
    a = ALGEBRAS["matrix2"]
    spaces = _spaces(a) + [left_mul_space(a), right_mul_space(a)]
    for fact, _ in FACTS.values():
        assert len({fact(a, space) for space in spaces}) > 1
