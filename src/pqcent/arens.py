"""Bidual of a finite-dimensional algebra under the staged (first) product.

Coordinates: elements, functionals, and bidual elements all live in the same
n-dimensional rational coordinate space, written against the algebra basis,
its dual basis, and the double-dual basis respectively. The staged product
is built strictly from the two intermediate module actions:

    functional * element   (f.a)(x) = f(a x)
    bidual * functional    (H.f)(a) = H(f.a)
    bidual * bidual        (F * H)(f) = F(H.f)

On double duals of finite-dimensional spaces the double adjoint of an
operator has the same matrix by definition, so check 2.4 takes that matrix
as the bidual operator; every product it checks against is still routed
through the staged actions.

Each stage is an integer kernel that returns a.scale times its value on
integer inputs: stage 1 reads `a.int_by_left_factor`, stages 2 and 3 read
kept stage-1 results. The three public functions clear denominators, run
the kernels and divide once; they are the only Fraction arithmetic here.

Cost on an n-dimensional algebra: stage 1 runs once per (basis
functional, basis element), n^2 calls kept per algebra. The basis product
table makes one stage-2 call per pair (e_j**, e_k*) on the kept results
of e_k*, and reads stage 3 on F = e_i** as one coordinate: O(n^3), once
per algebra. The two dense samples run stage 3 on the same results.
Check 2.4 asserts that the table equals `a.int_products`; where it does,
the bidual's constants are the algebra's, so every statement it checks
per solved operator reads them from the algebra: the weighted identity
on all basis pairs, the two dense samples, and the adjoint scan, whose
functionals e_r*.e_i are those products regrouped by left factor. The
table is computed from the staged actions, never read off the structure
constants: that equality is what check 2.4 asserts.

Each per-operator statement (p+q) A = p B + q C is p (A - B) + q (A - C)
= 0, so its two parts are evaluated once per operator and every weight
pair is read off them. The weighted identity on basis pairs and the
adjoint scan read the same parts, T(ab) - T(a)b and T(ab) - aT(b) on the
basis pairs (`centralizers._left_right_parts`): the adjoint scan at
(r, i) is coordinate r of those parts at the pairs (i, j). The dense
samples keep their two parts per operator too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebras import Algebra, cached, int_multiply, right_identity_samples
from .centralizers import (
    LEFT,
    RIGHT,
    IntOperator,
    Weights,
    _left_right_parts,
    combine_columns,
    pq_centralizers,
    residual,
    weighted,
)
from .linalg import DimensionMismatch, Vector, clear_denominators
from .reports import (
    Assertion,
    Report,
    fmt_vector,
    precondition_unmet,
    report_from_assertions,
    target_name,
)

_ZERO = Fraction(0)


def _check_lengths(a: Algebra, *vectors: Sequence) -> None:
    for v in vectors:
        if len(v) != a.dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in algebra of dimension {a.dim}"
            )


def _nonzero(v: Sequence) -> list:
    """The (index, value) pairs of the nonzero entries of v."""
    return [(i, c) for i, c in enumerate(v) if c]


def _int_terms(v: Sequence) -> tuple[int, list]:
    """The lcm d of the denominators of v, and the nonzero (index, d * v_i)
    pairs."""
    d, ints = clear_denominators(v)
    return d, _nonzero(ints)


# ---------------------------------------------------------------------------
# integer stage kernels: vectors are (index, int) pairs, actions dense lists
# ---------------------------------------------------------------------------

def _stage_one(a: Algebra, f: Sequence, x: Sequence) -> list[int]:
    """a.scale * (f.x) as a dense list: (f.x)_j = sum of x_i f_k c[i][j][k]
    over the (i, x_i) of x and the (k, f_k) of f."""
    by_left = a.int_by_left_factor
    out = [0] * a.dim
    for i, xi in x:
        plane = by_left[i]
        for k, fk in f:
            v = xi * fk
            for j, c in plane[k]:
                out[j] += v * c
    return out


def _stage_two(h: Sequence, f_actions: Sequence) -> list[int]:
    """H.f from the n stage-1 results f_actions[j] = f.e_j of f:
    (H.f)_j = H(f.e_j). Scaled as f_actions."""
    out = [0] * len(f_actions)
    for m, v in h:
        out = [o + v * act[m] for o, act in zip(out, f_actions)]
    return out


def _stage_three(f: Sequence, h: Sequence, actions: Sequence) -> list[int]:
    """F * H from the stage-1 results actions[i][j] = e_i*.e_j of the dual
    basis: (F * H)_i = F(H.e_i*). Scaled as actions."""
    out = []
    for acts in actions:
        hf = _stage_two(h, acts)
        out.append(sum(v * hf[m] for m, v in f))
    return out


@cached
def _functional_actions(a: Algebra) -> tuple:
    """actions[k][i] = a.scale * (e_k*.e_i) as a dense list: stage 1 once
    per basis functional and basis element, n^2 calls, kept for the basis
    product table and the stage-3 products."""
    n = a.dim
    return tuple(tuple(_stage_one(a, ((k, 1),), ((i, 1),)) for i in range(n))
                 for k in range(n))


# ---------------------------------------------------------------------------
# the staged actions on rational coordinates
# ---------------------------------------------------------------------------

def functional_times_element(a: Algebra, f: Sequence, x: Sequence) -> Vector:
    """Right action of the algebra on its dual: (f.x)(y) = f(x y)."""
    _check_lengths(a, f, x)
    (df, fi), (dx, xi) = _int_terms(f), _int_terms(x)
    den = a.scale * df * dx
    return tuple(Fraction(v, den) if v else _ZERO
                 for v in _stage_one(a, fi, xi))


def bidual_times_functional(a: Algebra, h: Sequence, f: Sequence) -> Vector:
    """Left action of the bidual on the dual: (H.f)(x) = H(f.x)."""
    _check_lengths(a, h, f)
    (dh, hi), (df, fi) = _int_terms(h), _int_terms(f)
    f_actions = [_stage_one(a, fi, ((j, 1),)) for j in range(a.dim)]
    den = a.scale * dh * df
    return tuple(Fraction(v, den) if v else _ZERO
                 for v in _stage_two(hi, f_actions))


def arens_product(a: Algebra, big_f: Sequence, big_h: Sequence) -> Vector:
    """Staged product on the bidual: (F * H)(f) = F(H.f)."""
    _check_lengths(a, big_f, big_h)
    (df, fi), (dh, hi) = _int_terms(big_f), _int_terms(big_h)
    den = a.scale * df * dh
    return tuple(Fraction(v, den) if v else _ZERO
                 for v in _stage_three(fi, hi, _functional_actions(a)))


@cached
def arens_basis_products(a: Algebra) -> tuple:
    """Staged products of all pairs of double-dual basis vectors, in the
    form of `a.int_products`: [i][j] holds the nonzero (k, c) pairs of
    a.scale * (e_i** * e_j**), sorted by k.

    Expanding by bilinearity, these determine the full product, so the
    weighted identity on the bidual can be checked exhaustively from them.
    Stage 2 runs once per basis pair: act = e_j**.e_k* on the kept stage-1
    results of e_k*, and stage 3 on F = e_i** is the pairing
    (e_i** * e_j**)(e_k*) = e_i**(act) = act[i].
    """
    n = a.dim
    actions = _functional_actions(a)
    table: list = [[[] for _ in range(n)] for _ in range(n)]
    for j in range(n):
        h = ((j, 1),)
        for k in range(n):
            for i, v in enumerate(_stage_two(h, actions[k])):
                if v:
                    table[i][j].append((k, v))
    return tuple(tuple(map(tuple, row)) for row in table)


def _adjoint_witness(a: Algebra, t: IntOperator, p: int, q: int
                     ) -> Optional[tuple[int, int]]:
    """The first (r, i), in row-major order, on which the adjoint of t
    fails (p+q)(T*f_r).e_i = p f_r.(T e_i) + q T*(f_r.e_i) on the dual
    basis f_r and the basis e_i; None if it holds on every pair.

    The functional f_r.e_i is j -> (e_i** * e_j**)(f_r) on the staged
    table, which check 2.4 compares with the algebra's constants. So at
    e_j the three functionals read f_r(T(e_i e_j)), f_r(T(e_i) e_j) and
    f_r(e_i T(e_j)): coordinate r of T(ab), T(a)b and aT(b) at the basis
    pair (e_i, e_j). The transposed identity at (r, i) is then
    p L_r + q R_r = 0 at every pair (i, j), for the left and right parts
    L and R of t, and is read off the operator's `_left_right_parts`."""
    return min(((r, i) for (i, _), coords in _left_right_parts(a, t).items()
                for r, x, y in coords if p * x + q * y), default=None)


class _Sample(NamedTuple):
    """One dense sample pair (F, H) of check 2.4, integer vectors with
    coordinates f and h: the staged product F * H is fh / a.scale, the
    factor the algebra's integer constants carry."""

    f: list
    h: list
    fh: list


@cached
def _sample_parts(a: Algebra, t: IntOperator) -> tuple:
    """X - Y and X - Z for each dense sample of `_staged_samples`, with
    X = T(F * H), Y = (TF)*H and Z = F*(TH), where F * H is the staged
    sample product and the products Y and Z read the algebra's constants:
    the weighted identity (p+q) X = p Y + q Z on a sample is
    p(X - Y) + q(X - Z) = 0. All are multiplied by t.den and a.scale, so
    those are the algebra's integer constants as they are. Once per
    operator, for every weight pair."""
    out = []
    for s in _staged_samples(a)[1]:
        tf, th, lhs = (combine_columns(t.cols, enumerate(x))
                       for x in (s.f, s.h, s.fh))
        rhs_p = int_multiply(a, enumerate(tf), enumerate(s.h))
        rhs_q = int_multiply(a, enumerate(s.f), enumerate(th))
        out.append(([x - y for x, y in zip(lhs, rhs_p)],
                    [x - z for x, z in zip(lhs, rhs_q)]))
    return tuple(out)


def _sample_holds(a: Algebra, t: IntOperator, k: int, p: int,
                  q: int) -> bool:
    """(p+q) T(F * H) = p (TF)*H + q F*(TH) on dense sample k, read off
    the operator's cached `_sample_parts`."""
    xs, ys = _sample_parts(a, t)[k]
    return not any(p * x + q * y for x, y in zip(xs, ys))


@cached
def _staged_samples(a: Algebra) -> tuple:
    """The operator-independent half of check 2.4, once per algebra: the
    first basis pair on which the staged table differs from the algebra
    product (or None), and the two dense samples with their stage-3
    products.

    The staged table is scaled like `a.int_products`, so where the
    embedding assertion holds the bidual's integer constants are the
    algebra's own, and the per-operator statements read them from `a`:
    its weighted residuals and adjoint scan are read off the operator
    records that checks 2.1, 3.1 and 3.2 read too. A wrong stage
    shows in the embedding assertion (stages 1 and 2, which build the
    table) or in the dense samples (stage 3)."""
    n = a.dim
    products = arens_basis_products(a)
    prods = a.int_products
    bad = None if products == prods else next(
        (i, j) for i in range(n) for j in range(n)
        if products[i][j] != prods[i][j])
    actions = _functional_actions(a)
    samples = tuple(
        _Sample(f, h, _stage_three(_nonzero(f), _nonzero(h), actions))
        for f, h in (([1] * n, [(-1) ** k for k in range(n)]),
                     (list(range(1, n + 1)), [1] * n)))
    return bad, samples


def verify_bidual_extension(a: Algebra, w: Weights) -> Report:
    """Check id 2.4: each weighted centralizer lifts through the double
    adjoint to a centralizer-like map of the bidual, which is then an
    ordinary two-sided centralizer for the staged product.

    Routed through the staged actions: the basis product table comes from
    the three-step pipeline and must equal the algebra's constants, the
    weighted identity is evaluated on every basis pair of those constants,
    and a few dense vectors rerun the full pipeline.
    """
    if not right_identity_samples(a):
        return precondition_unmet("2.4", target_name(a), w.pair, "no right identity")

    p, q = w.pair
    bad, samples = _staged_samples(a)
    assertions = [Assertion(
        "staged product extends the algebra product on embedded basis pairs",
        bad is None,
        None if bad is None else f"basis pair {bad}",
    )]

    cpq = pq_centralizers(a, w)
    for idx, t in enumerate(cpq.int_operators):
        res = residual(a, t, weighted(w))
        assertions.append(Assertion(
            f"basis operator {idx}: weighted identity holds on all "
            f"double-dual basis pairs",
            res is None,
            None if res is None else f"basis pair {res[:2]}",
        ))

        for k, sample in enumerate(samples):
            ok = _sample_holds(a, t, k, p, q)
            assertions.append(Assertion(
                f"basis operator {idx}: weighted identity holds on dense "
                f"pipeline sample {k}",
                ok,
                None if ok
                else f"F = {fmt_vector(sample.f)}, H = {fmt_vector(sample.h)}",
            ))

        bad_adj = _adjoint_witness(a, t, p, q)
        assertions.append(Assertion(
            f"basis operator {idx}: adjoint satisfies the transposed "
            f"weighted identity on the dual",
            bad_adj is None,
            None if bad_adj is None else f"dual basis, basis pair {bad_adj}",
        ))

        two_sided = (residual(a, t, LEFT) is None
                     and residual(a, t, RIGHT) is None)
        assertions.append(Assertion(
            f"basis operator {idx}: extension restricts to a two-sided "
            f"centralizer of the algebra",
            two_sided, None if two_sided else "one-sided residual",
        ))

    return report_from_assertions(
        "2.4", target_name(a), w.pair, assertions,
        f"space dim {cpq.dim}; staged basis table cached",
    )
