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

Cost on an n-dimensional algebra: the basis product table makes one
stage-2 call per pair (e_j**, e_k*), n^2 in all, each running stage 1 n
times, and reads stage 3 on F = e_i** as the pairing e_i**(e_j**.e_k*);
it is O(n^4) and built once per algebra. Check 2.4 reads that table as
one algebra, the bidual, and every statement it checks per solved operator
reads the bidual's integer constants: the weighted identity on all basis
pairs, the identity on the two dense samples, and the transposed identity
of the adjoint scan, whose functionals e_r*.e_i are the bidual's products
regrouped by left factor. The full three-stage `arens_product` runs only
on the two dense sample pairs, once per algebra. The table is computed
from the staged actions, never read off the structure constants: that
equality is what check 2.4 asserts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebras import (Algebra, cached, int_multiply, normalize_products,
                       right_identity_samples)
from .centralizers import (
    LEFT,
    RIGHT,
    IntOperator,
    Weights,
    combine_columns,
    pq_centralizers,
    residual,
    weighted,
)
from .linalg import (
    DimensionMismatch,
    Vector,
    basis_vector,
    clear_denominators,
)
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


def dual_pairing(f: Sequence, x: Sequence) -> Fraction:
    """Value of the functional with coordinates f at the element x."""
    if len(f) != len(x):
        raise DimensionMismatch(
            f"functional of length {len(f)}, element of length {len(x)}"
        )
    return sum((fk * xk for fk, xk in zip(f, x) if fk and xk), _ZERO)


def functional_times_element(a: Algebra, f: Sequence, x: Sequence) -> Vector:
    """Right action of the algebra on its dual: (f.x)(y) = f(x y)."""
    _check_lengths(a, f, x)
    out = [_ZERO] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, pairs in enumerate(a.products[i]):
            acc = out[j]
            for k, c in pairs:
                fk = f[k]
                if fk:
                    acc += fk * xi * c
            out[j] = acc
    return tuple(out)


def bidual_times_functional(a: Algebra, h: Sequence, f: Sequence) -> Vector:
    """Left action of the bidual on the dual: (H.f)(x) = H(f.x)."""
    _check_lengths(a, h, f)
    n = a.dim
    return tuple(
        dual_pairing(h, functional_times_element(a, f, basis_vector(n, j)))
        for j in range(n)
    )


def arens_product(a: Algebra, big_f: Sequence, big_h: Sequence) -> Vector:
    """Staged product on the bidual: (F * H)(f) = F(H.f)."""
    _check_lengths(a, big_f, big_h)
    n = a.dim
    return tuple(
        dual_pairing(big_f, bidual_times_functional(a, big_h, basis_vector(n, i)))
        for i in range(n)
    )


@cached
def arens_basis_products(a: Algebra) -> tuple:
    """Staged products of all pairs of double-dual basis vectors.

    Expanding by bilinearity, these determine the full product, so the
    weighted identity on the bidual can be checked exhaustively from them.
    Stage 2 runs once per basis pair: acts[j][k] = e_j**.e_k*, and stage 3
    on F = e_i** is the pairing (e_i** * e_j**)(e_k*) = e_i**(acts[j][k]).
    """
    n = a.dim
    basis = [basis_vector(n, i) for i in range(n)]
    acts = [
        [bidual_times_functional(a, basis[j], basis[k]) for k in range(n)]
        for j in range(n)
    ]
    return tuple(
        tuple(
            tuple(dual_pairing(basis[i], acts[j][k]) for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def _adjoint_witness(bidual: Algebra, t: IntOperator, p: int, q: int
                     ) -> Optional[tuple[int, int]]:
    """The first (r, i), in row-major order, on which the adjoint of t
    fails (p+q)(T*f_r).e_i = p f_r.(T e_i) + q T*(f_r.e_i) on the dual
    basis f_r and the basis e_i; None if it holds on every pair.

    The functional f_r.e_i is j -> (e_i** * e_j**)(f_r) on the staged
    table, so bidual.int_by_left_factor[i][r] holds its (j, c) pairs,
    scaled to integers; the identity is linear in them, so the scaling
    changes no verdict. T*f_r is row r of t, T e_i is column i, and T*
    applied to a functional g is sum_l g_l row l.
    """
    n = bidual.dim
    dual = bidual.int_by_left_factor
    cols = t.cols
    rows: list = [[] for _ in range(n)]
    for m, col in enumerate(cols):
        for k, v in col:
            rows[k].append((m, v))
    for r in range(n):
        lhs_terms = [(k, (p + q) * v) for k, v in rows[r]]
        for i in range(n):
            res = [0] * n
            for k, v in lhs_terms:
                for j, c in dual[i][k]:
                    res[j] += v * c
            for m, v in cols[i]:
                for j, c in dual[m][r]:
                    res[j] -= p * v * c
            for l, c in dual[i][r]:
                for j, v in rows[l]:
                    res[j] -= q * c * v
            if any(res):
                return r, i
    return None


class _Sample(NamedTuple):
    """One dense sample pair (F, H) of check 2.4, integer vectors with
    coordinates f and h: the staged product F * H is fh / den."""

    f: list
    h: list
    den: int
    fh: list


def _sample_holds(bidual: Algebra, t: IntOperator, s: _Sample, p: int,
                  q: int) -> bool:
    """(p+q) T(F * H) = p (TF)*H + q F*(TH), where * is the bidual product;
    both sides are multiplied by t.den, s.den and bidual.scale."""
    tf, th, lhs = (combine_columns(t.cols, enumerate(x))
                   for x in (s.f, s.h, s.fh))
    rhs_p = int_multiply(bidual, enumerate(tf), enumerate(s.h))
    rhs_q = int_multiply(bidual, enumerate(s.f), enumerate(th))
    return all(bidual.scale * (p + q) * x == s.den * (p * y + q * z)
               for x, y, z in zip(lhs, rhs_p, rhs_q))


@cached
def _staged_samples(a: Algebra) -> tuple:
    """The operator-independent half of check 2.4, once per algebra: the
    first basis pair on which the staged table differs from the algebra
    product (or None), the two dense samples with their full three-stage
    products, and the double-dual basis as an algebra.

    The bidual is built without the associativity check. It is read only
    by `residual`, `int_multiply` and its `int_by_left_factor` view, never
    by `generators` or a solve over a generating set, whose exactness
    rests on associativity."""
    n = a.dim
    products = arens_basis_products(a)
    bidual = Algebra(n, normalize_products(n, {
        (i, j): enumerate(products[i][j]) for i in range(n) for j in range(n)
    }), name=f"bidual of {target_name(a)}")
    # both tables are normalized sparse pairs, so equal products compare equal
    bad = next(((i, j) for i in range(n) for j in range(n)
                if bidual.products[i][j] != a.products[i][j]), None)
    samples = tuple(
        _Sample(f, h, *clear_denominators(arens_product(a, f, h)))
        for f, h in (([1] * n, [(-1) ** k for k in range(n)]),
                     (list(range(1, n + 1)), [1] * n)))
    return bad, samples, bidual


def verify_bidual_extension(a: Algebra, w: Weights) -> Report:
    """Check id 2.4: each weighted centralizer lifts through the double
    adjoint to a centralizer-like map of the bidual, which is then an
    ordinary two-sided centralizer for the staged product.

    Routed through the staged actions: the basis product table comes from
    the three-step pipeline, the weighted identity is evaluated on every
    pair of that table, and a few dense vectors rerun the full pipeline.
    """
    if not right_identity_samples(a):
        return precondition_unmet("2.4", target_name(a), w.pair, "no right identity")

    p, q = w.pair
    bad, samples, bidual = _staged_samples(a)
    assertions = [Assertion(
        "staged product extends the algebra product on embedded basis pairs",
        bad is None,
        None if bad is None else f"basis pair {bad}",
    )]

    cpq = pq_centralizers(a, w)
    for idx, t in enumerate(cpq.int_operators):
        res = residual(bidual, t, weighted(w))
        assertions.append(Assertion(
            f"basis operator {idx}: weighted identity holds on all "
            f"double-dual basis pairs",
            res is None,
            None if res is None else f"basis pair {res[:2]}",
        ))

        for k, sample in enumerate(samples):
            ok = _sample_holds(bidual, t, sample, p, q)
            assertions.append(Assertion(
                f"basis operator {idx}: weighted identity holds on dense "
                f"pipeline sample {k}",
                ok,
                None if ok
                else f"F = {fmt_vector(sample.f)}, H = {fmt_vector(sample.h)}",
            ))

        bad_adj = _adjoint_witness(bidual, t, p, q)
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
