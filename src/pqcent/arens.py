"""Bidual of a finite-dimensional algebra under the staged (first) product.

Coordinates: elements, functionals, and bidual elements all live in the same
n-dimensional rational coordinate space, written against the algebra basis,
its dual basis, and the double-dual basis respectively. The staged product
is built strictly from the two intermediate module actions:

    functional * element   (f.a)(x) = f(a x)
    bidual * functional    (H.f)(a) = H(f.a)
    bidual * bidual        (F * H)(f) = F(H.f)

On double duals of finite-dimensional spaces the double adjoint of an
operator has the same matrix, but every identity checked here is routed
through the staged actions rather than through that shortcut.

Cost on an n-dimensional algebra: the basis product table makes one
stage-2 call per pair (e_j**, e_k*), n^2 in all, each running stage 1 n
times, and reads stage 3 on F = e_i** as the pairing e_i**(e_j**.e_k*);
it is O(n^4) and built once per algebra. Check 2.4 then runs the full
three-stage `arens_product` only on its two dense sample pairs, once per
check, and stage 1 O(n^2) times per solved operator in the adjoint scan.
The table is still computed from the staged actions, never read off the
structure constants: that equality is what check 2.4 asserts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebras import (Algebra, cached, multiply, normalize_products,
                       right_identity_samples)
from .centralizers import (
    LEFT,
    RIGHT,
    Weights,
    pq_centralizers,
    residual,
    weighted,
)
from .linalg import (
    DimensionMismatch,
    Matrix,
    Vector,
    apply_matrix,
    basis_vector,
    transpose,
    vec,
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


def adjoint(t: Matrix) -> Matrix:
    """Matrix of the dual operator against the dual basis."""
    return transpose(t)


def double_adjoint(t: Matrix) -> Matrix:
    """Matrix of the bidual operator against the double-dual basis."""
    return transpose(transpose(t))


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

    n = a.dim
    p, q = w.pair
    products = arens_basis_products(a)

    bad = next(
        (
            (i, j)
            for i in range(n)
            for j in range(n)
            if products[i][j]
            != multiply(a, basis_vector(n, i), basis_vector(n, j))
        ),
        None,
    )
    assertions = [Assertion(
        "staged product extends the algebra product on embedded basis pairs",
        bad is None,
        None if bad is None else f"basis pair {bad}",
    )]

    spot_pairs = (
        (vec([1] * n), vec((-1) ** k for k in range(n))),
        (vec(range(1, n + 1)), vec([1] * n)),
    )

    # the full pipeline on the dense pairs does not depend on the operator
    spot_products = [arens_product(a, big_f, big_h) for big_f, big_h in spot_pairs]

    # the double-dual basis under the staged product, as an algebra
    bidual = Algebra(n, normalize_products(n, {
        (i, j): enumerate(products[i][j]) for i in range(n) for j in range(n)
    }), name=f"bidual of {target_name(a)}")
    basis = [basis_vector(n, i) for i in range(n)]
    cpq = pq_centralizers(a, w)
    for idx, t in enumerate(cpq.operators()):
        tdd = double_adjoint(t)
        assertions.append(Assertion(
            f"basis operator {idx}: double adjoint has the original matrix",
            tdd == t, None if tdd == t else "matrices differ",
        ))

        res = residual(bidual, tdd, weighted(w))
        assertions.append(Assertion(
            f"basis operator {idx}: weighted identity holds on all "
            f"double-dual basis pairs",
            res is None,
            None if res is None else f"basis pair {res[:2]}",
        ))

        for s, ((big_f, big_h), fh) in enumerate(zip(spot_pairs, spot_products)):
            lhs = tuple((p + q) * v for v in apply_matrix(tdd, fh))
            rhs = tuple(
                p * x + q * y
                for x, y in zip(
                    multiply(bidual, apply_matrix(tdd, big_f), big_h),
                    multiply(bidual, big_f, apply_matrix(tdd, big_h)),
                )
            )
            assertions.append(Assertion(
                f"basis operator {idx}: weighted identity holds on dense "
                f"pipeline sample {s}",
                lhs == rhs,
                None if lhs == rhs
                else f"F = {fmt_vector(big_f)}, H = {fmt_vector(big_h)}",
            ))

        tstar = adjoint(t)
        t_basis = [apply_matrix(t, e) for e in basis]
        bad_adj = None
        for r, f in enumerate(basis):
            tstar_f = apply_matrix(tstar, f)
            for i, (e, te) in enumerate(zip(basis, t_basis)):
                lhs = tuple(
                    (p + q) * v for v in functional_times_element(a, tstar_f, e)
                )
                rhs = tuple(
                    p * x + q * y
                    for x, y in zip(
                        functional_times_element(a, f, te),
                        apply_matrix(
                            tstar, functional_times_element(a, f, e)
                        ),
                    )
                )
                if lhs != rhs:
                    bad_adj = (r, i)
                    break
            if bad_adj:
                break
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
