"""Fixture algebras and seeded random generators.

The catalog covers the structurally distinct small cases the checks need:
full matrix algebras, the column algebra with a non-unique right identity
and no two-sided identity, truncated polynomial quotients, zero-product
algebras, direct sums, opposites, and the group algebras of a few small
groups. Random algebras are built only from constructions that are
associative by design; raw random structure constants almost never are.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .algebras import Algebra, algebra_from_terms, make_algebra
from .groups import group_algebra, group_tables

_ZERO = Fraction(0)
_ONE = Fraction(1)


def field() -> Algebra:
    """The rationals as a one-dimensional algebra."""
    return make_algebra(1, [[[1]]], name="field")


def matrix_algebra(n: int) -> Algebra:
    """Full n x n matrix algebra; basis = matrix units, row-major."""
    terms = {(r * n + s, s * n + u): ((r * n + u, _ONE),)
             for r in range(n) for s in range(n) for u in range(n)}
    return algebra_from_terms(n * n, terms, name=f"matrix{n}")


def colmat(n: int, name: str = "") -> Algebra:
    """First-column matrices: f_i f_j = f_i when j = 0, else 0.

    Identify f_i with the matrix unit E_{i+1,1}. Every f_0 + (span of the
    rest) is a right identity, and there is no two-sided identity, which
    makes this the canonical non-unital testbed.
    """
    terms = {(i, 0): ((i, _ONE),) for i in range(n)}
    return algebra_from_terms(n, terms, name=name or f"colmat{n}")


def poly_quotient(monic_tail, name: str = "") -> Algebra:
    """Q[x] modulo the monic polynomial x^d + sum_i tail[i] x^i.

    `monic_tail` lists the d lower coefficients (constant term first).
    Basis is 1, x, ..., x^{d-1}.
    """
    tail = [Fraction(c) for c in monic_tail]
    d = len(tail)
    if d < 1:
        raise ValueError("modulus must have degree at least 1")
    # reps[m] = coordinates of x^m in the quotient, for m up to 2d-2
    reps = [tuple(_ONE if i == m else _ZERO for i in range(d)) for m in range(d)]
    for m in range(d, 2 * d - 1):
        prev = reps[m - 1]
        top = prev[d - 1]
        shifted = [_ZERO] + list(prev[:-1])
        reps.append(tuple(
            shifted[i] - top * tail[i] for i in range(d)
        ))
    terms = {(i, j): enumerate(reps[i + j]) for i in range(d) for j in range(d)}
    return algebra_from_terms(d, terms, name=name or f"poly_quotient{d}")


def truncated_poly(n: int) -> Algebra:
    """Q[x]/(x^n)."""
    a = poly_quotient([0] * n, name=f"trunc_poly{n}")
    return a


def dual_numbers() -> Algebra:
    """Q[x]/(x^2)."""
    return poly_quotient([0, 0], name="dual_numbers")


def zero_product(n: int, name: str = "") -> Algebra:
    """All products vanish."""
    return algebra_from_terms(n, {}, name=name or f"zero{n}")


def direct_sum(a: Algebra, b: Algebra, name: str = "") -> Algebra:
    terms = {(o + i, o + j): [(o + k, c) for k, c in pairs]
             for o, x in ((0, a), (a.dim, b))
             for i, row in enumerate(x.products) for j, pairs in enumerate(row)}
    label = name or f"sum({a.name or '?'},{b.name or '?'})"
    return algebra_from_terms(a.dim + b.dim, terms, name=label)


def opposite(a: Algebra, name: str = "") -> Algebra:
    """Same space, reversed multiplication."""
    n = a.dim
    terms = {(i, j): a.products[j][i] for i in range(n) for j in range(n)}
    return algebra_from_terms(
        n, terms, name=name or f"opposite({a.name or '?'})")


def fixtures() -> dict[str, Algebra]:
    """The named fixture catalog, in deterministic order.

    The algebra objects are shared across calls so per-algebra caches
    (solved spaces, centers, staged product tables) stay warm; the dict
    itself is a fresh copy each time.
    """
    return dict(_catalog())


@lru_cache(maxsize=1)
def _catalog() -> tuple:
    return tuple(_build_catalog().items())


def _build_catalog() -> dict[str, Algebra]:
    return {
        "field": field(),
        "matrix2": matrix_algebra(2),
        "matrix3": matrix_algebra(3),
        "colmat2": colmat(2),
        "colmat3": colmat(3),
        "dual_numbers": dual_numbers(),
        "trunc_poly3": truncated_poly(3),
        "zero2": zero_product(2),
        "sum_field_field": direct_sum(field(), field(), name="sum_field_field"),
        "sum_field_colmat2": direct_sum(field(), colmat(2), name="sum_field_colmat2"),
        "opposite_colmat2": opposite(colmat(2)),
        **{
            f"group_{key}": group_algebra(table)
            for key, table in group_tables().items()
        },
    }


def random_poly_quotient(rng: random.Random, name: str = "") -> Algebra:
    """Q[x]/(f) for a random monic f of degree 1..6 with small coefficients.

    Commutative, associative, and unital by construction.
    """
    d = rng.randint(1, 6)
    tail = [rng.randint(-3, 3) for _ in range(d)]
    return poly_quotient(tail, name=name or f"random_poly(deg {d})")


def random_algebra(rng: random.Random, name: str = "") -> Algebra:
    """A random member of the associative-by-construction families, dim <= 6.

    The name is given to the algebra as it is built, so the results cached
    while validating it, its generating set, stay with it."""
    kind = rng.randrange(6)
    if kind == 0:
        return random_poly_quotient(rng, name)
    if kind == 1:
        small = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        other = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        return direct_sum(poly_quotient(small), poly_quotient(other), name)
    if kind == 2:
        return colmat(rng.randint(2, 4), name)
    if kind == 3:
        return opposite(colmat(rng.randint(2, 4)), name)
    if kind == 4:
        return zero_product(rng.randint(1, 4), name)
    return direct_sum(field(), colmat(rng.randint(2, 3)), name)
