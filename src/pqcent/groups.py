"""Finite groups from Cayley tables and their rational group algebras.

A Cayley table is an n x n grid with table[i][j] = index of g_i * g_j.
Validation checks the Latin-square property, associativity, a two-sided
identity, and inverses, each reported with a witness. The table's algebra
has structure constants c[i][j][k] = 1 iff table[i][j] = k, so its basis
triple (i, j, k) associates exactly when the table's does: associativity
is decided once, by building that algebra through the validated
constructor, whose `NonAssociativeError` names the first failing triple.
On a group table the algebra is the group algebra; its center is spanned
by the conjugacy class sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Optional

from .algebras import (
    Algebra,
    NonAssociativeError,
    algebra_from_terms,
    cached,
    center,
    is_commutative,
)
from .centralizers import Weights, pq_centralizers, right_mul_image
from .linalg import Subspace, full_space, subspace_equal
from .reports import (
    Assertion,
    Report,
    report_from_assertions,
)


@dataclass(frozen=True, eq=False)
class CayleyTable:
    order: int
    table: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise ValueError("group order must be at least 1")
        if len(self.table) != n:
            raise ValueError(f"expected {n} rows, got {len(self.table)}")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                # bool is an int subclass, but True is no index
                if (not isinstance(v, int) or isinstance(v, bool)
                        or not 0 <= v < n):
                    raise ValueError(
                        f"entry at ({i}, {j}) must be an index in 0..{n - 1}"
                    )

    def __repr__(self):
        return f"CayleyTable({self.name or '?'}, order={self.order})"


def cayley_table(rows, name: str = "") -> CayleyTable:
    return CayleyTable(len(rows), tuple(tuple(r) for r in rows), name)


def find_identity(t: CayleyTable) -> Optional[int]:
    n = t.order
    for e in range(n):
        if all(t.table[e][j] == j and t.table[j][e] == j for j in range(n)):
            return e
    return None


def inverse_map(t: CayleyTable) -> Optional[tuple[int, ...]]:
    """inverse_map[i] = j with g_i g_j = g_j g_i = identity, if all exist."""
    e = find_identity(t)
    if e is None:
        return None
    inv = []
    for i in range(t.order):
        j = next(
            (j for j in range(t.order)
             if t.table[i][j] == e and t.table[j][i] == e),
            None,
        )
        if j is None:
            return None
        inv.append(j)
    return tuple(inv)


@cached
def _algebra(t: CayleyTable) -> Algebra:
    """The table's algebra, b_i b_j = b_table[i][j], built and scanned for
    associativity once per table: NonAssociativeError when the table is
    not associative, and the group algebra when it is a group."""
    one = Fraction(1)
    terms = {(i, j): ((k, one),)
             for i, row in enumerate(t.table) for j, k in enumerate(row)}
    return algebra_from_terms(t.order, terms, name=f"group[{t.name or t.order}]")


@cached
def validate_group(t: CayleyTable) -> Report:
    """Check the group axioms, one assertion per axiom, with witnesses."""
    n = t.order
    assertions = []

    row_bad = next(
        (i for i in range(n) if sorted(t.table[i]) != list(range(n))), None
    )
    assertions.append(Assertion(
        "every row is a permutation", row_bad is None,
        None if row_bad is None else f"row {row_bad} = {list(t.table[row_bad])}",
    ))
    col_bad = next(
        (j for j in range(n)
         if sorted(t.table[i][j] for i in range(n)) != list(range(n))),
        None,
    )
    assertions.append(Assertion(
        "every column is a permutation", col_bad is None,
        None if col_bad is None else f"column {col_bad}",
    ))

    try:
        _algebra(t)
        triple = None
    except NonAssociativeError as exc:
        triple = exc.triple
    assertions.append(Assertion(
        "multiplication is associative", triple is None,
        None if triple is None else f"failing triple {triple}",
    ))

    e = find_identity(t)
    assertions.append(Assertion(
        "a two-sided identity exists", e is not None,
        None if e is not None else "no index acts as identity on both sides",
    ))
    if e is not None:
        inv = inverse_map(t)
        assertions.append(Assertion(
            "every element has an inverse", inv is not None,
            None if inv is not None else "some element has no two-sided inverse",
        ))

    note = f"identity index {e}" if e is not None else ""
    return report_from_assertions("group", t.name or "cayley", None,
                                  assertions, note)


def is_valid_group(t: CayleyTable) -> bool:
    return validate_group(t).passed


def group_algebra(t: CayleyTable) -> Algebra:
    """The rational group algebra: basis = point masses, product = convolution."""
    if not is_valid_group(t):
        raise ValueError("not a group; run validate_group for details")
    return _algebra(t)


def conjugacy_classes(t: CayleyTable) -> tuple[tuple[int, ...], ...]:
    """Orbits of g -> x g x^{-1}, brute-forced over all x."""
    if not is_valid_group(t):
        raise ValueError("not a group; run validate_group for details")
    inv = inverse_map(t)
    n = t.order
    classes = []
    seen = set()
    for g in range(n):
        if g in seen:
            continue
        orbit = sorted({t.table[t.table[x][g]][inv[x]] for x in range(n)})
        seen.update(orbit)
        classes.append(tuple(orbit))
    return tuple(classes)


def class_sums(t: CayleyTable) -> Subspace:
    """Span of the conjugacy class sums inside the group algebra."""
    return Subspace.span(t.order, ({i: 1 for i in cls}
                                   for cls in conjugacy_classes(t)))


# ---------------------------------------------------------------------------
# builtin tables
# ---------------------------------------------------------------------------

def cyclic_table(n: int) -> CayleyTable:
    return cayley_table(
        [[(i + j) % n for j in range(n)] for i in range(n)], name=f"c{n}"
    )


def symmetric3_table() -> CayleyTable:
    """S3 with elements enumerated as permutations of (0, 1, 2)."""
    elems = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    rows = []
    for p in elems:
        # composition applies the right factor first
        rows.append([index[tuple(p[x] for x in r)] for r in elems])
    return cayley_table(rows, name="s3")


def quaternion_table() -> CayleyTable:
    """The quaternion group on 1, -1, i, -i, j, -j, k, -k."""
    mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def idx(sign, unit):
        return 2 * unit + (0 if sign > 0 else 1)

    rows = [[0] * 8 for _ in range(8)]
    for u1 in range(4):
        for s1 in (1, -1):
            for u2 in range(4):
                for s2 in (1, -1):
                    s, u = mul[(u1, u2)]
                    rows[idx(s1, u1)][idx(s2, u2)] = idx(s1 * s2 * s, u)
    return cayley_table(rows, name="q8")


def group_tables() -> dict[str, CayleyTable]:
    """Named table catalog; shared objects so per-table caches stay warm."""
    return dict(_table_catalog())


@lru_cache(maxsize=1)
def _table_catalog() -> tuple:
    return (
        ("c2", cyclic_table(2)),
        ("c3", cyclic_table(3)),
        ("s3", symmetric3_table()),
        ("q8", quaternion_table()),
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_group_centralizer_structure(t: CayleyTable, w: Weights) -> Report:
    """Check id "4.2": weighted centralizers of a group algebra.

    The space must equal the right multiplications by class sums, have
    dimension equal to the class count, and be nonzero; abelian tables
    must additionally have central group algebra.
    """
    target = t.name or "cayley"
    validation = validate_group(t)
    if not validation.passed:
        return Report(
            "4.2", target, w.pair, validation.status,
            validation.assertions, "group axioms failed",
        )

    a = group_algebra(t)
    cpq = pq_centralizers(a, w)
    classes = conjugacy_classes(t)
    sums = class_sums(t)
    z = center(a)
    central = subspace_equal(z, sums)
    image = right_mul_image(a, sums)
    multiplications = cpq == image

    assertions = [
        Assertion(
            "center equals span of class sums", central,
            None if central
            else f"center dim {z.dim}, class sums dim {sums.dim}",
        ),
        Assertion(
            "weighted centralizers are right multiplications by class sums",
            multiplications,
            None if multiplications
            else f"solver dim {cpq.dim}, image dim {image.dim}",
        ),
        Assertion(
            "dimension equals conjugacy class count",
            cpq.dim == len(classes),
            None if cpq.dim == len(classes)
            else f"dim {cpq.dim} != {len(classes)} classes",
        ),
        Assertion(
            "space is nonzero",
            cpq.dim >= 1,
            None if cpq.dim >= 1 else "solved space is {0}",
        ),
    ]
    if is_commutative(a):
        whole = subspace_equal(z, full_space(a.dim))
        assertions.append(Assertion(
            "abelian group has fully central group algebra", whole,
            None if whole else f"center dim {z.dim} < {a.dim}",
        ))
    return report_from_assertions(
        "4.2", target, w.pair, assertions,
        f"{len(classes)} conjugacy classes",
    )
