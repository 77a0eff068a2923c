"""Exact linear algebra over the rationals.

All scalars are `fractions.Fraction`, so every result is exact: no
tolerances, no conditioning concerns. Row reduction runs on a sparse,
fraction-free integer core: rows are `{col: int}` dicts (dense rows and
`{col: value}` rows are both accepted and converted once). Kernels are
built in integers too: the reduced echelon gives one integer kernel row
per free column, and those rows are canonicalized on the same core. Dense
Fraction tuples are made only for the rows a caller gets back: an emitted
subspace basis or the output of `rref`. Containment tests reduce sparse
vectors against the nonzero entries of the basis rows.

`Subspace` canonicalizes on construction: the stored basis is the reduced
row echelon form of whatever spanning set was supplied. The canonical
form is unique per span, so `==` on subspaces is mathematical equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def is_zero_vector(x: Vector) -> bool:
    return all(a == 0 for a in x)


def clear_denominators(values: Sequence) -> tuple[int, list[int]]:
    """The lcm d of the denominators of the rationals `values`, and the
    integers d * v for v in `values`."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix, row-major immutable storage."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != rows*cols "
                f"{self.rows}*{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(Fraction(v) for v in r)
        return cls(nrows, ncols, tuple(flat))

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]


def identity_matrix(n: int) -> Matrix:
    return Matrix(n, n, tuple(
        Fraction(1 if i == j else 0) for i in range(n) for j in range(n)
    ))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, (Fraction(0),) * (rows * cols))


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, tuple(
        m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows)
    ))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    flat = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            flat.append(sum(
                (arow[k] * b.entries[k * b.cols + j] for k in range(a.cols) if arow[k]),
                Fraction(0),
            ))
    return Matrix(a.rows, b.cols, tuple(flat))


def apply_matrix(m: Matrix, v: Sequence) -> Vector:
    if m.cols != len(v):
        raise DimensionMismatch(f"matrix has {m.cols} columns, vector has {len(v)}")
    out = []
    for i in range(m.rows):
        base = i * m.cols
        out.append(sum(
            (m.entries[base + j] * vj for j, vj in enumerate(v) if vj),
            Fraction(0),
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# sparse integer echelon core
#
# Each input row becomes a {col: int} dict (zeros dropped, denominators
# cleared once) and is reduced, fraction-free, against the pivot rows found
# so far; each new pivot row is gcd-normalized so entries stay small.
# `_reduce` back-eliminates the pivot map in place, still in integers, and
# Fractions appear only when `_back_eliminate` emits canonical RREF rows.
# ---------------------------------------------------------------------------

def _sparse_row(row, ncols: int) -> dict[int, int]:
    """A dense row of length `ncols`, or a {col: value} dict with columns in
    [0, ncols), as a new {col: int} dict with zeros dropped and denominators
    cleared."""
    if isinstance(row, dict):
        if row and (min(row) < 0 or max(row) >= ncols):
            raise DimensionMismatch(f"a column of {sorted(row)} is outside [0, {ncols})")
        items = row.items()
    elif len(row) != ncols:
        raise DimensionMismatch(f"row length {len(row)} != {ncols}")
    else:
        items = enumerate(row)
    out = {c: v for c, v in items if v}
    if set(map(type, out.values())) <= {int}:
        return out
    _, ints = clear_denominators([Fraction(v) for v in out.values()])
    return {c: v for c, v in zip(out, ints) if v}


def _normalize(row: dict[int, int], lead: int) -> dict[int, int]:
    """`row` divided by the gcd of its entries, with a positive entry at `lead`."""
    g = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """An integer combination of `row` and pivot row `p` that clears column c;
    mutates `row` when the pivot's leading entry divides row[c]."""
    g = gcd(p[c], row[c])
    am, bm = p[c] // g, row[c] // g
    if am != 1:
        row = {k: am * v for k, v in row.items()}
    for k, v in p.items():
        x = row.get(k, 0) - bm * v
        if x:
            row[k] = x
        else:
            del row[k]
    return row


def _echelon_insert(row: dict[int, int], pivot_rows: dict[int, dict[int, int]]) -> None:
    """Reduce `row` against current pivots; install it if independent."""
    while row:
        c = min(row)
        if c not in pivot_rows:
            pivot_rows[c] = _normalize(row, c)
            return
        row = _eliminate(row, pivot_rows[c], c)


def _echelon(rows: Iterable, ncols: int) -> dict[int, dict[int, int]]:
    """The integer echelon pivot map of `rows`, keyed by pivot column."""
    pivot_rows: dict[int, dict[int, int]] = {}
    for r in rows:
        _echelon_insert(_sparse_row(r, ncols), pivot_rows)
    return pivot_rows


def _reduce(pivot_rows: dict[int, dict[int, int]]) -> None:
    """Back-eliminate an echelon pivot map in place, so each pivot row is
    zero at every other pivot column (integer RREF, pivots not yet 1)."""
    cols = sorted(pivot_rows)
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        p = pivot_rows[c]
        for j in range(i):
            r = pivot_rows[cols[j]]
            if c in r:
                pivot_rows[cols[j]] = _normalize(_eliminate(r, p, c), cols[j])


def _back_eliminate(pivot_rows: dict, ncols: int) -> tuple[list[Vector], tuple[int, ...]]:
    """Turn an echelon pivot map into dense RREF rows over Fraction (pivots = 1)."""
    _reduce(pivot_rows)
    cols = sorted(pivot_rows)
    out = []
    for c in cols:
        r = pivot_rows[c]
        dense = list(zero_vector(ncols))
        for k, v in r.items():
            dense[k] = Fraction(v, r[c])
        out.append(tuple(dense))
    return out, tuple(cols)


def _rref_of_rows(rows: Iterable, ncols: int) -> tuple[list[Vector], tuple[int, ...]]:
    return _back_eliminate(_echelon(rows, ncols), ncols)


def _kernel(pivot_rows: dict[int, dict[int, int]], ncols: int) -> "Subspace":
    """Solutions, in the first `ncols` unknowns, of the system whose pivot map
    `_reduce` has brought to integer RREF.

    Each free column f gives the kernel row f -> d, p -> -R_p[f] d / R_p[p]
    over the pivot rows R_p with R_p[f] != 0, where d is the lcm of their
    leads; the rows are then canonicalized on the echelon core.
    """
    touching: dict[int, list] = {f: [] for f in range(ncols) if f not in pivot_rows}
    for p, r in pivot_rows.items():
        for f, v in r.items():
            if f in touching:
                touching[f].append((p, v, r[p]))
    kernel_rows: dict[int, dict[int, int]] = {}
    for f, entries in touching.items():
        d = lcm(*(lead for _, _, lead in entries))
        row = {p: -v * (d // lead) for p, v, lead in entries}
        row[f] = d
        _echelon_insert(row, kernel_rows)
    return Subspace(ncols, tuple(_back_eliminate(kernel_rows, ncols)[0]))


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of `m`, with its rank and pivot columns.

    The returned matrix has the shape of `m`, zero rows at the bottom.
    """
    reduced, pivots = _rref_of_rows(m.to_rows(), m.cols)
    flat: list[Fraction] = []
    for r in reduced:
        flat.extend(r)
    flat.extend(zero_vector(m.cols) * (m.rows - len(reduced)))
    return Matrix(m.rows, m.cols, tuple(flat)), len(reduced), pivots


def nullspace_of_rows(rows: Iterable, ncols: int) -> "Subspace":
    """Solution space of the homogeneous system `rows` (dense or {col: value})."""
    pivot_rows = _echelon(rows, ncols)
    _reduce(pivot_rows)
    return _kernel(pivot_rows, ncols)


def nullspace(m: Matrix) -> "Subspace":
    return nullspace_of_rows(m.to_rows(), m.cols)


def solve_affine_rows(
    rows: Sequence, rhs: Sequence, ncols: int
) -> Optional[tuple[Vector, "Subspace"]]:
    """Solve the affine system rows*x = rhs.

    Returns a particular solution (free variables set to zero) together
    with the homogeneous solution space, or None when inconsistent. One
    elimination of [rows | rhs] yields both: when the system is consistent,
    the left block of its RREF is the RREF of `rows`.
    """
    if len(rows) != len(rhs):
        raise DimensionMismatch("rhs length != number of rows")
    augmented = []
    for r, b in zip(rows, rhs):
        if isinstance(r, dict) and ncols in r:
            raise DimensionMismatch(f"column {ncols} outside [0, {ncols})")
        augmented.append({**r, ncols: b} if isinstance(r, dict) else [*r, b])
    pivot_rows = _echelon(augmented, ncols + 1)
    if ncols in pivot_rows:
        return None  # a row reduced to 0 = 1
    _reduce(pivot_rows)
    particular = list(zero_vector(ncols))
    for p, r in pivot_rows.items():
        if ncols in r:
            particular[p] = Fraction(r[ncols], r[p])
    return tuple(particular), _kernel(pivot_rows, ncols)


def solve_affine(m: Matrix, b: Sequence) -> Optional[tuple[Vector, "Subspace"]]:
    return solve_affine_rows(m.to_rows(), vec(b), m.cols)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held in canonical (RREF basis) form."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        last_pivot = -1
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise ValueError("basis vector of wrong length")
            p = next((i for i, v in enumerate(row) if v != 0), None)
            if p is None or p <= last_pivot or row[p] != 1:
                raise ValueError("basis is not in reduced row echelon form")
            for other in self.basis:
                if other is not row and other[p] != 0:
                    raise ValueError("basis is not in reduced row echelon form")
            last_pivot = p

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        reduced, _ = _rref_of_rows(vectors, ambient_dim)
        return cls(ambient_dim, tuple(reduced))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def sparse_rows(self) -> tuple:
        """(pivot, nonzero (index, entry) pairs) of each basis row."""
        rows = []
        for row in self.basis:
            pairs = tuple((i, v) for i, v in enumerate(row) if v)
            rows.append((pairs[0][0], pairs))
        return tuple(rows)

    def pivots(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.sparse_rows)

    def reduce_vector(self, v: Sequence) -> Vector:
        """Remainder of v after eliminating all basis pivots."""
        w = list(vec(v))
        if len(w) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        for p, pairs in self.sparse_rows:
            c = w[p]
            if c:
                for i, rv in pairs:
                    w[i] -= c * rv
        return tuple(w)

    def _reduce_sparse(self, w: dict) -> dict:
        """Remainder of the {index: entry} vector `w`, reduced in place."""
        for p, pairs in self.sparse_rows:
            c = w.get(p)
            if c:
                for i, rv in pairs:
                    x = w.get(i, 0) - c * rv
                    if x:
                        w[i] = x
                    else:
                        del w[i]
        return w

    def contains_vector(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        return not self._reduce_sparse({i: x for i, x in enumerate(v) if x})


def full_space(n: int) -> Subspace:
    return Subspace(n, tuple(basis_vector(n, i) for i in range(n)))


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, ())


def _check_ambient(s: Subspace, t: Subspace) -> None:
    if s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s.ambient_dim} vs {t.ambient_dim}"
        )


def subspace_equal(s: Subspace, t: Subspace) -> bool:
    _check_ambient(s, t)
    return s.basis == t.basis


def subspace_contains(s: Subspace, t: Subspace) -> bool:
    """True when t is a subspace of s."""
    _check_ambient(s, t)
    if t.dim > s.dim:
        return False
    return not any(s._reduce_sparse(dict(pairs)) for _, pairs in t.sparse_rows)


def subspace_sum(s: Subspace, t: Subspace) -> Subspace:
    _check_ambient(s, t)
    return Subspace.span(s.ambient_dim, list(s.basis) + list(t.basis))


def subspace_intersect(s: Subspace, t: Subspace) -> Subspace:
    """Zassenhaus: echelonize [v|v] for v in s and [w|0] for w in t; rows
    whose left block vanished carry an intersection basis in the right block."""
    _check_ambient(s, t)
    n = s.ambient_dim
    zero = zero_vector(n)
    stacked = [list(v) + list(v) for v in s.basis]
    stacked += [list(w) + list(zero) for w in t.basis]
    reduced, _ = _rref_of_rows(stacked, 2 * n)
    hits = [r[n:] for r in reduced if is_zero_vector(r[:n])]
    return Subspace.span(n, hits)
