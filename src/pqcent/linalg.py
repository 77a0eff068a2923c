"""Exact linear algebra over the rationals.

Every result is exact: no floats, no tolerances, no conditioning concerns.
Row reduction runs on a sparse, fraction-free integer core: rows are
`{col: int}` dicts (dense rows and `{col: value}` rows are both accepted and
converted once). Kernels are built in integers too: the reduced echelon
gives one integer kernel row per free column, and those rows are
canonicalized on the same core.

`nullspace_of_rows` is the one elimination path: echelon, back-elimination
and kernel, with nothing else in between; `solve_affine_rows` runs the same
path on the rows [row | rhs]. Both check and copy each row into the core's
{col: int} form, so every caller, the centralizer and structure solves
included, enters the core the same way. A kernel inside an enclosing space
K is found by refinement, ker(A) within K = K * ker(A * K), where K holds
the integer basis rows of the space. `column_index` and `lift` are the two
halves of that step, and the centralizer solvers are their caller: they
evaluate each block of rows straight onto K through `column_index`, hand
the projected block to `nullspace_of_rows` in dim K unknowns, and `lift`
its kernel back.

`Subspace` holds the canonical integer form of a span: its reduced row
echelon basis, each row scaled to a primitive integer row with a positive
pivot entry. The form is unique per span, so `==` and `hash` on subspaces
are mathematical equality, and containment reduces integer vectors against
the rows. `Subspace(n, rows)` is the one constructor and checks the form it
is given; `Subspace.span` builds the form from any spanning vectors.
Fractions are made only where a caller reads them: the dense
`Subspace.basis` (built on first read), `reduce_vector`, and the particular
solution of `solve_affine_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import lt
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def basis_vector(n: int, i: int) -> Vector:
    """The i-th standard basis vector, built from shared 0 and 1 constants."""
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def clear_denominators(values: Sequence) -> tuple[int, list[int]]:
    """The lcm d of the denominators of the rationals `values`, and the
    integers d * v for v in `values`."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


# ---------------------------------------------------------------------------
# sparse integer echelon core
#
# Each input row becomes a {col: int} dict (zeros dropped, denominators
# cleared once) and is reduced, fraction-free, against the pivot rows found
# so far; each new pivot row is gcd-normalized so entries stay small.
# `_reduce` back-eliminates the pivot map in place, still in integers, and
# `Subspace._from_pivot_rows` reads the result as the canonical form.
# ---------------------------------------------------------------------------

def _sparse_row(row, ncols: int) -> dict[int, int]:
    """A dense row of length `ncols`, or a {col: value} dict with columns in
    [0, ncols), as a new {col: int} dict with zeros dropped and denominators
    cleared."""
    if isinstance(row, dict):
        if row and (min(row) < 0 or max(row) >= ncols):
            raise DimensionMismatch(f"a column of {sorted(row)} is outside [0, {ncols})")
        out = {c: v for c, v in row.items() if v}
    elif len(row) != ncols:
        raise DimensionMismatch(f"row length {len(row)} != {ncols}")
    else:
        out = {c: v for c, v in enumerate(row) if v}
    if set(map(type, out.values())) <= {int}:
        return out
    _, ints = clear_denominators([v if type(v) in (int, Fraction) else Fraction(v)
                                  for v in out.values()])
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
    """Reduce `row` against the current pivot rows; install it if independent."""
    while row:
        c = min(row)
        if c not in pivot_rows:
            pivot_rows[c] = _normalize(row, c)
            return
        row = _eliminate(row, pivot_rows[c], c)


def _echelon(rows: Iterable, ncols: int) -> dict[int, dict[int, int]]:
    """The integer echelon pivot map of `rows`, keyed by pivot column; each
    row is checked and copied by `_sparse_row` first."""
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        _echelon_insert(_sparse_row(row, ncols), pivot_rows)
    return pivot_rows


def _reduce(pivot_rows: dict[int, dict[int, int]]) -> None:
    """Back-eliminate an echelon pivot map in place, so each pivot row is
    zero at every other pivot column (integer RREF, pivot entries not yet 1).

    Pivot columns are cleared from the last to the first. By then the row of
    pivot c is zero at every later pivot column, so subtracting it clears c
    and touches only non-pivot columns: entries at pivot columns are never
    created. The rows meeting each pivot column are therefore indexed once,
    in O(nnz), and no pair of pivot rows is ever scanned.
    """
    meeting: dict[int, list[int]] = {c: [] for c in pivot_rows}
    for q, r in pivot_rows.items():
        for c in r:
            if c != q and c in meeting:
                meeting[c].append(q)
    for c in sorted(pivot_rows, reverse=True):
        p = pivot_rows[c]
        for q in meeting[c]:
            pivot_rows[q] = _normalize(_eliminate(pivot_rows[q], p, c), q)


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
    _reduce(kernel_rows)
    return Subspace._from_pivot_rows(ncols, kernel_rows)


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def column_index(s: "Subspace") -> dict[int, list[tuple[int, int]]]:
    """For each column c in [0, s.ambient_dim), the (i, R_i[c]) over the
    primitive rows R_i of s that meet c: a row a is projected onto s as
    sum_c a[c] * R_i[c] into unknown i."""
    index: dict[int, list[tuple[int, int]]] = {c: [] for c in range(s.ambient_dim)}
    for i, (_, pairs) in enumerate(s.rows):
        for c, v in pairs:
            index[c].append((i, v))
    return index


def lift(within: "Subspace", kernel: "Subspace") -> "Subspace":
    """The vectors sum_i y_i R_i over the primitive rows R_i of `within`,
    for y in `kernel`, a subspace of Q^within.dim: `within` * `kernel`,
    canonicalized."""
    if kernel.ambient_dim != within.dim:
        raise DimensionMismatch(
            f"kernel in {kernel.ambient_dim}-space for a {within.dim}-dim subspace")
    spanning = [pairs for _, pairs in within.rows]
    mapped = []
    for _, ys in kernel.rows:
        x: dict[int, int] = {}
        for i, y in ys:
            for c, v in spanning[i]:
                x[c] = x.get(c, 0) + y * v
        mapped.append(x)
    return Subspace.span(within.ambient_dim, mapped)


def nullspace_of_rows(rows: Iterable, ncols: int) -> "Subspace":
    """Solution space of the homogeneous system `rows` (dense or {col: value}),
    from one elimination in all `ncols` unknowns. To solve inside a space
    K, project the rows through `column_index(K)` and `lift` the kernel."""
    pivot_rows = _echelon(rows, ncols)
    _reduce(pivot_rows)
    return _kernel(pivot_rows, ncols)


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


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def _check_rows(n: int, rows: tuple) -> None:
    """Raise ValueError unless `rows` is the canonical integer form of a
    subspace of Q^n, hashable and with ints for every index and entry.
    O(nnz)."""
    try:
        ok = type(n) is int and n >= 0 and type(rows) is tuple
        hash(rows)  # TypeError for a list anywhere inside
        leads = {p for p, _ in rows} if ok else set()
        last = -1
        for p, pairs in rows if ok else ():
            cols, vals = zip(*pairs)  # ValueError when pairs is empty
            ok = (type(p) is int and last < p == cols[0] and vals[0] > 0
                  and cols[-1] < n and set(map(type, cols + vals)) == {int}
                  and all(map(lt, cols, cols[1:])) and 0 not in vals
                  and gcd(*vals) == 1 and leads.isdisjoint(cols[1:]))
            if not ok:
                break
            last = p
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError("rows are not the canonical integer form of a subspace")


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held in canonical integer form.

    `rows` is the reduced row echelon basis, each row scaled to the
    primitive integer row whose pivot (first) entry is positive:
    `((pivot, ((col, int), ...)), ...)`, pivot and column indices increasing.
    The form is unique per span, so `==` and `hash` are span equality.
    `Subspace(n, rows)` takes that form itself and raises ValueError for
    anything else; `span` builds it from any spanning vectors, and `basis`
    gives the dense Fraction RREF rows, built on first read.
    """

    ambient_dim: int
    rows: tuple

    def __post_init__(self):
        _check_rows(self.ambient_dim, self.rows)

    @classmethod
    def _from_pivot_rows(cls, ambient_dim: int,
                         pivot_rows: dict[int, dict[int, int]]) -> "Subspace":
        """The span of a pivot map that `_reduce` has brought to integer RREF."""
        return cls(ambient_dim, tuple(
            (p, tuple(sorted(pivot_rows[p].items()))) for p in sorted(pivot_rows)
        ))

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        pivot_rows = _echelon(vectors, ambient_dim)
        _reduce(pivot_rows)
        return cls._from_pivot_rows(ambient_dim, pivot_rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        """The RREF basis as dense Fraction rows (pivot entries 1)."""
        out = []
        for _, pairs in self.rows:
            lead = pairs[0][1]
            dense = list(zero_vector(self.ambient_dim))
            for i, v in pairs:
                dense[i] = Fraction(v, lead)
            out.append(tuple(dense))
        return tuple(out)

    def _remainder(self, w: dict[int, int]) -> tuple[int, dict[int, int]]:
        """(L, L times the remainder of the integer {index: entry} vector `w`
        after eliminating every pivot), L the lcm of the pivot entries of
        the rows that meet `w`. `w` may be reduced in place.

        A row is zero at every other pivot, so eliminating it leaves the
        other pivot entries of `w` alone, and after scaling by L each of
        them is a multiple of its row's pivot entry.
        """
        meeting = [pairs for p, pairs in self.rows if p in w]
        scale = lcm(*(pairs[0][1] for pairs in meeting))
        if scale != 1:
            w = {i: scale * x for i, x in w.items()}
        for pairs in meeting:
            p, lead = pairs[0]
            c = w[p] // lead
            for i, v in pairs:
                x = w.get(i, 0) - c * v
                if x:
                    w[i] = x
                else:
                    del w[i]
        return scale, w

    def reduce_vector(self, v: Sequence) -> Vector:
        """Remainder of v after eliminating every pivot column of the basis."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        nonzero = [(i, x) for i, x in enumerate(v) if x]
        d, ints = clear_denominators([x for _, x in nonzero])
        scale, w = self._remainder(dict(zip((i for i, _ in nonzero), ints)))
        out = list(zero_vector(self.ambient_dim))
        for i, x in w.items():
            out[i] = Fraction(x, scale * d)
        return tuple(out)

    def contains_vector(self, v: Sequence) -> bool:
        return not self._remainder(_sparse_row(v, self.ambient_dim))[1]


def full_space(n: int) -> Subspace:
    return Subspace(n, tuple((i, ((i, 1),)) for i in range(n)))


def _check_ambient(s: Subspace, t: Subspace) -> None:
    if s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s.ambient_dim} vs {t.ambient_dim}"
        )


def subspace_equal(s: Subspace, t: Subspace) -> bool:
    _check_ambient(s, t)
    return s.rows == t.rows


def subspace_contains(s: Subspace, t: Subspace) -> bool:
    """True when t is a subspace of s."""
    _check_ambient(s, t)
    if t.dim >= s.dim:
        # a subspace of s with the dimension of s is s itself
        return t.rows == s.rows
    return not any(s._remainder(dict(pairs))[1] for _, pairs in t.rows)


def subspace_intersect(s: Subspace, t: Subspace) -> Subspace:
    """Zassenhaus: echelonize [v|v] for v in s and [w|0] for w in t; rows
    whose left block vanished carry an intersection basis in the right block."""
    _check_ambient(s, t)
    n = s.ambient_dim
    stacked = [dict(pairs + tuple((i + n, v) for i, v in pairs)) for _, pairs in s.rows]
    stacked += [dict(pairs) for _, pairs in t.rows]
    pivot_rows = _echelon(stacked, 2 * n)
    return Subspace.span(n, [{i - n: v for i, v in r.items()}
                             for p, r in pivot_rows.items() if p >= n])
