"""Solvers for the centralizer spaces cut out by one defining identity.

Every space solved here is the set of linear operators T satisfying

    s T(ab) = p T(a)b + q a T(b)      for all a, b,

for one integer triple (s, p, q), or the same identity on squares. Its
instances are the weighted centralizers, (p+q, p, q) for a weight pair;
left centralizers, (1, 1, 0); right centralizers, (1, 0, 1); and the Jordan
variant, the weighted identity imposed only on squares. Two-sided
centralizers satisfy the left and right identities at once.

Each space is cut out by linear equations on the n^2 matrix entries of T,
obtained by letting a, b run over basis pairs, and is solved exactly as a
nullspace. An operator T corresponds to the flat vector of the row-major
entries of its matrix, whose columns are the images of the basis vectors,
so operator spaces are canonical subspaces of n^2-space. An operator has
one type, its canonical integer form `IntOperator(den, cols)`: the solved
spaces hand theirs out read straight from the primitive rows of their
subspace, and every check, membership test and `residual` takes one.

Every solve runs between an enclosure above and a known subspace below,
both exact. A root solve of an algebra with a unit starts from the span
of n operators that its identity's rows at the unit cut out:
(p+q) T = p L_{T(1)} + q R_{T(1)} for a Jordan centralizer, T = L_{T(1)}
for a left one, and T = R_{T(u)} for a right one with a right identity u.
Below, the left and right multiplications lie inside the left and right
centralizers by associativity, so with its unit a one-sided solve is its
enclosure and evaluates no row. The two-sided space Z is solved first and
on its own, as the left rows inside the right centralizers, and it lies
inside every weighted space W(p,q) and Jordan space J(p,q). A polarized
Jordan row is the sum of the weighted rows of (a, b) and (b, a), and a
weighted row is p times a left row plus q times a right row. So the
Jordan space is solved above Z, and the weighted space inside the Jordan
one and above Z, on the pairs i < j only, since on the Jordan space the
row of (b, a) is minus that of (a, b) and the row of (a, a) vanishes. A
walk stops once it is down to the dimension of Z, as Z lies inside its
answer. The floor is checked before the enclosure is built: the unit
enclosure of a Jordan solve has dimension n, so where dim Z = n, as on a
commutative unital algebra, the Jordan space is Z and no span is built
for it. So where W = Z holds,
as the paper proves for an algebra with a right identity, the solver
settles it by dimension, and the weighted solve evaluates no row when
dim J = dim Z. Check 2.1's W = Z, its two-sided space inside the right
multiplications, and the containments of check `chain` can then fail only
through a solver bug; a certificate of the dimension
that shares no code with the solver is still open (ROADMAP.md, item 2).
The left rows also cut the right multiplications that are two-sided out
of the right multiplication space.

The left and right identities are imposed only on the pairs (g, b) with
g in the algebra's generating set `generators(a)`: for a fixed T, the
first factors a for which one of them holds with every b form a
subalgebra, and a subalgebra that contains the generators is the whole
algebra. The weighted and Jordan identities mix both sides and keep every
pair, and `residual`, the independent check, evaluates every pair of any
identity.

Every solve imposes one identity and is staged. It starts from its
enclosing space K (for a root solve, the unit enclosure or else the full
n^2-space) and walks the basis pairs in blocks, one per first index. A
block's rows are evaluated straight onto the integer rows of K, so they
reach `nullspace_of_rows`, the one elimination entry, in dim K unknowns;
when the block's kernel is smaller, K becomes K * kernel, and the walk
stops once K is down to its floor. A solve holds one block of rows at a
time, never the n^3 rows of its identity.

The defining conditions quantify over additive maps, but an additive map on
a Q-vector space is automatically Q-linear, so solving for linear operators
loses nothing. An identity on squares is solved through its polarized form
s T(ab+ba) = p T(a)b + p T(b)a + q a T(b) + q b T(a), which is equivalent to
the square condition for linear T because 2 is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .algebras import (
    Algebra,
    cached,
    generators,
    is_unital,
    right_identities,
)
from .linalg import (
    DimensionMismatch,
    Subspace,
    Vector,
    clear_denominators,
    column_index,
    full_space,
    lift,
    nullspace_of_rows,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Weights:
    """A pair of positive integer weights.

    The defining convention takes p != q; equal weights are accepted only
    with an explicit opt-in, because the (1,1) space is a genuinely
    different object and an accidental p = q would silently test it.
    """

    p: int
    q: int
    allow_equal: bool = False

    def __post_init__(self):
        # bool is an int subclass: Weights(True, 2) would share the cache
        # entry of Weights(1, 2) and report its weights as [true, 2]
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (self.p, self.q)):
            raise TypeError("weights must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError("weights must be positive")
        if self.p == self.q and not self.allow_equal:
            raise ValueError(
                "equal weights rejected by convention; pass allow_equal=True"
            )

    @property
    def pair(self) -> tuple[int, int]:
        return (self.p, self.q)


@dataclass(frozen=True)
class Identity:
    """The identity s T(ab) = p T(a)b + q a T(b) on basis pairs a, b.

    With `symmetric`, both sides are summed over ab and ba and the identity
    is imposed on pairs i <= j: the polarized form of the identity on
    squares.
    """

    s: int
    p: int
    q: int
    symmetric: bool = False


LEFT = Identity(1, 1, 0)
RIGHT = Identity(1, 0, 1)


def weighted(w: Weights) -> Identity:
    """(p+q) T(ab) = p T(a)b + q a T(b)."""
    return Identity(w.p + w.q, w.p, w.q)


def jordan(w: Weights) -> Identity:
    """The weighted identity on squares."""
    return Identity(w.p + w.q, w.p, w.q, symmetric=True)


def _block(n: int, e: Identity, i: int, upper: bool = False):
    """Each basis pair (i, j) with first index i that e is imposed on, j
    ascending, with the ordered products summed there: (i, j) alone, or
    (i, j) and (j, i). With `upper`, only the pairs with i < j."""
    for j in range(i + 1 if upper else i if e.symmetric else 0, n):
        yield i, j, ((i, j), (j, i)) if e.symmetric else ((i, j),)


def _pairs(n: int, e: Identity):
    """Each basis pair (i, j) that e is imposed on, in row-major order."""
    for i in range(n):
        yield from _block(n, e, i)


class IntOperator(NamedTuple):
    """An operator T in canonical integer form.

    cols[m] holds the nonzero (k, int) entries of den * T(b_m), k
    ascending, and den > 0 shares no factor with all the entries: the form
    is unique per operator, so `==` is operator equality.
    """

    den: int
    cols: tuple


def combine_columns(cols: Sequence, terms) -> list[int]:
    """The sum of v * cols[k] over the (k, v) `terms`, for sparse integer
    columns of a square matrix, as a dense list."""
    y = [0] * len(cols)
    for k, v in terms:
        if v:
            for j, c in cols[k]:
                y[j] += v * c
    return y


def apply_operator(t: IntOperator, x: Sequence) -> Vector:
    """T(x), with one Fraction made per nonzero entry."""
    if len(x) != len(t.cols):
        raise DimensionMismatch(
            f"operator has {len(t.cols)} columns, vector has {len(x)}")
    d, xs = clear_denominators(x)
    y = combine_columns(t.cols, enumerate(xs))
    d *= t.den
    return tuple(Fraction(v, d) if v else _ZERO for v in y)


def _flat(t: IntOperator) -> dict[int, int]:
    """den * T as a {k*n + m: int} row in flattened operator coordinates."""
    n = len(t.cols)
    return {k * n + m: v for m, col in enumerate(t.cols) for k, v in col}


@dataclass(frozen=True)
class OperatorSpace:
    """A linear space of operators on an algebra, canonically represented.

    The backing subspace lives in n^2-space via row-major flattening, so
    equality of operator spaces is exact span equality.
    """

    algebra_dim: int
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.algebra_dim ** 2:
            raise ValueError("backing subspace must live in n^2-space")

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def int_operators(self) -> tuple[IntOperator, ...]:
        """The canonical basis as integer operators, read off the primitive
        rows of the subspace: each row's pivot entry is its den."""
        n = self.algebra_dim
        out = []
        for _, pairs in self.space.rows:
            cols: list = [[] for _ in range(n)]
            for i, v in pairs:
                k, m = divmod(i, n)
                cols[m].append((k, v))
            out.append(IntOperator(pairs[0][1], tuple(map(tuple, cols))))
        return tuple(out)

    def contains_operator(self, t: IntOperator) -> bool:
        """Whether the operator t lies in the space."""
        if len(t.cols) != self.algebra_dim:
            raise DimensionMismatch(
                f"operator has {len(t.cols)} columns, "
                f"space is on dim {self.algebra_dim}")
        return self.space.contains_vector(_flat(t))


def operator_space(n: int, flats: Sequence) -> OperatorSpace:
    return OperatorSpace(n, Subspace.span(n * n, flats))


def _mul_int(a: Algebra, x: Sequence, by_factor) -> IntOperator:
    """sum_j x_j M_j, where by_factor[j][k] holds the sparse integer rows
    of a.scale * M_j, the matrix of multiplication by b_j on one side."""
    n = a.dim
    if len(x) != n:
        raise DimensionMismatch(f"element of length {len(x)}, algebra dim {n}")
    d, xs = clear_denominators(x)
    cols = [[0] * n for _ in range(n)]
    for xj, plane in zip(xs, by_factor):
        if xj:
            for k, pairs in enumerate(plane):
                for m, c in pairs:
                    cols[m][k] += xj * c
    den = a.scale * d
    g = gcd(den, *(v for col in cols for v in col))
    return IntOperator(den // g, tuple(
        tuple((k, v // g) for k, v in enumerate(col) if v) for col in cols))


def right_mul_int(a: Algebra, x: Sequence) -> IntOperator:
    """Right multiplication b -> b*x, in integer form."""
    return _mul_int(a, x, a.int_by_right_factor)


def left_mul_int(a: Algebra, x: Sequence) -> IntOperator:
    """Left multiplication b -> x*b, in integer form."""
    return _mul_int(a, x, a.int_by_left_factor)


def _mul_span(a: Algebra, p: int, q: int) -> OperatorSpace:
    """The span of p L_t + q R_t over the basis elements t, read off the
    integer-scaled constants: the flat row of t is
    {k*n + m: p c[t][m][k] + q c[m][t][k]}."""
    n = a.dim
    prods = a.int_products
    flats = []
    for t in range(n):
        row: dict[int, int] = {}
        for m in range(n):
            for w, pairs in ((p, prods[t][m]), (q, prods[m][t])):
                if w:
                    for k, c in pairs:
                        row[k * n + m] = row.get(k * n + m, 0) + w * c
        flats.append(row)
    return operator_space(n, flats)


@cached
def right_mul_space(a: Algebra) -> OperatorSpace:
    """All right multiplication operators, as an operator space."""
    return _mul_span(a, 0, 1)


@cached
def left_mul_space(a: Algebra) -> OperatorSpace:
    """All left multiplication operators, as an operator space."""
    return _mul_span(a, 1, 0)


def right_mul_image(a: Algebra, s: Subspace) -> OperatorSpace:
    """The operator space of right multiplications by elements of s."""
    return operator_space(a.dim, [_flat(right_mul_int(a, v)) for v in s.basis])


# ---------------------------------------------------------------------------
# space solvers
#
# Unknowns are the flat entries t[k*n + m] = coefficient of b_k in T(b_m).
# An identity gives one scalar equation per basis pair (i, j) and output
# coordinate k, evaluated from the integer-scaled structure constants on
# the integer rows of the enclosing space; a space is the common kernel of
# the rows of the identities that define it, inside the space that
# encloses it.
# ---------------------------------------------------------------------------

def _rows(a: Algebra, e: Identity, pairs, index):
    """e's row on each (i, j, orders) of `pairs` and output coordinate k,
    projected through a `column_index` of a space K: a {basis index of K:
    int} row, the row times K. Rows that vanish are not yielded; zero
    entries of the others are left for `nullspace_of_rows` to drop."""
    n = a.dim
    prods, by_right, by_left = (
        a.int_products, a.int_by_right_factor, a.int_by_left_factor)
    s, p, q = e.s, -e.p, -e.q
    for _, _, orders in pairs:
        for k in range(n):
            # the s T(ab), -p T(a)b and -q a T(b) terms of one row: each
            # (m, c) of the constants adds weight * c times the index
            # entries of the unknown it multiplies
            row: dict[int, int] = {}
            get = row.get
            for x, y in orders:
                if s:
                    for m, c in prods[x][y]:
                        for col, r in index[k * n + m]:
                            row[col] = get(col, 0) + s * c * r
                if p:
                    for m, c in by_right[y][k]:
                        for col, r in index[x + n * m]:
                            row[col] = get(col, 0) + p * c * r
                if q:
                    for m, c in by_left[x][k]:
                        for col, r in index[y + n * m]:
                            row[col] = get(col, 0) + q * c * r
            if any(row.values()):
                yield row


def _enclosure(a: Algebra, e: Identity,
               floor: Optional[OperatorSpace] = None) -> Optional[OperatorSpace]:
    """The span that e's rows at a unit cut out, which encloses every
    solution of e: None when the algebra has no unit of the kind needed.

    With a unit 1, the polarized rows at the pairs (1, b) read
    (2s - p - q) T = p L_{T(1)} + q R_{T(1)}, and the rows of e itself at
    (1, b) read (s - q) T = p L_{T(1)}. With a right identity u, the rows at
    (a, u) read (s - p) T = q R_{T(u)}. So a Jordan solve (s = p + q) lies
    in the span of p L_t + q R_t, a left or weighted one in the left
    multiplications, and a right one in the right multiplications: spans
    of n operators, one per basis element.

    The Jordan span with p + q != 0 and the left multiplications have
    dimension n, as T -> T(1) is injective on them: (p L_t + q R_t)(1) =
    (p+q) t and L_t(1) = t. A `floor` of dimension n, known to lie inside
    the solutions, is then that span, and is returned without building it.
    """
    full = floor is not None and floor.dim == a.dim
    if e.symmetric:
        if 2 * e.s == e.p + e.q or not is_unital(a):
            return None
        return floor if full and e.p + e.q else _mul_span(a, e.p, e.q)
    if e.s != e.q:
        if not is_unital(a):
            return None
        return floor if full else left_mul_space(a)
    unit = e.s != e.p and right_identities(a) is not None
    return right_mul_space(a) if unit else None


def _solve(a: Algebra, e: Identity, *, within: Optional[OperatorSpace] = None,
           upper: bool = False, floor: Optional[OperatorSpace] = None
           ) -> OperatorSpace:
    """The operators in `within` that satisfy the identity e, imposed on its
    pairs i < j alone with `upper`. A root solve, with no `within`, starts
    from e's unit enclosure (`_enclosure`) when the algebra has the unit it
    needs, else from every operator. `floor` is a space known to lie inside
    the answer.

    The left and right identities are imposed only on the blocks of the
    first indices g in `generators(a)`. That is exact: for a fixed T, the a
    with T(ab) = T(a)b for every b form a subalgebra, as
    T(a1 a2 b) = T(a1) a2 b = T(a1 a2) b, and so do the a with
    T(ab) = a T(b) for every b, as T(a1 a2 b) = a1 T(a2 b) = a1 a2 T(b).

    The space K starts as the enclosure and is refined one block of rows
    at a time, a block per first index i of the pairs. The block's rows are
    evaluated straight onto the primitive rows of K, and the kernel of the
    projected block, in dim K unknowns, gives K * ker: the new K. The
    column index of K is built for the first block walked and rebuilt only
    when K shrinks. The walk stops once dim K = dim `floor` (0 without
    one): the floor lies inside the answer and the answer inside K, so K is
    then the answer. A root solve checks this before K is built, as
    `_enclosure` hands back a floor of the enclosure's dimension, and then
    walks no block. Every enclosure is
    cut out by rows of e, and the walk imposes every row on it, so the
    answer is the kernel of e's rows whatever K starts from. Only one block
    of rows is held at a time.

    The rows are not deduplicated. A duplicate row reduces to zero in the
    block's dim K unknowns, for less than hashing every row would cost.
    """
    n = a.dim
    if within is not None and within.algebra_dim != n:
        raise DimensionMismatch(
            f"enclosing space on dim {within.algebra_dim}, algebra has dim {n}")
    if within is None:
        within = _enclosure(a, e, floor)
    space = full_space(n * n) if within is None else within.space
    bottom = 0 if floor is None else floor.dim
    index = None
    for i in generators(a) if e in (LEFT, RIGHT) else range(n):
        if space.dim == bottom:
            break
        if index is None:
            index = column_index(space)
        rows = list(_rows(a, e, _block(n, e, i, upper), index))
        if rows:
            kernel = nullspace_of_rows(rows, space.dim)
            if kernel.dim < space.dim:
                space = lift(space, kernel)
                index = None
    return OperatorSpace(n, space)


@cached
def pq_centralizers(a: Algebra, w: Weights) -> OperatorSpace:
    """The space of (p, q)-weighted centralizers of a, solved inside the
    Jordan space above the two-sided one: the polarized Jordan rows are
    sums of two weighted rows, so every weighted centralizer is a Jordan
    one. On the Jordan space the weighted row of (j, i) is minus that of
    (i, j), and the row of (i, i) vanishes, so the weighted identity is
    imposed on the pairs i < j. When the Jordan space is the two-sided one,
    no row is evaluated."""
    return _solve(a, weighted(w), within=pq_jordan_centralizers(a, w),
                  upper=True, floor=two_sided_centralizers(a))


@cached
def pq_jordan_centralizers(a: Algebra, w: Weights) -> OperatorSpace:
    """Weighted Jordan centralizers, via the polarized identity, solved
    above the two-sided space: a two-sided centralizer satisfies every
    weighted identity, so the walk stops once it is down to that space."""
    return _solve(a, jordan(w), floor=two_sided_centralizers(a))


@cached
def left_centralizers(a: Algebra) -> OperatorSpace:
    """Solutions of T(ab) = T(a)b, solved above the left multiplications,
    which satisfy it by associativity: with a unit they are the enclosure,
    and no row is evaluated."""
    return _solve(a, LEFT, floor=left_mul_space(a))


@cached
def right_centralizers(a: Algebra) -> OperatorSpace:
    """Solutions of T(ab) = a T(b), solved above the right multiplications,
    which satisfy it by associativity: with a right identity they are the
    enclosure, and no row is evaluated."""
    return _solve(a, RIGHT, floor=right_mul_space(a))


@cached
def two_sided_centralizers(a: Algebra) -> OperatorSpace:
    """Operators that are left and right centralizers at once: the left
    rows solved inside the right centralizer space.

    It is solved first and on its own, since it lies inside every weighted
    and Jordan space and serves their walks as a floor: a walk that reaches
    its dimension stops there, so W = Z, and J = Z, are settled by
    dimension. With a unit the right centralizers are the right
    multiplications, and the left rows cut out the multiplications by
    central elements.
    """
    return _solve(a, LEFT, within=right_centralizers(a))


@cached
def two_sided_right_mul_space(a: Algebra) -> OperatorSpace:
    """The right multiplications that are two-sided centralizers, solved
    inside the right multiplication space.

    A right multiplication is a right centralizer by associativity, so the
    left rows alone cut out the two-sided ones: R_v with (xy)v = (xv)y on
    all basis pairs. On a unital algebra these are the multiplications by
    central elements; without a unit there can be more.
    """
    return _solve(a, LEFT, within=right_mul_space(a))


# ---------------------------------------------------------------------------
# membership
#
# Direct evaluation of an identity on basis pairs, independent of the
# solvers; the first failing (i, j, residual) serves as a report witness.
# ---------------------------------------------------------------------------

@cached
def residual(a: Algebra, t: IntOperator, e: Identity
             ) -> Optional[tuple[int, int, Vector]]:
    """The first basis pair (i, j), in row-major order, on which the
    operator t violates e, with s T(ab) - p T(a)b - q a T(b) there (summed
    over ab and ba when e is symmetric); None if t satisfies e on every
    pair.

    Cached on the algebra by (t, e): both are canonical, so equal operators
    and identities share one entry. The first call evaluates e on every
    pair up to the first that fails, and later calls read its result; so
    checks that meet the same operator at several weight pairs evaluate
    each weight-free identity once."""
    n = a.dim
    if len(t.cols) != n:
        raise DimensionMismatch(
            f"operator has {len(t.cols)} columns, algebra has dim {n}")
    # the residual is linear in t and in the structure constants, so reading
    # both scaled changes no zero pattern, and Fractions are made only for
    # a witness
    prods = a.int_products
    # nonzero (index, weight * entry) of each column of t, per nonzero weight
    s_cols, p_cols, q_cols = (
        [[(m, w * v) for m, v in col] for col in t.cols] if w else None
        for w in (e.s, e.p, e.q)
    )
    for i, j, orders in _pairs(n, e):
        res = [0] * n
        for x, y in orders:
            if s_cols is not None:
                for m, c in prods[x][y]:
                    for k, v in s_cols[m]:
                        res[k] += c * v
            if p_cols is not None:
                for m, v in p_cols[x]:
                    for k, c in prods[m][y]:
                        res[k] -= v * c
            if q_cols is not None:
                for m, v in q_cols[y]:
                    for k, c in prods[x][m]:
                        res[k] -= v * c
        if any(res):
            return i, j, tuple(Fraction(x, a.scale * t.den) for x in res)
    return None
