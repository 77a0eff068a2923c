"""Finite-dimensional associative algebras over Q via structure constants.

An algebra of dimension n is determined by the rational tensor c[i][j][k]
with basis products b_i b_j = sum_k c[i][j][k] b_k. Associativity is checked
exactly at construction, by Light's test over a generating set (see
`generators`); everything downstream assumes it. Elements are plain
coefficient tuples in the defining basis, and subspaces of the algebra reuse
the canonical `Subspace` type from `linalg`.

A statement "for every basis element x" whose set of solutions x is closed
under products needs checking only on a generating set: the center, the
right and two-sided identities here, and the one-sided centralizer rows in
`centralizers`, all quantify over `generators(a)`.

Every statement computed here is homogeneous in the constants, so every
computation reads them multiplied once by the lcm of their denominators:
the integer `int_products` and its two regroupings by one factor. The
constructor's one normalising pass yields both forms, and the constants
must be exact, ints or Fractions. The Fraction `products` are kept for the
parser, the serializer and `table`. Where products are basis elements
or zero, Light's test compares whole rows over the last factor, one tuple
equality per pair of the first two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import lcm
from operator import itemgetter
from typing import Optional, Sequence

from .linalg import (
    DimensionMismatch,
    Subspace,
    Vector,
    _echelon_insert,
    clear_denominators,
    nullspace_of_rows,
    solve_affine_rows,
    subspace_intersect,
    vadd,
)

_ZERO = Fraction(0)


class NonAssociativeError(ValueError):
    """Structure constants fail associativity on some basis triple."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        i, j, k = triple
        super().__init__(
            f"structure constants are not associative: "
            f"(b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})"
        )


def cached(fn):
    """Cache fn(x, *args) in x.__dict__, beside the cached_property tables,
    keyed by (fn, *args): a derived result is freed with its object.
    Arguments are positional and hashable."""
    @wraps(fn)
    def wrapper(x, *args):
        store = x.__dict__.setdefault("_cache", {})
        key = (fn, *args)
        if key not in store:
            store[key] = fn(x, *args)
        return store[key]

    return wrapper


# eq=False: algebras hash and compare by identity, so an algebra's cached
# results are its own; an equal but distinct algebra is solved afresh.
@dataclass(frozen=True, eq=False)
class Algebra:
    """products[i][j] = (k, c[i][j][k]) pairs of b_i * b_j, sorted by k,
    with no zeros: the one stored form of the structure constants.

    Computations read `int_products`, the same pairs times `scale` as ints,
    and its regroupings `int_by_right_factor` and `int_by_left_factor`;
    the Fraction `products` serve the parser, the serializer and
    `table`."""
    dim: int
    products: tuple
    name: str = ""

    @property
    def table(self) -> tuple:
        """The dense c[i][j][k] view, built afresh on each access."""
        dense = []
        for row in self.products:
            plane = []
            for pairs in row:
                line = [_ZERO] * self.dim
                for k, c in pairs:
                    line[k] = c
                plane.append(tuple(line))
            dense.append(tuple(plane))
        return tuple(dense)

    @cached_property
    def scale(self) -> int:
        """The lcm of the denominators of all structure constants."""
        return lcm(*(c.denominator for plane in self.products
                     for pairs in plane for _, c in pairs))

    @cached_property
    def int_products(self) -> tuple:
        """products with every constant multiplied by `scale`, as ints.

        Associativity and every centralizer identity are homogeneous in the
        structure constants, so scaling them all by one nonzero integer
        leaves each verdict and each solution space alone: denominators are
        cleared once per algebra, not per product. `algebra_from_terms`
        fills this and `scale` in its normalising pass; an algebra built
        directly derives both here.
        """
        return _scaled(self.products, self.scale)

    def _regroup(self, by_right: bool) -> tuple:
        """int_products regrouped by one factor in one pass over the
        nonzeros: each (k, c) of int_products[i][j] goes to view[x][k] as
        (m, c), with (x, m) = (j, i) if by_right else (i, j), so m ascends
        in each list."""
        n = self.dim
        view = [[[] for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(self.int_products):
            for j, pairs in enumerate(row):
                x, m = (j, i) if by_right else (i, j)
                for k, c in pairs:
                    view[x][k].append((m, c))
        return tuple(tuple(map(tuple, plane)) for plane in view)

    @cached_property
    def int_by_right_factor(self) -> tuple:
        """int_by_right_factor[j][k] = nonzero (m, scale * c[m][j][k]) pairs:
        the sparse rows of scale times right multiplication by b_j."""
        return self._regroup(True)

    @cached_property
    def int_by_left_factor(self) -> tuple:
        """int_by_left_factor[i][k] = nonzero (m, scale * c[i][m][k]) pairs."""
        return self._regroup(False)

    def __repr__(self):
        return f"Algebra({self.name or '?'}, dim={self.dim})"


def _index_error(dim: int, i: int, j: int, x: int) -> ValueError:
    return ValueError(
        f"product ({i}, {j}): index {x} out of range for dimension {dim}")


def _scaled(products, s: int) -> tuple:
    """products with every constant multiplied by s, as ints."""
    return tuple(
        tuple(tuple((k, c.numerator * (s // c.denominator))
                    for k, c in pairs) for pairs in row)
        for row in products
    )


def _exact(c, i: int, j: int):
    """The constant c of product (i, j), neither an int nor a Fraction, as
    one: a subclass of either is converted, and anything else, a bool
    included, raises TypeError."""
    if isinstance(c, Fraction):
        return Fraction(c)
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise TypeError(f"product ({i}, {j}): constant {c!r} is not an int "
                    f"or a Fraction")


def normalize_products(dim: int, terms) -> tuple:
    """(products, scale, int_products) from {(i, j): (k, c) pairs}, in one
    pass over the constants: repeated k are summed, zeros dropped, pairs
    sorted by k. A whole sum is kept as an int, and each distinct sum
    becomes one Fraction shared by every product holding it (an exact
    Fraction that is not whole is kept as it is). `scale` is the lcm of
    the denominators of the sums; when it is 1, `int_products` is the sums
    themselves. A constant that is not an int or a Fraction raises
    TypeError, and an index i, j or k outside [0, dim) raises ValueError,
    each naming the pair."""
    products = [[()] * dim for _ in range(dim)]
    ints = [[()] * dim for _ in range(dim)]
    shared: dict = {}  # each distinct sum -> its one Fraction
    seen: dict = {}  # each distinct product's sums -> its two stored forms
    for (i, j), pairs in terms.items():
        for x in (i, j):
            if not 0 <= x < dim:
                raise _index_error(dim, i, j, x)
        acc: dict = {}
        for k, c in pairs:
            if not 0 <= k < dim:
                raise _index_error(dim, i, j, k)
            if type(c) is not int and type(c) is not Fraction:
                c = _exact(c, i, j)
            if c:
                acc[k] = acc[k] + c if k in acc else c
        whole = tuple((k, v if type(v) is int or v.denominator != 1
                       else v.numerator) for k, v in sorted(acc.items()) if v)
        if whole not in seen:
            for _, v in whole:
                if v not in shared:
                    shared[v] = Fraction(v) if type(v) is int else v
            seen[whole] = tuple((k, shared[v]) for k, v in whole), whole
        products[i][j], ints[i][j] = seen[whole]
    products = tuple(map(tuple, products))
    scale = lcm(*(f.denominator for f in shared.values()))
    if scale > 1:
        return products, scale, _scaled(products, scale)
    return products, scale, tuple(map(tuple, ints))


@cached
def generators(a: Algebra) -> tuple[int, ...]:
    """A greedy set S of basis indices, ascending, whose left-normed words
    (...((b_g1 b_g2) b_g3) ...) b_gk with every g in S span the algebra.

    b_g joins S when it lies outside the span found so far, and the span is
    then closed under right multiplication by every member of S, on the
    integer echelon core. Only products of elements are read, never how
    they associate, so S can be found before associativity is known.

    The words in S span A, so any subalgebra containing S is A. Hence a
    statement "for every basis element x" whose set of solutions x is a
    subalgebra holds as soon as it holds for x in S.
    """
    n = a.dim
    prods = a.int_products
    echelon: dict[int, dict[int, int]] = {}
    words: list = []  # the (index, int) pairs of each word that grew the span
    gens: list[int] = []
    right: list[int] = []  # the generators with a nonzero right product

    def grows(pairs) -> bool:
        size = len(echelon)
        _echelon_insert(dict(pairs), echelon)
        return len(echelon) > size

    for g in range(n):
        if len(echelon) == n:
            break
        if not grows(((g, 1),)):
            continue
        gens.append(g)
        # the products not yet taken: each word times b_g, then b_g times
        # every generator; a generator by which every right product is zero
        # adds none
        pending = []
        if any(row[g] for row in prods):
            right.append(g)
            pending = [(w, g) for w in words]
        word = ((g, 1),)
        words.append(word)
        pending += [(word, h) for h in right]
        while pending and len(echelon) < n:
            w, h = pending.pop()
            # w b_h, sparse: most products of a sparse algebra are empty
            acc: dict[int, int] = {}
            for i, c in w:
                for k, c2 in prods[i][h]:
                    acc[k] = acc.get(k, 0) + c * c2
            v = [(k, c) for k, c in acc.items() if c]
            if v and grows(v):
                words.append(v)
                pending.extend((v, h) for h in right)
    return tuple(gens)


def _nonassociative(a: Algebra, middles):
    """Each basis triple (i, j, k) with j in `middles` and
    (b_i b_j) b_k != b_i (b_j b_k), i outermost and k innermost.

    Both sides are quadratic in the structure constants, so the scan runs
    exactly on the integer-scaled ones. Where b_i b_j = b_m and every
    b_j b_k is zero or some b_m', both rows over k are tuples of stored
    products: the left row ((b_i b_j) b_k)_k is the stored row of b_m, and
    the right row (b_i (b_j b_k))_k gathers b_i b_m' at each k in one C
    call. One tuple equality then decides the n triples, and only a row
    that differs is walked for its k. Any other triple is summed on its
    own, over the nonzero products only.
    """
    n = a.dim
    prod = a.int_products
    # each row gets a zero product at index n, read where b_j b_k = 0
    padded = [row + ((),) for row in prod]
    # gather[j](padded[i]) = (b_i (b_j b_k))_k, or None when some b_j b_k
    # is neither zero nor a unit product
    gather = {}
    for j in middles:
        reads = [n if not p else p[0][0] if len(p) == 1 and p[0][1] == 1
                 else None for p in prod[j]]
        gather[j] = None if None in reads else itemgetter(*reads, n)
    # with b_i b_j = 0, only the k with b_j b_k != 0 can give a nonzero
    # side: every other triple compares two empty sums
    nonempty = {j: [k for k in range(n) if prod[j][k]] for j in middles}
    for i in range(n):
        for j in middles:
            left_factors = prod[i][j]
            if (gather[j] and len(left_factors) == 1
                    and left_factors[0][1] == 1):
                left = padded[left_factors[0][0]]
                right = gather[j](padded[i])
                if left != right:
                    yield from ((i, j, k) for k in range(n)
                                if left[k] != right[k])
                continue
            for k in range(n) if left_factors else nonempty[j]:
                acc: dict[int, int] = {}
                for m, c in left_factors:
                    for l, c2 in prod[m][k]:
                        acc[l] = acc.get(l, 0) + c * c2
                for m, c in prod[j][k]:
                    for l, c2 in prod[i][m]:
                        acc[l] = acc.get(l, 0) - c * c2
                if any(acc.values()):
                    yield i, j, k


def _check_associativity(a: Algebra) -> None:
    """Raise on the first basis triple (i, j, k), in row-major order, with
    (b_i b_j) b_k != b_i (b_j b_k).

    Light's associativity test: the elements m with (xm)y = x(my) for all
    x, y form a subalgebra, so the algebra is associative as soon as the
    triples with j in `generators(a)` pass. Only when one of them fails
    does the scan run over every j, to name the first failing triple; when
    every basis element is a generator, that scan has just run.
    """
    gens = generators(a)
    triple = next(_nonassociative(a, gens), None)
    if triple is not None:
        if len(gens) < a.dim:
            triple = next(_nonassociative(a, range(a.dim)))
        raise NonAssociativeError(triple)


def algebra_from_terms(dim: int, terms, *, name: str = "") -> Algebra:
    """Build a validated algebra from {(i, j): (k, c) pairs} of the basis
    products b_i * b_j; omitted pairs multiply to zero. An index outside
    [0, dim) raises ValueError naming the pair and the index, and a
    constant that is not an int or a Fraction raises TypeError naming the
    pair."""
    if dim < 1:
        raise ValueError("algebra dimension must be at least 1")
    products, scale, int_products = normalize_products(dim, terms)
    a = Algebra(dim, products, name)
    # the normalising pass's integer form, where the cached properties keep it
    vars(a).update(scale=scale, int_products=int_products)
    _check_associativity(a)
    return a


def make_algebra(dim: int, structure_constants, *, name: str = "") -> Algebra:
    """Build a validated algebra from a dim x dim x dim constant array."""
    if len(structure_constants) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane)
            for plane in structure_constants):
        raise ValueError("structure constants must be dim x dim x dim")
    terms = {(i, j): enumerate(row)
             for i, plane in enumerate(structure_constants)
             for j, row in enumerate(plane)}
    return algebra_from_terms(dim, terms, name=name)


def _check_element(a: Algebra, x: Sequence) -> None:
    if len(x) != a.dim:
        raise DimensionMismatch(
            f"element of length {len(x)} in algebra of dimension {a.dim}"
        )


def int_multiply(a: Algebra, x_pairs, y_pairs) -> list[int]:
    """a.scale * x * y as a dense list of ints, for integer elements x and
    y given by (index, coefficient) pairs; zero coefficients are skipped."""
    prods = a.int_products
    ys = [(j, yj) for j, yj in y_pairs if yj]
    out = [0] * a.dim
    for i, xi in x_pairs:
        if xi:
            row = prods[i]
            for j, yj in ys:
                for k, c in row[j]:
                    out[k] += xi * yj * c
    return out


def multiply(a: Algebra, x: Sequence, y: Sequence) -> Vector:
    """Product of two elements given by coefficient vectors: computed on
    integers, with one Fraction made per coordinate."""
    _check_element(a, x)
    _check_element(a, y)
    # the nonzero terms of x, then of y, over one common denominator d
    terms = [(i, v) for i, v in enumerate(x) if v]
    split = len(terms)
    terms += [(j, v) for j, v in enumerate(y) if v]
    d, ints = clear_denominators([v for _, v in terms])
    pairs = [(i, c) for (i, _), c in zip(terms, ints)]
    den = a.scale * d * d
    return tuple(Fraction(v, den) if v else _ZERO
                 for v in int_multiply(a, pairs[:split], pairs[split:]))


def _units(a: Algebra, *factors) -> Optional[tuple[Vector, Subspace]]:
    """Affine set of u with b_g u = b_g (from int_by_left_factor) and/or
    u b_g = b_g (from int_by_right_factor) for every g in `generators(a)`:
    one row per (g, k, table) that is not 0 = 0, each equation multiplied
    by a.scale.

    For a fixed u the x with xu = x form a subalgebra, as (xy)u = x(yu),
    and so do the x with ux = x, so the rows on the generators cut out the
    same set as the rows on every basis element."""
    n = a.dim
    rows, rhs = [], []
    for g in generators(a):
        for k in range(n):
            for f in factors:
                if f[g][k] or g == k:
                    rows.append(dict(f[g][k]))
                    rhs.append(a.scale if g == k else 0)
    return solve_affine_rows(rows, rhs, n)


@cached
def right_identities(a: Algebra) -> Optional[tuple[Vector, Subspace]]:
    """Affine set of all u with x*u = x for every x, or None.

    Returned as (particular solution, homogeneous subspace); every right
    identity is particular + h with h in the subspace. The set is genuinely
    non-unique on some algebras, so callers must not assume a point.
    """
    return _units(a, a.int_by_left_factor)


def right_identity_samples(a: Algebra) -> tuple[Vector, ...]:
    """Extreme points used to test statements quantified over a right identity.

    Particular solution, particular + each homogeneous basis vector, and
    (when the family has dimension >= 2) particular + their sum.
    """
    sol = right_identities(a)
    if sol is None:
        return ()
    particular, homogeneous = sol
    samples = [particular]
    samples.extend(vadd(particular, h) for h in homogeneous.basis)
    if homogeneous.dim >= 2:
        total = particular
        for h in homogeneous.basis:
            total = vadd(total, h)
        samples.append(total)
    return tuple(samples)


@cached
def identity(a: Algebra) -> Optional[Vector]:
    """The two-sided identity element, if one exists."""
    sol = _units(a, a.int_by_left_factor, a.int_by_right_factor)
    if sol is None:
        return None
    particular, homogeneous = sol
    # two-sided identities are unique, so the system cannot be underdetermined
    assert homogeneous.dim == 0
    return particular


def is_unital(a: Algebra) -> bool:
    return identity(a) is not None


def is_commutative(a: Algebra) -> bool:
    n = a.dim
    prods = a.int_products
    return all(
        prods[i][j] == prods[j][i] for i in range(n) for j in range(i + 1, n)
    )


def _commutant_rows(a: Algebra, elements) -> list:
    """Rows of x t = t x in the coordinates of x, one per output coordinate
    and element t, each t given by its nonzero (j, t_j) pairs: {m: int}
    rows of the integer-scaled constants. Rows that vanish are dropped;
    zero entries of the others are left for `nullspace_of_rows`."""
    rows = []
    for t in elements:
        for k in range(a.dim):
            row: dict[int, int] = {}
            for j, tj in t:
                for m, c in a.int_by_right_factor[j][k]:
                    row[m] = row.get(m, 0) + tj * c
                for m, c in a.int_by_left_factor[j][k]:
                    row[m] = row.get(m, 0) - tj * c
            if any(row.values()):
                rows.append(row)
    return rows


@cached
def center(a: Algebra) -> Subspace:
    """Elements commuting with the whole algebra."""
    # the elements commuting with a fixed z form a subalgebra, so z needs
    # to commute only with the generators
    elements = [((g, 1),) for g in generators(a)]
    return nullspace_of_rows(_commutant_rows(a, elements), a.dim)


def relative_center(a: Algebra, s: Subspace, t: Subspace) -> Subspace:
    """Elements of s commuting with everything in t."""
    n = a.dim
    if s.ambient_dim != n or t.ambient_dim != n:
        raise DimensionMismatch("subspaces must live in the algebra")
    rows = _commutant_rows(a, [pairs for _, pairs in t.rows])
    return subspace_intersect(s, nullspace_of_rows(rows, n))


@cached
def radical(a: Algebra) -> Subspace:
    """Jacobson radical, via the trace form of the unitization.

    Over Q the radical of a finite-dimensional unital algebra is the radical
    of the bilinear form (x, y) -> trace(L_{xy}) of the left regular
    representation. Adjoining a unit first makes that criterion apply to
    non-unital input as well; the radical never meets the adjoined line, so
    it is the set of y with (0, y) in the null space of the Gram matrix G:
    the null space of G without its first column.

    The form is read off the integer-scaled constants: G becomes D G D
    with D = diag(1, scale, ..., scale), which changes no such null space.
    """
    n = a.dim
    prods = a.int_products
    # s[m] = scale * trace of left multiplication by b_m
    s = [sum(c for k in range(n) for l, c in prods[m][k] if l == k)
         for m in range(n)]
    # G without its first column: the adjoined unit's row, then b_i's rows
    gram = [s] + [[sum(c * s[m] for m, c in prods[i][j]) for j in range(n)]
                  for i in range(n)]
    return nullspace_of_rows(gram, n)


def subspace_product(a: Algebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of all products s_i * t_j over the two bases.

    The products are taken of the primitive integer rows of s and t against
    the integer-scaled constants: each is a nonzero multiple of the product
    of the basis vectors, so the span is the same.
    """
    n = a.dim
    if s.ambient_dim != n or t.ambient_dim != n:
        raise DimensionMismatch("subspaces must live in the algebra")
    return Subspace.span(n, [int_multiply(a, u, v)
                             for _, u in s.rows for _, v in t.rows])


def is_nilpotent_subspace(a: Algebra, s: Subspace) -> tuple[bool, Optional[int]]:
    """Whether iterated span-of-products of s vanish, and the first power that does.

    Powers are S^1 = S, S^{k+1} = span(S^k * S). If no power vanishes by
    dim(A)+1 none ever will: once a power repeats, the sequence is constant,
    and the tail sums Sum_{k>=m} S^k form a strictly decreasing chain until
    they stabilize, which bounds the index of a nilpotent subspace by
    dim(A)+1 exactly.
    """
    power = s
    for k in range(1, a.dim + 2):
        if power.dim == 0:
            return True, k
        nxt = subspace_product(a, power, s)
        if nxt == power:
            return False, None
        power = nxt
    return False, None
