"""Every row of one centralizer identity, the structure solves on every
basis element, and the semigroup algebras, for the solver tests.

The staged solver never forms the whole system of an identity: it
evaluates one block of pairs at a time onto the rows of an enclosing
space. The reference solves and the row-level tests need the whole system
in the n^2 flat operator coordinates, which is the solver's row builder
run over every pair of the identity through the index of the full space.

The center, the right and two-sided identities and the one-sided solves
quantify over the generating set `generators(a)` alone. Their references
here quantify over every basis element, as the package did before.
"""

from pqcent.algebras import _commutant_rows, algebra_from_terms
from pqcent.centralizers import _pairs, _rows
from pqcent.linalg import (
    column_index,
    full_space,
    nullspace_of_rows,
    solve_affine_rows,
)


def _full_rows(a, e):
    """The nonzero {col: int} rows of identity e on every basis pair of e,
    in n^2 columns."""
    n = a.dim
    return [{c: v for c, v in row.items() if v}
            for row in _rows(a, e, _pairs(n, e), column_index(full_space(n * n)))]


def _ref_center(a):
    """The elements commuting with every basis element."""
    n = a.dim
    return nullspace_of_rows(_commutant_rows(a, [((j, 1),) for j in range(n)]),
                             n)


def _ref_units(a, *factors):
    """The affine set of u with b_i u = b_i (from int_by_left_factor)
    and/or u b_i = b_i (from int_by_right_factor) for every basis index i."""
    n = a.dim
    keys = [(i, k, f) for i in range(n) for k in range(n) for f in factors]
    return solve_affine_rows([dict(f[i][k]) for i, k, f in keys],
                             [a.scale * (i == k) for i, k, _ in keys], n)


def _table_algebra(table):
    """Q[S] for the finite magma S with S[i][j] = table[i][j]: the basis
    products b_i b_j = b_{S[i][j]}."""
    n = len(table)
    return algebra_from_terms(n, {(i, j): ((table[i][j], 1),)
                                  for i in range(n) for j in range(n)})


# Q[S] for order-4 semigroups S in which 3 is a right identity; the
# algebras are neither unital nor commutative, and their (1,2) Jordan
# space is strictly larger than the weighted one, so solving inside it
# really cuts the space down
RIGHT_IDENTITY_SEMIGROUPS = {
    "sg4_right_unit_a": ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 2, 3)),
    "sg4_right_unit_b": ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 1, 1, 3)),
    "sg4_right_unit_c": ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 2), (0, 1, 3, 3)),
}


# Q[S] for commutative semigroups S = {0, 1, 2, 3} in which 0 is absorbing
# and 1 annihilates everything, given by the rows of 2 and 3 in S's table:
# commutative, associative, no identity, and (1,1) space != two-sided space
SEMIGROUP_GAPS = {
    "sg4_swap": ((0, 0, 0, 1), (0, 0, 1, 0)),
    "sg4_nil": ((0, 0, 0, 1), (0, 0, 1, 1)),
    "sg4_idempotents": ((0, 0, 1, 0), (0, 0, 0, 1)),
}
