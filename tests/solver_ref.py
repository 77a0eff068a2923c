"""Every row of one centralizer identity, for the solver tests.

The staged solver never forms the whole system of an identity: it
evaluates one block of pairs at a time onto the rows of an enclosing
space. The reference solves and the row-level tests need the whole system
in the n^2 flat operator coordinates, which is the solver's row builder
run over every pair of the identity through the index of the full space.
"""

from pqcent.centralizers import _pairs, _rows
from pqcent.linalg import column_index, full_space


def _full_rows(a, e):
    """The nonzero {col: int} rows of identity e on every basis pair of e,
    in n^2 columns."""
    n = a.dim
    return _rows(a, e, _pairs(n, e), column_index(full_space(n * n)))
