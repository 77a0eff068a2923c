"""The per-weight scans that the per-operator records replaced, kept as
references.

`residual`, check 2.4's adjoint scan and its dense samples once evaluated
their identity afresh for every weight pair: (p+q) A = p B + q C, walked
in integers up to the first pair that fails. The package now evaluates the
two parts A - B and A - C once per operator and answers every identity
from them: the left and right parts T(ab) - T(a)b and T(ab) - aT(b) on
the basis pairs (`centralizers._left_right_parts`), which the adjoint
scan reads too, and the two parts of each dense sample. These are the
scans as they were, for the differential tests.
"""

from fractions import Fraction

from pqcent.algebras import int_multiply
from pqcent.centralizers import combine_columns


def _ref_pairs(n, e):
    for i in range(n):
        for j in range(i if e.symmetric else 0, n):
            yield i, j, ((i, j), (j, i)) if e.symmetric else ((i, j),)


def _ref_scan_residual(a, t, e):
    """The first (i, j, (p+q) T(ab) - p T(a)b - q a T(b)) of identity e on the
    integer operator t, row-major, or None."""
    n = a.dim
    prods = a.int_products
    s_cols, p_cols, q_cols = (
        [[(m, w * v) for m, v in col] for col in t.cols] if w else None
        for w in (e.p + e.q, e.p, e.q)
    )
    for i, j, orders in _ref_pairs(n, e):
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


def _ref_scan_adjoint(a, t, p, q):
    """The first (r, i) on which the adjoint of t fails
    (p+q)(T*f_r).e_i = p f_r.(T e_i) + q T*(f_r.e_i), or None."""
    n = a.dim
    dual = a.int_by_left_factor
    cols = t.cols
    rows = [[] for _ in range(n)]
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


def _ref_scan_sample(a, t, s, p, q):
    """Whether (p+q) T(F * H) = p (TF)*H + q F*(TH) on the sample s."""
    tf, th, lhs = (combine_columns(t.cols, enumerate(x))
                   for x in (s.f, s.h, s.fh))
    rhs_p = int_multiply(a, enumerate(tf), enumerate(s.h))
    rhs_q = int_multiply(a, enumerate(s.f), enumerate(th))
    return all((p + q) * x == p * y + q * z
               for x, y, z in zip(lhs, rhs_p, rhs_q))
