"""Verification drivers for the structural properties of centralizer spaces.

Each check evaluates one exact algebraic statement and returns a structured
`Report`. The check ids ("2.1", "3.1", ...) are opaque tokens fixed by the
command-line contract; the function names describe what is actually checked.

All checks are zero-tolerance: every asserted identity is evaluated in exact
rational arithmetic on whole bases, never on sampled points, except where a
statement is quantified over a non-unique right identity, in which case the
affine family of right identities is tested at its particular solution and
at the extreme displacements along each homogeneous basis direction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebras import (
    Algebra,
    cached,
    center,
    identity,
    int_multiply,
    is_commutative,
    is_nilpotent_subspace,
    is_unital,
    multiply,
    radical,
    right_identity_samples,
    subspace_product,
)
from .arens import verify_bidual_extension
from .centralizers import (
    LEFT,
    RIGHT,
    Identity,
    IntOperator,
    OperatorSpace,
    Weights,
    apply_operator,
    combine_columns,
    left_mul_int,
    left_mul_space,
    pq_centralizers,
    pq_jordan_centralizers,
    residual,
    right_mul_int,
    right_mul_space,
    two_sided_centralizers,
    weighted,
)
from .linalg import (
    Subspace,
    Vector,
    clear_denominators,
    lift,
    nullspace_of_rows,
    subspace_contains,
)
from .reports import (
    Assertion,
    Report,
    fmt_vector,
    precondition_unmet,
    report_from_assertions,
    target_name,
)

# weight pairs of a default run, and those sampled when a statement
# quantifies over admissible weights
DEFAULT_WEIGHT_PAIRS = ((1, 2), (2, 1), (3, 5), (7, 2))


def _spaces_equal(name: str, s: OperatorSpace, t: OperatorSpace) -> Assertion:
    ok = s == t
    return Assertion(
        name, ok, None if ok else f"dims {s.dim} vs {t.dim}; spaces differ"
    )


def _residual_assertion(name: str, res: Optional[tuple]) -> Assertion:
    ok = res is None
    witness = None
    if not ok:
        i, j, r = res
        witness = f"basis pair ({i}, {j}): residual {fmt_vector(r)}"
    return Assertion(name, ok, witness)


def _identity_operator(n: int) -> IntOperator:
    return IntOperator(1, tuple(((m, 1),) for m in range(n)))


def _operator_candidates(a: Algebra, space: OperatorSpace):
    """zero, identity, and the solved basis, labeled for report lines."""
    out = [("zero operator", IntOperator(1, ((),) * a.dim)),
           ("identity operator", _identity_operator(a.dim))]
    out.extend((f"basis operator {idx}", t)
               for idx, t in enumerate(space.int_operators))
    return out


# ---------------------------------------------------------------------------
# check id 2.1
# ---------------------------------------------------------------------------

@cached
def _is_right_mul_by_value(a: Algebra, t: IntOperator, u) -> bool:
    """Whether T is right multiplication by T(u)."""
    return right_mul_int(a, apply_operator(t, u)) == t


def verify_right_identity_collapse(a: Algebra, w: Weights) -> Report:
    """With a right identity, the weighted space collapses to the two-sided
    space, and consists exactly of right multiplications by the elements
    whose right multiplication is two-sided.

    Also checks, for every solved basis operator T and every sampled right
    identity u: T = right multiplication by T(u), and the pair symmetry
    a T(b) = T(a) b on all basis pairs.
    """
    samples = right_identity_samples(a)
    if not samples:
        return precondition_unmet("2.1", target_name(a), w.pair, "no right identity")

    cpq = pq_centralizers(a, w)
    cts = two_sided_centralizers(a)
    rms = right_mul_space(a)
    inside = subspace_contains(rms.space, cts.space)
    assertions = [
        _spaces_equal("weighted space equals two-sided space", cpq, cts),
        Assertion(
            "two-sided centralizers are right multiplications",
            inside,
            None if inside
            else f"two-sided dim {cts.dim} not inside image dim {rms.dim}",
        ),
        # with a right identity the right centralizers are the right
        # multiplications, and the two-sided space is solved inside them
        _spaces_equal(
            "weighted space equals right multiplications by two-sided multiplier elements",
            cpq, cts,
        ),
    ]

    for idx, t in enumerate(cpq.int_operators):
        assertions.append(_residual_assertion(
            f"basis operator {idx} is a left centralizer", residual(a, t, LEFT)
        ))
        assertions.append(_residual_assertion(
            f"basis operator {idx} is a right centralizer", residual(a, t, RIGHT)
        ))
        # a T(b) = T(a) b is the identity with (s, p, q) = (0, 1, -1)
        res = residual(a, t, Identity(0, 1, -1))
        assertions.append(Assertion(
            f"basis operator {idx} satisfies a*T(b) = T(a)*b on basis pairs",
            res is None,
            None if res is None else f"basis pair {res[:2]}",
        ))

        for k, u in enumerate(samples):
            ok = _is_right_mul_by_value(a, t, u)
            assertions.append(Assertion(
                f"basis operator {idx} equals right multiplication by its "
                f"value at right identity sample {k}",
                ok,
                None if ok else f"u = {fmt_vector(u)}",
            ))

    return report_from_assertions(
        "2.1", target_name(a), w.pair, assertions,
        f"space dim {cpq.dim}; {len(samples)} right identity samples",
    )


# ---------------------------------------------------------------------------
# check id 2.3
# ---------------------------------------------------------------------------

def _nonmultiplicative_pair(a: Algebra, ops, images) -> Optional[tuple[int, int]]:
    """The first operator pair (r, s), in row-major order, with
    T_r(T_s(1)) != T_r(1) T_s(1), where images[s] = T_s(1); None if there
    is none. T_r(T_s(1)) is (T_r T_s)(1) without forming the product."""
    return next(
        (
            (r, s)
            for r in range(len(ops))
            for s in range(len(ops))
            if apply_operator(ops[r], images[s])
            != multiply(a, images[r], images[s])
        ),
        None,
    )


@cached
def _center_correspondence(a: Algebra, space: OperatorSpace
                           ) -> tuple[Assertion, ...]:
    """Check 2.3's assertions on an operator space of a unital algebra,
    which read no weight: the images of its basis at the identity, their
    span, and the multiplicativity scan."""
    z = center(a)
    ops = space.int_operators
    one = identity(a)
    images = [apply_operator(t, one) for t in ops]
    image_span = Subspace.span(a.dim, images)
    spans_center = image_span == z

    assertions = [
        Assertion(
            "space dimension equals center dimension",
            space.dim == z.dim,
            None if space.dim == z.dim else f"dims {space.dim} vs {z.dim}",
        ),
        Assertion(
            "images of the basis at the identity span the center",
            spans_center,
            None if spans_center
            else f"image span dim {image_span.dim}, center dim {z.dim}",
        ),
    ]
    for idx, (t, img) in enumerate(zip(ops, images)):
        in_center = z.contains_vector(img)
        assertions.append(Assertion(
            f"basis operator {idx} maps the identity into the center",
            in_center,
            None if in_center else f"image {fmt_vector(img)}",
        ))
        ok_r = right_mul_int(a, img) == t
        ok_l = left_mul_int(a, img) == t
        assertions.append(Assertion(
            f"basis operator {idx} is two-sided multiplication by its image",
            ok_r and ok_l,
            None if (ok_r and ok_l) else f"image {fmt_vector(img)}",
        ))
    bad = _nonmultiplicative_pair(a, ops, images)
    assertions.append(Assertion(
        "evaluation at the identity is multiplicative on basis pairs",
        bad is None,
        None if bad is None else f"operator pair {bad}",
    ))
    return tuple(assertions)


def verify_unital_center_correspondence(a: Algebra, w: Weights) -> Report:
    """On a unital algebra, evaluation at the identity is a multiplicative
    linear bijection from the weighted centralizers onto the center, and
    every centralizer is two-sided multiplication by its value there.
    """
    if identity(a) is None:
        return precondition_unmet("2.3", target_name(a), w.pair, "no two-sided identity")
    assertions = _center_correspondence(a, pq_centralizers(a, w))
    return report_from_assertions(
        "2.3", target_name(a), w.pair, assertions, f"center dim {center(a).dim}"
    )


# ---------------------------------------------------------------------------
# check id 3.1
# ---------------------------------------------------------------------------

# check 3.1 runs every (operator, sample) pair at every weight pair; what
# depends on less is cached on the algebra: the left ideal once per sample,
# the range and left-multiplication test once per operator, the four
# conditions once per (operator, sample), and whether the operator is a
# weighted centralizer once per weight pair and operator, so `residual` is
# asked once per operator and pair

@cached
def _left_ideal(a: Algebra, u) -> Optional[Subspace]:
    """The span of u*A, or None when u is not a right identity."""
    if right_mul_int(a, u) != _identity_operator(a.dim):
        return None
    return Subspace.span(a.dim, map(dict, left_mul_int(a, u).cols))


@cached
def _operator_range(a: Algebra, t: IntOperator) -> tuple[Subspace, bool]:
    """The range of T and whether T is a left multiplication."""
    return (Subspace.span(a.dim, map(dict, t.cols)),
            left_mul_space(a).contains_operator(t))


@cached
def _is_weighted_centralizer(a: Algebra, w: Weights, t: IntOperator) -> bool:
    return residual(a, t, weighted(w)) is None


@cached
def _range_conditions(a: Algebra, t: IntOperator, u
                      ) -> tuple[bool, bool, bool, bool]:
    """Conditions (a) to (d) of check 3.1 for T and the right identity u."""
    ran, cond_b = _operator_range(a, t)
    tu = apply_operator(t, u)
    return (subspace_contains(_left_ideal(a, u), ran), cond_b,
            left_mul_int(a, tu) == t, center(a).contains_vector(tu))


def verify_equivalent_range_conditions(a: Algebra, w: Weights,
                                       t: IntOperator, u) -> Report:
    """For a weighted centralizer T and right identity u, the four range
    conditions are an equivalence; all must carry one shared truth value:

      (a) range of T lies in u*A
      (b) T is left multiplication by some element
      (c) T is left multiplication by T(u)
      (d) T(u) is central
    """
    if _left_ideal(a, u) is None:
        return precondition_unmet(
            "3.1", target_name(a), w.pair, f"{fmt_vector(u)} is not a right identity"
        )
    if not _is_weighted_centralizer(a, w, t):
        return precondition_unmet(
            "3.1", target_name(a), w.pair, "operator is not a weighted centralizer"
        )
    cond_a, cond_b, cond_c, cond_d = _range_conditions(a, t, u)
    shared = len({cond_a, cond_b, cond_c, cond_d}) == 1
    detail = (
        f"range in u*A: {cond_a}; left multiplication: {cond_b}; "
        f"left multiplication by T(u): {cond_c}; T(u) central: {cond_d}"
    )
    assertions = [Assertion(
        "four range conditions share one truth value", shared,
        None if shared else detail,
    )]
    return report_from_assertions(
        "3.1", target_name(a), w.pair, assertions, detail
    )


def run_range_conditions_check(a: Algebra, w: Weights) -> Report:
    """Check id 3.1: the assertions of `verify_equivalent_range_conditions`
    for zero, identity and the solved basis at every sampled right
    identity, relabelled with the operator and the sample."""
    samples = right_identity_samples(a)
    if not samples:
        return precondition_unmet("3.1", target_name(a), w.pair, "no right identity")
    assertions = [
        Assertion(f"{label}, right identity sample {k}: {asrt.name}",
                  asrt.passed, asrt.witness)
        for label, t in _operator_candidates(a, pq_centralizers(a, w))
        for k, u in enumerate(samples)
        for asrt in verify_equivalent_range_conditions(a, w, t, u).assertions
    ]
    return report_from_assertions("3.1", target_name(a), w.pair, assertions)


# ---------------------------------------------------------------------------
# check id 3.2
# ---------------------------------------------------------------------------

@cached
def _square_zero_facts(a: Algebra, t: IntOperator
                       ) -> tuple[tuple[Assertion, ...], str]:
    """Check 3.2's assertions and note for the operator T, which read no
    weight: whether T.T = 0, the range span and its products, and for a
    square-zero T the nilpotency index of the range, its containment in
    the radical and the squares of the basis images."""
    n = a.dim
    # den^2 T(T(b_m)) = sum over the (k, v) of column m of v * den T(b_k)
    square_zero = not any(any(combine_columns(t.cols, col)) for col in t.cols)
    ran = Subspace.span(n, map(dict, t.cols))
    range_products = subspace_product(a, ran, ran)
    product_free = range_products.dim == 0

    assertions = []
    if right_identity_samples(a):
        assertions.append(Assertion(
            "square is zero iff all products of range elements vanish",
            square_zero == product_free,
            None if square_zero == product_free
            else f"square zero: {square_zero}, range product dim "
                 f"{range_products.dim}",
        ))
    note = f"square zero: {square_zero}; range dim {ran.dim}"
    if square_zero:
        assertions.append(Assertion(
            "square-zero operator has product-free range", product_free,
            None if product_free else f"range product dim {range_products.dim}",
        ))
        nilpotent, index = is_nilpotent_subspace(a, ran)
        ok_idx = nilpotent and index <= 2
        assertions.append(Assertion(
            "range is nilpotent with index at most 2", ok_idx,
            None if ok_idx else f"nilpotent: {nilpotent}, index: {index}",
        ))
        note += f"; range nilpotency index {index}"
        inside = subspace_contains(radical(a), ran)
        assertions.append(Assertion(
            "range lies inside the radical", inside,
            None if inside else f"range dim {ran.dim}, radical dim {radical(a).dim}",
        ))
        # T(b_i) is column i of t up to the positive factor t.den
        bad = next((i for i, col in enumerate(t.cols)
                    if any(int_multiply(a, col, col))), None)
        assertions.append(Assertion(
            "images of basis vectors square to zero", bad is None,
            None if bad is None else f"basis index {bad}",
        ))
    if not assertions:
        assertions.append(Assertion(
            "square-zero consequences are vacuous for this operator", True,
        ))
    return tuple(assertions), note


def verify_square_zero_iff_nilpotent_range(a: Algebra, w: Weights,
                                           t: IntOperator) -> Report:
    """T.T = 0 exactly when the range of T is nilpotent of index at most 2,
    i.e. all products of range elements vanish.

    The forward direction holds for any weighted centralizer: applying T to
    its own defining identity gives (p+q)^2 T(T(ab)) = 2pq T(a)T(b), so a
    square-zero T kills every product of range values. The converse needs a
    right identity, so it is only asserted when one exists. Nilpotency of
    the range with higher index is strictly weaker and not equivalent.
    A square-zero centralizer also has range inside the radical.

    Only the weighted-centralizer test reads the weights; the rest is
    `_square_zero_facts`, once per operator.
    """
    if residual(a, t, weighted(w)) is not None:
        return precondition_unmet(
            "3.2", target_name(a), w.pair, "operator is not a weighted centralizer"
        )
    assertions, note = _square_zero_facts(a, t)
    return report_from_assertions("3.2", target_name(a), w.pair, assertions, note)


def run_square_zero_check(a: Algebra, w: Weights) -> Report:
    assertions = []
    notes = []
    for label, t in _operator_candidates(a, pq_centralizers(a, w)):
        sub = verify_square_zero_iff_nilpotent_range(a, w, t)
        notes.append(f"{label}: {sub.note}")
        for asrt in sub.assertions:
            assertions.append(Assertion(
                f"{label}: {asrt.name}", asrt.passed, asrt.witness,
            ))
    return report_from_assertions(
        "3.2", target_name(a), w.pair, assertions, "; ".join(notes)
    )


# ---------------------------------------------------------------------------
# check id 5.1
# ---------------------------------------------------------------------------

def verify_commutative_weights_coincide(a: Algebra, w: Weights) -> Report:
    """On a commutative algebra the Jordan space equals the equal-weights
    space, and every weighted space with p != q equals the two-sided space;
    on a unital one the equal-weights space equals the two-sided space too.

    With ab = ba, T(a)b = bT(a) and aT(b) = T(b)a:
    - Jordan = (1,1): the polarized identity (p+q) T(ab+ba) = p T(a)b +
      p T(b)a + q aT(b) + q bT(a) becomes 2(p+q) T(ab) = (p+q)(T(a)b + aT(b)).
    - (p,q) = two-sided for p != q: subtracting the identity at (b, a) from
      the one at (a, b) leaves (p-q)(T(a)b - aT(b)) = 0, so T(a)b = aT(b)
      = T(ab); two-sided operators satisfy every weighted identity.
    - (1,1) = two-sided needs an identity: 2T(a) = 2T(a1) = T(a) + aT(1)
      gives T = L_{T(1)}. Without one it can fail: Q[S] for S = {0,1,2,3}
      with 0 absorbing, 2*3 = 3*2 = 1 and every other product 0 has (1,1)
      space of dimension 5 and two-sided space of dimension 4.
    """
    if not is_commutative(a):
        return precondition_unmet("5.1", target_name(a), w.pair, "algebra is not commutative")
    cts = two_sided_centralizers(a)
    cj = pq_jordan_centralizers(a, w)
    c11 = pq_centralizers(a, Weights(1, 1, allow_equal=True))
    assertions = [_spaces_equal("Jordan space equals equal-weights space", cj, c11)]
    note = f"common dimension {cts.dim}"
    if is_unital(a):
        assertions.append(_spaces_equal(
            "equal-weights space equals two-sided space", c11, cts))
    else:
        note += ("; equal-weights space not compared with the two-sided "
                 f"space: no identity (dims {c11.dim} and {cts.dim})")
    pairs = dict.fromkeys((w.pair,) + DEFAULT_WEIGHT_PAIRS)
    for p, q in pairs:
        assertions.append(_spaces_equal(
            f"({p},{q}) space equals two-sided space",
            pq_centralizers(a, Weights(p, q)), cts,
        ))
    return report_from_assertions("5.1", target_name(a), w.pair, assertions, note)


# ---------------------------------------------------------------------------
# check id 5.2
# ---------------------------------------------------------------------------

def _reconstruction_residual(a: Algebra, t: IntOperator, u
                             ) -> Optional[tuple[int, Vector]]:
    """The first basis index i with T(b_i) != (b_i - u b_i) T(u) + u T(b_i),
    with T(b_i) minus the right side there; None when there is none.

    Evaluated on the integer columns of t and the integer-scaled constants,
    times L = den * (d * scale)^2, d the lcm of the denominators of u:
    Fractions are made only for a witness.
    """
    n = a.dim
    d, us = clear_denominators(u)
    us = [(k, x) for k, x in enumerate(us) if x]
    ds = d * a.scale
    tu = combine_columns(t.cols, us)  # den d T(u)
    for i in range(n):
        ti = [0] * n  # den T(b_i)
        for k, v in t.cols[i]:
            ti[k] = v
        # ds (b_i - u b_i)
        v = [ds * (k == i) - x
             for k, x in enumerate(int_multiply(a, us, ((i, 1),)))]
        vt = int_multiply(a, enumerate(v), enumerate(tu))  # den ds^2 (b_i - u b_i) T(u)
        ut = int_multiply(a, us, t.cols[i])  # den ds u T(b_i)
        res = [ds * (ds * x - y) - z for x, y, z in zip(ti, ut, vt)]
        if any(res):
            return i, tuple(Fraction(r, t.den * ds * ds) for r in res)
    return None


def verify_jordan_reconstruction(a: Algebra, w: Weights) -> Report:
    """Every Jordan-centralizer value decomposes against a right identity:
    T(a) = (a - ua) T(u) + u T(a) for all basis a and sampled u."""
    samples = right_identity_samples(a)
    if not samples:
        return precondition_unmet("5.2", target_name(a), w.pair, "no right identity")
    cj = pq_jordan_centralizers(a, w)
    assertions = []
    for idx, t in enumerate(cj.int_operators):
        for k, u in enumerate(samples):
            bad = _reconstruction_residual(a, t, u)
            assertions.append(Assertion(
                f"basis operator {idx}, right identity sample {k}: "
                f"values split as (a - ua)T(u) + uT(a)",
                bad is None,
                None if bad is None
                else f"basis index {bad[0]}: residual {fmt_vector(bad[1])}",
            ))
    return report_from_assertions(
        "5.2", target_name(a), w.pair, assertions,
        f"Jordan dim {cj.dim}; {len(samples)} right identity samples",
    )


# ---------------------------------------------------------------------------
# check id 5.3
# ---------------------------------------------------------------------------

def _central_image_part(space: OperatorSpace, one: Vector, z: Subspace
                        ) -> Subspace:
    """The operators T in `space` with T(one) in z, as a subspace of
    n^2-space, solved in the space's own coordinates.

    With R_i the primitive rows of the space, sum_i y_i R_i(one) lies in z
    iff its remainder modulo z vanishes. The remainder is linear, so there
    is one row per coordinate r, entry i the r-th coordinate of the
    remainder of R_i(one), and the kernel in y is lifted onto the R_i.
    """
    _, ones = clear_denominators(one)
    images = [z.reduce_vector(combine_columns(t.cols, enumerate(ones)))
              for t in space.int_operators]
    rows = [[v[r] for v in images] for r in range(space.algebra_dim)]
    return lift(space.space, nullspace_of_rows(rows, space.dim))


def verify_central_image_implies_two_sided(a: Algebra, w: Weights) -> Report:
    """On a unital algebra, the Jordan centralizers whose value at the
    identity is central form a subspace contained in the two-sided space.

    The subspace is cut out exactly (the condition is linear in T), so this
    covers every such operator, not just basis members.
    """
    one = identity(a)
    if one is None:
        return precondition_unmet("5.3", target_name(a), w.pair, "no two-sided identity")
    cj = pq_jordan_centralizers(a, w)
    cts = two_sided_centralizers(a)
    central_part = _central_image_part(cj, one, center(a))

    contained = subspace_contains(cts.space, central_part)
    assertions = [Assertion(
        "Jordan centralizers with central image at the identity are two-sided",
        contained,
        None if contained
        else f"central part dim {central_part.dim}, two-sided dim {cts.dim}",
    )]
    sanity = subspace_contains(central_part, cts.space)
    assertions.append(Assertion(
        "two-sided centralizers all have central image at the identity",
        sanity,
        None if sanity else "a two-sided centralizer fell outside the cut",
    ))
    return report_from_assertions(
        "5.3", target_name(a), w.pair, assertions,
        f"Jordan dim {cj.dim}; central-image part dim {central_part.dim}; "
        f"two-sided dim {cts.dim}",
    )


# ---------------------------------------------------------------------------
# inclusion chain
# ---------------------------------------------------------------------------

def inclusion_chain_check(a: Algebra, w: Weights) -> Report:
    """Two-sided inside weighted inside weighted-Jordan, as solved spaces."""
    cts = two_sided_centralizers(a)
    cpq = pq_centralizers(a, w)
    cj = pq_jordan_centralizers(a, w)
    first = subspace_contains(cpq.space, cts.space)
    second = subspace_contains(cj.space, cpq.space)
    assertions = [
        Assertion(
            "two-sided space inside weighted space", first,
            None if first else f"dims {cts.dim} vs {cpq.dim}",
        ),
        Assertion(
            "weighted space inside Jordan space", second,
            None if second else f"dims {cpq.dim} vs {cj.dim}",
        ),
    ]
    return report_from_assertions(
        "chain", target_name(a), w.pair, assertions,
        f"dims {cts.dim} <= {cpq.dim} <= {cj.dim}",
    )


# check ids exposed through the command line; "4.2" targets Cayley tables
# and is dispatched separately
CHECK_IDS = {
    "2.1": verify_right_identity_collapse,
    "2.3": verify_unital_center_correspondence,
    "2.4": verify_bidual_extension,
    "3.1": run_range_conditions_check,
    "3.2": run_square_zero_check,
    "5.1": verify_commutative_weights_coincide,
    "5.2": verify_jordan_reconstruction,
    "5.3": verify_central_image_implies_two_sided,
    "chain": inclusion_chain_check,
}

CHECK_DESCRIPTIONS = {
    "2.1": "right identity collapses weighted centralizers to two-sided right multiplications",
    "2.3": "unital case: evaluation at the identity is a bijection onto the center",
    "2.4": "weighted centralizers extend to the bidual under its staged product",
    "3.1": "four range conditions are a single equivalence",
    "3.2": "square-zero centralizers are exactly those with nilpotent range",
    "4.2": "group algebras: weighted centralizers are right multiplications by class sums",
    "5.1": "commutative case: Jordan equals equal-weight, weighted equals two-sided (and equal-weight too when unital)",
    "5.2": "Jordan values split against a right identity",
    "5.3": "central image at the identity forces two-sidedness",
    "chain": "two-sided inside weighted inside Jordan",
}
