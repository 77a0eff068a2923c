"""Seeded inputs, fixed job lists and known-answer checks for each workload.

A workload is a class whose three steps run in one fresh interpreter per
pass:

    state = Workload(pqcent, seed, out_dir)  # build inputs (counted in setup_s)
    state.run()                              # the timed job list
    ops = state.check()                      # compare outputs with known answers

`check` returns one `Op(name, ok, detail)` per job and per comparison; a
job that raised is a failed operation. Expected values are closed forms
written here, not outputs of the code under test.

The structure constants of the inputs are written out in this file, so the
program sees only the generated tables and texts. The seed relabels the
basis (and the group elements) by a seeded permutation; seed 0 is the
identity relabelling, which reproduces the catalog algebras exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# structure constants, as sparse maps (i, j) -> {k: c}
# ---------------------------------------------------------------------------

def matrix_units(n: int) -> dict:
    """Full n x n matrices: E_rs E_tu = [s == t] E_ru, basis index r*n + s."""
    return {
        (r * n + s, s * n + u): {r * n + u: 1}
        for r in range(n) for s in range(n) for u in range(n)
    }


def truncated_poly(n: int) -> dict:
    """Q[x]/(x^n) on 1, x, ..., x^(n-1)."""
    return {(i, j): {i + j: 1} for i in range(n) for j in range(n) if i + j < n}


def first_column(n: int) -> dict:
    """f_i f_j = f_i when j = 0, else 0."""
    return {(i, 0): {i: 1} for i in range(n)}


def group_constants(table) -> dict:
    n = len(table)
    return {(i, j): {table[i][j]: 1} for i in range(n) for j in range(n)}


def cyclic_group(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_group(m: int) -> list:
    """Symmetries of the m-gon, order 2m: (r, s)(r', s') = (r + (-1)^s r', s + s')."""
    elems = [(r, s) for s in (0, 1) for r in range(m)]
    index = {e: i for i, e in enumerate(elems)}
    return [
        [index[((r + (r2 if s == 0 else -r2)) % m, s ^ s2)] for r2, s2 in elems]
        for r, s in elems
    ]


def s4_times_c2() -> list:
    """S4 x C2, order 48, with 10 conjugacy classes."""
    elems = [(p, c) for p in permutations(range(4)) for c in (0, 1)]
    index = {e: i for i, e in enumerate(elems)}
    return [
        [index[(tuple(p[x] for x in p2), c ^ c2)] for p2, c2 in elems]
        for p, c in elems
    ]


def relabel_constants(consts: dict, perm) -> dict:
    """Constants in the basis e'_i = e_perm[i]."""
    inv = {old: new for new, old in enumerate(perm)}
    return {
        (inv[i], inv[j]): {inv[k]: c for k, c in terms.items()}
        for (i, j), terms in consts.items()
    }


def relabel_group(table, perm) -> list:
    """Cayley table with element i renamed to the old element perm[i]."""
    inv = {old: new for new, old in enumerate(perm)}
    return [[inv[table[perm[i]][perm[j]]] for j in range(len(table))]
            for i in range(len(table))]


def relabel_vector(v, perm) -> tuple:
    return tuple(v[p] for p in perm)


def dense_table(n: int, consts: dict) -> list:
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in consts.items():
        for k, c in terms.items():
            table[i][j][k] = c
    return table


def fraction_table(n: int, consts: dict) -> tuple:
    """The exact table an Algebra built from `consts` must hold."""
    return tuple(
        tuple(tuple(Fraction(c) for c in row) for row in plane)
        for plane in dense_table(n, consts)
    )


def algebra_text(n: int, consts: dict) -> str:
    lines = [f"dim {n}"]
    for (i, j) in sorted(consts):
        body = " + ".join(f"{c} @{k}" for k, c in sorted(consts[(i, j)].items()))
        lines.append(f"mul {i} {j} = {body}")
    return "\n".join(lines) + "\n"


def cayley_text(table) -> str:
    rows = [" ".join(str(v) for v in row) for row in table]
    return "\n".join([f"order {len(table)}", *rows]) + "\n"


def seeded_perm(seed: int, label: str, n: int) -> list:
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}/{label}").shuffle(perm)
    return perm


def unit_vector(n: int, i: int) -> tuple:
    return tuple(Fraction(int(k == i)) for k in range(n))


def _guard(ops: list, name: str, fn):
    """Run one job; an exception becomes a failed operation."""
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - a failed job must not stop the pass
        ops.append(Op(name, False, f"{type(exc).__name__}: {exc}"))
        return None
    ops.append(Op(name, True))
    return result


def _expect(ops: list, name: str, got, want) -> None:
    ops.append(Op(name, got == want, "" if got == want else f"got {got}, want {want}"))


# ---------------------------------------------------------------------------
# suite: the user's check-the-paper workflow, through the CLI entry point
# ---------------------------------------------------------------------------

class Suite:
    def __init__(self, pq, seed: int, out_dir: str):
        self.pq, self.seed = pq, seed
        self.report_path = os.path.join(out_dir, f"suite-report-{os.getpid()}.json")
        self.ops: list[Op] = []
        self.exit_code = None
        self.report_sha = None
        # the catalog and group tables are built once per process and shared
        pq.fixtures()
        pq.group_tables()

    def run(self) -> None:
        from pqcent.cli import main
        argv = ["suite", "--seed", str(self.seed), "--report", self.report_path]
        self.exit_code = _guard(self.ops, "suite", lambda: main(argv))

    def check(self) -> list[Op]:
        ops = self.ops
        if self.exit_code is None:
            return ops
        _expect(ops, "suite exit code", self.exit_code, 0)
        with open(self.report_path, "rb") as handle:
            raw = handle.read()
        os.remove(self.report_path)
        self.report_sha = hashlib.sha256(raw).hexdigest()
        for rep in json.loads(raw)["checks"]:
            ok = rep["status"] != "FAIL"
            ops.append(Op(f"{rep['check_id']} {rep['target']} {rep['weights']}",
                          ok, "" if ok else "FAIL report"))
        return ops


# ---------------------------------------------------------------------------
# solve_ladder: n^2-unknown solves, nothing reused between jobs
# ---------------------------------------------------------------------------

KINDS = ("weighted", "jordan", "two_sided")


def ladder_inputs() -> tuple:
    """(name, dim, constants, expected dimension, solves to run).

    Closed forms: the central simple matrix algebras and the first-column
    algebra have only scalar centralizers (dim 1); on the commutative unital
    algebras every space is the multiplication operators (dim n); on a group
    algebra the weighted space has the class count as dimension (D8: 7).
    """
    return (
        ("matrix3", 9, matrix_units(3), 1, KINDS),
        ("matrix4", 16, matrix_units(4), 1, KINDS),
        ("trunc_poly12", 12, truncated_poly(12), 12, KINDS),
        ("c12", 12, group_constants(cyclic_group(12)), 12, KINDS),
        ("colmat8", 8, first_column(8), 1, KINDS),
        ("d8", 16, group_constants(dihedral_group(8)), 7, ("weighted",)),
    )


class SolveLadder:
    def __init__(self, pq, seed: int, out_dir: str):
        self.pq = pq
        self.w = pq.Weights(1, 2)
        self.algebras = []
        for name, n, consts, want, kinds in ladder_inputs():
            perm = seeded_perm(seed, name, n)
            table = dense_table(n, relabel_constants(consts, perm))
            a = pq.make_algebra(n, table, name=name)
            self.algebras.append((name, a, want, kinds))
        self.ops: list[Op] = []
        self.spaces: dict = {}

    def run(self) -> None:
        pq, w, ops = self.pq, self.w, self.ops
        solvers = {"weighted": lambda a: pq.pq_centralizers(a, w),
                   "jordan": lambda a: pq.pq_jordan_centralizers(a, w),
                   "two_sided": pq.two_sided_centralizers}
        for name, a, _, kinds in self.algebras:
            for kind in kinds:
                self.spaces[name, kind] = _guard(
                    ops, f"{name} {kind}", lambda: solvers[kind](a))

    def check(self) -> list[Op]:
        from pqcent.linalg import subspace_contains
        ops = self.ops
        for name, _, want, kinds in self.algebras:
            solved = {kind: self.spaces[name, kind] for kind in kinds
                      if self.spaces[name, kind] is not None}
            for kind, space in solved.items():
                _expect(ops, f"{name} {kind} dim", space.dim, want)
            if len(solved) == 3:
                chain = (subspace_contains(solved["weighted"].space,
                                           solved["two_sided"].space)
                         and subspace_contains(solved["jordan"].space,
                                               solved["weighted"].space))
                _expect(ops, f"{name} two-sided <= weighted <= jordan", chain, True)
        return ops


# ---------------------------------------------------------------------------
# structure: text formats and structure theory, no n^2-unknown solve
# ---------------------------------------------------------------------------

class Structure:
    def __init__(self, pq, seed: int, out_dir: str):
        self.pq = pq
        self.ops: list[Op] = []
        self.results: dict = {}
        perm = seeded_perm(seed, "s4xc2", 48)
        self.group = relabel_group(s4_times_c2(), perm)
        self.group_text = cayley_text(self.group)
        # the identity of S4 x C2 is old element 0 (identity permutation, c = 0)
        self.group_identity = unit_vector(48, perm.index(0))
        # (name, n, constants, identity, center dim, radical dim): Q[x]/(x^n)
        # is commutative with radical (x); M_6 is central simple
        self.inputs = []
        for name, n, consts, unit, center, radical in (
            ("trunc_poly48", 48, truncated_poly(48), unit_vector(48, 0), 48, 47),
            ("matrix6", 36, matrix_units(6),
             tuple(Fraction(int(i // 6 == i % 6)) for i in range(36)), 1, 0),
        ):
            perm = seeded_perm(seed, name, n)
            consts = relabel_constants(consts, perm)
            self.inputs.append((name, n, consts, relabel_vector(unit, perm),
                                center, radical))
        self.texts = {name: algebra_text(n, consts)
                      for name, n, consts, *_ in self.inputs}

    def _analyse(self, name: str, a) -> None:
        pq, ops, out = self.pq, self.ops, self.results
        text = _guard(ops, f"{name} serialize", lambda: pq.serialize_algebra(a))
        if text is not None:
            out[name, "reparsed"] = _guard(
                ops, f"{name} reparse", lambda: pq.parse_algebra_text(text))
        for key, fn in (("center", pq.center), ("radical", pq.radical),
                        ("right_identities", pq.right_identities),
                        ("identity", pq.identity)):
            out[name, key] = _guard(ops, f"{name} {key}", lambda: fn(a))

    def run(self) -> None:
        pq, ops, out = self.pq, self.ops, self.results
        t = _guard(ops, "group parse", lambda: pq.parse_cayley_text(self.group_text))
        if t is not None:
            out["validate"] = _guard(ops, "group validate", lambda: pq.validate_group(t))
            out["classes"] = _guard(ops, "group classes",
                                    lambda: pq.conjugacy_classes(t))
            out["group", "algebra"] = _guard(ops, "group algebra",
                                             lambda: pq.group_algebra(t))
            if out["group", "algebra"] is not None:
                self._analyse("group", out["group", "algebra"])
        for name, text in self.texts.items():
            out[name, "algebra"] = _guard(
                ops, f"{name} parse", lambda: pq.parse_algebra_text(text))
            if out[name, "algebra"] is not None:
                self._analyse(name, out[name, "algebra"])

    def _check_algebra(self, name: str, table, unit, center: int,
                       radical: int) -> None:
        ops = self.ops
        got = {key: self.results.get((name, key)) for key in (
            "algebra", "reparsed", "center", "radical", "right_identities",
            "identity")}
        if got["algebra"] is None:
            return
        _expect(ops, f"{name} table", got["algebra"].table == table, True)
        if got["reparsed"] is not None:
            _expect(ops, f"{name} parse(serialize(a)) table",
                    got["reparsed"].table == table, True)
        if got["center"] is not None:
            _expect(ops, f"{name} center dim", got["center"].dim, center)
        if got["radical"] is not None:
            _expect(ops, f"{name} radical dim", got["radical"].dim, radical)
        found = got["right_identities"]
        _expect(ops, f"{name} right identities",
                None if found is None else (found[0], found[1].dim), (unit, 0))
        _expect(ops, f"{name} identity", got["identity"], unit)

    def check(self) -> list[Op]:
        ops, out = self.ops, self.results
        if out.get("validate") is not None:
            _expect(ops, "group axioms hold", out["validate"].passed, True)
        if out.get("classes") is not None:
            # S4 has class sizes 1, 3, 6, 6, 8; each appears twice in S4 x C2
            sizes = sorted(len(c) for c in out["classes"])
            _expect(ops, "group class sizes", sizes, [1, 1, 3, 3, 6, 6, 6, 6, 8, 8])
        # a group algebra's center has the class count (10) as dimension,
        # and it is semisimple over Q (Maschke)
        self._check_algebra("group", fraction_table(48, group_constants(self.group)),
                            self.group_identity, 10, 0)
        for name, n, consts, unit, center, radical in self.inputs:
            self._check_algebra(name, fraction_table(n, consts), unit, center, radical)
        return ops


WORKLOADS = {"suite": Suite, "solve_ladder": SolveLadder, "structure": Structure}
