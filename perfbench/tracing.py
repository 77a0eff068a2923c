"""Spans around pqcent's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
pqcent module namespace (and module-level dict, such as the check-id table)
that bound it, because `from .x import y` copies the binding into each
importing module. `Subspace.span` and `RunReport.to_json` are patched on
their classes. Per-element helpers such as `multiply` and `apply_matrix`
are left alone: a wrapper would cost more than they do.

A span is `[name, parent index, start, end]`, kept in memory in start order,
so the spans after index i and started before span i ended are exactly its
descendants. `layer_metrics()` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SOLVERS = {
    "pq_centralizers": "centralizers.pq",
    "pq_jordan_centralizers": "centralizers.jordan",
    "two_sided_centralizers": "centralizers.two_sided",
    "left_centralizers": "centralizers.left",
    "right_centralizers": "centralizers.right",
}
NULLSPACE = "linalg.nullspace_of_rows"

# (module, attribute, span name) for plain functions
FUNCTIONS = (
    *(("centralizers", attr, name) for attr, name in SOLVERS.items()),
    ("linalg", "nullspace_of_rows", NULLSPACE),
    ("linalg", "subspace_intersect", "linalg.subspace_intersect"),
    ("linalg", "solve_affine_rows", "linalg.solve_affine_rows"),
    ("algebras", "make_algebra", "algebras.make_algebra"),
    ("algebras", "center", "algebras.center"),
    ("algebras", "radical", "algebras.radical"),
    ("algebras", "right_identities", "algebras.right_identities"),
    ("algebras", "identity", "algebras.identity"),
    ("fileio", "parse_algebra_text", "fileio.parse_algebra_text"),
    ("fileio", "parse_cayley_text", "fileio.parse_cayley_text"),
    ("fileio", "serialize_algebra", "fileio.serialize_algebra"),
    ("groups", "validate_group", "groups.validate_group"),
    ("groups", "group_algebra", "groups.group_algebra"),
    ("groups", "conjugacy_classes", "groups.conjugacy_classes"),
    ("groups", "verify_group_centralizer_structure", "groups.check-4.2"),
    ("arens", "arens_basis_products", "arens.basis_products"),
    ("arens", "verify_bidual_extension", "arens.check-2.4"),
    ("suite", "run_suite", "suite.run_suite"),
)
# (module, class, method, span name) for methods patched on the class
METHODS = (
    ("linalg", "Subspace", "span", "linalg.span"),
    ("suite", "RunReport", "to_json", "reports.to_json"),
)
# check ids of the `verify.CHECK_IDS` table; 2.4 is traced as arens.check-2.4
VERIFY_IDS = ("2.1", "2.3", "3.1", "3.2", "5.1", "5.2", "5.3", "chain")

SELF = ("arens.check-2.4", *(f"verify.check-{cid}" for cid in VERIFY_IDS))
# every other traced function reports its inclusive time
INCLUSIVE = tuple(name for *_, name in (*FUNCTIONS, *METHODS) if name not in SELF)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [("centralizers.s", "s"), ("centralizers.rowgen.self_s", "s")]
    out += [(f"{n}.s", "s") for n in INCLUSIVE]
    out += [(f"{n}.self_s", "s") for n in SELF]
    out += [(f"verify.check-{cid}.calls", "count") for cid in VERIFY_IDS]
    out += [("centralizers.calls", "count"), ("centralizers.solves", "count"),
            ("centralizers.reuse_ratio", "ratio"),
            ("centralizers.unknowns", "count"), ("centralizers.rows", "count"),
            ("centralizers.nullity", "count"),
            ("centralizers.max_coeff_bits", "bits"), ("linalg.calls", "count"),
            ("trace.spans", "count")]
    return out


def _max_bits(result) -> int:
    basis = getattr(getattr(result, "space", None), "basis", ())
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for v in basis for x in v if x), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []
        # a solve is a solver call under which the elimination core ran; its
        # sizes are taken where the solver hands its rows to linalg
        self.solves = self.unknowns = self.rows = self.nullity = 0
        self.max_bits = 0

    def _wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def _after_solver(self, idx, args, result) -> None:
        # every span after idx started while this call was open
        spans = self.spans
        if any(spans[k][0] == NULLSPACE for k in range(idx + 1, len(spans))):
            self.solves += 1
            self.max_bits = max(self.max_bits, _max_bits(result))

    def _after_nullspace(self, idx, args, result) -> None:
        parent = self.spans[idx][1]
        if parent >= 0 and self.spans[parent][0] in SOLVERS.values():
            rows = args[0] if args else None
            self.rows += len(rows) if hasattr(rows, "__len__") else 0
            self.unknowns += result.ambient_dim
            self.nullity += result.dim

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "pqcent" or key.startswith("pqcent.")]
        after = {NULLSPACE: self._after_nullspace,
                 **{n: self._after_solver for n in SOLVERS.values()}}
        targets = []
        for mod, attr, name in FUNCTIONS:
            fn = getattr(sys.modules.get(f"pqcent.{mod}"), attr, None)
            targets.append((name, fn, f"{mod}.{attr}"))
        checks = getattr(sys.modules.get("pqcent.verify"), "CHECK_IDS", {})
        for cid in VERIFY_IDS:
            targets.append((f"verify.check-{cid}", checks.get(cid),
                            f"verify.CHECK_IDS[{cid}]"))
        for name, fn, where in targets:
            if fn is None:
                self.missing.append(where)
                continue
            _rebind(modules, fn, self._wrap(name, fn, after.get(name)))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules.get(f"pqcent.{mod}"), cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(name, raw))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": i, "name": name, "parent": parent,
                     "start": start, "end": end}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures from the spans recorded so far."""
        spans = self.spans
        solver_names = set(SOLVERS.values())
        dur = [end - start for _, _, start, end in spans]
        child = [0.0] * len(spans)
        for i, (_, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        outer_solver = rowgen = 0.0
        for i, (name, parent, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + dur[i] - child[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][1]
            # a name nested in itself is counted once, at its outermost span
            if name not in ancestors:
                inclusive[name] = inclusive.get(name, 0.0) + dur[i]
            if name in solver_names:
                rowgen += dur[i] - child[i]
                if not solver_names.intersection(ancestors):
                    outer_solver += dur[i]
        solver_calls = sum(calls.get(n, 0) for n in solver_names)
        out = {"centralizers.s": outer_solver, "centralizers.rowgen.self_s": rowgen}
        out.update({f"{n}.s": inclusive.get(n, 0.0) for n in INCLUSIVE})
        out.update({f"{n}.self_s": self_time.get(n, 0.0) for n in SELF})
        out.update({f"verify.check-{cid}.calls": calls.get(f"verify.check-{cid}", 0)
                    for cid in VERIFY_IDS})
        out.update({
            "centralizers.calls": solver_calls,
            "centralizers.solves": self.solves,
            "centralizers.reuse_ratio":
                1.0 - self.solves / solver_calls if solver_calls else 0.0,
            "centralizers.unknowns": self.unknowns,
            "centralizers.rows": self.rows,
            "centralizers.nullity": self.nullity,
            "centralizers.max_coeff_bits": self.max_bits,
            "linalg.calls": sum(c for n, c in calls.items()
                                if n.startswith("linalg.")),
            "trace.spans": len(spans),
        })
        return out


def _rebind(modules, fn, wrapper) -> None:
    """Point every module-level binding of `fn` (and dict value) at `wrapper`."""
    for mod in modules:
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is fn:
                namespace[key] = wrapper
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if v is fn:
                        value[k] = wrapper
