"""Command-line front end.

Every solver and check is reachable as a subcommand. Algebra arguments
accept a file path or a fixture name; group arguments accept a Cayley
table file or a named table. Exit codes: 0 success, 1 a check failed,
2 usage or input errors. Setting PQCENT_VERBOSE=1 expands report output;
it changes verbosity only, never results.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from typing import Optional

from .algebras import (
    NonAssociativeError,
    center,
    radical,
    right_identities,
)
from .centralizers import (
    Weights,
    left_centralizers,
    pq_centralizers,
    pq_jordan_centralizers,
    right_centralizers,
    two_sided_centralizers,
)
from .fileio import (
    AlgebraFormatError,
    CayleyFormatError,
    open_path,
    parse_algebra_file,
    parse_cayley_file,
    serialize_algebra,
)
from .fixtures import fixtures
from .groups import (
    conjugacy_classes,
    group_algebra,
    group_tables,
    validate_group,
    verify_group_centralizer_structure,
)
from .reports import FAIL, Report, fmt_vector
from .suite import run_suite
from .verify import CHECK_DESCRIPTIONS, CHECK_IDS

class CliError(Exception):
    """Input error reported to stderr with exit code 2."""


def _verbose() -> bool:
    return os.environ.get("PQCENT_VERBOSE", "").lower() in ("1", "true", "yes")


def _load(target: str, named, parse, errors, noun: str):
    """The entry `target` of the table that `named()` returns, or else the
    file at that path read by `parse`, whose `errors` exit with code 2.
    A path that cannot be read raises an OSError naming it, which `main`
    reports with the same code."""
    table = named()
    if target in table:
        return table[target]
    if not os.path.exists(target):
        raise CliError(f"unknown {noun} name and unreadable file: '{target}'")
    try:
        return parse(target)
    except errors as exc:
        raise CliError(f"{target}: {exc}") from None


_load_algebra = partial(_load, named=fixtures, parse=parse_algebra_file,
                        errors=(AlgebraFormatError, NonAssociativeError),
                        noun="fixture")
_load_cayley = partial(_load, named=group_tables, parse=parse_cayley_file,
                       errors=CayleyFormatError, noun="group")


def _weights(args) -> Weights:
    if args.p is None or args.q is None:
        raise CliError("this command needs both --p and --q")
    allow_equal = getattr(args, "allow_equal_pq", False)
    if args.p == args.q and not allow_equal:
        raise CliError("weights must be distinct; pass --allow-equal-pq "
                       "to permit p = q")
    try:
        return Weights(args.p, args.q, allow_equal=allow_equal)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _print_subspace(space, label: str) -> None:
    print(f"{label}: dimension {space.dim}")
    for v in space.basis:
        print(f"  {fmt_vector(v)}")


def _print_report(report: Report) -> int:
    for line in report.lines(verbose=_verbose()):
        print(line)
    return 1 if report.status == FAIL else 0


def _cmd_check(args) -> int:
    a = _load_algebra(args.file)
    print(f"ok: associative algebra of dimension {a.dim}"
          + (f" ({a.name})" if a.name else ""))
    return 0


def _cmd_center(args) -> int:
    a = _load_algebra(args.file)
    _print_subspace(center(a), "center")
    return 0


def _cmd_radical(args) -> int:
    a = _load_algebra(args.file)
    _print_subspace(radical(a), "radical")
    return 0


def _cmd_right_identities(args) -> int:
    a = _load_algebra(args.file)
    found = right_identities(a)
    if found is None:
        print("no right identity")
        return 0
    particular, homogeneous = found
    print(f"right identities: {fmt_vector(particular)} + <homogeneous>")
    _print_subspace(homogeneous, "homogeneous part")
    return 0


def _cmd_centralizers(args) -> int:
    a = _load_algebra(args.file)
    if args.left:
        space, label = left_centralizers(a), "left centralizers"
    elif args.right:
        space, label = right_centralizers(a), "right centralizers"
    elif args.two_sided:
        space, label = two_sided_centralizers(a), "two-sided centralizers"
    elif args.jordan:
        w = _weights(args)
        space = pq_jordan_centralizers(a, w)
        label = f"({w.p},{w.q}) Jordan centralizers"
    else:
        w = _weights(args)
        space = pq_centralizers(a, w)
        label = f"({w.p},{w.q}) centralizers"
    print(f"{label}: dimension {space.dim}")
    for idx, t in enumerate(space.int_operators):
        print(f"operator {idx}:")
        # row k holds the b_k coordinates of T(b_0), ..., T(b_{n-1})
        rows = [[0] * a.dim for _ in range(a.dim)]
        for m, col in enumerate(t.cols):
            for k, v in col:
                rows[k][m] = Fraction(v, t.den)
        for row in rows:
            print("  [" + ", ".join(map(str, row)) + "]")
    return 0


def _cmd_group(args) -> int:
    t = _load_cayley(args.file)
    report = validate_group(t)
    code = _print_report(report)
    if code == 0:
        classes = conjugacy_classes(t)
        print(f"conjugacy classes: {len(classes)}")
        if args.emit_algebra:
            with open_path(args.emit_algebra, "w") as handle:
                handle.write(serialize_algebra(group_algebra(t)))
            print(f"wrote algebra to {args.emit_algebra}")
    elif args.emit_algebra:
        print("not a group; no algebra written", file=sys.stderr)
    return code


def _cmd_verify(args) -> int:
    w = _weights(args)
    if args.theorem == "4.2":
        t = _load_cayley(args.target)
        return _print_report(verify_group_centralizer_structure(t, w))
    a = _load_algebra(args.target)
    return _print_report(CHECK_IDS[args.theorem](a, w))


def _cmd_suite(args) -> int:
    # the report path is opened first, so one that cannot be written
    # fails before the suite runs
    target = open_path(args.report, "w") if args.report else nullcontext()
    with target as handle:
        report = run_suite(seed=args.seed)
        for line in report.text_lines(verbose=_verbose()):
            print(line)
        if handle:
            handle.write(report.to_json())
    if handle:
        print(f"wrote report to {args.report}")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqcent",
        description="exact weighted-centralizer computations on "
                    "finite-dimensional rational algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="algebra file or fixture name")
        p.set_defaults(func=func)
        return p

    algebra_cmd("check", _cmd_check,
                "parse an algebra file and validate associativity")
    algebra_cmd("center", _cmd_center, "print a basis of the center")
    algebra_cmd("radical", _cmd_radical, "print a basis of the radical")
    algebra_cmd("right-identities", _cmd_right_identities,
                "print the affine family of right identities")

    p = algebra_cmd("centralizers", _cmd_centralizers,
                    "solve for a centralizer space")
    p.add_argument("--p", type=int, default=None, help="first weight")
    p.add_argument("--q", type=int, default=None, help="second weight")
    variant = p.add_mutually_exclusive_group()
    variant.add_argument("--jordan", action="store_true",
                         help="weighted Jordan variant")
    variant.add_argument("--left", action="store_true",
                         help="left centralizers (no weights)")
    variant.add_argument("--right", action="store_true",
                         help="right centralizers (no weights)")
    variant.add_argument("--two-sided", action="store_true",
                         help="two-sided centralizers (no weights)")
    p.add_argument("--allow-equal-pq", action="store_true",
                   help="permit p = q")

    p = sub.add_parser("group", help="validate a Cayley table")
    p.add_argument("file", help="Cayley table file or group name")
    p.add_argument("--emit-algebra", metavar="OUT", default=None,
                   help="write the rational group algebra to OUT")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser(
        "verify",
        help="run one structural check",
        description="check ids: " + "; ".join(
            f"{cid}: {text}" for cid, text in CHECK_DESCRIPTIONS.items()),
    )
    p.add_argument("target", help="algebra file, fixture, or group name")
    p.add_argument("--theorem", required=True,
                   choices=list(CHECK_DESCRIPTIONS), help="check id")
    p.add_argument("--p", type=int, default=None, help="first weight")
    p.add_argument("--q", type=int, default=None, help="second weight")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="run the full check suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized targets")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the structured report to PATH")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
