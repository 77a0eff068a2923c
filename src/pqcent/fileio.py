"""Line-oriented on-disk formats for algebras and Cayley tables.

Algebra format (sparse, diff-friendly):

    # optional comments anywhere
    dim 3
    mul 0 0 = 1 @0
    mul 0 1 = 1/2 @1 + -3 @2

`mul i j = ...` gives the structure constants of b_i * b_j; omitted pairs
multiply to zero. Coefficients are rationals written `a` or `a/b`, each an
optionally signed run of decimal digits.

Cayley format: a line `order n` followed by n rows of n 0-based indices.
Both headers accept 1 <= n <= MAX_DIM.
Parsing checks syntax and index ranges only; the group axioms are the job
of `groups.validate_group`.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

from .algebras import Algebra, algebra_from_terms
from .groups import CayleyTable, cayley_table

# Largest `dim` or `order` a header may ask for. Work grows as n^2 products
# and an associativity scan of n^2 |S| triples for a generating set S (n^3
# when a failure must be located), so a huge header would hang or exhaust
# memory; 256 is twice the order-120 group algebra the solvers aim at. One
# value serves every caller, so it is a constant rather than an option.
MAX_DIM = 256


class AlgebraFormatError(ValueError):
    """Syntax or range error in the algebra file format, with line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CayleyFormatError(ValueError):
    """Syntax or range error in the Cayley table format, with line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _significant_lines(text: str):
    """(line number, stripped text) of each non-blank line outside comments.
    Lines end at '\n' only, as in the line of an undecodable byte; other
    Unicode line breaks are whitespace inside a line."""
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# a coefficient is an optionally signed decimal integer or fraction, in
# ASCII digits; anything else (decimals, exponents, '_') is rejected before
# int() sees it, so no token can ask for an unbounded computation
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(token: str, lineno: int):
    """The int or Fraction that `token` writes as `a` or `a/b`."""
    try:
        if not _RATIONAL.fullmatch(token):
            raise ValueError(token)
        num, _, den = token.partition("/")
        return Fraction(int(num), int(den)) if den else int(num)
    except (ValueError, ZeroDivisionError):
        raise AlgebraFormatError(lineno, f"invalid rational '{token}'") from None


def parse_algebra_text(text: str, name: str = "") -> Algebra:
    """Parse the algebra format; associativity is validated on construction."""
    dim = None
    terms: dict[tuple[int, int], list] = {}
    for lineno, line in _significant_lines(text):
        tokens = line.split()
        if dim is None:
            if len(tokens) != 2 or tokens[0] != "dim":
                raise AlgebraFormatError(lineno, "expected 'dim <n>' first")
            try:
                dim = int(tokens[1])
            except ValueError:
                raise AlgebraFormatError(
                    lineno, f"invalid dimension '{tokens[1]}'") from None
            if not 1 <= dim <= MAX_DIM:
                raise AlgebraFormatError(
                    lineno, f"dimension must be between 1 and {MAX_DIM}")
            continue
        if tokens[0] != "mul":
            raise AlgebraFormatError(lineno, f"expected 'mul', got '{tokens[0]}'")
        if len(tokens) < 6 or tokens[3] != "=":
            raise AlgebraFormatError(lineno, "expected 'mul i j = c @k [+ ...]'")
        i = _parse_index(tokens[1], dim, lineno)
        j = _parse_index(tokens[2], dim, lineno)
        if (i, j) in terms:
            raise AlgebraFormatError(lineno, f"duplicate product {i} {j}")
        pairs = terms[i, j] = []
        rest = tokens[4:]
        pos = 0
        while True:
            if pos + 1 >= len(rest):
                raise AlgebraFormatError(lineno, "expected '<coeff> @<index>'")
            coeff = _parse_rational(rest[pos], lineno)
            target = rest[pos + 1]
            if not target.startswith("@"):
                raise AlgebraFormatError(
                    lineno, f"expected '@<index>', got '{target}'")
            k = _parse_index(target[1:], dim, lineno)
            pairs.append((k, coeff))
            pos += 2
            if pos == len(rest):
                break
            if rest[pos] != "+":
                raise AlgebraFormatError(
                    lineno, f"expected '+' between terms, got '{rest[pos]}'")
            pos += 1
    if dim is None:
        raise AlgebraFormatError(1, "missing 'dim' line")
    return algebra_from_terms(dim, terms, name=name)


def _parse_index(token: str, dim: int, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise AlgebraFormatError(lineno, f"invalid index '{token}'") from None
    if not 0 <= value < dim:
        raise AlgebraFormatError(
            lineno, f"index {value} out of range for dimension {dim}")
    return value


def _parse_file(path: str, parse, error: type):
    """parse(text, name=<file stem>) on the file's UTF-8 text; an undecodable
    byte raises `error` at its line."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(raw.count(b"\n", 0, exc.start) + 1,
                    f"invalid UTF-8 byte 0x{raw[exc.start]:02x}") from None
    return parse(text, name=os.path.splitext(os.path.basename(path))[0])


def parse_algebra_file(path: str) -> Algebra:
    return _parse_file(path, parse_algebra_text, AlgebraFormatError)


def serialize_algebra(a: Algebra) -> str:
    """Emit the sparse format; reparsing restores the structure constants."""
    lines = []
    if a.name:
        lines.append(f"# {a.name}")
    lines.append(f"dim {a.dim}")
    for i in range(a.dim):
        for j in range(a.dim):
            terms = a.products[i][j]
            if terms:
                body = " + ".join(f"{c} @{k}" for k, c in terms)
                lines.append(f"mul {i} {j} = {body}")
    return "\n".join(lines) + "\n"


def parse_cayley_text(text: str, name: str = "") -> CayleyTable:
    order = header = None
    rows: list[list[int]] = []
    for lineno, line in _significant_lines(text):
        tokens = line.split()
        if order is None:
            if len(tokens) != 2 or tokens[0] != "order":
                raise CayleyFormatError(lineno, "expected 'order <n>' first")
            try:
                order = int(tokens[1])
            except ValueError:
                raise CayleyFormatError(
                    lineno, f"invalid order '{tokens[1]}'") from None
            if not 1 <= order <= MAX_DIM:
                raise CayleyFormatError(
                    lineno, f"order must be between 1 and {MAX_DIM}")
            header = lineno
            continue
        if len(rows) == order:
            raise CayleyFormatError(lineno, f"more than {order} rows")
        if len(tokens) != order:
            raise CayleyFormatError(
                lineno, f"expected {order} entries, got {len(tokens)}")
        row = []
        for token in tokens:
            try:
                value = int(token)
            except ValueError:
                raise CayleyFormatError(
                    lineno, f"invalid entry '{token}'") from None
            if not 0 <= value < order:
                raise CayleyFormatError(
                    lineno, f"entry {value} out of range for order {order}")
            row.append(value)
        rows.append(row)
    if order is None:
        raise CayleyFormatError(1, "missing 'order' line")
    if len(rows) != order:
        raise CayleyFormatError(
            header, f"expected {order} rows, got {len(rows)}")
    return cayley_table(rows, name=name)


def parse_cayley_file(path: str) -> CayleyTable:
    return _parse_file(path, parse_cayley_text, CayleyFormatError)


def serialize_cayley(t: CayleyTable) -> str:
    lines = []
    if t.name:
        lines.append(f"# {t.name}")
    lines.append(f"order {t.order}")
    lines.extend(" ".join(str(v) for v in row) for row in t.table)
    return "\n".join(lines) + "\n"


def sniff_is_cayley(text: str) -> bool:
    """True when the first significant line is an 'order' header."""
    for _, line in _significant_lines(text):
        return line.split()[0] == "order"
    return False
