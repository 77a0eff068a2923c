"""Line-oriented on-disk formats for algebras and Cayley tables.

Algebra format (sparse, diff-friendly):

    # optional comments anywhere
    dim 3
    mul 0 0 = 1 @0
    mul 0 1 = 1/2 @1 + -3 @2

`mul i j = ...` gives the structure constants of b_i * b_j; omitted pairs
multiply to zero. Coefficients are rationals written `a` or `a/b`, each an
optionally signed run of ASCII digits.

Cayley format: a line `order n` followed by n rows of n 0-based indices.
Both headers accept 1 <= n <= MAX_DIM. Sizes, indices and table entries
are unsigned runs of ASCII digits. A file may start with a UTF-8
byte-order mark, which is ignored.
Parsing checks syntax and index ranges only; the group axioms are the job
of `groups.validate_group`.
"""

from __future__ import annotations

import codecs
import os
import re
from fractions import Fraction

from .algebras import Algebra, algebra_from_terms
from .groups import CayleyTable, cayley_table

# Largest `dim` or `order` a header may ask for. Work grows as n^2 products
# and an associativity scan of n |S| rows of n products for a generating
# set S (n^2 rows when a failure must be located), so a huge header would
# hang or exhaust memory; 256 is twice the order-120 group algebra the
# solvers aim at. At 256 the worst rejection, a table whose first failing
# triple is (255, 0, 0), takes 0.5-0.8 s of CPU on a shared 2-vCPU Xeon
# guest. One value serves every caller, so it is a constant rather than an
# option.
MAX_DIM = 256


class _FormatError(ValueError):
    """Syntax or range error in a file format, with line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class AlgebraFormatError(_FormatError):
    """Syntax or range error in the algebra file format, with line number."""


class CayleyFormatError(_FormatError):
    """Syntax or range error in the Cayley table format, with line number."""


def _significant_lines(text: str):
    """(line number, stripped text) of each non-blank line outside comments.
    Lines end at '\n' only, as in the line of an undecodable byte; other
    Unicode line breaks are whitespace inside a line."""
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_int(token: str, what: str, lineno: int, error: type,
              size: int = 0, noun: str = "") -> int:
    """The value of `token`, a run of ASCII digits, checked to be below
    `size` (the `noun` of the file) when one is given. int() alone would
    also read signs, '_' and every Unicode digit."""
    try:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(token)
        value = int(token)  # beyond the int-string limit: ValueError
    except ValueError:
        raise error(lineno, f"invalid {what} '{token}'") from None
    if size and value >= size:
        raise error(lineno, f"{what} {value} out of range for {noun} {size}")
    return value


def _read_header(lines, word: str, noun: str, error: type) -> tuple[int, int]:
    """(line number, n) of the `word n` line that must come first in
    `lines`, an iterator of significant lines."""
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 2 or tokens[0] != word:
            raise error(lineno, f"expected '{word} <n>' first")
        n = _read_int(tokens[1], noun, lineno, error)
        if not 1 <= n <= MAX_DIM:
            raise error(lineno, f"{noun} must be between 1 and {MAX_DIM}")
        return lineno, n
    raise error(1, f"missing '{word}' line")


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
    error = AlgebraFormatError
    lines = _significant_lines(text)
    _, dim = _read_header(lines, "dim", "dimension", error)
    terms: dict[tuple[int, int], list] = {}
    for lineno, line in lines:
        tokens = line.split()
        if tokens[0] != "mul":
            raise error(lineno, f"expected 'mul', got '{tokens[0]}'")
        if len(tokens) < 6 or tokens[3] != "=":
            raise error(lineno, "expected 'mul i j = c @k [+ ...]'")
        i = _read_int(tokens[1], "index", lineno, error, dim, "dimension")
        j = _read_int(tokens[2], "index", lineno, error, dim, "dimension")
        if (i, j) in terms:
            raise error(lineno, f"duplicate product {i} {j}")
        pairs = terms[i, j] = []
        rest = tokens[4:]
        # terms `c @k` at pos, pos + 1, joined by '+' at pos + 2; a trailing
        # '+' or a lone token leaves pos on an incomplete term
        for pos in range(0, len(rest) + 1, 3):
            if pos + 1 >= len(rest):
                raise error(lineno, "expected '<coeff> @<index>'")
            coeff = _parse_rational(rest[pos], lineno)
            target = rest[pos + 1]
            if not target.startswith("@"):
                raise error(lineno, f"expected '@<index>', got '{target}'")
            pairs.append((_read_int(target[1:], "index", lineno, error,
                                    dim, "dimension"), coeff))
            if pos + 2 < len(rest) and rest[pos + 2] != "+":
                raise error(lineno,
                            f"expected '+' between terms, got '{rest[pos + 2]}'")
    return algebra_from_terms(dim, terms, name=name)


def open_path(path: str, mode: str = "rb"):
    """open(path, mode), as UTF-8 in text mode. A path that cannot be opened
    (a directory, say) raises an OSError of the same kind whose message is
    "<path>: <reason>"."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise type(exc)(f"{path}: {exc.strerror or exc}") from None


def _parse_file(path: str, parse, error: type):
    """parse(text, name=<file stem>) on the file's UTF-8 text, less one
    leading byte-order mark; an undecodable byte raises `error` at its line,
    and a path that cannot be opened the OSError of `open_path`."""
    with open_path(path) as handle:
        raw = handle.read().removeprefix(codecs.BOM_UTF8)
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
    error = CayleyFormatError
    lines = _significant_lines(text)
    header, order = _read_header(lines, "order", "order", error)
    rows: list[list[int]] = []
    for lineno, line in lines:
        tokens = line.split()
        if len(rows) == order:
            raise error(lineno, f"more than {order} rows")
        if len(tokens) != order:
            raise error(lineno, f"expected {order} entries, got {len(tokens)}")
        rows.append([_read_int(token, "entry", lineno, error, order, "order")
                     for token in tokens])
    if len(rows) != order:
        raise error(header, f"expected {order} rows, got {len(rows)}")
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

