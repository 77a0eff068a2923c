"""File format round-trips and rejection cases."""

import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pqcent.algebras import NonAssociativeError
from pqcent.fileio import (
    MAX_DIM,
    AlgebraFormatError,
    CayleyFormatError,
    parse_algebra_file,
    parse_algebra_text,
    parse_cayley_file,
    parse_cayley_text,
    serialize_algebra,
    serialize_cayley,
)
from pqcent.fixtures import colmat, fixtures
from pqcent.groups import group_tables, is_valid_group, validate_group

COLMAT2_TEXT = "dim 2\nmul 0 0 = 1 @0\nmul 1 0 = 1 @1\n"


def test_parse_colmat2():
    a = parse_algebra_text(COLMAT2_TEXT)
    assert a.table == colmat(2).table


def test_parse_field():
    a = parse_algebra_text("dim 1\nmul 0 0 = 1 @0\n")
    assert a.dim == 1
    assert a.table[0][0][0] == 1


def test_parse_rationals_and_sums():
    # Q[x]/(x^2 + 3/4 x - 1/2), with the x^2 line split into repeated
    # targets that must accumulate
    a = parse_algebra_text(
        "dim 2\nmul 0 0 = 1 @0\nmul 0 1 = 1 @1\nmul 1 0 = 1 @1\n"
        "mul 1 1 = 1/2 @0 + -1/2 @1 + -1/4 @1\n"
    )
    assert a.table[1][1][0] == Fraction(1, 2)
    assert a.table[1][1][1] == Fraction(-3, 4)


def test_parse_comments_and_blank_lines():
    text = "# header\n\ndim 2  # trailing\n# interior\nmul 0 0 = 1 @0\n"
    a = parse_algebra_text(text)
    assert a.dim == 2
    assert a.table[0][0][0] == 1
    assert not any(a.table[1][1])


def test_reject_zero_denominator():
    with pytest.raises(AlgebraFormatError, match="line 2.*invalid rational"):
        parse_algebra_text("dim 2\nmul 0 0 = 1/0 @0\n")


def test_coefficients_are_signed_integers_or_fractions():
    for token, value in (("3", 3), ("-3", -3), ("+2", 2), ("0", 0),
                         ("6/4", Fraction(3, 2)), ("-1/2", Fraction(-1, 2)),
                         ("+0/5", 0)):
        a = parse_algebra_text(f"dim 1\nmul 0 0 = {token} @0\n")
        assert a.table[0][0][0] == value, token
        assert all(type(c) is Fraction for _, c in a.products[0][0]), token


@pytest.mark.parametrize("token", [
    "1.5", "1e3", "1E3", "1e999999999", "1/2e999999999", ".5", "1.", "0x1",
    "1_0", "nan", "inf", "2/-3", "1/+2", "--1", "+", "1/", "/2", "1//2",
    "\u0661", "\uff11"])
def test_reject_coefficients_outside_the_format(token):
    # an exponent used to reach Fraction(str), which expands it: 1e1000000
    # took 1.6 s there and larger ones did not finish
    start = time.perf_counter()
    with pytest.raises(AlgebraFormatError,
                       match=f"line 2: invalid rational '{re.escape(token)}'"):
        parse_algebra_text(f"dim 1\nmul 0 0 = {token} @0\n")
    assert time.perf_counter() - start < 0.5


def test_reject_missing_dim():
    with pytest.raises(AlgebraFormatError, match="dim"):
        parse_algebra_text("mul 0 0 = 1 @0\n")
    with pytest.raises(AlgebraFormatError, match="missing 'dim'"):
        parse_algebra_text("# nothing here\n")


def test_reject_out_of_range_index():
    with pytest.raises(AlgebraFormatError, match="out of range"):
        parse_algebra_text("dim 2\nmul 0 2 = 1 @0\n")
    with pytest.raises(AlgebraFormatError, match="out of range"):
        parse_algebra_text("dim 2\nmul 0 0 = 1 @5\n")


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_algebra_text, "dim 1_0\n", 1, "invalid dimension '1_0'"),
    (parse_algebra_text, "dim \uff14\n", 1, "invalid dimension '\uff14'"),
    (parse_algebra_text, "dim -1\n", 1, "invalid dimension '-1'"),
    (parse_cayley_text, "order \u0662\n", 1, "invalid order '\u0662'"),
    (parse_cayley_text, "order +2\n", 1, "invalid order '+2'"),
    (parse_algebra_text, "dim 1\nmul +0 0 = 1 @0\n", 2, "invalid index '+0'"),
    (parse_algebra_text, "dim 1\nmul 0 0 = 1 @\u0660\n", 2,
     "invalid index '\u0660'"),
    (parse_algebra_text, "dim 1\nmul 0 0 = 1 @-1\n", 2, "invalid index '-1'"),
    (parse_cayley_text, "order 2\n0 +1\n1 0\n", 2, "invalid entry '+1'"),
    (parse_cayley_text, "order 2\n0 1\n1 0_0\n", 3, "invalid entry '0_0'"),
    (parse_cayley_text, "order 2\n0 1\n-1 0\n", 3, "invalid entry '-1'"),
])
def test_sizes_indices_and_entries_are_ascii_digit_runs(parse, text, line,
                                                        message):
    # int() alone reads signs, '_' and every Unicode decimal digit
    with pytest.raises((AlgebraFormatError, CayleyFormatError)) as exc:
        parse(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-string limit in this Python")
def test_digit_run_past_the_int_string_limit_is_invalid():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(AlgebraFormatError, match="line 1: invalid dimension"):
        parse_algebra_text(f"dim {digits}\n")
    with pytest.raises(CayleyFormatError, match="line 2: invalid entry"):
        parse_cayley_text(f"order 1\n{digits}\n")


def test_reject_duplicate_product():
    with pytest.raises(AlgebraFormatError, match="duplicate product 0 0"):
        parse_algebra_text("dim 1\nmul 0 0 = 1 @0\nmul 0 0 = 2 @0\n")


def test_reject_malformed_terms():
    for body in ("mul 0 0 = @0", "mul 0 0 = 1", "mul 0 0 = 1 @0 + 2",
                 "mul 0 0 = 1 @0 2 @0", "mul 0 = 1 @0", "foo 0 0 = 1 @0",
                 "mul 0 0 = 1 @0 +", "mul 0 0 = 1 @0 + 2 @0 +"):
        with pytest.raises(AlgebraFormatError):
            parse_algebra_text(f"dim 1\n{body}\n")


def test_reject_non_associative_table():
    text = "dim 2\nmul 0 0 = 1 @1\nmul 1 1 = 1 @0\n"
    with pytest.raises(NonAssociativeError) as exc:
        parse_algebra_text(text)
    assert exc.value.triple == (0, 0, 1)


def test_line_numbers_in_errors():
    err = None
    try:
        parse_algebra_text("dim 2\n# fine\nmul 0 0 = bad @0\n")
    except AlgebraFormatError as e:
        err = e
    assert err is not None and err.line == 3


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_line_numbers_count_newlines_only(brk):
    with pytest.raises(AlgebraFormatError) as exc:
        parse_algebra_text(f"dim 1{brk}\n# c{brk}omment\nmul 0 0 = 1/0 @0\n")
    assert exc.value.line == 3
    with pytest.raises(CayleyFormatError) as exc:
        parse_cayley_text(f"order 1{brk}\n{brk}\n5\n")
    assert exc.value.line == 3
    assert parse_algebra_text(f"dim 1\r\nmul 0 0 = 1 {brk}@0\r\n").table \
        == ((((Fraction(1),),),))
    assert parse_cayley_text(f"order 1{brk}\n0{brk}\n").table == ((0,),)


def test_algebra_round_trip_catalog():
    for name, a in fixtures().items():
        again = parse_algebra_text(serialize_algebra(a), name=a.name)
        assert again.dim == a.dim, name
        assert again.table == a.table, name


def test_algebra_file_round_trip(tmp_path):
    a = fixtures()["group_s3"]
    path = tmp_path / "s3_algebra.alg"
    path.write_text(serialize_algebra(a), encoding="utf-8")
    again = parse_algebra_file(str(path))
    assert again.table == a.table
    assert again.name == "s3_algebra"


def test_parse_cayley_c2():
    t = parse_cayley_text("order 2\n0 1\n1 0\n")
    assert t.order == 2
    assert is_valid_group(t)


def test_parse_cayley_trivial():
    t = parse_cayley_text("order 1\n0\n")
    assert t.order == 1
    assert is_valid_group(t)


def test_cayley_non_latin_column_fails_validation():
    # parsing is syntax-only; the axioms are validate_group's job
    t = parse_cayley_text("order 2\n0 1\n0 1\n")
    report = validate_group(t)
    assert not report.passed
    assert any("column" in a.name for a in report.assertions if not a.passed)


def test_cayley_shape_errors():
    for text in ("order 2\n0 1\n", "order 2\n0 1\n1 0\n0 1\n",
                 "order 2\n0 1 0\n1 0\n", "order 2\n0 2\n1 0\n",
                 "0 1\n1 0\n", "order x\n"):
        with pytest.raises(CayleyFormatError):
            parse_cayley_text(text)


def test_cayley_missing_rows_reported_at_the_header():
    with pytest.raises(CayleyFormatError) as exc:
        parse_cayley_text("# c\n\norder 2\n0 1\n")
    assert exc.value.line == 3
    assert str(exc.value) == "line 3: expected 2 rows, got 1"


@pytest.mark.parametrize("header", ["dim", "order"])
def test_header_size_is_capped(header):
    parse = parse_algebra_text if header == "dim" else parse_cayley_text
    error = AlgebraFormatError if header == "dim" else CayleyFormatError
    for size, line in ((10 ** 12, 1), (MAX_DIM + 1, 1), (0, 1)):
        with pytest.raises(error) as exc:
            parse(f"{header} {size}\n")
        assert exc.value.line == line
    with pytest.raises(error) as exc:
        parse(f"# a\n\n# b\n{header} 1000000000000\n")
    assert exc.value.line == 4
    assert f"between 1 and {MAX_DIM}" in str(exc.value)


def test_largest_header_is_accepted():
    a = parse_algebra_text(f"dim {MAX_DIM}\n")
    assert a.dim == MAX_DIM and a.products[MAX_DIM - 1][0] == ()


BOM = b"\xef\xbb\xbf"


def test_leading_byte_order_mark_is_ignored(tmp_path):
    path = tmp_path / "bom.alg"
    path.write_bytes(BOM + b"dim 1\nmul 0 0 = 1 @0\n")
    assert parse_algebra_file(str(path)).table == (((Fraction(1),),),)
    path = tmp_path / "bom.cay"
    path.write_bytes(BOM + b"order 1\n0\n")
    assert parse_cayley_file(str(path)).table == ((0,),)


def test_bad_byte_after_a_byte_order_mark_keeps_its_line_and_value(tmp_path):
    # the utf-8-sig codec counts offsets after the BOM and would name
    # the byte three places early
    path = tmp_path / "bom.alg"
    path.write_bytes(BOM + b"dim 1\n\xff\n")
    with pytest.raises(AlgebraFormatError) as exc:
        parse_algebra_file(str(path))
    assert str(exc.value) == "line 2: invalid UTF-8 byte 0xff"


def test_cayley_round_trip(tmp_path):
    for name, t in group_tables().items():
        path = tmp_path / f"{name}.cay"
        path.write_text(serialize_cayley(t), encoding="utf-8")
        again = parse_cayley_file(str(path))
        assert again.table == t.table, name
        assert again.name == name


# ---------------------------------------------------------------------------
# fuzzing: malformed text raises only the format (or associativity) errors
# ---------------------------------------------------------------------------

# numbers come only from this list, so no header asks for more than 5
_NUMBERS = ["0", "1", "2", "3", "4", "5", "-1", "1/2", "-3/4", "1/0", "2/-3",
            "1.5", "1e3", "+2", "0x1", "nan", "inf"]
_WORDS = ["dim", "order", "mul", "=", "+", "#", "@", "@0", "@1", "@3", "@4",
          "@-1", "@x", "@1/2"]
_JUNK = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="0123456789"), max_size=4)
_SMALL = st.sampled_from(["0", "1", "2", "3"])
_LINE = st.one_of(
    st.lists(st.one_of(st.sampled_from(_NUMBERS + _WORDS), _JUNK),
             max_size=8).map(" ".join),
    st.tuples(_SMALL, _SMALL, st.sampled_from(_NUMBERS), _SMALL)
      .map(lambda t: "mul {} {} = {} @{}".format(*t)),
    st.lists(_SMALL, min_size=1, max_size=4).map(" ".join),
)


def _text(headers):
    return st.tuples(st.sampled_from(headers), st.lists(_LINE, max_size=10)) \
        .map(lambda parts: parts[0] + "\n".join(parts[1]))


@settings(max_examples=300, deadline=None)
@given(_text(["", "dim 1\n", "dim 2\n", "dim 3\n", "dim 4\n"]))
def test_fuzz_algebra_parser_raises_only_input_errors(text):
    try:
        a = parse_algebra_text(text)
    except (AlgebraFormatError, NonAssociativeError):
        return
    assert 1 <= a.dim <= 5


@settings(max_examples=300, deadline=None)
@given(_text(["", "order 1\n", "order 2\n", "order 3\n", "order 4\n"]))
def test_fuzz_cayley_parser_raises_only_input_errors(text):
    try:
        t = parse_cayley_text(text)
    except CayleyFormatError:
        return
    assert 1 <= t.order <= 5
