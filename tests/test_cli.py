"""Command-line behavior: outputs, exit codes, and file round-trips."""

import hashlib
import json

import pytest

from pqcent.cli import main
from pqcent.fileio import serialize_algebra
from pqcent.fixtures import fixtures
from pqcent.suite import run_suite

COLMAT2_TEXT = "dim 2\nmul 0 0 = 1 @0\nmul 1 0 = 1 @1\n"


def test_check_fixture(capsys):
    assert main(["check", "colmat2"]) == 0
    out = capsys.readouterr().out
    assert "associative algebra of dimension 2" in out


def test_check_file(tmp_path, capsys):
    path = tmp_path / "a.alg"
    path.write_text(COLMAT2_TEXT, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert "dimension 2" in capsys.readouterr().out


def test_check_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("dim 2\nmul 0 0 = 1/0 @0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "invalid rational" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1e999999999", "1.5"])
def test_coefficient_outside_the_format_is_an_input_error(tmp_path, capsys,
                                                          token):
    path = tmp_path / "exp.alg"
    path.write_text(f"dim 1\nmul 0 0 = {token} @0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: invalid rational '{token}'\n")


@pytest.mark.parametrize("command", ["check", "group"])
def test_non_utf8_file_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"# ok\n\xff\xfe\x00dim 2\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: invalid UTF-8 byte 0xff\n")


@pytest.mark.parametrize("command, text", [("check", "dim 1\n"),
                                           ("group", "order 1\n0\n")])
def test_leading_byte_order_mark_is_ignored(tmp_path, capsys, command, text):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main([command, str(path)]) == 0


@pytest.mark.parametrize("command", ["check", "group", "center"])
def test_directory_is_an_input_error(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


def test_group_rejects_signed_and_underscored_entries(tmp_path, capsys):
    path = tmp_path / "lenient.cay"
    path.write_text("order 2\n0 +1\n1 0_0\n", encoding="utf-8")
    assert main(["group", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: invalid entry '+1'\n")


@pytest.mark.parametrize("command, header", [("check", "dim"),
                                             ("group", "order")])
def test_oversized_header_is_an_input_error(tmp_path, capsys, command, header):
    path = tmp_path / "big.txt"
    path.write_text(f"# huge\n{header} 100000000\n", encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert "line 2:" in capsys.readouterr().err


def test_check_unknown_target(capsys):
    assert main(["check", "nope"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_center_output(capsys):
    assert main(["center", "matrix2"]) == 0
    out = capsys.readouterr().out
    assert "dimension 1" in out
    assert "(1, 0, 0, 1)" in out


def test_radical_output(capsys):
    assert main(["radical", "dual_numbers"]) == 0
    out = capsys.readouterr().out
    assert "dimension 1" in out
    assert "(0, 1)" in out


def test_right_identities_output(capsys):
    assert main(["right-identities", "colmat2"]) == 0
    out = capsys.readouterr().out
    assert "(1, 0)" in out
    assert "homogeneous part: dimension 1" in out
    assert main(["right-identities", "zero2"]) == 0
    assert "no right identity" in capsys.readouterr().out


def test_centralizers_weighted(capsys):
    assert main(["centralizers", "dual_numbers", "--p", "1", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "(1,2) centralizers: dimension 2" in out
    assert "operator 1:" in out


def test_centralizers_variants(capsys):
    for flag, label in (("--left", "left"), ("--right", "right"),
                        ("--two-sided", "two-sided")):
        assert main(["centralizers", "matrix2", flag]) == 0
        assert f"{label} centralizers" in capsys.readouterr().out
    assert main(["centralizers", "colmat2", "--jordan",
                 "--p", "2", "--q", "3"]) == 0
    assert "Jordan centralizers" in capsys.readouterr().out


def test_centralizers_missing_weights(capsys):
    assert main(["centralizers", "matrix2"]) == 2
    assert "--p and --q" in capsys.readouterr().err


def test_centralizers_equal_weights_gate(capsys):
    assert main(["centralizers", "field", "--p", "1", "--q", "1"]) == 2
    assert "distinct" in capsys.readouterr().err
    assert main(["centralizers", "field", "--p", "1", "--q", "1",
                 "--allow-equal-pq"]) == 0
    assert "dimension 1" in capsys.readouterr().out


def test_group_valid_and_classes(capsys):
    assert main(["group", "s3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "conjugacy classes: 3" in out


def test_group_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.cay"
    path.write_text("order 2\n0 1\n0 1\n", encoding="utf-8")
    assert main(["group", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_group_emit_algebra_round_trip(tmp_path, capsys):
    out_path = tmp_path / "q8.alg"
    assert main(["group", "q8", "--emit-algebra", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_path)]) == 0
    assert "dimension 8" in capsys.readouterr().out
    assert main(["verify", str(out_path), "--theorem", "2.3",
                 "--p", "1", "--q", "2"]) == 0


def test_emit_algebra_to_a_directory_is_an_input_error(tmp_path, capsys):
    assert main(["group", "c2", "--emit-algebra", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "PASS" in captured.out  # the table is validated first
    assert captured.err == f"error: {tmp_path}: Is a directory\n"


def test_arens_check(capsys):
    assert main(["arens-check", "colmat2", "--p", "2", "--q", "3"]) == 0
    assert "PASS check=2.4" in capsys.readouterr().out


def test_arens_check_unmet_is_not_failure(capsys):
    assert main(["arens-check", "zero2", "--p", "1", "--q", "2"]) == 0
    assert "PRECONDITION_UNMET" in capsys.readouterr().out


@pytest.mark.parametrize("theorem,target", [
    ("2.1", "colmat2"),
    ("2.3", "matrix2"),
    ("2.4", "dual_numbers"),
    ("3.1", "colmat2"),
    ("3.2", "trunc_poly3"),
    ("5.1", "trunc_poly3"),
    ("5.2", "colmat3"),
    ("5.3", "matrix2"),
    ("4.2", "s3"),
    ("chain", "matrix2"),
])
def test_verify_each_check_id(theorem, target, capsys):
    assert main(["verify", target, "--theorem", theorem,
                 "--p", "1", "--q", "2"]) == 0
    assert f"check={theorem}" in capsys.readouterr().out


def test_verify_commutative_semigroup_algebra_without_identity(
        tmp_path, capsys, monkeypatch):
    # Q[S], S = {0,1,2,3}: 0 absorbing, 2*3 = 3*2 = 1, every other product 0
    s = [[0] * 4, [0] * 4, [0, 0, 0, 1], [0, 0, 1, 0]]
    path = tmp_path / "sg4.alg"
    path.write_text("dim 4\n" + "".join(
        f"mul {i} {j} = 1 @{s[i][j]}\n" for i in range(4) for j in range(4)))
    monkeypatch.setenv("PQCENT_VERBOSE", "1")
    assert main(["verify", str(path), "--theorem", "5.1",
                 "--p", "1", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS check=5.1" in out
    assert "no identity (dims 5 and 4)" in out


def test_verify_rejects_unknown_theorem(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "colmat2", "--theorem", "9.9", "--p", "1", "--q", "2"])
    assert exc.value.code == 2


def test_verify_group_check_needs_group_target(capsys):
    assert main(["verify", "matrix2", "--theorem", "4.2",
                 "--p", "1", "--q", "2"]) == 2
    assert "unknown group" in capsys.readouterr().err


def test_verbose_env_expands_reports(capsys, monkeypatch):
    monkeypatch.setenv("PQCENT_VERBOSE", "1")
    assert main(["verify", "matrix2", "--theorem", "2.3",
                 "--p", "1", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out
    monkeypatch.delenv("PQCENT_VERBOSE")
    assert main(["verify", "matrix2", "--theorem", "2.3",
                 "--p", "1", "--q", "2"]) == 0
    assert "[ok]" not in capsys.readouterr().out


def test_suite_report_matches_library_run(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["suite", "--seed", "7", "--report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fail=0" in out
    written = path.read_text(encoding="utf-8")
    assert written == run_suite(seed=7).to_json()
    doc = json.loads(written)
    assert doc["seed"] == 7


def test_unwritable_report_path_fails_before_the_suite_runs(tmp_path, capsys,
                                                            monkeypatch):
    calls = []
    monkeypatch.setattr("pqcent.cli.run_suite",
                        lambda **kwargs: calls.append(kwargs))
    assert main(["suite", "--report", str(tmp_path)]) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


CENTRALIZER_VARIANTS = (
    ["--p", "1", "--q", "2"],
    ["--jordan", "--p", "3", "--q", "5"],
    ["--two-sided"],
    ["--left"],
    ["--right"],
)


def test_centralizers_output_is_pinned(tmp_path, capsys):
    # every printed operator entry of every variant over the serialized
    # catalog, pinned byte for byte: the dense matrices are rendered from
    # the integer operator form, which must not move a single entry
    digest = hashlib.sha256()
    for name, a in sorted(fixtures().items()):
        path = tmp_path / f"{name}.alg"
        path.write_text(serialize_algebra(a), encoding="utf-8")
        for flags in CENTRALIZER_VARIANTS:
            assert main(["centralizers", str(path), *flags]) == 0, (name, flags)
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "558a0e1a364b6039d13c8edb955cf2b66482c1a4714f141e771ee6e48dd149cd"
    )
