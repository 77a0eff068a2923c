"""Command-line behavior: outputs, exit codes, and file round-trips."""

import builtins
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dense_ref import _ref_rescaled
from pqcent.cli import main
from pqcent.fileio import serialize_algebra
from pqcent.fixtures import fixtures
from pqcent.suite import run_suite

COLMAT2_TEXT = "dim 2\nmul 0 0 = 1 @0\nmul 1 0 = 1 @1\n"


def _argv(command: str, path) -> list[str]:
    # "verify <id>" runs check <id> on the file: 4.2 reads it as a Cayley
    # table, every other check as an algebra
    command, *theorem = command.split()
    return [command, str(path)] + (
        ["--theorem", theorem[0], "--p", "1", "--q", "2"] if theorem else [])


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


@pytest.mark.parametrize("command", ["check", "group", "verify 2.1",
                                     "verify 4.2"])
def test_non_utf8_file_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"# ok\n\xff\xfe\x00dim 2\n")
    assert main(_argv(command, path)) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: invalid UTF-8 byte 0xff\n")


@pytest.mark.parametrize("command, text", [("check", "dim 1\n"),
                                           ("group", "order 1\n0\n"),
                                           ("verify 2.1", "dim 1\n"),
                                           ("verify 4.2", "order 1\n0\n")])
def test_leading_byte_order_mark_is_ignored(tmp_path, capsys, command, text):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main(_argv(command, path)) == 0


@pytest.mark.parametrize("command", ["check", "group", "center", "verify 2.1",
                                     "verify 4.2"])
def test_directory_is_an_input_error(tmp_path, capsys, command):
    assert main(_argv(command, tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


def test_group_rejects_signed_and_underscored_entries(tmp_path, capsys):
    path = tmp_path / "lenient.cay"
    path.write_text("order 2\n0 +1\n1 0_0\n", encoding="utf-8")
    assert main(["group", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: invalid entry '+1'\n")


@pytest.mark.parametrize("command, header", [("check", "dim"),
                                             ("group", "order"),
                                             ("verify 2.1", "dim"),
                                             ("verify 4.2", "order")])
def test_oversized_header_is_an_input_error(tmp_path, capsys, command, header):
    path = tmp_path / "big.txt"
    path.write_text(f"# huge\n{header} 100000000\n", encoding="utf-8")
    assert main(_argv(command, path)) == 2
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


def test_verify_bidual_extension(capsys):
    assert main(["verify", "colmat2", "--theorem", "2.4",
                 "--p", "2", "--q", "3"]) == 0
    assert "PASS check=2.4" in capsys.readouterr().out


def test_verify_bidual_extension_on_fractional_constants(tmp_path, capsys):
    a = _ref_rescaled(fixtures()["matrix2"],
                      [Fraction(1, 2), 3, Fraction(-2, 5), 1])
    text = serialize_algebra(a)
    assert "/" in text
    path = tmp_path / "rescaled.alg"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path), "--theorem", "2.4",
                 "--p", "1", "--q", "2"]) == 0
    assert "PASS check=2.4" in capsys.readouterr().out


def test_verify_bidual_extension_unmet_is_not_failure(capsys):
    assert main(["verify", "zero2", "--theorem", "2.4",
                 "--p", "1", "--q", "2"]) == 0
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


def test_verify_unknown_algebra_target(capsys):
    assert main(_argv("verify 2.1", "no_such_thing")) == 2
    assert capsys.readouterr().err == (
        "error: unknown fixture name and unreadable file: 'no_such_thing'\n")


@pytest.mark.parametrize("command, name, text", [
    ("verify 2.1", "cm2.alg", COLMAT2_TEXT),
    ("verify 4.2", "c2.cay", "order 2\n0 1\n1 0\n"),
])
def test_verify_file_target_is_named_after_its_stem(tmp_path, capsys, command,
                                                    name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(_argv(command, path)) == 0
    stem = name.split(".")[0]
    assert capsys.readouterr().out.splitlines()[0] == (
        f"PASS check={command.split()[1]} target={stem} weights=(1,2)")


@pytest.mark.parametrize("command, text", [("verify 2.1", COLMAT2_TEXT),
                                           ("verify 4.2", "order 2\n0 1\n1 0\n")])
def test_verify_file_target_is_read_once(tmp_path, monkeypatch, command, text):
    path = tmp_path / "target.txt"
    path.write_text(text, encoding="utf-8")
    opened = []
    real_open = builtins.open

    def recording(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    assert main(_argv(command, path)) == 0
    assert opened.count(str(path)) == 1


def test_verify_non_associative_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text("dim 2\nmul 0 0 = 1 @1\nmul 1 1 = 1 @0\n", encoding="utf-8")
    assert main(_argv("verify 2.1", path)) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: structure constants are not associative: "
        "(b0*b0)*b1 != b0*(b0*b1)\n")


def test_verify_invalid_group_file_fails(tmp_path, capsys):
    path = tmp_path / "bad.cay"
    path.write_text("order 2\n0 1\n0 1\n", encoding="utf-8")
    assert main(_argv("verify 4.2", path)) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "FAIL check=4.2 target=bad weights=(1,2)"
    assert "[FAILED] a two-sided identity exists" in out


def test_module_entry_point_runs_the_cli():
    # `python -m pqcent` goes through `__main__`, which the in-process
    # tests above bypass by calling `main` directly
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pqcent", "verify", "colmat2", "--theorem",
         "2.1", "--p", "1", "--q", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == (
        "PASS check=2.1 target=colmat2 weights=(1,2)")


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
