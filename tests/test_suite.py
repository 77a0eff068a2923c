"""Suite runner: target resolution, determinism, and exit-code contract."""

import builtins
import hashlib
import json

import pytest

from pqcent.reports import FAIL, PASS, PRECONDITION_UNMET, Assertion
from pqcent.suite import run_suite
from pqcent.verify import CHECK_IDS, DEFAULT_WEIGHT_PAIRS

COLMAT2_TEXT = "dim 2\nmul 0 0 = 1 @0\nmul 1 0 = 1 @1\n"
NON_ASSOCIATIVE_TEXT = "dim 2\nmul 0 0 = 1 @1\nmul 1 1 = 1 @0\n"
BAD_GROUP_TEXT = "order 2\n0 1\n0 1\n"


def test_named_targets_run_every_check():
    rr = run_suite(targets=["colmat2", "c2"])
    per_algebra = len(CHECK_IDS) * len(DEFAULT_WEIGHT_PAIRS)
    per_table = len(DEFAULT_WEIGHT_PAIRS)
    assert len(rr.reports) == per_algebra + per_table
    assert rr.exit_code == 0
    assert {r.check_id for r in rr.reports} == set(CHECK_IDS) | {"4.2"}


def test_fixture_targets_all_pass():
    rr = run_suite(targets=["matrix2", "dual_numbers", "s3"],
                   weight_pairs=((1, 2),))
    assert rr.counts[FAIL] == 0
    assert rr.counts[PASS] > 0
    assert rr.exit_code == 0


def test_unknown_target_raises():
    with pytest.raises(ValueError, match="unknown fixture name"):
        run_suite(targets=["no_such_thing"])


def test_algebra_file_target(tmp_path):
    path = tmp_path / "cm2.alg"
    path.write_text(COLMAT2_TEXT, encoding="utf-8")
    rr = run_suite(targets=[str(path)], weight_pairs=((2, 3),))
    assert rr.exit_code == 0
    assert all(r.target == "cm2" for r in rr.reports)


def test_cayley_file_target(tmp_path):
    path = tmp_path / "c2.cay"
    path.write_text("order 2\n0 1\n1 0\n", encoding="utf-8")
    rr = run_suite(targets=[str(path)], weight_pairs=((1, 2),))
    assert rr.exit_code == 0
    assert [r.check_id for r in rr.reports] == ["4.2"]


def test_non_associative_file_recorded_not_raised(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text(NON_ASSOCIATIVE_TEXT, encoding="utf-8")
    rr = run_suite(targets=[str(path), "colmat2"], weight_pairs=((1, 2),))
    parse_reports = [r for r in rr.reports if r.check_id == "parse"]
    assert len(parse_reports) == 1
    assert parse_reports[0].status == FAIL
    (rejection,) = parse_reports[0].assertions
    assert not rejection.passed and rejection.witness
    assert rr.exit_code == 1
    # the good target still ran
    assert any(r.check_id == "2.1" and r.status == PASS for r in rr.reports)


def test_non_utf8_file_recorded_not_raised(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"\xff\xfe\x00dim 2\n")
    rr = run_suite(targets=[str(path)], weight_pairs=((1, 2),))
    assert [r.check_id for r in rr.reports] == ["parse"]
    assert rr.reports[0].status == FAIL
    assert rr.reports[0].assertions == (Assertion(
        "target parses as a valid input", False,
        "line 1: invalid UTF-8 byte 0xff"),)
    assert rr.exit_code == 1


def test_cayley_file_with_byte_order_mark_reaches_check_4_2(tmp_path):
    path = tmp_path / "c2.cay"
    path.write_bytes(b"\xef\xbb\xbforder 2\n0 1\n1 0\n")
    rr = run_suite(targets=[str(path)], weight_pairs=((1, 2),))
    assert [(r.check_id, r.status) for r in rr.reports] == [("4.2", PASS)]


def test_directory_target_recorded_not_raised(tmp_path):
    rr = run_suite(targets=[str(tmp_path), "colmat2"], weight_pairs=((1, 2),))
    parse_reports = [r for r in rr.reports if r.check_id == "parse"]
    assert [(r.target, r.status) for r in parse_reports] == [(str(tmp_path), FAIL)]
    (rejection,) = parse_reports[0].assertions
    assert not rejection.passed
    assert rejection.witness == f"{tmp_path}: Is a directory"
    assert rr.exit_code == 1
    # the good target still ran
    assert any(r.check_id == "2.1" and r.status == PASS for r in rr.reports)


@pytest.mark.parametrize("text", [COLMAT2_TEXT, "\ufefforder 2\n0 1\n1 0\n"])
def test_file_target_is_read_once(tmp_path, monkeypatch, text):
    # the format is sniffed on the text the parser reads
    path = tmp_path / "target.txt"
    path.write_text(text, encoding="utf-8")
    opened = []
    real_open = builtins.open

    def recording(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    rr = run_suite(targets=[str(path)], weight_pairs=((1, 2),))
    assert opened.count(str(path)) == 1
    assert rr.exit_code == 0 and rr.reports


@pytest.mark.parametrize("header", ["dim", "order"])
def test_oversized_header_recorded_not_raised(tmp_path, header):
    path = tmp_path / "big.txt"
    path.write_text(f"{header} 100000000\n", encoding="utf-8")
    rr = run_suite(targets=[str(path)], weight_pairs=((1, 2),))
    assert [r.check_id for r in rr.reports] == ["parse"]
    assert rr.reports[0].status == FAIL
    (rejection,) = rr.reports[0].assertions
    assert not rejection.passed and rejection.witness.startswith("line 1: ")
    assert rr.exit_code == 1


def test_invalid_group_file_fails_run(tmp_path):
    path = tmp_path / "bad.cay"
    path.write_text(BAD_GROUP_TEXT, encoding="utf-8")
    rr = run_suite(targets=[str(path)], weight_pairs=((1, 2),))
    assert rr.exit_code == 1
    assert rr.reports[0].check_id == "4.2"
    assert rr.reports[0].status == FAIL


def test_seeded_runs_are_byte_identical():
    first = run_suite(weight_pairs=((1, 2),), random_mixed=4,
                      random_commutative=3)
    second = run_suite(weight_pairs=((1, 2),), random_mixed=4,
                       random_commutative=3)
    assert first.to_json() == second.to_json()


def test_different_seeds_differ():
    kwargs = dict(weight_pairs=((1, 2),), random_mixed=4, random_commutative=0)
    first = run_suite(seed=1, **kwargs)
    second = run_suite(seed=2, **kwargs)
    assert first.to_json() != second.to_json()


def test_random_targets_have_seeded_names():
    rr = run_suite(weight_pairs=((1, 2),), random_mixed=2,
                   random_commutative=2)
    names = {r.target for r in rr.reports}
    assert {"rand_poly_00", "rand_poly_01", "rand_mix_00", "rand_mix_01"} <= names


def test_json_document_shape():
    rr = run_suite(targets=["field"], weight_pairs=((1, 2),))
    doc = json.loads(rr.to_json())
    assert set(doc) == {"seed", "weight_pairs", "summary", "checks"}
    assert doc["summary"][PASS] == rr.counts[PASS]
    assert all(rec["check_id"] for rec in doc["checks"])
    fails = [rec for rec in doc["checks"] if rec["status"] == FAIL]
    assert all(
        any(a.get("witness") for a in rec["assertions"] if not a["passed"])
        for rec in fails
    )


def test_text_lines_summarize():
    rr = run_suite(targets=["field"], weight_pairs=((1, 2),))
    lines = rr.text_lines()
    assert lines[0].startswith("suite seed=0")
    assert "fail=0" in lines[1]


def test_unmet_preconditions_do_not_fail():
    rr = run_suite(targets=["zero2"], weight_pairs=((1, 2),))
    assert rr.counts[PRECONDITION_UNMET] > 0
    assert rr.exit_code == 0


# seed 0 is pinned, with the suite's wall time, by
# test_acceptance.py::test_criterion_10_full_suite
@pytest.mark.parametrize("seed, digest", [
    (1, "bd963c7801f01718ebe8d232f3585b6d16a1053967d98c59ad6c975745565536"),
    (2, "60f5b6b13cbff8fe0530d1409efa97f13639a6fa3d16314ff8d19729b1eced3c"),
    (3, "7a0db4480c1523108d3069b66ebdeacdf48bc8952d9f5afea2e228a53023305f"),
    (4, "0844cbe48de59b8235f62cd84206a5cddcb835f2b6756c7215fb6d5304edf2f5"),
])
def test_seeded_report_is_pinned(seed, digest):
    report = run_suite(seed=seed).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == digest
