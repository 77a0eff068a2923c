"""Suite runner: one seeded run of the whole battery, its run order,
report shape and exit-code contract, and the pinned reports of seeds 1-4."""

import hashlib
import json
from collections import Counter

import pytest

from pqcent import arens, centralizers
from pqcent.algebras import cached
from pqcent.fixtures import fixtures
from pqcent.groups import group_tables
from pqcent.reports import (
    FAIL,
    PASS,
    PRECONDITION_UNMET,
    Assertion,
    Report,
    precondition_unmet,
    report_from_assertions,
)
from pqcent.suite import RunReport, run_suite
from pqcent.verify import CHECK_IDS
from report_ref import run_doc


@pytest.fixture(scope="module")
def seed0():
    return run_suite(seed=0)


def test_run_solves_no_identity_twice_on_equal_constants(monkeypatch):
    # the random algebras live for the run and share their cached solves
    # with every live algebra of equal constants, so a repeated draw (seed 1
    # draws 42 distinct algebras among 75) is not solved again
    solved = []
    real = centralizers._solve

    def recording(a, e, **kw):
        solved.append((a.dim, a.int_products, a.scale, e, tuple(sorted(kw))))
        return real(a, e, **kw)

    monkeypatch.setattr(centralizers, "_solve", recording)
    run_suite(seed=1)
    assert solved and len(set(solved)) == len(solved)


def _fresh(monkeypatch, name, fn):
    """Cache fn afresh, so its count starts cold, as the `name` of every
    module that reads it."""
    fresh = cached(fn)
    for module in (centralizers, arens):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, fresh)


@pytest.mark.parametrize("module, parts", [
    (centralizers, "_left_right_parts"), (arens, "_sample_parts")])
def test_run_evaluates_each_operator_once(monkeypatch, module, parts):
    # an operator's left and right parts on the basis pairs, and the parts
    # of its two dense samples, are cached per (constants, operator), so
    # over the four weight pairs, the checks and the repeated draws a
    # seed-1 run evaluates each once
    body = getattr(module, parts).__wrapped__
    evaluated = Counter()

    def recording(a, t):
        evaluated[a.dim, a.int_products, a.scale, t] += 1
        return body(a, t)

    _fresh(monkeypatch, parts, recording)
    run_suite(seed=1)
    assert evaluated and set(evaluated.values()) == {1}


def test_run_reads_check_2_4_basis_pairs_off_the_records(monkeypatch):
    # check 2.4 evaluates no basis pair beyond the operators' left/right
    # records: with every record replaced by one that fails at the pair
    # (0, 0) and walks no pair, each operator of a seed-1 run fails the
    # weighted identity, the adjoint scan and the two-sided restriction at
    # that pair, and still passes the staged dense samples
    _fresh(monkeypatch, "_left_right_parts",
           lambda a, t: {(0, 0): ((0, 1, 0),)})
    reports = [r for r in run_suite(seed=1).reports
               if r.check_id == "2.4" and r.status != PRECONDITION_UNMET]
    assert reports
    witnesses = {
        "weighted identity holds on all double-dual basis pairs":
            "basis pair (0, 0)",
        "adjoint satisfies the transposed weighted identity on the dual":
            "dual basis, basis pair (0, 0)",
        "extension restricts to a two-sided centralizer of the algebra":
            "one-sided residual",
    }
    seen = set()
    for r in reports:
        for asrt in r.assertions[1:]:
            kind = asrt.name.split(": ", 1)[1]
            seen.add(kind)
            if kind in witnesses:
                assert not asrt.passed and asrt.witness == witnesses[kind]
            else:
                assert asrt.passed and "dense pipeline sample" in kind
    assert set(witnesses) <= seen


@pytest.mark.parametrize("attr", [
    "_right_identity_collapse", "_center_correspondence",
    "_jordan_reconstruction", "_central_image_facts"])
def test_run_evaluates_each_space_fact_once(monkeypatch, attr):
    # the checks' facts that read no weight are cached per (constants,
    # solved space), so a seed-1 run evaluates each once; the body is
    # cached afresh here, so the count starts cold
    import pqcent.verify as verify
    body = getattr(verify, attr).__wrapped__
    evaluated = []

    def recording(a, space):
        evaluated.append((a.dim, a.int_products, a.scale, space))
        return body(a, space)

    monkeypatch.setattr(verify, attr, cached(recording))
    run_suite(seed=1)
    assert evaluated and len(set(evaluated)) == len(evaluated)


def test_every_check_id_runs(seed0):
    assert {r.check_id for r in seed0.reports} == set(CHECK_IDS) | {"4.2"}


def test_report_count(seed0):
    # 15 fixtures x 9 checks x 4 weight pairs, 4 group tables x 4 pairs,
    # 25 commutative random algebras x 2 checks x 4 pairs, 50 mixed x 4
    assert len(seed0.reports) == 15 * 9 * 4 + 4 * 4 + 25 * 2 * 4 + 50 * 4 == 956


def test_run_order_is_catalog_then_tables_then_random(seed0):
    # each fixture runs every check, each group table check 4.2 alone
    catalog = [a.name for a in fixtures().values()]
    tables = [t.name for t in group_tables().values()]
    order = list(dict.fromkeys(r.target for r in seed0.reports))
    assert order[:len(catalog) + len(tables)] == catalog + tables
    assert all(name.startswith("rand_") for name in order[len(catalog)
                                                          + len(tables):])
    assert {r.check_id for r in seed0.reports if r.target in tables} == {"4.2"}
    assert {r.check_id for r in seed0.reports if r.target in catalog} == (
        set(CHECK_IDS))


def test_random_targets_have_seeded_names(seed0):
    names = [r.target for r in seed0.reports if r.target.startswith("rand_")]
    assert list(dict.fromkeys(names)) == (
        [f"rand_poly_{i:02d}" for i in range(25)]
        + [f"rand_mix_{i:02d}" for i in range(50)])


def test_json_document_shape(seed0):
    doc = json.loads(seed0.to_json())
    assert set(doc) == {"seed", "weight_pairs", "summary", "checks"}
    assert doc["seed"] == 0
    assert doc["weight_pairs"] == [[1, 2], [2, 1], [3, 5], [7, 2]]
    assert doc["summary"] == seed0.counts
    assert len(doc["checks"]) == len(seed0.reports)
    assert all(rec["check_id"] for rec in doc["checks"])


def test_text_lines_summarize(seed0):
    counts = seed0.counts
    assert seed0.text_lines() == [
        "suite seed=0 weights=(1,2),(2,1),(3,5),(7,2)",
        f"checks=956 pass={counts[PASS]} fail=0 "
        f"precondition_unmet={counts[PRECONDITION_UNMET]}",
    ]


def test_unmet_preconditions_do_not_fail(seed0):
    assert seed0.counts[PRECONDITION_UNMET] > 0
    assert seed0.counts[FAIL] == 0
    assert seed0.exit_code == 0


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


# RunReport.to_json writes the fixed schema itself; tests/report_ref.py
# builds the same document as dicts, for json.dumps to write

def _reference_json(run):
    return json.dumps(run_doc(run), indent=2, sort_keys=True) + "\n"


def test_report_writer_matches_json_dumps_on_seed_0(seed0):
    assert seed0.to_json() == _reference_json(seed0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_report_writer_matches_json_dumps(seed):
    run = run_suite(seed=seed)
    assert run.to_json() == _reference_json(run)


def test_report_writer_matches_json_dumps_on_hand_built_reports():
    awkward = 'quote " backslash \\ newline \n tab \t t\u00e9st \u2200x \U0001d400'
    reports = (
        report_from_assertions("2.1", awkward, (1, 2), [
            Assertion("holds", True),
            Assertion(awkward, False, awkward),
            Assertion("holds with a witness", True, ""),
        ], note=awkward),
        Report("chain", "no weights", None, PASS),
        report_from_assertions("3.2", "empty", (7, 2), []),
        precondition_unmet("2.3", "t", (3, 5), "no two-sided identity"),
        Report("5.1", "", (), FAIL, (Assertion("x", False, "w"),), ""),
    )
    for run in (RunReport(3, ((1, 2), (2, 1)), reports),
                RunReport(0, (), ()),
                RunReport(5, ((3, 5),), reports[1:2])):
        assert run.to_json() == _reference_json(run)
