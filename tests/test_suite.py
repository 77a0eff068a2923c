"""Suite runner: one seeded run of the whole battery, its run order,
report shape and exit-code contract, and the pinned reports of seeds 1-4."""

import hashlib
import json

import pytest

from pqcent.fixtures import fixtures
from pqcent.groups import group_tables
from pqcent.reports import FAIL, PASS, PRECONDITION_UNMET
from pqcent.suite import run_suite
from pqcent.verify import CHECK_IDS


@pytest.fixture(scope="module")
def seed0():
    return run_suite(seed=0)


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
