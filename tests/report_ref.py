"""The JSON documents of reports, kept for the tests as reference code.

`RunReport.to_json` writes its bytes straight from the fixed schema of
`Report` and `Assertion`. These builders are the plain dictionary form of
that schema, and `json.dumps(run_doc(run), indent=2, sort_keys=True)`
plus a newline is the reference the writer is checked against.
"""


def assertion_doc(a) -> dict:
    d = {"name": a.name, "passed": a.passed}
    if a.witness is not None:
        d["witness"] = a.witness
    return d


def report_doc(r) -> dict:
    return {
        "check_id": r.check_id,
        "target": r.target,
        "weights": list(r.weights) if r.weights else None,
        "status": r.status,
        "assertions": [assertion_doc(a) for a in r.assertions],
        "note": r.note,
    }


def run_doc(run) -> dict:
    return {
        "seed": run.seed,
        "weight_pairs": [list(p) for p in run.weight_pairs],
        "summary": run.counts,
        "checks": [report_doc(r) for r in run.reports],
    }
