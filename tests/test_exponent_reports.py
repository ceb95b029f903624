"""``hbts exponents`` against the reports pinned in tests/data/exponents (tests/regen_exponent_reports.py)."""

import json

import numpy as np
import pytest

from regen_exponent_reports import CASES, DATA, report_text


def _values(entry):
    """kappa, modulus and exponent of one report entry as numbers (nan for a missing exponent)."""
    exponent = entry["exponent"] or [np.nan, np.nan]
    return np.array(entry["kappa"] + [entry["modulus"]] + exponent, dtype=float)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_exponents_report_matches_the_pinned_one(case):
    pinned = json.loads((DATA / (case[0] + ".json")).read_text(encoding="utf-8"))
    report = json.loads(report_text(case))
    assert (report["d"], report["diagonalizable"]) == (pinned["d"], pinned["diagonalizable"])
    assert [(e["algebraic"], e["geometric"]) for e in report["entries"]] == [
        (e["algebraic"], e["geometric"]) for e in pinned["entries"]
    ]
    assert [e["exponent"] is None for e in report["entries"]] == [e["exponent"] is None for e in pinned["entries"]]
    got = np.array([_values(e) for e in report["entries"]])
    want = np.array([_values(e) for e in pinned["entries"]])
    assert np.allclose(got, want, rtol=0.0, atol=1e-12, equal_nan=True)
