"""CLI reports against the ones pinned in tests/data (tests/regen_exponent_reports.py).

Integers, flags and exit codes must match exactly; floats within 1e-12 scaled by the largest entry of
their array.  A residual is a difference of states, so it is compared on its state's scale, whose largest
entry is at most 1: within 1e-12.  A correlator series is compared on the scale of its largest |value|.
An interaction's weights are compared exactly, and its term within 1e-12 of its largest entry: the kernel
projector does not depend on the basis the kernel comes in.
"""

import json

import numpy as np
import pytest

from regen_exponent_reports import CASES, EXIT_CODES, report_path, report_text


def _close(got, want, scale):
    return np.allclose(got, want, rtol=0.0, atol=1e-12 * scale, equal_nan=True)


def _values(entry):
    """kappa, modulus and exponent of one report entry as numbers (nan for a missing exponent)."""
    exponent = entry["exponent"] or [np.nan, np.nan]
    return np.array(entry["kappa"] + [entry["modulus"]] + exponent, dtype=float)


def _exponents(report, pinned):
    assert (report["d"], report["diagonalizable"]) == (pinned["d"], pinned["diagonalizable"])
    assert [(e["algebraic"], e["geometric"]) for e in report["entries"]] == [
        (e["algebraic"], e["geometric"]) for e in pinned["entries"]
    ]
    assert [e["exponent"] is None for e in report["entries"]] == [e["exponent"] is None for e in pinned["entries"]]
    got = np.array([_values(e) for e in report["entries"]])
    want = np.array([_values(e) for e in pinned["entries"]])
    assert _close(got, want, 1.0)


def _thermo(report, pinned):
    assert [report[key] for key in ("nu", "rank", "mixing")] == [pinned[key] for key in ("nu", "rank", "mixing")]
    assert _close(report["eigenvalues"], pinned["eigenvalues"], max(pinned["eigenvalues"]))
    assert _close(report["residual"], pinned["residual"], 1.0)


RESIDUALS = ("single_site", "pair", "triple", "quad", "max_residual")


def _finite_check(report, pinned):
    assert [report[key] for key in ("n_max", "tol", "passed")] == [pinned[key] for key in ("n_max", "tol", "passed")]
    assert _close([report[key] for key in RESIDUALS], [pinned[key] for key in RESIDUALS], 1.0)


def _rows(text):
    """The header line (none for a refused run) and the rows of a ``correlate`` CSV as an (m, 3) array."""
    lines = text.splitlines()
    return lines[:1], np.array([line.split(",") for line in lines[1:]], dtype=float).reshape(-1, 3)


def _correlate(text, pinned):
    (header, got), (pinned_header, want) = _rows(text), _rows(pinned)
    assert header == pinned_header and got.shape == want.shape
    assert np.array_equal(got[:, 0], want[:, 0])
    assert _close(got[:, 1:], want[:, 1:], np.hypot(want[:, 1], want[:, 2]).max(initial=0.0))


def _parent(report, pinned):
    assert [report[key] for key in ("d", "nu", "kernel_dim", "weights")] == [
        pinned[key] for key in ("d", "nu", "kernel_dim", "weights")
    ]
    assert _close(report["h_term"], pinned["h_term"], np.abs(pinned["h_term"]).max())


COMPARE = {"exponents": _exponents, "thermo": _thermo, "finite-check": _finite_check, "parent": _parent}


def check(case, code, text):
    """Assert that the exit code and stdout of one case's run match the pinned ones."""
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[case[0]]
    pinned = report_path(case).read_text(encoding="utf-8")
    if case[1][0] == "correlate":
        return _correlate(text, pinned)
    report, pinned = json.loads(text), json.loads(pinned)
    assert report.keys() == pinned.keys()
    COMPARE[case[1][0]](report, pinned)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_report_matches_the_pinned_one(case):
    check(case, *report_text(case))
