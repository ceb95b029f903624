"""CLI reports against the ones pinned in tests/data (tests/regen_exponent_reports.py).

Integers, flags and exit codes must match exactly; floats within 1e-12 scaled by the largest entry of
their array.  A residual is a difference of states, so it is compared on its state's scale, whose largest
entry is at most 1: within 1e-12.  A correlator series is compared on the scale of its largest |value|.
An interaction's weights are compared exactly, and its term within 1e-12 of its largest entry: the kernel
projector does not depend on the basis the kernel comes in.  A ring spectrum, its ground energy and its
histogram edges are compared within 1e-12 of the spectrum's largest |value|, its counts exactly but for
eigenvalues that a move within that bound could carry across an edge; the residuals of a subspace check
within 1e-12.
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


def _diag(report, pinned):
    keys = ("N", "nu", "kernel_dim", "degeneracy", "tau_gs")
    assert [report[key] for key in keys] == [pinned[key] for key in keys]
    scale = np.abs(pinned["spectrum"]).max()
    assert _close(report["spectrum"], pinned["spectrum"], scale)
    assert _close(report["ground_energy"], pinned["ground_energy"], scale)
    assert _close([row[:2] for row in report["histogram"]], [row[:2] for row in pinned["histogram"]], scale)
    # the histogram bins the spectrum over its top value: within the contract a rescaled eigenvalue moves by
    # 2e-12 scale / top and an edge by 1e-12 scale, so a bin's count may differ by the eigenvalues that close
    # to its inner edges (the d = 2 product spectra sit on edges) and is exact otherwise; the range holds all
    top = pinned["spectrum"][-1] if pinned["spectrum"][-1] > pinned["tau_gs"] else 1.0
    inner = np.array([row[0] for row in pinned["histogram"][1:]])
    at = np.count_nonzero(np.abs(np.array(pinned["spectrum"])[:, None] / top - inner) <= 3e-12 * scale / top, axis=0)
    moved = np.abs(np.array([row[2] for row in report["histogram"]]) - [row[2] for row in pinned["histogram"]])
    assert (moved <= np.append(0, at) + np.append(at, 0)).all()


def _subspace_check(report, pinned):
    keys = ("N", "nu", "dim_grown", "dim_translated", "dim_union", "unfrustrated")
    assert [report[key] for key in keys] == [pinned[key] for key in keys]
    residuals = ("max_h_residual", "max_local_energy")
    assert _close([report[key] for key in residuals], [pinned[key] for key in residuals], 1.0)


COMPARE = {"exponents": _exponents, "thermo": _thermo, "finite-check": _finite_check, "parent": _parent,
           "diag": _diag, "subspace-check": _subspace_check}


def check(case, code, text):
    """Assert that the exit code and stdout of one case's run match the pinned ones."""
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[case[0]]
    pinned = report_path(case).read_text(encoding="utf-8")
    if case[1][0] == "correlate":
        return _correlate(text, pinned)
    if not pinned:  # a refused run prints no report
        assert text == ""
        return
    report, pinned = json.loads(text), json.loads(pinned)
    assert report.keys() == pinned.keys()
    COMPARE[case[1][0]](report, pinned)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_report_matches_the_pinned_one(case):
    check(case, *report_text(case))
