"""Regenerate the pinned ``hbts exponents`` reports under tests/data/exponents.

Run from the repository root with ``PYTHONPATH=src python tests/regen_exponent_reports.py``.
Only regenerate after a change that is meant to move the spectrum, and say so where it is recorded:
tests/test_exponent_reports.py compares the current code against these files.
"""

import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from hbts import cli
from hbts import tensor_core as tc

DATA = Path(__file__).resolve().parent / "data" / "exponents"

# (file stem, --isometry, --d, seed or None): the bundled isometry, product trees and seeded files
CASES = ([("paper", "paper", 2, None)] + [("product-d%d" % d, "product", d, None) for d in (2, 3)]
         + [("seed%d-d%d" % (seed, d), None, d, seed) for d in (2, 3) for seed in range(4)]
         + [("seed%d-d4" % seed, None, 4, seed) for seed in range(2)])


def report_text(case) -> str:
    """The stdout of ``hbts exponents`` for one case; a seeded isometry goes through its saved file."""
    _, spec, d, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        if seed is not None:
            spec = os.path.join(tmp, "lam.json")
            tc.save_isometry(tc.random_isometry(d, seed), spec)
        out = StringIO()
        with redirect_stdout(out):
            code = cli.main(["exponents", "--isometry", spec, "--d", str(d)])
    if code != 0:
        raise RuntimeError("hbts exponents exited %d on %s" % (code, case[0]))
    return out.getvalue()


def main() -> int:
    DATA.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (DATA / (case[0] + ".json")).write_text(report_text(case), encoding="utf-8")
    print("wrote %d reports to %s" % (len(CASES), DATA))
    return 0


if __name__ == "__main__":
    sys.exit(main())
