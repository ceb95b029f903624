"""Regenerate the pinned ``hbts exponents``, ``thermo`` and ``finite-check`` reports under tests/data.

Run from the repository root with ``PYTHONPATH=src python tests/regen_exponent_reports.py``.
Only regenerate after a change that is meant to move the reports, and say so where it is recorded:
tests/test_exponent_reports.py compares the current code against these files.  Each report is the
stdout of one CLI run, in ``tests/data/<command>/<case>.json``; ``tests/data/exit-codes.json`` holds
the exit code of every run.
"""

import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from hbts import cli
from hbts import tensor_core as tc

DATA = Path(__file__).resolve().parent / "data"
EXIT_CODES = DATA / "exit-codes.json"

# (name, --isometry, --d, seed or None): the bundled isometry, product trees and seeded files
NAMED = [("paper", "paper", 2, None)] + [("product-d%d" % d, "product", d, None) for d in (2, 3)]


def _seeded(seeds, dims):
    return [("seed%d-d%d" % (seed, d), None, d, seed) for d in dims for seed in seeds]


# the largest depth whose explicit state fits the default budget of 65536 amplitudes, d**(2**n)
N_MAX = {2: 4, 3: 3, 4: 3}

# (report path under DATA, CLI arguments before --isometry, --isometry, --d, seed or None)
CASES = (
    [("exponents/" + name, ["exponents"], spec, d, seed)
     for name, spec, d, seed in NAMED + _seeded(range(4), (2, 3)) + _seeded(range(2), (4,))]
    + [("thermo/%s-nu%d" % (name, nu), ["thermo", "--nu", str(nu)], spec, d, seed)
       for name, spec, d, seed in NAMED + _seeded(range(2), (2, 3, 4)) for nu in (1, 2, 3, 4)]
    + [("finite-check/%s-%s" % (name, top), ["finite-check", "--top", top, "--n-max", str(N_MAX[d])], spec, d, seed)
       for name, spec, d, seed in NAMED + _seeded(range(2), (2, 3, 4)) for top in ("diag", "corner")]
)


def report_text(case) -> tuple[int, str]:
    """The exit code and stdout of the CLI run of one case; a seeded isometry goes through its saved file."""
    _, args, spec, d, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        if seed is not None:
            spec = os.path.join(tmp, "lam.json")
            tc.save_isometry(tc.random_isometry(d, seed), spec)
        out = StringIO()
        with redirect_stdout(out):
            code = cli.main(args + ["--isometry", spec, "--d", str(d)])
    return code, out.getvalue()


def main() -> int:
    codes = {}
    for case in CASES:
        codes[case[0]], text = report_text(case)
        path = DATA / (case[0] + ".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %d reports to %s" % (len(CASES), DATA))
    return 0


if __name__ == "__main__":
    sys.exit(main())
