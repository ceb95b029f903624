"""Regenerate the pinned ``hbts exponents``, ``thermo``, ``finite-check``, ``correlate``, ``parent``, ``diag``
and ``subspace-check`` reports under tests/data.

Run from the repository root with ``PYTHONPATH=src python tests/regen_exponent_reports.py``.
tests/test_exponent_reports.py compares the current code against these files.  A report is written only
when it is missing or that comparison rejects it, so a regeneration leaves every report that still passes
as it is; say where it is recorded which reports a change moved.  Each report is the stdout of one CLI
run, in ``tests/data/<command>/<case>.json`` (``.csv`` for ``correlate``); ``tests/data/exit-codes.json``
holds the exit code of every run.
"""

import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from conftest import flip_isometry
from hbts import cli
from hbts import tensor_core as tc

DATA = Path(__file__).resolve().parent / "data"
EXIT_CODES = DATA / "exit-codes.json"

# (name, --isometry: a name or an Isometry written to a file, --d): the bundled isometry, product trees, seeded files
NAMED = [("paper", "paper", 2)] + [("product-d%d" % d, "product", d) for d in (2, 3)]


def _seeded(seeds, dims):
    return [("seed%d-d%d" % (seed, d), tc.random_isometry(d, seed), d) for d in dims for seed in seeds]


def _observable(d, seed):
    """A seeded Hermitian observable, the Hermitian part of a complex Gaussian matrix, written to a file."""
    rng = np.random.default_rng([d, seed])
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return tc.Observable(d, (a + a.conj().T) / 2.0)


def _observables(d):
    """(suffix, theta, theta'): the named observables at d = 2, one seeded pair above."""
    if d == 2:
        return [("-z-z", "z", "z"), ("-x-y", "x", "y")]
    return [("", _observable(d, 0), _observable(d, 1))]


# the largest depth whose explicit state fits the default budget of 65536 amplitudes, d**(2**n)
N_MAX = {2: 4, 3: 3, 4: 3}

# (isometry case, ring sizes N) of the diag and subspace-check runs; subspace-check refuses the odd N = 7
DIAG_RINGS = ([(NAMED[0], range(6, 11)), (NAMED[1], (6, 8))]
              + [(case, (7, 8)) for case in _seeded(range(2), (2,))]
              + [(case, (5, 6)) for case in _seeded(range(2), (3,))])
SUBSPACE_RINGS = ([(NAMED[0], (6, 7, 8, 10))]
                  + [(case, (8,)) for case in _seeded(range(2), (2,))]
                  + [(case, (6,)) for case in _seeded(range(2), (3,))])

# (report name under DATA, CLI arguments before --isometry, with observables written to files, --isometry, --d)
CASES = (
    [("exponents/" + name, ["exponents"], spec, d)
     for name, spec, d in NAMED + _seeded(range(4), (2, 3)) + _seeded(range(2), (4,))]
    + [("thermo/%s-nu%d" % (name, nu), ["thermo", "--nu", str(nu)], spec, d)
       for name, spec, d in NAMED + _seeded(range(2), (2, 3, 4)) for nu in (1, 2, 3, 4)]
    + [("thermo/%s-nu2" % name, ["thermo", "--nu", "2"], spec, d) for name, spec, d in _seeded(range(2), (5, 6))]
    + [("finite-check/%s-%s" % (name, top), ["finite-check", "--top", top, "--n-max", str(N_MAX[d])], spec, d)
       for name, spec, d in NAMED + _seeded(range(2), (2, 3, 4)) for top in ("diag", "corner")]
    + [("correlate/" + name + suffix, ["correlate", "--theta", theta, "--theta-prime", prime, "--m-max", "10"], spec, d)
       for name, spec, d in NAMED + _seeded(range(2), (2, 3, 4, 5, 6)) + [("flip", flip_isometry(), 2)]
       for suffix, theta, prime in _observables(d)]
    + [("parent/" + name, ["parent"], spec, d) for name, spec, d in NAMED + _seeded(range(2), (2, 3))]
    + [("%s/%s-N%d" % (command, name, N), [command, "--N", str(N)], spec, d)
       for command, rings in (("diag", DIAG_RINGS), ("subspace-check", SUBSPACE_RINGS))
       for (name, spec, d), sizes in rings for N in sizes]
)


def report_path(case) -> Path:
    return DATA / (case[0] + (".csv" if case[1][0] == "correlate" else ".json"))


def report_text(case) -> tuple[int, str]:
    """The exit code and stdout of the CLI run of one case; isometries and observables go through saved files."""
    _, args, spec, d = case
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(spec, tc.Isometry):
            tc.save_isometry(spec, os.path.join(tmp, "lam.json"))
            spec = os.path.join(tmp, "lam.json")
        args = list(args)
        for k, arg in enumerate(args):
            if isinstance(arg, tc.Observable):
                args[k] = os.path.join(tmp, "obs%d.json" % k)
                tc.save_observable(arg, args[k])
        out = StringIO()
        with redirect_stdout(out):
            code = cli.main(args + ["--isometry", spec, "--d", str(d)])
    return code, out.getvalue()


def main() -> int:
    from test_exponent_reports import check  # that module imports this one

    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8")) if EXIT_CODES.exists() else {}
    written = []
    for case in CASES:
        code, text = report_text(case)
        path = report_path(case)
        if case[0] in codes and path.exists():
            try:
                check(case, code, text)
                continue
            except AssertionError:
                pass
        codes[case[0]] = code
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        written.append(case[0])
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %d of %d reports to %s%s" % (len(written), len(CASES), DATA, "".join("\n  " + w for w in written)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
