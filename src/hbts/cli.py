"""Command-line front end: validation, thermo solves, spectra, correlators, ED reports.

Every command is a thin wrapper over the library; outputs are deterministic
given the inputs (sorted keys, 17-significant-digit floats, atomic writes).
Exit codes: 0 success, 1 validation failure, 2 resource/argument error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import correlators, finite_state, mera_bounds, parent_ham, thermo
from . import tensor_core as tc
from . import reporting
from .errors import (
    DegenerateFixedPointError,
    KernelNotFoundError,
    ResourceLimitError,
    ShapeError,
    ValidationError,
)

OBSERVABLES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "p0": np.array([[1, 0], [0, 0]], dtype=complex),
    "p1": np.array([[0, 0], [0, 1]], dtype=complex),
}


def _of_dimension(tensor, d: int | None, spec: str):
    """The loaded tensor, refused when a dimension d is required and it has another."""
    if d is not None and tensor.d != d:
        raise ShapeError("%s has d=%d, expected d=%d" % (spec, tensor.d, d))
    return tensor


def _load_isometry(spec: str, d: int | None = None) -> tc.Isometry:
    if spec == "paper":
        lam = tc.paper_isometry()
    elif spec == "product":
        lam = tc.product_isometry(2 if d is None else d)
    else:
        lam = tc.load_isometry(spec)
    return _of_dimension(lam, d, spec)


def _load_top(spec: str, d: int | None = None) -> tc.TopTensor:
    if spec in ("diag", "corner"):
        d = tc._integer(2 if d is None else d, "local dimension d", 2)
        if spec == "diag":
            return tc.TopTensor(d, np.eye(d, dtype=complex) / np.sqrt(d))
        c = np.zeros((d, d), dtype=complex)
        c[0, 0] = 1.0
        return tc.TopTensor(d, c)
    return _of_dimension(tc.load_top(spec), d, spec)


def _load_observable(spec: str, d: int) -> tc.Observable:
    obs = tc.Observable(2, OBSERVABLES[spec]) if spec in OBSERVABLES else tc.load_observable(spec)
    return _of_dimension(obs, d, spec)


def _emit(args, report: dict, summary: str) -> None:
    if getattr(args, "output", None):
        reporting.write_report(args.output, report)
        print(summary)
    else:
        print(reporting.dumps(report))


def _re_im(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def cmd_validate(args) -> int:
    reps = []
    d = args.d
    if args.isometry:
        lam = _load_isometry(args.isometry, d)
        d = lam.d
        reps.append(tc.validate_isometry(lam, args.tol))
    if args.top:
        reps.append(tc.validate_top(_load_top(args.top, d), args.tol))
    if not reps:
        raise ValueError("nothing to validate: pass --isometry and/or --top")
    report = {rep.kind: {"passed": rep.passed, "residual": rep.residual, "tol": rep.tol} for rep in reps}
    ok = all(rep.passed for rep in reps)
    _emit(args, report, "validate: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_random_isometry(args) -> int:
    lam = tc.random_isometry(args.d, args.seed)
    tc.save_isometry(lam, args.output)
    residual = tc.validate_isometry(lam).residual
    print("wrote %s (d=%d, seed=%d, residual=%s)" % (args.output, args.d, args.seed, reporting.format_float(residual)))
    return 0


def cmd_thermo(args) -> int:
    lam = _load_isometry(args.isometry, args.d)
    report = thermo.thermo_report(lam, args.nu)
    _emit(args, report, "thermo nu=%d: rank %d, mixing %s" % (args.nu, report["rank"], report["mixing"]))
    return 0


def cmd_exponents(args) -> int:
    lam = _load_isometry(args.isometry, args.d)
    spec = correlators.exponent_spectrum(lam)
    entries = []
    for e in spec.entries:
        entry = {
            "kappa": _re_im(e.kappa),
            "modulus": float(abs(e.kappa)),
            "exponent": None if e.exponent is None else _re_im(e.exponent),
            "algebraic": e.algebraic,
            "geometric": e.geometric,
        }
        entries.append(entry)
    report = {"d": spec.d, "diagonalizable": spec.diagonalizable, "entries": entries}
    _emit(args, report, "exponents: %d distinct eigenvalues" % len(entries))
    return 0


def cmd_correlate(args) -> int:
    lam = _load_isometry(args.isometry, args.d)
    theta = _load_observable(args.theta, lam.d)
    theta_prime = _load_observable(args.theta_prime, lam.d)
    series = correlators.correlator_series(lam, correlators.CorrelatorQuery(theta, theta_prime), range(args.m_max + 1))
    rows = [(delta, float(value.real), float(value.imag)) for delta, value in series]
    header = ["delta_alpha", "re", "im"]
    if args.output:
        reporting.write_csv(args.output, header, rows)
        print("correlate: wrote %d rows" % len(rows))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(reporting.csv_cell(v) for v in row))
    return 0


def cmd_finite_check(args) -> int:
    lam = _load_isometry(args.isometry, args.d)
    top = _load_top(args.top, lam.d)
    rep = finite_state.recursion_check(lam, top, args.n_max, max_amplitudes=args.max_amplitudes)
    report = dict(asdict(rep), max_residual=rep.max_residual, tol=args.tol, passed=rep.max_residual <= args.tol)
    _emit(args, report, "finite-check: max residual %s" % reporting.format_float(rep.max_residual))
    return 0 if report["passed"] else 1


def _interaction(args):
    """The isometry and its interaction from --isometry, --d, --nu and --weights."""
    lam = _load_isometry(args.isometry, args.d)
    try:
        weights = [float(x) for x in args.weights.split(",") if x.strip()] if args.weights else None
    except ValueError:
        raise ValueError("--weights takes comma-separated positive numbers, got %r" % args.weights) from None
    try:
        nu = int(args.nu)
    except ValueError:
        nu = args.nu  # 'auto', or text that build_interaction refuses, naming the windows it takes
    return lam, parent_ham.build_interaction(lam, weights, nu)


def cmd_parent(args) -> int:
    _, hs = _interaction(args)
    flat = []
    for z in hs.h_term.reshape(-1):
        flat.extend([float(z.real), float(z.imag)])
    report = {
        "d": hs.d,
        "nu": hs.nu,
        "kernel_dim": hs.kernel_dim,
        "weights": [float(w) for w in hs.weights],
        "h_term": flat,
    }
    _emit(args, report, "parent: nu=%d, kernel dimension %d" % (hs.nu, hs.kernel_dim))
    return 0


def cmd_diag(args) -> int:
    _, hs = _interaction(args)
    ham = parent_ham.assemble(hs, args.N, max_dim=args.max_dim)
    rep = parent_ham.diagonalize(ham, tau_gs=args.tau_gs, bins=args.bins)
    report = {
        "N": args.N,
        "nu": hs.nu,
        "kernel_dim": hs.kernel_dim,
        "ground_energy": rep.ground_energy,
        "degeneracy": rep.degeneracy,
        "tau_gs": rep.tau_gs,
        "spectrum": [float(x) for x in rep.spectrum],
        "histogram": [[left, right, count] for left, right, count in rep.histogram],
    }
    if args.eigenvalues_csv:
        reporting.write_csv(args.eigenvalues_csv, ["index", "energy"], list(enumerate(float(x) for x in rep.spectrum)))
    if args.histogram_csv:
        reporting.write_csv(args.histogram_csv, ["bin_left", "bin_right", "count"], list(rep.histogram))
    _emit(args, report, "diag N=%d: ground %s, degeneracy %d of %d" % (
        args.N, reporting.format_float(rep.ground_energy), rep.degeneracy, len(rep.spectrum)))
    return 0


def cmd_subspace_check(args) -> int:
    lam, hs = _interaction(args)
    rep = parent_ham.grown_subspace_check(lam, hs, args.N, tau_gs=args.tau_gs, max_dim=args.max_dim)
    report = dict(asdict(rep), nu=hs.nu)
    _emit(args, report, "subspace-check N=%d: union dimension %d, unfrustrated %s" % (
        rep.N, rep.dim_union, rep.unfrustrated))
    return 0


def cmd_mera_bounds(args) -> int:
    bound = mera_bounds.mera_rank_bound(args.topology, args.d)
    report = dict(asdict(bound), max=bound.full_dim)
    _emit(args, report, "mera-bounds: nu=%d, bound %d of %d" % (bound.nu, bound.bound, bound.full_dim))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbts",
        description="Homogeneous binary-tree state toolkit: channels, exponents, parent Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, isometry=True):
        p.add_argument("--isometry", required=isometry, help="isometry JSON file, or 'paper' / 'product'")
        p.add_argument("--d", type=int, default=None,
                       help="local dimension: of the named inputs, and required of the files")
        p.add_argument("-o", "--output", default=None, help="write the report to this file")

    def add_interaction(p, ring=True):
        add_common(p)
        p.add_argument("--nu", default="auto", help="interaction window: 2, 3, 4 or auto")
        p.add_argument("--weights", default=None, help="comma-separated positive kernel weights")
        if ring:
            p.add_argument("--N", type=int, required=True, help="ring size")
            p.add_argument("--tau-gs", type=float, default=parent_ham.TAU_GS,
                           help="absolute ground-energy tolerance")
            p.add_argument("--max-dim", type=int, default=parent_ham.DEFAULT_MAX_DIM,
                           help="largest ring dimension d^N to build")

    p = sub.add_parser("validate", help="check isometry/top-tensor invariants")
    add_common(p, isometry=False)
    p.add_argument("--top", default=None, help="top-tensor JSON file, or 'diag' / 'corner'")
    p.add_argument("--tol", type=float, default=tc.TAU_ISO)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("random-isometry", help="write a seeded random isometry file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_random_isometry)

    p = sub.add_parser("thermo", help="infinite-depth reduced state report")
    add_common(p)
    p.add_argument("--nu", type=int, choices=(1, 2, 3, 4), default=2)
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("exponents", help="critical-exponent spectrum of the pair-descend adjoint")
    add_common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("correlate", help="thermodynamic correlators at distances 2^m (CSV)")
    add_common(p)
    p.add_argument("--theta", required=True, help="x|y|z|p0|p1 or observable JSON file")
    p.add_argument("--theta-prime", required=True, help="x|y|z|p0|p1 or observable JSON file")
    p.add_argument("--m-max", type=int, default=10, help="largest m of the distances 2^m, at most 1023")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("finite-check", help="verify level recursions against brute force")
    add_common(p)
    p.add_argument("--top", required=True, help="top-tensor JSON file, or 'diag' / 'corner'")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-amplitudes", type=int, default=finite_state.DEFAULT_MAX_AMPLITUDES)
    p.set_defaults(func=cmd_finite_check)

    p = sub.add_parser("parent", help="build the kernel-projector interaction")
    add_interaction(p, ring=False)
    p.set_defaults(func=cmd_parent)

    p = sub.add_parser("diag", help="assemble on N sites and diagonalize")
    add_interaction(p)
    p.add_argument("--bins", type=int, default=50, help="histogram bins, at most %d" % parent_ham.BINS_MAX)
    p.add_argument("--eigenvalues-csv", default=None)
    p.add_argument("--histogram-csv", default=None)
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("subspace-check", help="verify the grown ground subspace and its translate")
    add_interaction(p)
    p.set_defaults(func=cmd_subspace_check)

    p = sub.add_parser("mera-bounds", help="kernel-rank bounds for renormalization topologies")
    p.add_argument("--topology", required=True, choices=("binary", "ternary"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_mera_bounds)

    return parser


def _check_args(args) -> None:
    """Refuse a tolerance that is not a finite number >= 0 and a size outside its range, naming the option."""
    for name in ("tol", "tau_gs"):
        if hasattr(args, name):
            tc._tolerance(getattr(args, name), "--" + name.replace("_", "-"))
    for name, low, high in [("m_max", 0, correlators.M_MAX), ("bins", 1, parent_ham.BINS_MAX), ("max_dim", 1, None),
                            ("max_amplitudes", 1, None)]:
        if hasattr(args, name):
            tc._integer(getattr(args, name), "--" + name.replace("_", "-"), low, high)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except (ValidationError, DegenerateFixedPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ResourceLimitError, KernelNotFoundError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory%s" % (": %s" % exc if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
