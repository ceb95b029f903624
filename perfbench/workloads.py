"""Workloads of the hbts benchmark: seeded inputs, job lists and output checks.

``build(name, seed)`` returns the workload's fixed job list.  Every input is
drawn from the workload seed, except the bundled paper isometry.  A job
calls the library only through the ``call`` it is given, so the worker can
wrap each call in a span, and returns the raw outputs.  ``Job.check``
verifies those outputs afterwards, outside the timed region, and returns the
problems it found together with a compact fingerprint that is compared
against the reference outputs recorded in ``reference.json``.

Rebuilding the library objects from plain arrays inside every job keeps a
cache keyed on object identity from carrying results from one pass into the
next.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hbts import channels as ch
from hbts import correlators as co
from hbts import finite_state as fs
from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts import thermo

TOL = 1e-10        # density matrices, correlators, energies, oracle residuals
KAPPA_TOL = 1e-8   # eigenvalues of the non-normal pair-descend adjoint
PROBES = 2         # seeded Hermitian probes per density matrix in a fingerprint


@dataclass(frozen=True)
class Job:
    key: str                        # reference key; holds the seed for seeded inputs
    cls: str                        # job class, e.g. "d=3" or "N=11"
    run: Callable[[Callable], dict]
    check: Callable[[dict], tuple]  # outputs -> (problems, fingerprint)


def plain_call(fn, *args, tag=""):
    """The untraced ``call``: invoke the library function directly."""
    return fn(*args)


# ----------------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------------

def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _isometry(rng, d: int) -> np.ndarray:
    return np.array(tc.random_isometry(d, int(rng.integers(2 ** 31))).v)


def _complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(rng, dim: int) -> np.ndarray:
    a = _complex_gaussian(rng, (dim, dim))
    return (a + a.conj().T) / 2.0


def _top(rng, d: int) -> np.ndarray:
    c = _complex_gaussian(rng, (d, d))
    return c / np.linalg.norm(c)


# ----------------------------------------------------------------------------
# output checks and fingerprints
# ----------------------------------------------------------------------------

def _keep_sites(mat: np.ndarray, d: int, nu: int, first: int, count: int) -> np.ndarray:
    """Reduce a nu-site operator to the consecutive sites first..first+count-1 (0-based)."""
    t = mat.reshape((d,) * (2 * nu))
    for s in sorted(set(range(nu)) - set(range(first, first + count)), reverse=True):
        t = np.trace(t, axis1=s, axis2=s + t.ndim // 2)
    return t.reshape(d ** count, d ** count)


def _density_problems(name: str, mat: np.ndarray) -> list:
    herm = float(np.abs(mat - mat.conj().T).max())
    trace = abs(complex(np.trace(mat)) - 1.0)
    low = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
    if herm > TOL or trace > TOL or low < -TOL:
        return ["%s is not a density matrix: herm %.2e, trace %.2e, min eig %.2e" % (name, herm, trace, low)]
    return []


def _marginal_problems(name: str, big: np.ndarray, small: np.ndarray, d: int, nu: int) -> list:
    """Both end-aligned (nu-1)-site marginals of ``big`` must equal ``small``."""
    worst = max(float(np.abs(_keep_sites(big, d, nu, first, nu - 1) - small).max()) for first in (0, 1))
    return ["%s marginals miss the smaller state by %.2e" % (name, worst)] if worst > TOL else []


def _probe(dim: int, k: int) -> np.ndarray:
    return _hermitian(np.random.default_rng([dim, k]), dim)


def _density_print(mat: np.ndarray) -> list:
    """Expectations of fixed seeded Hermitian probes, divided by the dimension.

    Unlike the spectrum they see the basis and the orientation; the division
    keeps an entrywise error of TOL within TOL in the print.
    """
    dim = mat.shape[0]
    return [float(np.trace(_probe(dim, k) @ mat).real) / dim for k in range(PROBES)]


def _spectrum_print(mat: np.ndarray) -> list:
    return [float(x) for x in np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)]


def _complex_list(values) -> list:
    return [float(x) for z in values for x in (complex(z).real, complex(z).imag)]


def _state_checks(d: int, rho: dict, eta: np.ndarray) -> tuple:
    """Density-matrix invariants and fingerprint for rho[1..k] and eta."""
    problems = []
    for nu, mat in rho.items():
        problems += _density_problems("rho%d" % nu, mat)
        if nu > 1:
            problems += _marginal_problems("rho%d" % nu, mat, rho[nu - 1], d, nu)
    problems += _density_problems("eta", eta)
    problems += _marginal_problems("eta", eta, rho[1], d, 2)
    fp = {"eig_rho1": _spectrum_print(rho[1]), "eig_rho2": _spectrum_print(rho[2]), "eig_eta": _spectrum_print(eta)}
    for nu, mat in rho.items():
        fp["probe_rho%d" % nu] = _density_print(mat)
    fp["probe_eta"] = _density_print(eta)
    return problems, fp


def _choi_problems(reports) -> list:
    bad = [i for i, r in enumerate(reports) if not (r.completely_positive and r.trace_preserving)]
    return ["channels %s fail the CPTP check" % bad] if bad else []


def _correlator_checks(values) -> tuple:
    imag = max(abs(complex(v).imag) for v in values)
    problems = ["Hermitian correlators have imaginary part %.2e" % imag] if imag > TOL else []
    return problems, {"corr": _complex_list(values)}


def _interaction_checks(hs, rho: dict) -> tuple:
    problems = []
    if hs.kernel_dim < 1:
        problems.append("interaction has an empty kernel")
    elif hs.nu in rho:
        residual = float(np.abs(hs.h_term @ rho[hs.nu]).max())
        if residual > TOL:
            problems.append("interaction does not annihilate rho%d: %.2e" % (hs.nu, residual))
    return problems, {"nu": int(hs.nu), "kernel_dim": int(hs.kernel_dim)}


def _thermo_states(call, lam, nu_max: int) -> dict:
    rho = {
        1: call(thermo.single_site_infinity, lam).state.matrix,
        2: call(thermo.two_site_infinity, lam).matrix,
    }
    for nu in range(3, nu_max + 1):
        rho[nu] = call(thermo.reduced_infinity, lam, nu, tag="_%d" % nu).matrix
    return rho


def _merge(*parts) -> tuple:
    problems, fp = [], {}
    for p, f in parts:
        problems += p
        fp.update(f)
    return problems, fp


# ----------------------------------------------------------------------------
# ensemble: many small isometries, every layer the thermodynamic side has
# ----------------------------------------------------------------------------

ENSEMBLE_DIMS = (2, 2, 3) * 3           # 9 isometries, one in three at d = 3
ENSEMBLE_DEPTH = {2: 4, 3: 3}           # oracle tree depth per local dimension
ENSEMBLE_M = range(16)


def _ensemble_job(d, v, top, theta, theta_prime):
    def run(call):
        lam = tc.Isometry(d, v)
        out = {"valid": call(tc.validate_isometry, lam)}
        dc = call(ch.descend_channels, lam)
        channels = [dc.left, dc.right, dc.average, call(ch.pair_descend_channel, lam)]
        channels += [call(ch.extension_channel, lam, nu) for nu in (3, 4)]
        out["choi"] = [call(ch.choi_check, c) for c in channels]
        out["rho"] = _thermo_states(call, lam, 4)
        out["eta"] = call(thermo.classical_pair_infinity, lam).matrix
        obs = (tc.Observable(d, theta), tc.Observable(d, theta_prime))
        out["corr"] = [call(co.correlator_thermo, lam, co.CorrelatorQuery(*obs, m)) for m in ENSEMBLE_M]
        out["recursion"] = call(fs.recursion_check, lam, tc.TopTensor(d, top), ENSEMBLE_DEPTH[d])
        out["hs"] = call(ph.build_interaction, lam)
        if out["hs"].nu == 3:
            out["nullity"] = call(ph.adjoint_nullity_check, lam, out["hs"])
        return out

    def check(out):
        problems, fp = _merge(
            _state_checks(d, out["rho"], out["eta"]),
            _correlator_checks(out["corr"]),
            _interaction_checks(out["hs"], out["rho"]),
        )
        if not out["valid"].passed:
            problems.append("seeded isometry fails validation")
        problems += _choi_problems(out["choi"])
        if out["recursion"].max_residual > TOL:
            problems.append("oracle recursion residual %.2e" % out["recursion"].max_residual)
        null = out.get("nullity")
        if null is not None and null.precondition_met and null.residual > TOL:
            problems.append("adjoint nullity residual %.2e" % null.residual)
        return problems, fp

    return run, check


def _ensemble(seed: int) -> list:
    rng = _rng("ensemble", seed)
    jobs = []
    for i, d in enumerate(ENSEMBLE_DIMS):
        run, check = _ensemble_job(d, _isometry(rng, d), _top(rng, d), _hermitian(rng, d), _hermitian(rng, d))
        jobs.append(Job("seed%d/j%d/d%d" % (seed, i, d), "d=%d" % d, run, check))
    return jobs


# ----------------------------------------------------------------------------
# spectrum: full eigenstructure of the pair-descend adjoint
# ----------------------------------------------------------------------------

# Spectra at d >= 5 are left out: they exceed memory.  The d = 3 spectra take about a third of a
# pass, on both sides of the d = 4 one, so that their latencies sample the host's speed over much of
# a run and not in one short stretch.
SPECTRUM_DIMS = (3,) * 10 + (4,) + (3,) * 10
POWERLAW_M = range(16)


def _kappa_set(report) -> list:
    return _complex_list(e.kappa for e in report.entries)


def _spectrum_job(d, v):
    def run(call):
        return {"spec": call(co.exponent_spectrum, tc.Isometry(d, v))}

    def check(out):
        spec = out["spec"]
        problems = []
        total = sum(e.algebraic for e in spec.entries)
        if total != d ** 4:
            problems.append("algebraic multiplicities sum to %d, not d^4 = %d" % (total, d ** 4))
        if abs(spec.entries[0].kappa - 1.0) > TOL:
            problems.append("leading eigenvalue %r is not 1" % spec.entries[0].kappa)
        if max(abs(e.kappa) for e in spec.entries) > 1.0 + TOL:
            problems.append("an eigenvalue lies outside the unit disk")
        if any(e.geometric > e.algebraic or e.geometric < 1 for e in spec.entries):
            problems.append("a geometric multiplicity is out of range")
        return problems, {"kappa": _kappa_set(spec)}

    return run, check


def _powerlaw_job(d, v, block):
    def run(call):
        return {"series": call(co.powerlaw_check, tc.Isometry(d, v), block, POWERLAW_M)}

    def check(out):
        s = out["series"]
        problems = []
        if [delta for delta, _ in s.points] != [2 ** m for m in POWERLAW_M]:
            problems.append("series distances are not 2^m")
        if s.is_eigenoperator:
            problems.append("a generic block was classified as an eigenoperator")
        if s.residual is None or s.residual > TOL:
            problems.append("spectral decomposition residual %r" % s.residual)
        return problems, {"series": _complex_list(v for _, v in s.points)}

    return run, check


def _spectrum(seed: int) -> list:
    rng = _rng("spectrum", seed)
    jobs = []
    for i, d in enumerate(SPECTRUM_DIMS):
        run, check = _spectrum_job(d, _isometry(rng, d))
        jobs.append(Job("seed%d/j%d/d%d" % (seed, i, d), "d=%d" % d, run, check))
    paper = tc.paper_isometry()
    run, check = _spectrum_job(paper.d, np.array(paper.v))
    jobs.append(Job("paper", "paper", run, check))
    run, check = _powerlaw_job(3, _isometry(rng, 3), _hermitian(rng, 9))
    jobs.append(Job("seed%d/powerlaw/d3" % seed, "powerlaw d=3", run, check))
    return jobs


# ----------------------------------------------------------------------------
# ground-space: parent-Hamiltonian assembly and exact diagonalization on rings
# ----------------------------------------------------------------------------

# Seven jobs, so the median job latency falls inside one ring's samples (N = 9) and not in the gap
# between two rings' latencies, where it would swing with every pass
PAPER_RINGS = (7, 8, 9, 10, 11)
SEEDED_RINGS = (5, 6)         # one seeded d = 3 isometry


def _ground_job(d, v, N, bundled):
    def run(call):
        lam = tc.Isometry(d, v)
        hs = call(ph.build_interaction, lam)
        out = {"hs": hs, "ground": call(ph.diagonalize, call(ph.assemble, hs, N))}
        if N % 2 == 0:
            out["sub"] = call(ph.grown_subspace_check, lam, hs, N)
        return out

    def check(out):
        g = out["ground"]
        problems = []
        if len(g.spectrum) != d ** N:
            problems.append("spectrum has %d values, not d^N" % len(g.spectrum))
        if N % 2 == 0:
            if abs(g.ground_energy) > TOL:
                problems.append("even ring ground energy %.2e is not 0" % g.ground_energy)
            if bundled and g.degeneracy != 2 * 2 ** (N // 2):
                problems.append("degeneracy %d, expected 2*2^(N/2)" % g.degeneracy)
            sub = out["sub"]
            if sub.dim_union != g.degeneracy or not sub.unfrustrated:
                problems.append("grown subspace: union %d vs degeneracy %d, unfrustrated %s"
                                % (sub.dim_union, g.degeneracy, sub.unfrustrated))
        elif g.ground_energy <= TOL:
            problems.append("odd ring is not frustrated: E0 = %.2e" % g.ground_energy)
        deg = g.degeneracy
        fp = {
            "nu": int(out["hs"].nu),
            "kernel_dim": int(out["hs"].kernel_dim),
            "degeneracy": int(deg),
            "low": [float(x) for x in g.spectrum[: deg + 8]],
            "high": [float(g.spectrum[-1]), float(np.mean(g.spectrum))],
        }
        if "sub" in out:
            fp["dims"] = [int(out["sub"].dim_grown), int(out["sub"].dim_translated), int(out["sub"].dim_union)]
        return problems, fp

    return run, check


def _ground_space(seed: int) -> list:
    paper = tc.paper_isometry()
    jobs = []
    for N in PAPER_RINGS:
        run, check = _ground_job(2, np.array(paper.v), N, True)
        jobs.append(Job("paper/N%d" % N, "N=%d" % N, run, check))
    v = _isometry(_rng("ground-space", seed), 3)
    for N in SEEDED_RINGS:
        run, check = _ground_job(3, v, N, False)
        jobs.append(Job("seed%d/d3/N%d" % (seed, N), "d=3 N=%d" % N, run, check))
    return jobs


# ----------------------------------------------------------------------------

BUILDERS = {
    "ensemble": _ensemble,
    "spectrum": _spectrum,
    "ground-space": _ground_space,
}

LARGE_CLASS = {
    "ensemble": "d=3",
    "spectrum": "d=4",
    "ground-space": "N=11",
}


def build(name: str, seed: int) -> list:
    """The workload's fixed job list, with every input drawn from ``seed``."""
    return BUILDERS[name](seed)


# ----------------------------------------------------------------------------
# reference comparison
# ----------------------------------------------------------------------------

def _set_distance(a, b) -> float:
    """Two-sided distance between two finite sets of complex numbers."""
    za = np.asarray(a[0::2]) + 1j * np.asarray(a[1::2])
    zb = np.asarray(b[0::2]) + 1j * np.asarray(b[1::2])
    gaps = np.abs(za[:, None] - zb[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def compare(fp: dict, ref: dict) -> list:
    """Differences between a fingerprint and its recorded reference.

    Integers must match exactly, eigenvalue sets of the pair-descend adjoint
    must lie within KAPPA_TOL of each other, and every other number within TOL.
    """
    if set(fp) != set(ref):
        return ["fingerprint fields %s differ from the reference %s" % (sorted(fp), sorted(ref))]
    problems = []
    for name, want in ref.items():
        got = fp[name]
        if isinstance(want, int) or all(isinstance(x, int) for x in want):
            if got != want:
                problems.append("%s = %r, reference %r" % (name, got, want))
        elif name == "kappa":
            gap = _set_distance(got, want)
            if gap > KAPPA_TOL:
                problems.append("eigenvalue set misses the reference by %.2e" % gap)
        elif len(got) != len(want):
            problems.append("%s has %d values, reference %d" % (name, len(got), len(want)))
        else:
            gap = float(np.abs(np.subtract(got, want)).max())
            if gap > TOL:
                problems.append("%s misses the reference by %.2e" % (name, gap))
    return problems
