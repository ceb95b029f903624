"""Two-point correlators at distances 2^m and critical exponents from channel spectra.

The connected correlator of an infinite tree at distance 2^m is the trace
of the observable pair against the m-th pair-descend image of the
difference between the true two-site state and its classical (product of
marginals) counterpart.  Exponents are base-2 logs of the pair-descend
adjoint's eigenvalues; eigenoperators are the corresponding primary blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tensor_core import TAU_RANK, Isometry, Observable
from . import channels as ch
from . import thermo

CLUSTER_TOL = 1e-7
EIGENOPERATOR_TOL = 1e-8
SERIES_FLOOR = 1e-14


@dataclass(frozen=True)
class CorrelatorQuery:
    theta: Observable
    theta_prime: Observable
    m: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("distance exponent must be >= 0, got %d" % self.m)

    def block(self) -> np.ndarray:
        return np.kron(self.theta.matrix, self.theta_prime.matrix)


@dataclass(frozen=True)
class SpectrumEntry:
    kappa: complex
    exponent: complex | None
    algebraic: int
    geometric: int
    eigenoperators: tuple

    @property
    def modulus(self) -> float:
        return abs(self.kappa)


@dataclass(frozen=True)
class SpectrumReport:
    d: int
    entries: tuple
    diagonalizable: bool


@dataclass(frozen=True)
class CorrelatorSeries:
    points: tuple                      # ((delta_alpha, value), ...)
    prefactor: complex                 # value at distance 1
    fitted_exponent: complex | None
    is_eigenoperator: bool
    kappa: complex | None
    degenerate: bool
    log_corrections: bool
    decomposition: tuple | None        # ((kappa, coefficient), ...) when fitted spectrally
    residual: float | None


def pair_difference_infinity(lam: Isometry) -> np.ndarray:
    """Quantum-minus-classical two-site state; traceless, drives all decay."""
    rho2 = thermo.two_site_infinity(lam)
    eta = thermo.classical_pair_infinity(lam)

    def build():
        diff = rho2.matrix - eta.matrix
        diff.setflags(write=False)
        return diff

    return lam._derive("pair-difference", build)


def pair_descend_series(
    pair: ch.Channel, diff: np.ndarray, block: np.ndarray, m_values: Iterable[int]
) -> Iterator[tuple[int, complex]]:
    """Yield ``(2**m, Tr[block P^m(diff)])`` for ascending ``m``, P the pair-descend channel.

    P is applied once per step of m, so a whole series costs one
    superoperator-vector product per distance doubling.
    """
    current = diff
    last_m = 0
    for m in m_values:
        for _ in range(m - last_m):
            current = ch.unvec(pair.matrix @ ch.vec(current), pair.dim_out)
        last_m = m
        yield 2 ** m, complex(np.trace(block @ current))


def correlator_thermo(lam: Isometry, query: CorrelatorQuery) -> complex:
    """Connected correlator at distance 2**query.m in the infinite-depth limit."""
    series = pair_descend_series(
        ch.pair_descend_channel(lam), pair_difference_infinity(lam), query.block(), [query.m]
    )
    return next(series)[1]


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    """Greedy connected-component clustering of complex values at tolerance tol."""
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), values[i].real, values[i].imag))
    clusters: list[list[int]] = []
    for i in order:
        for cluster in clusters:
            if any(abs(values[i] - values[j]) <= tol for j in cluster):
                cluster.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def _geometric(singular_values: np.ndarray, tau_rank: float) -> int:
    """Nullity of A - kappa I: singular values at or below tau_rank times the largest."""
    top = singular_values[0] if singular_values[0] > 0 else 1.0
    return int(np.count_nonzero(singular_values <= tau_rank * top))


def _spectral_structure(matrix: np.ndarray) -> list[tuple[complex, int, int, list[np.ndarray]]]:
    """(kappa, algebraic, geometric, null vectors) per eigenvalue cluster, by |kappa| descending.

    One eigendecomposition gives the clusters.  A simple eigenvalue has
    geometric multiplicity 1 and its eigenvector as null vector; a cluster of
    two or more is resolved by the SVD rank of (matrix - kappa I), whose null
    vectors are its last right singular vectors.  The channels here preserve
    Hermiticity, so their spectra are closed under conjugation: two clusters
    that are conjugate to CLUSTER_TOL get exactly conjugate kappas.  Moduli
    that agree to CLUSTER_TOL are ordered by Re kappa, then Im kappa,
    descending, so the order does not hang on the last bit.
    """
    evals, evecs = np.linalg.eig(matrix)
    eye = np.eye(matrix.shape[0])
    out = []
    for members in _cluster(evals, CLUSTER_TOL):
        kappa = complex(np.mean(evals[members]))
        if len(members) == 1:
            out.append((kappa, 1, 1, [evecs[:, members[0]]]))
            continue
        _, s, vh = np.linalg.svd(matrix - kappa * eye)
        geometric = _geometric(s, TAU_RANK)
        out.append((kappa, len(members), geometric, [vh[-1 - k].conj() for k in range(geometric)]))
    kappas = np.array([item[0] for item in out])
    for i in np.flatnonzero(kappas.imag > CLUSTER_TOL):
        j = int(np.argmin(np.abs(kappas - kappas[i].conjugate())))
        if abs(kappas[j] - kappas[i].conjugate()) <= CLUSTER_TOL and out[j][1] == out[i][1]:
            upper = complex(kappas[i] + kappas[j].conjugate()) / 2.0
            out[i], out[j] = (upper,) + out[i][1:], (upper.conjugate(),) + out[j][1:]
    out.sort(key=lambda item: -abs(item[0]))
    cuts = [k for k in range(1, len(out)) if abs(out[k - 1][0]) - abs(out[k][0]) > CLUSTER_TOL]
    runs = [out[a:b] for a, b in zip([0] + cuts, cuts + [len(out)])]
    return [item for run in runs for item in sorted(run, key=lambda r: (-r[0].real, -r[0].imag))]


def _log2_or_none(kappa: complex) -> complex | None:
    if abs(kappa) <= 1e-14:
        return None
    return complex(np.log(kappa) / np.log(2.0))


def exponent_spectrum(lam: Isometry) -> SpectrumReport:
    """Full eigenstructure of the pair-descend adjoint, sorted by |kappa| descending.

    Geometric multiplicities of degenerate clusters come from the SVD rank of
    (A - kappa I) at the rank tolerance; eigenoperators are the corresponding
    null vectors, reshaped to two-site operators.
    """
    adj = ch.adjoint(ch.pair_descend_channel(lam))
    entries = tuple(
        SpectrumEntry(
            kappa=kappa,
            exponent=_log2_or_none(kappa),
            algebraic=algebraic,
            geometric=geometric,
            eigenoperators=tuple(ch.unvec(x, adj.dim_out) for x in null),
        )
        for kappa, algebraic, geometric, null in _spectral_structure(adj.matrix)
    )
    diagonalizable = all(e.algebraic == e.geometric for e in entries)
    return SpectrumReport(d=lam.d, entries=entries, diagonalizable=diagonalizable)


def powerlaw_check(
    lam: Isometry,
    query,
    m_range: Sequence[int] = range(0, 16),
) -> CorrelatorSeries:
    """Correlator series over distances 2^m with a power-law consistency fit.

    ``query`` is a CorrelatorQuery or a raw two-site block.  If the block is
    an eigenoperator of the pair-descend adjoint, successive ratios must
    reproduce its eigenvalue and the fitted exponent is the base-2 log of
    the mean ratio.  Otherwise the series is decomposed over the spectrum;
    Jordan structure (log corrections) is flagged and the decomposition is
    fitted with polynomial coefficients, reporting the residual.
    """
    m_values = sorted(set(int(m) for m in m_range))
    if not m_values or m_values[0] < 0:
        raise ValueError("m_range must contain nonnegative integers")
    if isinstance(query, CorrelatorQuery):
        block = query.block()
    else:
        block = np.asarray(query, dtype=complex)
    pair = ch.pair_descend_channel(lam)
    dim = pair.dim_out
    if block.shape != (dim, dim):
        raise ValueError("observable block must be %d x %d" % (dim, dim))

    series = list(pair_descend_series(pair, pair_difference_infinity(lam), block, sorted({0, *m_values})))
    g = series[0][1]
    points = series if m_values[0] == 0 else series[1:]
    values = np.array([v for _, v in points])
    scale = float(np.abs(values).max()) if values.size else 0.0

    if scale < SERIES_FLOOR:
        return CorrelatorSeries(
            points=tuple(points), prefactor=g, fitted_exponent=None,
            is_eigenoperator=False, kappa=None, degenerate=True,
            log_corrections=False, decomposition=None, residual=None,
        )

    # eigenoperator membership against the adjoint map
    adj_mat = pair.matrix.conj().T
    x = ch.vec(block)
    ax = adj_mat @ x
    kappa_est = complex(np.vdot(x, ax) / np.vdot(x, x))
    member = float(np.linalg.norm(ax - kappa_est * x)) <= EIGENOPERATOR_TOL * float(np.linalg.norm(x))

    if member:
        floor = max(SERIES_FLOOR, 1e-6 * scale)
        ratios = [
            points[i + 1][1] / points[i][1]
            for i in range(len(points) - 1)
            if m_values[i + 1] == m_values[i] + 1
            and abs(points[i][1]) >= floor and abs(points[i + 1][1]) >= floor
        ]
        if not ratios:
            return CorrelatorSeries(
                points=tuple(points), prefactor=g, fitted_exponent=None,
                is_eigenoperator=True, kappa=kappa_est, degenerate=True,
                log_corrections=False, decomposition=None, residual=None,
            )
        kappa_fit = complex(np.mean(ratios))
        return CorrelatorSeries(
            points=tuple(points), prefactor=g,
            fitted_exponent=_log2_or_none(kappa_fit),
            is_eigenoperator=True, kappa=kappa_est, degenerate=False,
            log_corrections=False, decomposition=None,
            residual=float(max(abs(r - kappa_est) for r in ratios)),
        )

    # general block: decompose over the spectrum of the forward map
    structure = [(kappa, alg, geo) for kappa, alg, geo, _ in _spectral_structure(pair.matrix)]
    jordan = any(alg != geo for _, alg, geo in structure)
    ms = np.array(m_values, dtype=float)
    columns = []
    labels = []
    for kappa, alg, geo in structure:
        if abs(kappa) == 0.0:
            columns.append(np.array([1.0 + 0j if m == 0 else 0.0 for m in m_values]))
            labels.append((kappa, 0))
            continue
        width = max(1, alg - geo + 1) if jordan else 1
        for p in range(width):
            columns.append((kappa ** ms) * (ms ** p))
            labels.append((kappa, p))
    design = np.stack(columns, axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    reconstructed = design @ coeffs
    residual = float(np.abs(reconstructed - values).max())
    decomposition = tuple(
        (labels[i][0], complex(coeffs[i]))
        for i in range(len(labels))
        if labels[i][1] == 0
    )
    contributing = [
        (kappa, coeff) for (kappa, coeff) in decomposition if abs(coeff) > 1e-12 and abs(kappa) > 0
    ]
    fitted = _log2_or_none(max(contributing, key=lambda t: abs(t[0]))[0]) if contributing else None
    return CorrelatorSeries(
        points=tuple(points), prefactor=g, fitted_exponent=fitted,
        is_eigenoperator=False, kappa=None, degenerate=False,
        log_corrections=jordan, decomposition=decomposition, residual=residual,
    )
