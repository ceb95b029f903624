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
    close = np.abs(values[:, None] - values[None, :]) <= tol
    label = np.full(len(values), -1)
    clusters: list[list[int]] = []
    for i in order:
        near = label[close[i] & (label >= 0)]
        if near.size:
            label[i] = near.min()
            clusters[label[i]].append(i)
        else:
            label[i] = len(clusters)
            clusters.append([i])
    return clusters


def _resolve_cluster(matrix: np.ndarray, kappa: complex, algebraic: int) -> tuple:
    """(kappa, algebraic, geometric, null vectors) of a cluster, from the SVD of matrix - kappa I."""
    _, s, vh = np.linalg.svd(matrix - kappa * np.eye(matrix.shape[0]))
    geometric = int(np.count_nonzero(s <= TAU_RANK * (s[0] if s[0] > 0 else 1.0)))
    return kappa, algebraic, geometric, [vh[-1 - k].conj() for k in range(geometric)]


def _canonical(out: list) -> list:
    """Clusters with exact conjugate pairs and real axis, sorted by |kappa| descending.

    The channels here preserve Hermiticity, so their spectra are closed
    under conjugation: two clusters that are conjugate to CLUSTER_TOL get
    exactly conjugate kappas, and a cluster within CLUSTER_TOL of the real
    axis with no conjugate partner is real, with imaginary part +0.0 (so
    log kappa of a negative kappa is +i pi whatever the sign of the
    roundoff).  Moduli that agree to CLUSTER_TOL are ordered by Re kappa,
    then Im kappa, descending, so the order does not hang on the last bit.
    """
    kappas = np.array([item[0] for item in out])
    for i in np.flatnonzero(kappas.imag > CLUSTER_TOL):
        j = int(np.argmin(np.abs(kappas - kappas[i].conjugate())))
        if abs(kappas[j] - kappas[i].conjugate()) <= CLUSTER_TOL and out[j][1] == out[i][1]:
            upper = complex(kappas[i] + kappas[j].conjugate()) / 2.0
            out[i], out[j] = (upper,) + out[i][1:], (upper.conjugate(),) + out[j][1:]
    for i in np.flatnonzero(np.abs(kappas.imag) <= CLUSTER_TOL):
        partners = np.abs(kappas - kappas[i].conjugate()) <= CLUSTER_TOL
        partners[i] = False
        if not partners.any():
            out[i] = (complex(kappas[i].real, 0.0),) + out[i][1:]
    out.sort(key=lambda item: -abs(item[0]))
    cuts = [k for k in range(1, len(out)) if abs(out[k - 1][0]) - abs(out[k][0]) > CLUSTER_TOL]
    runs = [out[a:b] for a, b in zip([0] + cuts, cuts + [len(out)])]
    return [item for run in runs for item in sorted(run, key=lambda r: (-r[0].real, -r[0].imag))]


def _spectral_structure(matrix: np.ndarray) -> list[tuple[complex, int, int, list[np.ndarray]]]:
    """(kappa, algebraic, geometric, null vectors) per eigenvalue cluster, in the order of _canonical.

    One eigendecomposition gives the clusters.  A simple eigenvalue has
    geometric multiplicity 1 and its eigenvector as null vector; a cluster of
    two or more goes to :func:`_resolve_cluster`.
    """
    evals, evecs = np.linalg.eig(matrix)
    out = []
    for members in _cluster(evals, CLUSTER_TOL):
        kappa = complex(np.mean(evals[members]))
        if len(members) == 1:
            out.append((kappa, 1, 1, [evecs[:, members[0]]]))
        else:
            out.append(_resolve_cluster(matrix, kappa, len(members)))
    return _canonical(out)


def _hermitian_frame(d: int) -> np.ndarray:
    """Unitary d^2 x d^2 matrix of vectorized orthonormal Hermitian operators E_i, E_0 = -1/sqrt(d).

    A Householder reflection gives real orthonormal operators X; the map
    X -> ((1 + i) X + (1 - i) X^T)/2 keeps them orthonormal and makes them
    Hermitian, so Hermiticity-preserving maps are real in this basis.
    """
    w = ch.vec(np.eye(d)) / np.sqrt(d)
    w[0] += 1.0
    real = np.eye(d * d) - np.outer(w, w) / w[0]
    transposed = real.reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)
    return ((1 + 1j) * real + (1 - 1j) * transposed) / 2.0


def _sector_basis(d: int) -> tuple:
    """Swap-(anti)symmetrized products of E_i (x) E_j (product index i d^2 + j), as 1, S+, S-, K_sym, K_anti.

    Column q is ``w1[q] e[p1[q]] + w2[q] e[p2[q]]``.  1, S+ and S- span the
    O (x) 1 and 1 (x) O; K, the doubly traceless rest, splits by the swap.
    Each sector comes with the slices of its copies and of the invariant part below it.
    """
    n = d * d
    grid = np.arange(n * n).reshape(n, n)
    si, sj = np.triu_indices(n)
    ai, aj = np.triu_indices(n, 1)
    order = np.r_[0:n, si.size:si.size + n - 1, n:si.size, si.size + n - 1:n * n]
    p1 = np.concatenate([grid[si, sj], grid[ai, aj]])[order]
    p2 = np.concatenate([grid[sj, si], grid[aj, ai]])[order]
    w1 = np.concatenate([np.where(si == sj, 0.5, np.sqrt(0.5)), np.full(ai.size, np.sqrt(0.5))])[order]
    w2 = np.where(order < si.size, w1, -w1)
    s, k = 2 * n - 1, n * (n + 1) // 2 + n - 1
    sectors = [((slice(0, 1),), slice(0, 0)), ((slice(1, n), slice(n, s)), slice(0, 1)),
               ((slice(s, k),), slice(0, s)), ((slice(k, n * n),), slice(0, s))]
    return (p1, p2, w1, w2), sectors


def _sector_structure(lam: Isometry) -> list[tuple[complex, int, int, list[np.ndarray]]]:
    """(kappa, algebraic, geometric, eigenoperators) of the pair-descend adjoint A, in the order of _canonical.

    In the basis of :func:`_sector_basis`, A is real and block upper-triangular
    with diagonal blocks 1, D, D, A_sym, A_anti (D: the averaged descend adjoint
    on traceless operators), and each small block gets its own spectral structure.
    A null vector y of a block lifts to x = (x_low, y), (A_low,low - kappa) x_low =
    -A_low,block y.  Clusters shared by sectors are resolved on the whole matrix.
    """
    d = lam.d
    frame = _hermitian_frame(d)
    dc = ch.descend_channels(lam)
    left, right = ((frame.conj().T @ c.matrix.conj().T @ frame).real for c in (dc.left, dc.right))
    (p1, p2, w1, w2), sectors = _sector_basis(d)
    adj = (np.kron(left, left) + np.kron(right, right)) / 2.0
    cols = adj[:, p1] * w1 + adj[:, p2] * w2
    b = w1[:, None] * cols[p1] + w2[:, None] * cols[p2]

    items = [(kappa, alg * len(copies), geo * len(copies), null, copies, low)
             for copies, low in sectors for kappa, alg, geo, null in _spectral_structure(b[copies[0], copies[0]])]
    out = []
    for members in _cluster(np.array([item[0] for item in items]), CLUSTER_TOL):
        if len(members) > 1:
            alg = sum(items[k][1] for k in members)
            out.append(_resolve_cluster(b, complex(sum(items[k][0] * items[k][1] for k in members) / alg), alg))
            continue
        kappa, alg, geo, null, copies, low = items[members[0]]
        shifted = b[low, low] - kappa * np.eye(low.stop - low.start)
        vectors = []
        for where in copies:
            x = np.zeros((b.shape[0], len(null)), dtype=complex)
            x[where] = np.stack(null, axis=1)
            x[low] = np.linalg.solve(shifted, -b[low, where] @ x[where])
            vectors += list(x.T)
        out.append((kappa, alg, geo, vectors))

    coords = np.stack([x for item in out for x in item[3]], axis=1)
    product = np.zeros(coords.shape, dtype=complex)
    np.add.at(product, p1, w1[:, None] * coords)
    np.add.at(product, p2, w2[:, None] * coords)
    ops = frame @ product.T.reshape(-1, d * d, d * d) @ frame.T  # [q, (c1, r1), (c2, r2)]
    ops = list(ops.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(-1, d * d, d * d))
    bounds = np.cumsum([0] + [len(item[3]) for item in out])
    return _canonical([item[:3] + (ops[a:z],) for item, a, z in zip(out, bounds, bounds[1:])])


def _log2_or_none(kappa: complex) -> complex | None:
    if abs(kappa) <= 1e-14:
        return None
    return complex(np.log(kappa) / np.log(2.0))


def exponent_spectrum(lam: Isometry) -> SpectrumReport:
    """Full eigenstructure of the pair-descend adjoint, sorted by |kappa| descending.

    Computed sector by sector (:func:`_sector_structure`); a geometric
    multiplicity below the algebraic one is Jordan structure.
    """
    entries = tuple(SpectrumEntry(kappa, _log2_or_none(kappa), alg, geo, tuple(ops))
                    for kappa, alg, geo, ops in _sector_structure(lam))
    return SpectrumReport(d=lam.d, entries=entries, diagonalizable=all(e.algebraic == e.geometric for e in entries))


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

    # general block: decompose over the spectrum, the same for the forward map and its adjoint
    structure = [(kappa, alg, geo) for kappa, alg, geo, _ in _sector_structure(lam)]
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
