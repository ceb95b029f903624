"""Two-point correlators at distances 2^m and critical exponents from channel spectra.

The connected correlator of an infinite tree at distance 2^m is the trace of the observable pair against
the m-th pair-descend image of the difference between the true two-site state and its classical (product
of marginals) counterpart.  Exponents are base-2 logs of the eigenvalues of the pair-descend adjoint's
sector blocks.  One spectral structure per isometry, from one eig per block and one clustering of all their
eigenvalues, kept on the isometry as read-only arrays, gives both the spectrum and the exact split of a
correlator series into powers of those eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tensor_core import TAU_RANK, Isometry, Observable, _integer
from . import channels as ch
from . import thermo

CLUSTER_TOL = 1e-7
EIGENOPERATOR_TOL = 1e-8
SERIES_FLOOR = 1e-14
CONTRIBUTION_TOL = 1e-12
# The largest distance exponent m: 2**1023 is the largest distance 2**m that is a finite float.
M_MAX = 1023


@dataclass(frozen=True)
class CorrelatorQuery:
    theta: Observable
    theta_prime: Observable
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "distance exponent m", 0, M_MAX))

    def block(self) -> np.ndarray:
        return np.kron(self.theta.matrix, self.theta_prime.matrix)


@dataclass(frozen=True)
class SpectrumEntry:
    kappa: complex
    exponent: complex | None
    algebraic: int
    geometric: int


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
    decomposition: tuple | None        # ((kappa, weight of kappa^m), ...) unless degenerate
    residual: float | None


def pair_difference_infinity(lam: Isometry) -> np.ndarray:
    """Quantum-minus-classical two-site state; traceless, drives all decay."""
    rho2 = thermo.two_site_infinity(lam)
    eta = thermo.classical_pair_infinity(lam)
    return lam._derive("pair-difference", lambda: rho2.matrix - eta.matrix)


def pair_descend_series(
    lam: Isometry, diff: np.ndarray, block: np.ndarray, m_values: Iterable[int]
) -> Iterator[tuple[int, complex]]:
    """Yield ``(2**m, Tr[block P^m(diff)])`` for ascending ``m``, P the pair-descend map of ``lam``.

    ``diff`` is Hermitian.  P acts on its frame coordinates as C -> (Lr C Lr^T + Rr C Rr^T)/2, once
    per step of m, and the trace is the sum of C times the frame coordinates of ``block``.
    """
    lr, rr = ch._frame_descents(lam)
    current, weights = ch._to_frame(np.stack([diff, block]))
    current = current.real
    last_m = 0
    for m in m_values:
        for _ in range(m - last_m):
            current = (lr @ current @ lr.T + rr @ current @ rr.T) / 2.0
        last_m = m
        yield 2 ** m, complex(np.sum(current * weights))


def correlator_series(lam: Isometry, query, m_values: Iterable[int]) -> list[tuple[int, complex]]:
    """``[(2**m, correlator at distance 2**m)]`` of the infinite tree for the distinct m of m_values, ascending.

    ``query`` is a CorrelatorQuery or a two-site block; m_values holds at least one integer in [0, M_MAX], no bool
    or float.  A block that is not a finite d^2 x d^2 matrix, or a series that is not finite, is a ValueError.
    """
    m_values = sorted({_integer(m, "distance exponent m", 0, M_MAX) for m in m_values})
    if not m_values:
        raise ValueError("m_values must hold at least one integer >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # a block or series that is not finite is refused
        block = query.block() if isinstance(query, CorrelatorQuery) else np.asarray(query, dtype=complex)
        if block.shape != (lam.d ** 2,) * 2 or not np.isfinite(block).all():
            raise ValueError("observable block must be a finite %d x %d matrix" % ((lam.d ** 2,) * 2))
        series = list(pair_descend_series(lam, pair_difference_infinity(lam), block, m_values))
    if not np.isfinite([v for _, v in series]).all():
        raise ValueError("the correlator series is not finite")
    return series


def correlator_thermo(lam: Isometry, query: CorrelatorQuery) -> complex:
    """Connected correlator at distance 2**query.m in the infinite-depth limit."""
    return correlator_series(lam, query, [query.m])[0][1]


def _near(values: np.ndarray, targets: np.ndarray, tol: float) -> tuple:
    """(i, j, |values[j] - targets[i]|) of the pairs j != i within tol, found in windows of the sorted Re values."""
    order = values.real.argsort(kind="stable")
    real = values.real[order]
    lo = real.searchsorted(targets.real - 2 * tol, "left")  # 2 tol: no rounding drops a pair within tol
    counts = real.searchsorted(targets.real + 2 * tol, "right") - lo
    i = np.arange(len(targets)).repeat(counts)
    j = order[np.arange(len(i)) - (counts.cumsum() - counts - lo).repeat(counts)]
    dist = np.abs(values[j] - targets[i])
    keep = (dist <= tol) & (i != j)
    return i[keep], j[keep], dist[keep]


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    """Greedy clustering of complex values at tolerance tol.

    Values are taken by |value| descending (np.hypot, which rounds as abs() of one value does: np.abs of a
    complex array can differ in the last bit), then Re and Im, each joining the earliest cluster with a member
    within tol.  The close pairs come from :func:`_near`; when there are none, the generic spectrum, the sort
    alone gives the clusters.
    """
    order = np.lexsort((values.imag, values.real, -np.hypot(values.real, values.imag)))
    i, j, _ = _near(values, values, tol)
    if not i.size:
        return [[k] for k in order.tolist()]
    close = np.split(j[i.argsort(kind="stable")], np.bincount(i, minlength=len(values)).cumsum()[:-1])
    label, clusters = np.full(len(values), -1), []
    for k in order.tolist():
        near = label[close[k]]
        label[k] = near[near >= 0].min(initial=len(clusters))
        if label[k] == len(clusters):
            clusters.append([])
        clusters[label[k]].append(k)
    return clusters


def _canonical(kappas: np.ndarray, algebraic: np.ndarray) -> tuple:
    """(snapped, order): the kappas of clusters with these algebraic multiplicities made exact, and their order.

    The channels here preserve Hermiticity, so their spectra are closed
    under conjugation: two clusters that are conjugate to CLUSTER_TOL get
    exactly conjugate kappas, and a cluster within CLUSTER_TOL of the real
    axis with no conjugate partner is real, with imaginary part +0.0 (so
    log kappa of a negative kappa is +i pi whatever the sign of the
    roundoff).  The order is by |kappa| descending; moduli that agree to
    CLUSTER_TOL are ordered by Re kappa, then Im kappa, descending, so the
    order does not hang on the last bit.
    """
    i, j, dist = _near(kappas, kappas.conj(), CLUSTER_TOL)  # |kappa_j - conj kappa_i| within CLUSTER_TOL
    nearest = np.lexsort((j, dist, i))  # each i's nearest j first, the lowest j of a tie
    i, j = i[nearest], j[nearest]
    first = np.diff(i, prepend=-1) > 0
    upper, lower = (a[first & (kappas.imag[i] > CLUSTER_TOL) & (algebraic[j] == algebraic[i])] for a in (i, j))
    snapped = kappas.copy()
    snapped[upper] = (kappas[upper] + kappas[lower].conj()) / 2.0
    snapped[lower] = snapped[upper].conj()
    real = np.abs(kappas.imag) <= CLUSTER_TOL
    real[i] = False  # a conjugate partner within CLUSTER_TOL
    snapped[real] = kappas[real].real
    modulus = np.hypot(snapped.real, snapped.imag)
    order = np.argsort(-modulus, kind="stable")
    runs = np.cumsum(np.diff(modulus[order], prepend=modulus[order[:1]]) < -CLUSTER_TOL)
    return snapped, order[np.lexsort((-snapped[order].imag, -snapped[order].real, runs))]


def _lower_members(kappa: np.ndarray) -> list:
    """The clusters whose kappa, with Im < 0, is the exact conjugate of the one before: the lower members of the
    conjugate pairs, which :func:`_canonical` lists right after their upper members."""
    return (np.flatnonzero((kappa.imag[1:] < 0) & (kappa[1:] == kappa[:-1].conj())) + 1).tolist()


def _shifted_svd(matrix: np.ndarray, kappa: complex, power: int = 1) -> tuple:
    """(rank deficit, right singular vectors) of (matrix - kappa)^power, in real arithmetic if kappa is real; the
    deficit counts the singular values within TAU_RANK of zero, relative to the largest."""
    shifted = matrix - (kappa if kappa.imag else kappa.real) * np.eye(len(matrix))
    _, s, vh = np.linalg.svd(np.linalg.matrix_power(shifted, power))
    return int(np.count_nonzero(s <= TAU_RANK * (s[0] if s[0] > 0 else 1.0))), vh


def _spectral_structure(matrix: np.ndarray, blocks: Sequence[slice], copies: Sequence[int]) -> tuple:
    """The eigenvalue clusters of a real block upper-triangular matrix whose distinct diagonal blocks are
    ``matrix[where, where]`` for ``where`` in blocks, each on the diagonal ``copies`` times.

    Returns (kappa, algebraic, geometric, bases, columns, offsets, in_block): per cluster c, in the order of
    :func:`_canonical`, its kappa and multiplicities; per block s, its eig vectors ``bases[s]``, of which c holds
    the columns ``columns[s][offsets[s, c]:offsets[s, c + 1]]``, and ``in_block[s, c]``, the block's eigenvectors
    in c.  One eig per block, one :func:`_cluster` over all their eigenvalues and one :func:`_canonical`; a
    cluster's kappa is the mean of its eigenvalues, each counted once per copy of its block.  One eigenvalue is
    simple in each copy.  Two or more in one block hold the null vectors of an SVD of the block minus kappa, last
    first, or if they are defective their generalized eigenspace; in the lower member of a conjugate pair, the
    conjugate columns of the upper one.  A cluster that blocks share takes its geometric multiplicity from the
    SVD of the whole matrix minus kappa.
    """
    eigs = [np.linalg.eig(matrix[where, where]) for where in blocks]
    sizes = [len(evals) for evals, _ in eigs]
    values = np.concatenate([evals for evals, _ in eigs], dtype=complex)
    weight = np.repeat(copies, sizes)
    clusters = _cluster(values, CLUSTER_TOL)
    label = np.empty(len(values), dtype=int)
    label[[k for m in clusters for k in m]] = [c for c, m in enumerate(clusters) for _ in m]
    total = np.bincount(label, weight)
    mean = (np.bincount(label, weight * values.real) + 1j * np.bincount(label, weight * values.imag)) / total
    snapped, order = _canonical(mean, total.astype(int))
    n, start = len(order), np.cumsum([0] + sizes)
    key = np.repeat(np.arange(len(blocks)) * n, sizes) + np.argsort(order)[label]  # (block, cluster) of each value
    columns = np.argsort(key, kind="stable")
    offsets = key[columns].searchsorted(np.arange(len(blocks))[:, None] * n + np.arange(n + 1)) - start[:-1, None]
    columns = tuple(columns[a:b] - a for a, b in zip(start[:-1], start[1:]))
    bases = tuple(vectors.astype(complex, copy=False) for _, vectors in eigs)
    kappa, count = snapped[order], np.diff(offsets)
    in_block, degenerate = count.copy(), np.argwhere(count > 1).tolist()
    lower = set(_lower_members(kappa)) if degenerate else set()
    for s, c in degenerate:  # by cluster within a block: a pair's upper member first
        cols, block = columns[s][offsets[s, c]:offsets[s, c + 1]], matrix[blocks[s], blocks[s]]
        if c in lower and count[s, c - 1] == count[s, c]:
            in_block[s, c] = in_block[s, c - 1]
            bases[s][:, cols] = bases[s][:, columns[s][offsets[s, c - 1]:offsets[s, c]]].conj()
            continue
        in_block[s, c], vh = _shifted_svd(block, kappa[c])
        if in_block[s, c] < count[s, c]:
            vh = _shifted_svd(block, kappa[c], count[s, c])[1]
        bases[s][:, cols] = vh[::-1][:count[s, c]].conj().T
    geometric = np.asarray(copies) @ in_block
    for c in np.flatnonzero(np.count_nonzero(count, axis=0) > 1).tolist():
        geometric[c] = _shifted_svd(matrix, kappa[c])[0]
    return kappa, total[order].astype(int), geometric, bases, columns, offsets, in_block


def _sector_structure(lam: Isometry) -> tuple:
    """The :func:`_spectral_structure` of the pair-descend adjoint A, kept on the isometry, read-only.

    In the basis of :func:`channels._sector_basis`, A is real and block upper-triangular with diagonal blocks
    1, D, D, A_sym, A_anti (D: the averaged descend adjoint on traceless operators).
    """
    _, sectors = ch._sector_basis(lam.d)
    return lam._derive("spectral-structure", lambda: _spectral_structure(
        ch._sector_matrix(lam), [copies[0] for copies in sectors], [len(copies) for copies in sectors]))


def _cluster_terms(matrix: np.ndarray, structure: tuple, s: int, x: np.ndarray, u: np.ndarray,
                   m_values: Sequence[int]) -> tuple:
    """(coefficient, terms): per cluster c, the weight of kappa_c^m in u^T (A^T)^m x and its term at each of
    m_values, zero where A, the real diagonal block s of the :func:`_spectral_structure`, does not hold c.

    x and the rows of u (a block's Hermitian and anti-Hermitian parts) are real.  On A's cluster bases V,
    u^T (A^T)^m x = sum_c p_c^T J_c^m w_c, p = V^T x and w = V^-1 (u[0] + i u[1]): J_c = kappa_c, or for a
    defective cluster J_c = A on its generalized eigenspace.  As a pair's lower member k has V_k = conj V_j and
    a real cluster a real V_c, p and each part's w take on k their conjugate on j, and on a real cluster their
    real part.
    """
    kappa, _, _, bases, columns, offsets, in_block = structure
    basis, columns, offsets, count = bases[s], columns[s], offsets[s], np.diff(offsets[s])
    factors = np.column_stack([basis.T @ x, np.linalg.solve(basis, u.T)])[columns]  # p, then w of each part
    for k in _lower_members(kappa):  # the upper member's factors are never changed
        if count[k] == count[k - 1]:
            factors[offsets[k]:offsets[k + 1]] = factors[offsets[k - 1]:offsets[k]].conj()
    real = np.repeat(kappa.imag == 0, count)
    factors[real] = factors[real].real
    p, w = factors[:, 0], factors[:, 1] + 1j * factors[:, 2]
    label, pw = np.repeat(np.arange(len(kappa)), count), p * w
    coefficient = np.bincount(label, pw.real, len(kappa)) + 1j * np.bincount(label, pw.imag, len(kappa))
    terms = coefficient[:, None] * kappa[:, None] ** np.array(m_values)
    for c in np.flatnonzero(in_block[s] < count).tolist():
        rows = slice(offsets[c], offsets[c + 1])
        j = np.linalg.solve(basis, matrix @ basis[:, columns[rows]])[columns[rows]]
        terms[c] = [p[rows] @ np.linalg.matrix_power(j, m) @ w[rows] for m in m_values]
    return coefficient, terms


def _log2_or_none(kappas: Sequence[complex]) -> list:
    """log2 of each kappa by one np.log over the array, None where |kappa| <= 1e-14."""
    kappas = np.asarray(kappas, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = (np.log(kappas) / np.log(2.0)).tolist()
    return [None if tiny else z for tiny, z in zip((np.hypot(kappas.real, kappas.imag) <= 1e-14).tolist(), logs)]


def exponent_spectrum(lam: Isometry) -> SpectrumReport:
    """Eigenvalues and multiplicities of the pair-descend adjoint, sorted by |kappa| descending, from the kept
    :func:`_sector_structure`; a geometric multiplicity below the algebraic one is Jordan structure."""
    kappa, algebraic, geometric = _sector_structure(lam)[:3]
    entries = tuple(map(SpectrumEntry, kappa.tolist(), _log2_or_none(kappa), algebraic.tolist(), geometric.tolist()))
    return SpectrumReport(d=lam.d, entries=entries, diagonalizable=bool(np.array_equal(algebraic, geometric)))


def powerlaw_check(
    lam: Isometry,
    query,
    m_range: Sequence[int] = range(0, 16),
) -> CorrelatorSeries:
    """Correlator series over distances 2^m, split exactly into powers kappa^m.

    ``query`` is a CorrelatorQuery or a finite two-site block B; m_range holds integers >= 0, no bool or float.
    rho2 - eta lies in K_sym + K_anti, where the pair-descend map is the transpose of the adjoint's blocks: the
    kept structure splits the series over the clusters each block holds (:func:`_cluster_terms`), summed over
    the two blocks.  ``fitted_exponent`` is log2 of the largest |kappa| whose term exceeds CONTRIBUTION_TOL
    times the series scale; ``log_corrections`` flags a defective cluster; ``is_eigenoperator`` tests B.
    """
    points = correlator_series(lam, query, m_range)
    block = query.block() if isinstance(query, CorrelatorQuery) else np.asarray(query, dtype=complex)  # checked above
    m_values = [delta.bit_length() - 1 for delta, _ in points]
    g = points[0][1] if m_values[0] == 0 else correlator_series(lam, block, [0])[0][1]
    values = np.array([v for _, v in points])
    scale = float(np.abs(values).max())

    if scale < SERIES_FLOOR:
        return CorrelatorSeries(
            points=tuple(points), prefactor=g, fitted_exponent=None,
            is_eigenoperator=False, kappa=None, degenerate=True,
            log_corrections=False, decomposition=None, residual=None,
        )

    b = ch._sector_matrix(lam)
    half = block / 2.0  # B's Hermitian part (B + B^dag)/2 and anti-Hermitian part (B - B^dag)/2i
    diff = pair_difference_infinity(lam)
    coords = ch._sector_coordinates(np.stack([diff, half + half.conj().T, (half - half.conj().T) / 1j]), lam.d).real
    x, parts, u = coords[0], coords[1:], coords[1] + 1j * coords[2]
    bu = b @ u  # the adjoint applied to B
    kappa_est = complex(np.vdot(u, bu) / np.vdot(u, u))
    member = float(np.linalg.norm(bu - kappa_est * u)) <= EIGENOPERATOR_TOL * float(np.linalg.norm(u))
    structure = _sector_structure(lam)
    kappa, *_, offsets, in_block = structure
    _, _, (sym,), (anti,) = ch._sector_basis(lam.d)[1]
    split = [_cluster_terms(b[where, where], structure, s, x[where], parts[:, where], m_values)
             for s, where in ((2, sym), (3, anti))]
    coefficient, terms = (sum(part) for part in zip(*split))
    held = np.flatnonzero(np.diff(offsets[2:]).any(axis=0))  # the clusters the K blocks hold
    terms = terms[held]
    contributing = kappa[held][np.abs(terms).max(axis=1) > CONTRIBUTION_TOL * scale].tolist()
    return CorrelatorSeries(
        points=tuple(points), prefactor=g,
        fitted_exponent=_log2_or_none([max(contributing, key=abs)])[0] if contributing else None,
        is_eigenoperator=member, kappa=kappa_est if member else None, degenerate=False,
        log_corrections=bool((in_block[2:] < np.diff(offsets[2:])).any()),
        decomposition=tuple(zip(kappa[held].tolist(), coefficient[held].tolist())),
        residual=float(np.abs(terms.sum(axis=0) - values).max()),
    )
