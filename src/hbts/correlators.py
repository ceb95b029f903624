"""Two-point correlators at distances 2^m and critical exponents from channel spectra.

The connected correlator of an infinite tree at distance 2^m is the trace of the observable pair against
the m-th pair-descend image of the difference between the true two-site state and its classical (product
of marginals) counterpart.  Exponents are base-2 logs of the eigenvalues of the pair-descend adjoint's
sector blocks.  One eig per block, kept on the isometry, gives both the spectrum and the exact split of a
correlator series into powers of those eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tensor_core import TAU_RANK, Isometry, Observable, _frozen_complex, _integer
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
    return lam._derive("pair-difference", lambda: _frozen_complex(rho2.matrix - eta.matrix))


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


def _resolve_cluster(matrix: np.ndarray, kappa: complex, algebraic: int) -> tuple:
    """(kappa, algebraic, geometric, null vectors) of a cluster from the SVD of matrix - kappa I (real if kappa is)."""
    _, s, vh = np.linalg.svd(matrix - (kappa if kappa.imag else kappa.real) * np.eye(matrix.shape[0]))
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
    kappas = np.array([item[0] for item in out], dtype=complex)
    alg = np.array([item[1] for item in out])
    i, j, dist = _near(kappas, kappas.conj(), CLUSTER_TOL)  # |kappa_j - conj kappa_i| within CLUSTER_TOL
    nearest = np.lexsort((j, dist, i))  # each i's nearest j first, the lowest j of a tie
    i, j = i[nearest], j[nearest]
    first = np.diff(i, prepend=-1) > 0
    upper, lower = (a[first & (kappas.imag[i] > CLUSTER_TOL) & (alg[j] == alg[i])] for a in (i, j))
    snapped = kappas.copy()
    snapped[upper] = (kappas[upper] + kappas[lower].conj()) / 2.0
    snapped[lower] = snapped[upper].conj()
    real = np.abs(kappas.imag) <= CLUSTER_TOL
    real[i] = False  # a conjugate partner within CLUSTER_TOL
    snapped[real] = kappas[real].real
    modulus = np.hypot(snapped.real, snapped.imag)
    order = np.argsort(-modulus, kind="stable")
    runs = np.cumsum(np.diff(modulus[order], prepend=modulus[order[:1]]) < -CLUSTER_TOL)
    order = order[np.lexsort((-snapped[order].imag, -snapped[order].real, runs))]
    values = snapped.tolist()
    return [(values[k],) + out[k][1:] for k in order.tolist()]


def _eig_structure(matrix: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> list:
    """(kappa, algebraic, geometric, null vectors) per eigenvalue cluster of matrix, in the order of _canonical.

    The eigendecomposition ``evals, evecs`` gives the clusters (:func:`_cluster`).  A simple eigenvalue is its
    own kappa, with geometric multiplicity 1 and its eigenvector as null vector; a cluster of two or more goes
    to :func:`_resolve_cluster`.
    """
    values, vectors = evals.astype(complex).tolist(), list(evecs.T)
    return _canonical([(values[m[0]], 1, 1, [vectors[m[0]]]) if len(m) == 1 else
                       _resolve_cluster(matrix, complex(np.mean(evals[m])), len(m))
                       for m in _cluster(evals, CLUSTER_TOL)])


def _cluster_terms(matrix: np.ndarray, eig: tuple, x: np.ndarray, u: np.ndarray, m_values: Sequence[int]) -> list:
    """(kappa, algebraic, geometric, coefficient, terms) per cluster c of matrix, in the order of _canonical.

    matrix is a real block A with its eig; x and the rows of u (a block's Hermitian and anti-Hermitian parts) are real.
    On A's cluster bases V, u^T (A^T)^m x = sum_c p_c^T J_c^m w_c, p = V^T x and w = V^-1 (u[0] + i u[1]): V_c holds
    eigenvectors and J_c = kappa, or for a defective cluster the generalized eigenspace (last right singular vectors
    of (A - kappa)^algebraic) and J_c = A on it.  As a pair's lower member k has V_k = conj V_j and a real cluster a
    real V_c, p and each part's w take on k their conjugate on j, and on a real cluster their real part.
    """
    structure = _eig_structure(matrix, *eig)
    eye = np.eye(len(matrix))
    bases = [np.stack(null, axis=1) if geo == alg else
             np.linalg.svd(np.linalg.matrix_power(matrix - (kappa if kappa.imag else kappa.real) * eye,
                                                  alg))[2][-alg:].conj().T
             for kappa, alg, geo, null in structure]
    index = {kappa: k for k, (kappa, *_) in enumerate(structure)}  # _canonical makes pairs exactly conjugate
    upper = {k: index[kappa.conjugate()] for k, (kappa, *_) in enumerate(structure)
             if kappa.imag < 0 and kappa.conjugate() in index}
    bases = [bases[upper[k]].conj() if k in upper else b for k, b in enumerate(bases)]
    ends = np.cumsum([alg for _, alg, _, _ in structure]).tolist()
    cols = [slice(end - alg, end) for end, (_, alg, _, _) in zip(ends, structure)]
    vectors = np.concatenate(bases, axis=1)
    factors = np.column_stack([vectors.T @ x, np.linalg.solve(vectors, u.T)])  # p, then w of each part
    out = []
    for k, ((kappa, alg, geo, _), basis, c) in enumerate(zip(structure, bases, cols)):
        if k in upper:  # the upper member's factors are never changed
            factors[c] = factors[cols[upper[k]]].conj()
        elif not kappa.imag:
            factors[c] = factors[c].real
        p, w = factors[c, 0], factors[c, 1] + 1j * factors[c, 2]
        if geo == alg:
            terms = (p @ w) * kappa ** np.array(m_values)
        else:
            j = np.linalg.solve(vectors, matrix @ basis)[c]
            terms = np.array([p @ np.linalg.matrix_power(j, m) @ w for m in m_values])
        out.append((kappa, alg, geo, complex(p @ w), terms))
    return out


def _sector_eig(lam: Isometry, b: np.ndarray, where: slice) -> tuple:
    """eig of the diagonal block b[where, where] of the sector matrix b of lam; kept on the isometry, read-only."""
    return lam._derive("sector-eig-%d" % where.start,
                       lambda: tuple(map(_frozen_complex, np.linalg.eig(b[where, where]))))


def _sector_structure(lam: Isometry) -> list:
    """(kappa, algebraic, geometric) per cluster of the pair-descend adjoint A, in the order of _canonical.

    In the basis of :func:`channels._sector_basis`, A is real and block upper-triangular with diagonal blocks
    1, D, D, A_sym, A_anti (D: the averaged descend adjoint on traceless operators), and each small
    block gets one kept eig.  Clusters shared by sectors are resolved on the whole matrix.
    """
    b = ch._sector_matrix(lam)
    _, sectors = ch._sector_basis(lam.d)
    items = [(kappa, alg * len(copies), geo * len(copies)) for copies, _ in sectors
             for kappa, alg, geo, _ in _eig_structure(b[copies[0], copies[0]], *_sector_eig(lam, b, copies[0]))]
    entries = []
    for members in _cluster(np.array([item[0] for item in items]), CLUSTER_TOL):
        if len(members) > 1:
            alg = sum(items[k][1] for k in members)
            kappa = complex(sum(items[k][0] * items[k][1] for k in members) / alg)
            entries.append(_resolve_cluster(b, kappa, alg)[:3])
        else:
            entries.append(items[members[0]])
    return _canonical(entries)


def _log2_or_none(kappas: Sequence[complex]) -> list:
    """log2 of each kappa by one np.log over the array, None where |kappa| <= 1e-14."""
    kappas = np.asarray(kappas, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = (np.log(kappas) / np.log(2.0)).tolist()
    return [None if tiny else z for tiny, z in zip((np.hypot(kappas.real, kappas.imag) <= 1e-14).tolist(), logs)]


def exponent_spectrum(lam: Isometry) -> SpectrumReport:
    """Eigenvalues and multiplicities of the pair-descend adjoint, sorted by |kappa| descending.

    Computed sector by sector (:func:`_sector_structure`); a geometric
    multiplicity below the algebraic one is Jordan structure.
    """
    structure = _sector_structure(lam)
    entries = tuple(SpectrumEntry(kappa, exponent, alg, geo) for (kappa, alg, geo), exponent
                    in zip(structure, _log2_or_none([kappa for kappa, _, _ in structure])))
    return SpectrumReport(d=lam.d, entries=entries, diagonalizable=all(e.algebraic == e.geometric for e in entries))


def powerlaw_check(
    lam: Isometry,
    query,
    m_range: Sequence[int] = range(0, 16),
) -> CorrelatorSeries:
    """Correlator series over distances 2^m, split exactly into powers kappa^m.

    ``query`` is a CorrelatorQuery or a finite two-site block B; m_range holds integers >= 0, no bool or float.
    rho2 - eta lies in K_sym + K_anti, where the pair-descend map is the transpose of the adjoint's blocks: each
    block's kept eig splits the series over its clusters (:func:`_cluster_terms`), merged where blocks share one.
    ``fitted_exponent`` is log2 of the largest |kappa| whose term exceeds CONTRIBUTION_TOL times the series
    scale; ``log_corrections`` flags a defective cluster; ``is_eigenoperator`` tests B.
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
    items = [item for (where,), _ in ch._sector_basis(lam.d)[1][2:] for item in
             _cluster_terms(b[where, where], _sector_eig(lam, b, where), x[where], parts[:, where], m_values)]
    clusters = []
    for members in _cluster(np.array([item[0] for item in items]), CLUSTER_TOL):
        alg, coefficient, terms = (sum(items[k][i] for k in members) for i in (1, 3, 4))
        clusters.append((sum(items[k][0] * items[k][1] for k in members) / alg, alg, coefficient, terms))
    clusters = _canonical(clusters)
    contributing = [kappa for kappa, _, _, terms in clusters if np.abs(terms).max() > CONTRIBUTION_TOL * scale]
    return CorrelatorSeries(
        points=tuple(points), prefactor=g,
        fitted_exponent=_log2_or_none([max(contributing, key=abs)])[0] if contributing else None,
        is_eigenoperator=member, kappa=kappa_est if member else None, degenerate=False,
        log_corrections=any(geo < alg for _, alg, geo, _, _ in items),
        decomposition=tuple((kappa, coefficient) for kappa, _, coefficient, _ in clusters),
        residual=float(np.abs(sum(terms for *_, terms in clusters) - values).max()),
    )
