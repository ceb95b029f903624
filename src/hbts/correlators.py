"""Two-point correlators at distances 2^m and critical exponents from channel spectra.

The connected correlator of an infinite tree at distance 2^m is the trace of the observable pair against
the m-th pair-descend image of the difference between the true two-site state and its classical (product
of marginals) counterpart.  Exponents are base-2 logs of the eigenvalues of the pair-descend adjoint's
sector blocks, and eigenoperators are the primary blocks.  One eig per block, kept on the isometry, gives
both the spectrum and the exact split of a correlator series into powers of those eigenvalues.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tensor_core import TAU_RANK, Isometry, Observable, _frozen_complex
from . import channels as ch
from . import thermo

CLUSTER_TOL = 1e-7
EIGENOPERATOR_TOL = 1e-8
SERIES_FLOOR = 1e-14
CONTRIBUTION_TOL = 1e-12
LIFT_TOL = 1e-12


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


def correlator_thermo(lam: Isometry, query: CorrelatorQuery) -> complex:
    """Connected correlator at distance 2**query.m in the infinite-depth limit."""
    return next(pair_descend_series(lam, pair_difference_infinity(lam), query.block(), [query.m]))[1]


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    """Greedy connected-component clustering of complex values at tolerance tol.

    Values are taken by |value| descending (np.hypot, which rounds as abs() of one value does: np.abs of a
    complex array can differ in the last bit), then Re and Im, each joining the earliest cluster with a member
    within tol.  When no two values lie within tol, the generic spectrum, the sort alone gives the clusters.
    """
    order = np.lexsort((values.imag, values.real, -np.hypot(values.real, values.imag))).tolist()
    close = np.abs(values[:, None] - values[None, :]) <= tol
    np.fill_diagonal(close, False)
    if not close.any():
        return [[i] for i in order]
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
    near = np.abs(kappas[None, :] - kappas.conj()[:, None])  # row i: |kappa_j - conj kappa_i|, j != i
    np.fill_diagonal(near, np.inf)
    upper = np.flatnonzero(kappas.imag > CLUSTER_TOL)
    lower = near[upper].argmin(axis=1)
    upper, lower = (a[(near[upper, lower] <= CLUSTER_TOL) & (alg[lower] == alg[upper])] for a in (upper, lower))
    snapped = kappas.copy()
    snapped[upper] = (kappas[upper] + kappas[lower].conj()) / 2.0
    snapped[lower] = snapped[upper].conj()
    real = (np.abs(kappas.imag) <= CLUSTER_TOL) & (near > CLUSTER_TOL).all(axis=1)
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


def _lift(a: np.ndarray, r: np.ndarray, kappas: np.ndarray, mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The columns x_j of (a - kappa_j) x_j = r_j, all at once.

    a is block upper-triangular with diagonal blocks 1, D, D (or the 1 alone), D = w diag(mu) w^-1: each
    D part is w ((w^-1 r) / (mu_i - kappa_j)), the unit part one division.  A column whose residual
    exceeds LIFT_TOL (|x_j| + |r_j|) is solved again by LU.
    """
    x = np.empty(r.shape, dtype=complex)
    if len(a) > 1:
        parts = np.linalg.solve(w, r[1:].reshape(2, len(mu), -1)) / (mu[:, None] - kappas)
        x[1:] = (w @ parts).reshape(len(x) - 1, -1)
    x[0] = (r[0] - a[0, 1:] @ x[1:]) / (a[0, 0] - kappas)
    scale = np.linalg.norm(x, axis=0) + np.linalg.norm(r, axis=0)
    for j in np.flatnonzero(~(np.linalg.norm(a @ x - x * kappas - r, axis=0) <= LIFT_TOL * scale)):
        x[:, j] = np.linalg.solve(a - kappas[j] * np.eye(len(a)), r[:, j])
    return x


def _sector_eig(lam: Isometry, b: np.ndarray, where: slice) -> tuple:
    """eig of the diagonal block b[where, where] of the sector matrix b of lam; kept on the isometry, read-only."""
    return lam._derive("sector-eig-%d" % where.start,
                       lambda: tuple(map(_frozen_complex, np.linalg.eig(b[where, where]))))


def _sector_structure(lam: Isometry) -> list[tuple[complex, int, int, list[np.ndarray]]]:
    """(kappa, algebraic, geometric, eigenoperators) of the pair-descend adjoint A, in the order of _canonical.

    In the basis of :func:`channels._sector_basis`, A is real and block upper-triangular with diagonal blocks
    1, D, D, A_sym, A_anti (D: the averaged descend adjoint on traceless operators), and each small
    block gets one kept eig.  Clusters shared by sectors are resolved on the whole matrix.  The null vectors
    y of a sector's other clusters lift together to x = (x_low, y), (A_low,low - kappa) x_low =
    -A_low,block y (:func:`_lift`, with the eig of D), and map back as one stack per sector copy.
    """
    b = ch._sector_matrix(lam)
    _, sectors = ch._sector_basis(lam.d)
    eigs = [_sector_eig(lam, b, copies[0]) for copies, _ in sectors]
    items = [(kappa, alg * len(copies), geo * len(copies), null, s) for s, (copies, _) in enumerate(sectors)
             for kappa, alg, geo, null in _eig_structure(b[copies[0], copies[0]], *eigs[s])]
    entries, found = [], []  # found: (owners, coordinates) of eigenoperators; owner: an entry's first item
    for members in _cluster(np.array([item[0] for item in items]), CLUSTER_TOL):
        if len(members) > 1:
            alg = sum(items[k][1] for k in members)
            kappa = complex(sum(items[k][0] * items[k][1] for k in members) / alg)
            kappa, alg, geo, null = _resolve_cluster(b, kappa, alg)
            found.append(([members[0]] * geo, np.stack(null, axis=1)))
            for k in members:  # nothing left to lift
                items[k] = (kappa, alg, geo, (), None)
        entries.append(items[members[0]][:3] + (members[0],))
    for s, (copies, low) in enumerate(sectors):
        null = [(k, x) for k, item in enumerate(items) if item[4] == s for x in item[3]]
        if not null:
            continue
        y, kappas = np.stack([x for _, x in null], axis=1), np.array([items[k][0] for k, _ in null])
        for where in copies:
            x = np.zeros((len(b), len(null)), dtype=complex)
            x[where] = y
            if low.stop:
                x[low] = _lift(b[low, low], -b[low, where] @ y, kappas, *eigs[1])
            found.append(([k for k, _ in null], x))
    del b, eigs, items  # free them before the eigenoperators
    ops = {entry[3]: [] for entry in entries}
    for owners, x in found:
        for k, op in zip(owners, ch._sector_operators(x.T, lam.d)):
            ops[k].append(op)
    return [entry[:3] + (ops[entry[3]],) for entry in _canonical(entries)]


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
    """Correlator series over distances 2^m, split exactly into powers kappa^m.

    ``query`` is a CorrelatorQuery or a finite two-site block B; m_range holds integers >= 0 (operator.index), no bool.
    rho2 - eta lies in K_sym + K_anti, where the pair-descend map is the transpose of the adjoint's blocks: each
    block's kept eig splits the series over its clusters (:func:`_cluster_terms`), merged where blocks share one.
    ``fitted_exponent`` is log2 of the largest |kappa| whose term exceeds CONTRIBUTION_TOL times the series
    scale; ``log_corrections`` flags a defective cluster; ``is_eigenoperator`` tests B.
    """
    try:  # operator.index refuses 1.5, which int() would round down; a bool is refused as a negative m
        m_values = sorted({-1 if isinstance(m, bool) else operator.index(m) for m in m_range})
    except TypeError:
        m_values = []
    if not m_values or m_values[0] < 0:
        raise ValueError("m_range must contain nonnegative integers")

    diff = pair_difference_infinity(lam)
    with np.errstate(over="ignore", invalid="ignore"):  # a block or series that is not finite is refused
        block = query.block() if isinstance(query, CorrelatorQuery) else np.asarray(query, dtype=complex)
        if block.shape != (lam.d ** 2,) * 2 or not np.isfinite(block).all():
            raise ValueError("observable block must be a finite %d x %d matrix" % ((lam.d ** 2,) * 2))
        series = list(pair_descend_series(lam, diff, block, sorted({0, *m_values})))
    if not np.isfinite([v for _, v in series]).all():
        raise ValueError("the correlator series is not finite")
    g = series[0][1]
    points = series if m_values[0] == 0 else series[1:]
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
        fitted_exponent=_log2_or_none(max(contributing, key=abs)) if contributing else None,
        is_eigenoperator=member, kappa=kappa_est if member else None, degenerate=False,
        log_corrections=any(geo < alg for _, alg, geo, _, _ in items),
        decomposition=tuple((kappa, coefficient) for kappa, _, coefficient, _ in clusters),
        residual=float(np.abs(sum(terms for *_, terms in clusters) - values).max()),
    )
