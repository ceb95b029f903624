"""Two-point correlators at distances 2^m and critical exponents from channel spectra.

The connected correlator of an infinite tree at distance 2^m is the trace
of the observable pair against the m-th pair-descend image of the
difference between the true two-site state and its classical (product of
marginals) counterpart.  Exponents are base-2 logs of the pair-descend
adjoint's eigenvalues; eigenoperators are the corresponding primary blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tensor_core import TAU_RANK, Isometry, Observable
from . import channels as ch
from . import thermo

CLUSTER_TOL = 1e-7
EIGENOPERATOR_TOL = 1e-8
SERIES_FLOOR = 1e-14
CONTRIBUTION_TOL = 1e-12


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

    def build():
        diff = rho2.matrix - eta.matrix
        diff.setflags(write=False)
        return diff

    return lam._derive("pair-difference", build)


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


def _cluster_terms(matrix: np.ndarray, x: np.ndarray, u: np.ndarray, m_values: Sequence[int]) -> list[tuple]:
    """(kappa, algebraic, geometric, coefficient, terms) per cluster c of matrix, in the order of _canonical.

    u^T matrix^m x = sum_c u_c^T J_c^m w_c, w the coordinates of x on the cluster bases V_c, u_c = V_c^T u.
    V_c holds eigenvectors and J_c = kappa, or for a defective cluster the generalized eigenspace (last
    right singular vectors of (matrix - kappa)^algebraic) and J_c = matrix on it.  ``terms`` are at m_values.
    """
    structure = _spectral_structure(matrix)
    bases = [np.stack(null, axis=1) if geo == alg else
             np.linalg.svd(np.linalg.matrix_power(matrix - kappa * np.eye(len(matrix)), alg))[2][-alg:].conj().T
             for kappa, alg, geo, null in structure]
    vectors = np.concatenate(bases, axis=1)
    w, v = np.linalg.solve(vectors, x), vectors.T @ u
    out, start = [], 0
    for (kappa, alg, geo, _), basis in zip(structure, bases):
        c, start = slice(start, start + alg), start + alg
        if geo == alg:
            terms = (v[c] @ w[c]) * kappa ** np.array(m_values)
        else:
            j = np.linalg.solve(vectors, matrix @ basis)[c]
            terms = np.array([v[c] @ np.linalg.matrix_power(j, m) @ w[c] for m in m_values])
        out.append((kappa, alg, geo, complex(v[c] @ w[c]), terms))
    return out


@cache
def _sector_basis(d: int) -> tuple:
    """Swap-(anti)symmetrized products of E_i (x) E_j (product index i d^2 + j), as 1, S+, S-, K_sym, K_anti.

    Returns ((p1, p2, w1, w2), sectors), built once per d and read-only: the E_i are the frame of
    :func:`channels._hermitian_frame` and column q is ``w1[q] e[p1[q]] + w2[q] e[p2[q]]``.
    1, S+ and S- span the O (x) 1 and 1 (x) O; K, the doubly traceless rest, splits by the swap.
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
    sectors = (((slice(0, 1),), slice(0, 0)), ((slice(1, n), slice(n, s)), slice(0, 1)),
               ((slice(s, k),), slice(0, s)), ((slice(k, n * n),), slice(0, s)))
    for a in (p1, p2, w1, w2):
        a.setflags(write=False)
    return (p1, p2, w1, w2), sectors


def _sector_matrix(lam: Isometry) -> np.ndarray:
    """The pair-descend adjoint A in the basis of :func:`_sector_basis`: real and block upper-triangular."""
    (p1, p2, w1, w2), _ = _sector_basis(lam.d)
    lr, rr = ch._frame_descents(lam)
    adj = (np.kron(lr.T, lr.T) + np.kron(rr.T, rr.T)) / 2.0
    cols = adj[:, p1] * w1 + adj[:, p2] * w2
    return w1[:, None] * cols[p1] + w2[:, None] * cols[p2]


def _sector_coordinates(ops: np.ndarray, d: int) -> np.ndarray:
    """Coordinates Tr[G_q X] of stacked two-site operators X; the inverse of the lift in _sector_structure."""
    (p1, p2, w1, w2), _ = _sector_basis(d)
    product = ch._to_frame(ops).reshape(len(ops), -1)
    return product[:, p1] * w1 + product[:, p2] * w2


def _sector_structure(lam: Isometry) -> list[tuple[complex, int, int, list[np.ndarray]]]:
    """(kappa, algebraic, geometric, eigenoperators) of the pair-descend adjoint A, in the order of _canonical.

    In the basis of :func:`_sector_basis`, A is real and block upper-triangular
    with diagonal blocks 1, D, D, A_sym, A_anti (D: the averaged descend adjoint
    on traceless operators), and each small block gets its own spectral structure.
    A null vector y of a block lifts to x = (x_low, y), (A_low,low - kappa) x_low =
    -A_low,block y.  Clusters shared by sectors are resolved on the whole matrix.
    """
    d = lam.d
    b = _sector_matrix(lam)
    (p1, p2, w1, w2), sectors = _sector_basis(d)

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
    ops = list(ch._from_frame(product.T.reshape(-1, d * d, d * d)))
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
    """Correlator series over distances 2^m, split exactly into powers kappa^m.

    ``query`` is a CorrelatorQuery or a raw two-site block B.  rho2 - eta lies in K_sym + K_anti,
    where the pair-descend map is the transpose of the adjoint's blocks (:func:`_sector_matrix`);
    :func:`_cluster_terms` splits the series over each block's clusters, merged where blocks share one.
    ``fitted_exponent`` is log2 of the largest |kappa| whose term exceeds CONTRIBUTION_TOL times the
    series scale; ``log_corrections`` flags a defective cluster; ``is_eigenoperator`` tests B.
    """
    m_values = sorted(set(int(m) for m in m_range))
    if not m_values or m_values[0] < 0:
        raise ValueError("m_range must contain nonnegative integers")
    block = query.block() if isinstance(query, CorrelatorQuery) else np.asarray(query, dtype=complex)
    if block.shape != (lam.d ** 2,) * 2:
        raise ValueError("observable block must be %d x %d" % ((lam.d ** 2,) * 2))

    diff = pair_difference_infinity(lam)
    series = list(pair_descend_series(lam, diff, block, sorted({0, *m_values})))
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

    b = _sector_matrix(lam)
    x, u = _sector_coordinates(np.stack([diff, block]), lam.d)
    bu = b @ u  # the adjoint applied to B
    kappa_est = complex(np.vdot(u, bu) / np.vdot(u, u))
    member = float(np.linalg.norm(bu - kappa_est * u)) <= EIGENOPERATOR_TOL * float(np.linalg.norm(u))
    items = [item for (where,), _ in _sector_basis(lam.d)[1][2:]
             for item in _cluster_terms(b[where, where].T, x[where], u[where], m_values)]
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
