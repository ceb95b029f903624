"""Thermodynamic-limit reduced states: channel fixed points and resolvent solves.

All functions here take only the tree isometry — never the top tensor —
because every infinite-depth local quantity is independent of how the tree
is closed at the top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFixedPointError, ValidationError
from .reporting import format_float
from .tensor_core import DensityOp, Isometry, numerical_rank, partial_trace
from . import channels as ch

TAU_FIX = 1e-10
TAU_SPEC = 1e-10


@dataclass(frozen=True)
class FixedPointResult:
    state: DensityOp
    residual: float
    unit_eigenvalue_multiplicity: int
    mixing: bool


def fixed_point(channel: ch.Channel) -> FixedPointResult:
    """Stationary state of a square CPT channel via dense eigendecomposition.

    The eigenvalue-1 eigenvector is trace-normalized and Hermitized.  A
    degenerate unit eigenvalue aborts with the multiplicity attached; a
    unique unit eigenvalue with extra peripheral spectrum is returned with
    ``mixing=False``.
    """
    if not channel.is_square:
        raise ValueError("fixed points need a square channel, got %d -> %d sites" % (channel.nu_in, channel.nu_out))
    mat = channel.matrix
    evals, evecs = np.linalg.eig(mat)
    unit = np.abs(evals - 1.0) <= TAU_SPEC
    multiplicity = int(np.count_nonzero(unit))
    if multiplicity != 1:
        raise DegenerateFixedPointError(
            "channel %s has unit-eigenvalue multiplicity %d" % (channel.name or "?", multiplicity),
            multiplicity,
        )
    peripheral = int(np.count_nonzero(np.abs(evals) >= 1.0 - TAU_SPEC))
    mixing = peripheral == 1
    vec_fp = evecs[:, int(np.argmin(np.abs(evals - 1.0)))]
    x = ch.unvec(vec_fp, channel.dim_out)
    tr = complex(np.trace(x))
    if abs(tr) < 1e-14:
        raise DegenerateFixedPointError(
            "unit eigenvector of %s is traceless; stationary state undefined" % (channel.name or "?"),
            multiplicity,
        )
    state = DensityOp(channel.d, channel.nu_out, x / tr, label="fixed-point")
    residual = float(np.abs(ch.apply(channel, state.matrix) - state.matrix).max())
    if mixing and residual > TAU_FIX:
        raise ValidationError(
            "stationary state of %s fails its own equation: residual %g" % (channel.name or "?", residual)
        )
    return FixedPointResult(state, residual, multiplicity, mixing)


def _require_mixing(result: FixedPointResult, what: str) -> FixedPointResult:
    if not result.mixing:
        raise DegenerateFixedPointError(
            "%s is not mixing: peripheral spectrum beyond the unit eigenvalue" % what, 1
        )
    return result


def single_site_infinity(lam: Isometry) -> FixedPointResult:
    """Fixed point of the averaged descend channel: the infinite-depth one-site state."""
    dc = ch.descend_channels(lam)
    return lam._derive("single-site", lambda: fixed_point(dc.average))


def _pair_solve(lam: Isometry, source: np.ndarray, label: str) -> DensityOp:
    """Solve (Id - RL/2) x = source/2 in the Hermitian frame: (I - kron(Rr, Lr)/2) vec C = vec S/2."""
    lr, rr = ch._frame_descents(lam)
    n = lam.d ** 2
    c = np.linalg.solve(np.eye(n * n) - np.kron(rr, lr) / 2.0, ch._to_frame(source).real.reshape(-1) / 2.0)
    mat = ch._from_frame(c.reshape(n, n))
    return DensityOp(lam.d, 2, mat / np.trace(mat).real, label=label)


def two_site_infinity(lam: Isometry) -> DensityOp:
    """Infinite-depth averaged nearest-neighbor state, solved in closed form.

    Sums the geometric series of the pair recursion by a single real linear
    solve; the series converges because descend maps are non-expansive.
    """
    rho1 = _require_mixing(single_site_infinity(lam), "averaged descend channel").state
    return lam._derive("two-site", lambda: _pair_solve(lam, ch._local(lam, rho1.matrix, "g"), "thermodynamic nu=2"))


def classical_pair_infinity(lam: Isometry) -> DensityOp:
    """Infinite-depth averaged product-of-neighboring-marginals state, from the source LR(sigma).

    sigma = rho1 (x) rho1 + k is stationary under pair descend P; on the doubly traceless k, P is
    P_K = (kron(Lk, Lk) + kron(Rk, Rk))/2 (Lk = Lr[1:, 1:]), so (I - P_K) k = P(rho1 (x) rho1) - rho1 (x) rho1.
    """
    rho1 = _require_mixing(single_site_infinity(lam), "averaged descend channel").state.matrix

    def build():
        lk, rk = (m[1:, 1:] for m in ch._frame_descents(lam))
        p_k = (np.kron(lk, lk) + np.kron(rk, rk)) / 2.0
        evals = np.linalg.eigvals(p_k)
        radius = float(np.abs(evals).max())
        if radius >= 1.0 - TAU_SPEC:
            multiplicity = 1 + int(np.count_nonzero(np.abs(evals - 1.0) <= TAU_SPEC))
            raise DegenerateFixedPointError("pair-descend channel is not mixing: unit-eigenvalue multiplicity "
                                            "%d, radius %s on K" % (multiplicity, format_float(radius)), multiplicity)
        product = np.kron(rho1, rho1)
        drift = (ch._local(lam, product, "LL") + ch._local(lam, product, "RR")) / 2.0 - product
        k = np.linalg.solve(np.eye(len(p_k)) - p_k, ch._to_frame(drift).real[1:, 1:].reshape(-1))
        sigma = product + ch._from_frame(np.pad(k.reshape(lk.shape), (1, 0)))  # no 1 (x) O or O (x) 1 part
        return _pair_solve(lam, ch._local(lam, sigma, "LR"), "thermodynamic classical pair")

    return lam._derive("classical-pair", build)


def reduced_infinity(lam: Isometry, nu: int) -> DensityOp:
    """Infinite-depth averaged nu-consecutive-site state, nu in 1..4.

    The three- and four-site states are the two-site state pushed through
    the 2->3 and 2->4 extensions, one site at a time.
    """
    if nu == 1:
        res = _require_mixing(single_site_infinity(lam), "averaged descend channel")
        return DensityOp(lam.d, 1, res.state.matrix, label="thermodynamic nu=1")
    if nu == 2:
        return two_site_infinity(lam)
    if nu in (3, 4):
        rho2 = two_site_infinity(lam).matrix
        mat = ch._extend(lam, rho2)
        if nu == 4:
            mat = ch._extend(lam, rho2, mat)
        return DensityOp(lam.d, nu, mat, label="thermodynamic nu=%d" % nu)
    raise ValueError("thermodynamic states are available for nu in 1..4, got %r" % (nu,))


def marginal_deviation(op: DensityOp, reference: np.ndarray) -> float:
    """Largest max-norm gap between any single-position marginal and a reference."""
    worst = 0.0
    for pos in range(1, op.nu + 1):
        marg = partial_trace(op, [pos]).matrix
        worst = max(worst, float(np.abs(marg - reference).max()))
    return worst


def thermo_report(lam: Isometry, nu: int) -> dict:
    """Plain-dict summary: rank, spectrum, consistency residual, mixing flag.

    ``mixing`` is always true: ``reduced_infinity`` refuses a non-mixing descend channel at every nu.
    """
    fp = single_site_infinity(lam)
    state = reduced_infinity(lam, nu)
    if nu == 1:
        residual = fp.residual
    elif nu == 2:
        again = (ch._local(lam, state.matrix, "RL") + ch._local(lam, fp.state.matrix, "g")) / 2.0
        residual = float(np.abs(again - state.matrix).max())
    else:
        residual = marginal_deviation(state, fp.state.matrix)
    return {
        "nu": nu,
        "rank": numerical_rank(state),
        "eigenvalues": [float(x) for x in state.eigenvalues[::-1]],
        "residual": residual,
        "mixing": fp.mixing,
    }
