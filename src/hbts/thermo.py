"""Thermodynamic-limit reduced states: channel fixed points and resolvent solves.

All functions here take only the tree isometry — never the top tensor —
because every infinite-depth local quantity is independent of how the tree
is closed at the top.  Each one starts at rho1, the fixed point of the
averaged descend map, whose mixing rule comes from the real frame descents
``Lr``, ``Rr`` of :mod:`hbts.channels`; the two-site states sum series there,
eta's source after a solve on each sector K block, and wider windows follow the extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFixedPointError, ValidationError
from .reporting import format_float
from .tensor_core import DensityOp, Isometry, _integer, numerical_rank, partial_trace
from . import channels as ch

TAU_FIX = 1e-10
TAU_SPEC = 1e-10


@dataclass(frozen=True)
class FixedPointResult:
    state: DensityOp
    residual: float


def _refuse_unless_mixing(blocks: list[np.ndarray], what: str, where: str) -> None:
    """Refuse a channel whose action ``blocks`` beside its unit eigenvector has spectral radius within ``TAU_SPEC``
    of 1, with unit-eigenvalue multiplicity 1 plus the eigenvalues of the blocks within ``TAU_SPEC`` of 1."""
    evals = np.concatenate([np.linalg.eigvals(block) for block in blocks])
    radius = float(np.abs(evals).max())
    if radius >= 1.0 - TAU_SPEC:
        multiplicity = 1 + int(np.count_nonzero(np.abs(evals - 1.0) <= TAU_SPEC))
        raise DegenerateFixedPointError("%s is not mixing: unit-eigenvalue multiplicity %d, radius %s on %s"
                                        % (what, multiplicity, format_float(radius), where), multiplicity)


def single_site_infinity(lam: Isometry) -> FixedPointResult:
    """Fixed point of the averaged descend channel ``(L + R)/2``: the infinite-depth one-site state.

    On the traceless frame coordinates the channel is ``D = (Lr + Rr)[1:, 1:]/2`` (row 0 is ``e_0``: descent
    keeps the trace).  It is mixing when no eigenvalue of D has modulus within ``TAU_SPEC`` of 1; otherwise it
    is refused, with multiplicity 1 plus the eigenvalues of D within ``TAU_SPEC`` of 1.  The state is then one
    solve of ``(L + R)/2 x = x`` on the Grams of the descents' Kraus stacks (kept by no one), the trace equation
    replacing the redundant one for ``x[0, 0]``, which keeps a product tree's state exact; within ``TAU_FIX``.
    """

    def build():
        lr, rr = ch._frame_descents(lam)
        _refuse_unless_mixing([(lr[1:, 1:] + rr[1:, 1:]) / 2.0], "averaged descend channel", "the traceless part")
        n = lam.d ** 2
        system = (ch._gram(ch._kraus(lam, "L")) + ch._gram(ch._kraus(lam, "R"))) / 2.0 - np.eye(n)
        system[0] = ch.vec(np.eye(lam.d))
        state = DensityOp(lam.d, 1, ch.unvec(np.linalg.solve(system, np.eye(n)[0]), lam.d))
        residual = float(np.abs(ch._local(lam, (state.matrix, "L"), (state.matrix, "R")) - state.matrix).max())
        if residual > TAU_FIX:
            raise ValidationError("stationary state of the averaged descend channel fails its own equation: "
                                  "residual %g" % residual)
        return FixedPointResult(state, residual)

    return lam._derive("single-site", build)


def _pair_solve(lam: Isometry, source: np.ndarray) -> DensityOp:
    """The state of frame coordinates ``C = sum_k A^k (S/2) B^kT``, the series (Id - RL/2)^-1 S/2 of the source's S.

    Smith's doubling (SIAM J. Appl. Math. 16, 1968), from ``A = Rr/sqrt 2``, ``B = Lr/sqrt 2``: ``C += A C B^T``,
    ``A, B = A^2, B^2`` doubles the terms summed and leaves the remainder ``A C_inf B^T``.  Descents are CPTP, so
    rho(A) rho(B) = 1/2, and ``||A||_F ||B||_F <= eps`` after about six steps.
    """
    lr, rr = ch._frame_descents(lam)
    c, a, b = source / 2.0, rr / np.sqrt(2.0), lr / np.sqrt(2.0)
    while np.linalg.norm(a) * np.linalg.norm(b) > np.finfo(float).eps:
        c += a @ c @ b.T
        a, b = a @ a, b @ b
    mat = ch._from_frame(c)
    return DensityOp(lam.d, 2, mat / np.trace(mat).real)


def two_site_infinity(lam: Isometry) -> DensityOp:
    """Infinite-depth averaged nearest-neighbor state: the sum of the pair recursion's geometric series
    (:func:`_pair_solve`), which converges because descend maps are non-expansive."""
    rho1 = single_site_infinity(lam).state
    return lam._derive("two-site", lambda: _pair_solve(lam, ch._to_frame(ch._local(lam, (rho1.matrix, "g"))).real))


def classical_pair_infinity(lam: Isometry) -> DensityOp:
    """Infinite-depth averaged product-of-neighboring-marginals state, from the source LR(sigma).

    sigma = rho1 (x) rho1 + k is stationary under pair descend P, k in the doubly traceless sectors K_sym, K_anti,
    where P is the transpose of the adjoint's block A_K (:func:`channels._sector_matrix`).  The eigvals of both
    blocks decide mixing; (I - A_K^T) k = x, x the K coordinates of P(rho1 (x) rho1) - rho1 (x) rho1, in two solves.
    LR(k) adds ``Lr K Rr^T`` to the frame coordinates of LR(rho1 (x) rho1), K the frame coordinates of k.
    """
    rho1 = single_site_infinity(lam).state.matrix

    def build():
        b = ch._sector_matrix(lam)
        k_sectors = [where for (where,) in ch._sector_basis(lam.d)[1][2:]]
        _refuse_unless_mixing([b[w, w] for w in k_sectors], "pair-descend channel", "K")
        product = np.kron(rho1, rho1)
        drift = ch._local(lam, (product, "LL"), (product, "RR")) - product
        x = ch._sector_coordinates(drift[None], lam.d)[0].real
        k = np.zeros_like(x)  # no 1 (x) O or O (x) 1 part
        for w in k_sectors:
            k[w] = np.linalg.solve(np.eye(w.stop - w.start) - b[w, w].T, x[w])
        lr, rr = ch._frame_descents(lam)
        source = ch._to_frame(ch._local(lam, (product, "LR"))).real + lr @ ch._from_sectors(k[None], lam.d)[0] @ rr.T
        return _pair_solve(lam, source)

    return lam._derive("classical-pair", build)


def reduced_infinity(lam: Isometry, nu: int) -> DensityOp:
    """Infinite-depth averaged nu-consecutive-site state, nu in 1..4, derived once per isometry.

    The three- and four-site states are the two-site state pushed through
    the 2->3 and 2->4 extensions, one site at a time; the 2->4 one reads the
    three-site state.
    """
    nu = _integer(nu, "nu", 1)  # before anything is derived: a float nu would reach the memo
    if nu == 1:
        return single_site_infinity(lam).state
    if nu == 2:
        return two_site_infinity(lam)
    if nu in (3, 4):
        rho2 = two_site_infinity(lam).matrix
        rho3 = None if nu == 3 else reduced_infinity(lam, 3).matrix
        return lam._derive("reduced-%d" % nu, lambda: DensityOp(lam.d, nu, ch._extend(lam, rho2, rho3)))
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

    ``mixing`` is always true: ``single_site_infinity`` refuses a non-mixing descend channel.
    """
    fp = single_site_infinity(lam)
    state = reduced_infinity(lam, nu)
    if nu == 1:
        residual = fp.residual
    elif nu == 2:
        again = ch._local(lam, (state.matrix, "RL"), (fp.state.matrix, "g"))
        residual = float(np.abs(again - state.matrix).max())
    else:
        residual = marginal_deviation(state, fp.state.matrix)
    return {
        "nu": nu,
        "rank": numerical_rank(state),
        "eigenvalues": [float(x) for x in state.eigenvalues[::-1]],
        "residual": residual,
        "mixing": True,
    }
