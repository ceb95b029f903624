"""Brute-force oracle for finite trees: explicit states, exact averages, recursion checks.

Everything here treats the lattice as a ring (periodic indices); averages
over starting position always include the wrap-around pairs.  The explicit
state costs d**(2**n) amplitudes, so depth is capped by a memory budget;
``level_states`` gives the same averaged quantities at any depth, iterating
the channels from this oracle's averages of the depth-1 tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .tensor_core import (
    DensityOp,
    Isometry,
    LatticeSpec,
    Observable,
    TopTensor,
    partial_trace,
    require_isometry,
    require_top,
)
from . import channels as ch
from . import correlators as co

DEFAULT_MAX_AMPLITUDES = 1 << 16


@dataclass(frozen=True)
class PureState:
    spec: LatticeSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.spec.d ** self.spec.N:
            raise ValueError("amplitude vector has %d entries, expected d**N = %d" % (amps.size, self.spec.d ** self.spec.N))
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def build_state(lam: Isometry, c: TopTensor, n: int, max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> PureState:
    """Contract the depth-n tree explicitly into a d**(2**n) amplitude vector."""
    require_isometry(lam)
    require_top(c)
    if lam.d != c.d:
        raise ValueError("isometry and top tensor have different local dimension")
    if n < 1:
        raise ValueError("tree depth must be >= 1, got %d" % n)
    d = lam.d
    required = d ** (2 ** n)
    if required > max_amplitudes:
        raise ResourceLimitError(
            "depth %d needs %d amplitudes, budget is %d" % (n, required, max_amplitudes),
            required=required,
        )
    v = lam.v  # (l1 l2) x u
    amp = np.array(c.c, dtype=complex).reshape(-1)
    sites = 2
    for _ in range(n - 1):
        t = amp.reshape((d,) * sites)
        for ax in range(sites):
            t = np.tensordot(t, v, axes=([ax], [1]))  # replaces site ax by its child pair
            t = np.moveaxis(t, -1, ax)
        amp = t.reshape(-1)
        sites *= 2
    return PureState(LatticeSpec(d=d, N=sites, n=n), amp)


def _reduced(psi: PureState, start: int, nu: int = 1, step: int = 1) -> np.ndarray:
    """Reduced density matrix of the nu consecutive sites from 0-based ``start`` (cyclic), or of the pair
    ``start``, ``start + step``.  One 2-D transpose rotates the ring to put ``start`` first; a pair then
    moves its gap behind it.
    """
    d = psi.spec.d
    a = psi.amplitudes.reshape(d ** start, -1).T
    if step > 1:
        a = a.reshape(d, d ** (step - 1), d, -1).transpose(0, 2, 1, 3)
    a = a.reshape(d ** nu, -1)
    return a @ a.conj().T


def reduced_avg(psi: PureState, nu: int) -> DensityOp:
    """Average over all cyclic starting positions of the nu-consecutive-site state."""
    N = psi.spec.N
    if not 1 <= nu <= N:
        raise ValueError("window size %d out of range 1..%d" % (nu, N))
    return DensityOp(psi.spec.d, nu, sum(_reduced(psi, alpha, nu) for alpha in range(N)) / N)


def site_marginals(psi: PureState) -> list[np.ndarray]:
    """One-site reduced density matrix of every site, in site order."""
    return [_reduced(psi, alpha) for alpha in range(psi.spec.N)]


def classical_pair_avg(psi: PureState) -> DensityOp:
    """Average of marginal products over neighboring pairs (cyclic)."""
    N = psi.spec.N
    margs = site_marginals(psi)
    acc = sum(np.kron(margs[a], margs[(a + 1) % N]) for a in range(N)) / N
    return DensityOp(psi.spec.d, 2, acc)


def same_site_pair_avg(psi: PureState) -> DensityOp:
    """Average of marginal self-products, the seed of the pair-descend iteration."""
    N = psi.spec.N
    margs = site_marginals(psi)
    acc = sum(np.kron(m, m) for m in margs) / N
    return DensityOp(psi.spec.d, 2, acc)


def single_site_base(c: TopTensor) -> DensityOp:
    """Averaged one-site state of the depth-1 tree, whose two sites hold the top tensor's amplitudes."""
    require_top(c)
    return reduced_avg(PureState(LatticeSpec(d=c.d, N=2, n=1), c.c), 1)


@dataclass(frozen=True)
class LevelStates:
    """Averaged level-n states computed by channel iteration (any depth)."""

    n: int
    single: DensityOp
    pair: DensityOp
    classical_pair: DensityOp
    same_site_pair: DensityOp


def level_states(lam: Isometry, c: TopTensor, n: int) -> LevelStates:
    """Iterate the level recursions from the depth-1 base cases, the oracle's averages of the depth-1 tree.

    The pair state follows the two-site recursion; the classical-pair state
    rides along via the same-site product average, which the pair-descend
    words ``(LL + RR)/2`` carry level to level.
    """
    psi = build_state(lam, c, 1)
    if n < 1:
        raise ValueError("tree depth must be >= 1, got %d" % n)
    d = lam.d
    rho1, rho2, eta, omega = (op.matrix for op in (reduced_avg(psi, 1), reduced_avg(psi, 2),
                                                   classical_pair_avg(psi), same_site_pair_avg(psi)))
    for _ in range(n - 1):
        rho1, rho2, eta, omega = (
            ch._local(lam, (rho1, "L"), (rho1, "R")),
            ch._local(lam, (rho2, "RL"), (rho1, "g")),
            ch._local(lam, (eta, "RL"), (omega, "LR")),
            ch._local(lam, (omega, "LL"), (omega, "RR")),
        )

    return LevelStates(
        n=n,
        single=DensityOp(d, 1, rho1),
        pair=DensityOp(d, 2, rho2),
        classical_pair=DensityOp(d, 2, eta),
        same_site_pair=DensityOp(d, 2, omega),
    )


@dataclass(frozen=True)
class RecursionReport:
    n_max: int
    single_site: float
    pair: float
    triple: float
    quad: float

    @property
    def max_residual(self) -> float:
        return max(self.single_site, self.pair, self.triple, self.quad)


def recursion_check(
    lam: Isometry,
    c: TopTensor,
    n_max: int,
    max_amplitudes: int = DEFAULT_MAX_AMPLITUDES,
) -> RecursionReport:
    """Verify all four level recursions against brute-force averages up to n_max.

    Checks, for every depth within budget:
      * one-site:  next single state equals descend of the current one;
      * two-site:  next pair state equals the half/half pair recursion;
      * three-site: depth-n triple equals the 2->3 extension of depth n-1;
      * four-site: depth-n quadruple equals the 2->4 extension of the depth n-1 pair
        and of the 2->3 prediction for depth n-1 (defined for n >= 3 only).
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2 to check any recursion")
    # rho[n][nu - 1]: the averaged nu-site state at depth n.  Only the widest window a depth is
    # checked at is reduced from the explicit state; tracing out its last site gives the next
    # narrower average exactly, since the average runs over every cyclic start.
    rho = {}
    for n in range(1, n_max + 1):
        windows = [reduced_avg(build_state(lam, c, n, max_amplitudes), min(n + 1, 4))]
        while windows[0].nu > 1:
            windows.insert(0, partial_trace(windows[0], range(1, windows[0].nu)))
        rho[n] = [w.matrix for w in windows]

    # predictions of each depth n >= 2 from depth n - 1; the 2->4 one reads depth n - 1's 2->3 prediction
    res = [0.0] * 4
    ext3 = None
    for n in range(2, n_max + 1):
        (rho1, rho2, *_), below = rho[n - 1], rho[n]
        preds = [ch._local(lam, (rho1, "L"), (rho1, "R")), ch._local(lam, (rho2, "RL"), (rho1, "g")),
                 ch._extend(lam, rho2)]
        if ext3 is not None:  # from depth 3 on
            preds.append(ch._extend(lam, rho2, ext3))
        ext3 = preds[2]
        for k, pred in enumerate(preds):
            res[k] = max(res[k], float(np.abs(pred - below[k]).max()))

    return RecursionReport(n_max, *res)


def correlator_finite(psi: PureState, theta: Observable, theta_prime: Observable, delta: int) -> complex:
    """Translation-averaged connected two-point function at distance delta."""
    N = psi.spec.N
    if not 1 <= delta < N:
        raise ValueError("distance %d out of range 1..%d" % (delta, N - 1))
    margs = site_marginals(psi)
    singles_a = [complex(np.trace(theta.matrix @ m)) for m in margs]
    singles_b = [complex(np.trace(theta_prime.matrix @ m)) for m in margs]
    joint_obs = np.kron(theta.matrix, theta_prime.matrix)
    total = 0.0 + 0.0j
    for beta in range(N):
        pair = _reduced(psi, beta, 2, delta)
        total += complex(np.trace(joint_obs @ pair)) - singles_a[beta] * singles_b[(beta + delta) % N]
    return total / N


def correlator_level(
    lam: Isometry,
    c: TopTensor,
    n: int,
    theta: Observable,
    theta_prime: Observable,
    m: int,
) -> complex:
    """Connected correlator at distance 2**m for a depth-n tree, via channels.

    Matches :func:`correlator_finite` on the explicit state but works at any
    depth; needs m <= n - 1.
    """
    if m < 0 or m > n - 1:
        raise ValueError("distance exponent m must satisfy 0 <= m <= n-1")
    lv = level_states(lam, c, n - m)
    diff = lv.pair.matrix - lv.classical_pair.matrix
    block = np.kron(theta.matrix, theta_prime.matrix)
    return next(co.pair_descend_series(lam, diff, block, [m]))[1]
