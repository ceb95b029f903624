"""Brute-force oracle for finite trees: explicit states, exact averages, recursion checks.

Everything here treats the lattice as a ring (periodic indices); averages
over starting position always include the wrap-around pairs.  The explicit
state costs d**(2**n) amplitudes, so depth is capped by a memory budget;
``recursion_check`` holds the channel recursions, which reach any depth,
to these averages at every depth within it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .tensor_core import (
    DensityOp,
    Isometry,
    Observable,
    TopTensor,
    _frozen_complex,
    _integer,
    _sizes,
    partial_trace,
    require_isometry,
    require_top,
)
from . import channels as ch

DEFAULT_MAX_AMPLITUDES = 1 << 16


@dataclass(frozen=True)
class PureState:
    """N sites of local dimension d on a ring, as a read-only vector of d**N amplitudes."""

    d: int
    N: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _sizes(self, "d", "N")
        amps = np.reshape(self.amplitudes, -1)
        object.__setattr__(self, "amplitudes", _frozen_complex(amps, (self.d ** self.N,), "amplitude vector"))


def build_state(lam: Isometry, c: TopTensor, n: int, max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> PureState:
    """Contract the depth-n tree explicitly into a d**(2**n) amplitude vector, within the integer max_amplitudes."""
    require_isometry(lam)
    require_top(c)
    if lam.d != c.d:
        raise ValueError("isometry and top tensor have different local dimension")
    n = _integer(n, "tree depth n", 1)
    d = lam.d
    required = d ** (2 ** n)
    if required > _integer(max_amplitudes, "max_amplitudes", 1):
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
    return PureState(d, sites, amp)


def _reduced(psi: PureState, start: int, nu: int = 1, step: int = 1) -> np.ndarray:
    """Reduced density matrix of the nu consecutive sites from 0-based ``start`` (cyclic), or of the pair
    ``start``, ``start + step``.  One 2-D transpose rotates the ring to put ``start`` first; a pair then
    moves its gap behind it.
    """
    d = psi.d
    a = psi.amplitudes.reshape(d ** start, -1).T
    if step > 1:
        a = a.reshape(d, d ** (step - 1), d, -1).transpose(0, 2, 1, 3)
    a = a.reshape(d ** nu, -1)
    return a @ a.conj().T


def reduced_avg(psi: PureState, nu: int) -> DensityOp:
    """Average over all cyclic starting positions of the nu-consecutive-site state."""
    N = psi.N
    nu = _integer(nu, "window size nu", 1)
    if nu > N:
        raise ValueError("window size %d out of range 1..%d" % (nu, N))
    return DensityOp(psi.d, nu, sum(_reduced(psi, alpha, nu) for alpha in range(N)) / N)


def site_marginals(psi: PureState) -> list[np.ndarray]:
    """One-site reduced density matrix of every site, in site order."""
    return [_reduced(psi, alpha) for alpha in range(psi.N)]


def classical_pair_avg(psi: PureState) -> DensityOp:
    """Average of marginal products over neighboring pairs (cyclic)."""
    N = psi.N
    margs = site_marginals(psi)
    acc = sum(np.kron(margs[a], margs[(a + 1) % N]) for a in range(N)) / N
    return DensityOp(psi.d, 2, acc)


def same_site_pair_avg(psi: PureState) -> DensityOp:
    """Average of marginal self-products, which the pair-descend words (LL + RR)/2 carry from level to level."""
    N = psi.N
    margs = site_marginals(psi)
    acc = sum(np.kron(m, m) for m in margs) / N
    return DensityOp(psi.d, 2, acc)


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
    n_max = _integer(n_max, "n_max", 2)  # depth 2 is the first one a recursion predicts
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
    N = psi.N
    delta = _integer(delta, "distance delta", 1)
    if delta >= N:
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
