"""Completely positive trace-preserving maps of a binary tree, named by words.

Vectorization is column-stacking: ``vec(X)[j*rows + i] = X[i, j]``, so the
map ``X -> A X B^dag`` has superoperator matrix ``conj(B) (x) A`` and the
Hilbert-Schmidt adjoint of a channel is exactly the conjugate transpose of
its superoperator matrix.

Every map between tree levels is a product of one-site maps, written as a
word with one letter per input site (site 1 first):

* ``L`` / ``R``: descend, keep the left / right child of the growth output
  (one site to one, Kraus operators ``t[:, k, :]`` / ``t[k, :, :]``);
* ``g``: growth, ``rho -> v rho v^dag`` (one site to two).

Descend is ``(L + R)/2``; pair descend is ``(LL + RR)/2``, the map whose
powers give correlators at distances 2^m; the two-site recursion runs on
``RL``; the 2->3 extension is ``(Rg + gL)/2`` and the 2->4 extension is
``(gg + RgL after (Rg + gL)/2)/2``.

Each letter is kept once per isometry as its one-site superoperator
matrix.  States, alone or stacked, go through a word one site at a time,
one matrix product per site; ``_local`` takes (state, word) terms and
returns their mean, so it is the one place a tree map is averaged, and
``_extend`` states the two extensions on it.  A channel from
nu_in to nu_out sites (local dimension d) is the dense
``d**(2*nu_out) x d**(2*nu_in)`` matrix of :class:`Channel`: the images of
all matrix units under that same map (``_superop``).  Only the public
constructors build one, for their callers and :func:`choi_check`; no
computation in the library builds or reads one.  Solves and spectra work
instead in the Hermitian frame E_i (``_hermitian_frame``):
X has coordinates ``C[i, j] = Tr[(E_i (x) E_j) X]`` (``_to_frame``), and the
descents are the real ``d^2 x d^2`` matrices ``Lr``, ``Rr`` kept on the
isometry (``_frame_descents``), so ``LR`` acts as ``C -> Lr C Rr^T``.
Pair descend has one dense form: its adjoint in swap sectors (``_sector_matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ShapeError
from .tensor_core import Isometry, require_isometry

# Bound on every residual in choi_check: a map is certified CP when every Choi eigenvalue is >= -TAU_CHOI.
TAU_CHOI = 1e-10


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of :func:`vec` for a square ``rows x rows`` matrix."""
    return np.asarray(v).reshape(rows, rows, order="F")


@dataclass(frozen=True)
class Channel:
    """Linear map between operator spaces of nu_in and nu_out sites."""

    d: int
    nu_in: int
    nu_out: int
    matrix: np.ndarray

    def __post_init__(self):
        din, dout = self.dim_in, self.dim_out
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dout * dout, din * din):
            raise ShapeError(
                "superoperator for %d -> %d sites must be %d x %d, got %s"
                % (self.nu_in, self.nu_out, dout * dout, din * din, mat.shape)
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim_in(self) -> int:
        return self.d ** self.nu_in

    @property
    def dim_out(self) -> int:
        return self.d ** self.nu_out


@dataclass(frozen=True)
class DescendChannels:
    left: Channel
    right: Channel
    average: Channel


def _letter(lam: Isometry, letter: str) -> np.ndarray:
    """Superoperator matrix of one letter (``d^2 x d^2``, or ``d^4 x d^2`` for ``g``), kept on the isometry.

    Entry ``[(c, r), (c', r')]`` is ``sum_k conj(K_k[c, c']) K_k[r, r']`` over the Kraus stack ``K[out, k, in]``.
    """

    def build():
        t = lam.as_tensor()  # (l1, l2, u)
        kraus = {"L": t, "R": t.transpose(1, 0, 2), "g": lam.v[:, None, :]}[letter]
        dout, n, din = kraus.shape
        a = kraus.transpose(1, 0, 2).reshape(n, dout * din)
        gram = a.conj().T @ a
        mat = gram.reshape(dout, din, dout, din).transpose(0, 2, 1, 3).reshape(dout * dout, din * din)
        mat.setflags(write=False)
        return mat

    return lam._derive("letter-" + letter, build)


def _local(lam: Isometry, *terms: tuple[np.ndarray, str], adjoint: bool = False) -> np.ndarray:
    """The mean of the ``(op, word)`` terms, each operator pushed through its word one site at a time,
    or with ``adjoint`` through the word's dual.

    ``op`` is one ``D x D`` operator or a ``D x D x S`` stack of them, all mapped in the same pass.
    Each site is one matrix product of its (column, row) index pair with the letter's matrix, or
    its conjugate transpose for the dual, where ``g`` takes two sites to one.  Maps that shrink a
    site go first, so growth acts on the smallest operator.  The terms add up in the first one's image.
    """
    out = None
    for op, word in terms:
        x = np.asarray(op)
        n, stack = len(word), x.shape[2:]
        dims = [lam.d ** 2 if adjoint and letter == "g" else lam.d for letter in word]
        for j in sorted(range(n), key=lambda j: (word[j] == "g") != adjoint):
            m = _letter(lam, word[j]).conj().T if adjoint else _letter(lam, word[j])
            i, o = dims[j], math.isqrt(m.shape[0])
            before, after = math.prod(dims[:j]), math.prod(dims[j + 1:])
            # axes (rows before, row j, rows after + columns before, column j, columns after + stack)
            y = x.reshape(before, i, after * before, i, after * math.prod(stack))
            y = y.transpose(0, 2, 4, 3, 1).reshape(-1, i * i) @ m.T
            x = y.reshape(before, after * before, -1, o, o).transpose(0, 4, 1, 3, 2)
            dims[j] = o
        x = x.reshape((math.prod(dims),) * 2 + stack)
        if out is None:
            out = x
        else:
            out += x
    out /= len(terms)
    return out


def _extend(lam: Isometry, rho2: np.ndarray, rho3: np.ndarray | None = None) -> np.ndarray:
    """The 2->3 extension ``(Rg + gL)/2`` of rho2, or with rho3 the 2->4 extension ``(gg rho2 + RgL rho3)/2``.

    For the four-site state, ``rho3`` is the 2->3 extension of the two-site
    state one level further up, the input of the middle map ``RgL``; both may be stacks.
    """
    if rho3 is None:
        return _local(lam, (rho2, "Rg"), (rho2, "gL"))
    return _local(lam, (rho2, "gg"), (rho3, "RgL"))


@cache
def _hermitian_frame(d: int) -> np.ndarray:
    """Unitary d^2 x d^2 matrix of vectorized orthonormal Hermitian operators E_i, E_0 = -1/sqrt(d); read-only.

    A Householder reflection gives real orthonormal operators X; the map
    X -> ((1 + i) X + (1 - i) X^T)/2 keeps them orthonormal and makes them
    Hermitian, so Hermiticity-preserving maps are real in this basis.
    """
    w = vec(np.eye(d)) / np.sqrt(d)
    w[0] += 1.0
    real = np.eye(d * d) - np.outer(w, w) / w[0]
    transposed = real.reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)
    frame = ((1 + 1j) * real + (1 - 1j) * transposed) / 2.0
    frame.setflags(write=False)
    return frame


def _frame_descents(lam: Isometry) -> tuple[np.ndarray, np.ndarray]:
    """``(Lr, Rr)``, ``Lr[i, j] = Tr[E_i L(E_j)]``, kept on the isometry; row 0 is ``e_0``, as L keeps the trace."""
    require_isometry(lam)

    def build():
        frame = _hermitian_frame(lam.d)
        out = tuple((frame.conj().T @ _letter(lam, letter) @ frame).real.copy() for letter in "LR")
        for m in out:
            m.setflags(write=False)
        return out

    return lam._derive("frame-descents", build)


def _to_frame(ops: np.ndarray) -> np.ndarray:
    """Coordinates ``C[i, j] = Tr[(E_i (x) E_j) X]`` of a two-site operator X or a stack (real for Hermitian X)."""
    n = ops.shape[-1]
    d = math.isqrt(n)
    y = ops.reshape(-1, d, d, d, d).transpose(0, 3, 1, 4, 2).reshape(-1, n, n)  # [(c1, r1), (c2, r2)]
    return (_hermitian_frame(d).conj().T @ y @ _hermitian_frame(d).conj()).reshape(ops.shape)


def _from_frame(coords: np.ndarray) -> np.ndarray:
    """The two-site operator ``sum C[i, j] E_i (x) E_j`` of coordinates C, or a stack of them: inverse of _to_frame."""
    n = coords.shape[-1]
    d = math.isqrt(n)
    y = _hermitian_frame(d) @ coords.reshape(-1, n, n) @ _hermitian_frame(d).T
    return y.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(coords.shape)


@cache
def _sector_basis(d: int) -> tuple:
    """Swap-(anti)symmetrized products of E_i (x) E_j (product index i d^2 + j), as 1, S+, S-, K_sym, K_anti.

    Returns ((p1, p2, w1, w2), sectors), built once per d and read-only: the E_i are the frame of
    :func:`_hermitian_frame` and column q is ``w1[q] e[p1[q]] + w2[q] e[p2[q]]``.
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
    lr, rr = _frame_descents(lam)
    out = np.kron(lr.T, lr.T)
    out += np.kron(rr.T, rr.T)
    out /= 2.0
    for shape in ((1, -1), (-1, 1)):  # gather the columns, then the rows; weigh each gathered copy in place
        first = out.take(p1, shape.index(-1))
        first *= w1.reshape(shape)
        out = out.take(p2, shape.index(-1))
        out *= w2.reshape(shape)
        out += first
    return out


def _sector_coordinates(ops: np.ndarray, d: int) -> np.ndarray:
    """Coordinates Tr[G_q X] of stacked two-site operators X; the inverse of :func:`_sector_operators`."""
    (p1, p2, w1, w2), _ = _sector_basis(d)
    product = _to_frame(ops).reshape(len(ops), -1)
    return product[:, p1] * w1 + product[:, p2] * w2


def _sector_operators(coords: np.ndarray, d: int) -> np.ndarray:
    """Stacked two-site operators sum_q c_q G_q of the rows c of coords: each product coordinate is the sum of
    two terms (the swap-symmetric and -antisymmetric ones of its pair, or half a diagonal one twice), each
    gathered copy weighed in place."""
    (p1, p2, w1, w2), _ = _sector_basis(d)
    pairs = np.argsort(np.concatenate([p1, p2]), kind="stable").reshape(-1, 2)
    q, w = pairs % len(p1), np.concatenate([w1, w2])[pairs]
    product = coords.take(q[:, 0], axis=1)
    product *= w[:, 0]
    second = coords.take(q[:, 1], axis=1)
    second *= w[:, 1]
    product += second
    return _from_frame(product.reshape(-1, d * d, d * d))


def _superop(apply, din: int) -> np.ndarray:
    """Dense matrix of the linear map ``apply`` on ``din x din`` operators.

    ``apply`` maps the stack of all ``din^2`` matrix units at once; column ``q`` is vec of the image of ``unvec(e_q)``.
    """
    units = np.eye(din * din, dtype=complex).reshape(din, din, din * din).transpose(1, 0, 2)
    return apply(units).transpose(1, 0, 2).reshape(-1, din * din)


def descend_channels(lam: Isometry) -> DescendChannels:
    """Left/right single-site descents and their equal-weight mixture.

    Left keeps the left child (traces the right), right keeps the right
    child; both are CPT with Kraus operators sliced out of the isometry:
    ``t[:, k, :]`` for left, ``t[k, :, :]`` for right.
    """
    require_isometry(lam)

    def build():
        left = Channel(lam.d, 1, 1, _letter(lam, "L"))
        right = Channel(lam.d, 1, 1, _letter(lam, "R"))
        return DescendChannels(left, right, Channel(lam.d, 1, 1, (left.matrix + right.matrix) / 2.0))

    return lam._derive("descend", build)


def pair_descend_channel(lam: Isometry) -> Channel:
    """Two sites to two: (left (x) left + right (x) right)/2."""
    require_isometry(lam)

    def build():
        mat = _superop(lambda x: _local(lam, (x, "LL"), (x, "RR")), lam.d ** 2)
        return Channel(lam.d, 2, 2, mat)

    return lam._derive("pair-descend", build)


def extension_channel(lam: Isometry, nu: int) -> Channel:
    """Two-site state of one level to the nu-site state of the level below, as a dense matrix.

    Only nu in {3, 4} is defined; larger windows have no stated construction.
    """
    if nu not in (3, 4):
        raise ValueError("extension is defined for nu in {3, 4}, got %r" % (nu,))
    require_isometry(lam)
    ext = (lambda x: _extend(lam, x)) if nu == 3 else (lambda x: _extend(lam, x, _extend(lam, x)))
    return Channel(lam.d, 2, nu, _superop(ext, lam.d ** 2))


@dataclass(frozen=True)
class ChoiReport:
    """Outcome of :func:`choi_check`.

    ``choi_min_eigenvalue`` is None when the map is completely positive; otherwise it is the exact
    smallest eigenvalue of the Hermitian part of the Choi matrix, from a full ``eigvalsh``.
    """

    completely_positive: bool
    trace_preserving: bool
    unital: bool
    hermiticity_preserving: bool
    choi_min_eigenvalue: float | None
    tp_residual: float
    unital_residual: float
    herm_residual: float
    tol: float


def _low_rank_psd(h: np.ndarray) -> bool:
    """True when a pivoted Cholesky factor L of the Hermitian ``h`` gives ``||L L^dag - h||_F <= TAU_CHOI``.

    Greedy max-diagonal pivots (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62, 2012) run to the numerical rank,
    where no diagonal left exceeds ``TAU_CHOI / n``.  Whatever L is, no eigenvalue of h is below ``-||L L^dag - h||_F``.
    """
    n = len(h)
    diag = h.diagonal().real.copy()
    rows = np.empty((min(n, 32), n), dtype=complex)  # the rows of L^dag, doubled when the rank needs more
    for k in range(n + 1):
        p = int(diag.argmax())
        if k == n or diag[p] <= TAU_CHOI / n:
            break
        if k == len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
        np.subtract(h[p], rows[:k, p].conj() @ rows[:k], out=rows[k])
        rows[k] /= math.sqrt(diag[p])
        diag -= (rows[k] * rows[k].conj()).real
    e = rows[:k].conj().T @ rows[:k]
    e -= h
    return bool(np.vdot(e, e).real <= TAU_CHOI ** 2)


def choi_check(ch: Channel) -> ChoiReport:
    """CP/TP diagnostics: Choi positivity and unitality of the adjoint.

    The Choi operator on (input (x) output) is J = sum_ij |i><j| (x) ch(|i><j|).  Its entries, as
    ``K[(c_out, c_in), (r_out, r_in)] = M[(c_out, r_out), (c_in, r_in)]`` of the superoperator M, are
    conj(J) with its factors swapped, so K has J's Hermitian residual and Hermitian-part spectrum.  The
    map is completely positive when J is Hermitian within ``TAU_CHOI`` and the Hermitian part H of K has
    no eigenvalue below ``-TAU_CHOI``: :func:`_low_rank_psd` certifies that in ``O(n^2 r)``, and only a map
    it does not certify pays for the full spectrum of H that decides it.
    """
    m, n = ch.dim_in, ch.dim_out
    t = ch.matrix.reshape(n, n, m, m)  # (col_out, row_out, col_in, row_in)
    k = t.transpose(0, 2, 1, 3)
    h = np.conjugate(t.transpose(1, 3, 0, 2), order="C")  # the one copy, K^dag, made Hermitian in place
    h -= k
    herm_residual = float(np.abs(h).max())
    h *= 0.5
    h += k  # (K + K^dag) / 2
    h = h.reshape(m * n, m * n)
    hermitian = herm_residual <= TAU_CHOI
    min_eig = None if hermitian and _low_rank_psd(h) else float(np.linalg.eigvalsh(h)[0])
    certified = hermitian and (min_eig is None or min_eig >= -TAU_CHOI)
    # vec(1) is real, so M^dag vec(1) = conj(M^T vec(1)) without a conjugate copy of M
    back = unvec((ch.matrix.T @ vec(np.eye(n))).conj(), m)
    tp_residual = float(np.abs(back - np.eye(m)).max())
    forward = unvec(ch.matrix @ vec(np.eye(m)), n)
    unital_residual = float(np.abs(forward - np.eye(n)).max())
    return ChoiReport(
        completely_positive=certified,
        trace_preserving=tp_residual <= TAU_CHOI,
        unital=unital_residual <= TAU_CHOI,
        hermiticity_preserving=hermitian,
        choi_min_eigenvalue=None if certified else min_eig,
        tp_residual=tp_residual,
        unital_residual=unital_residual,
        herm_residual=herm_residual,
        tol=TAU_CHOI,
    )
