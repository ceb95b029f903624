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

States are pushed through a word one site at a time (``_local``), so no
product of one-site maps is ever formed for them.  A channel from nu_in to
nu_out sites (local dimension d) is the dense ``d**(2*nu_out) x
d**(2*nu_in)`` matrix of :class:`Channel`, built from the word's product
Kraus stack only where a spectrum, a solve or a caller needs it.  The
descend and pair-descend channels are derived once per isometry and kept on
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor_core import TAU_ISO, DensityOp, Isometry, Observable, require_isometry


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    if cols is None:
        cols = rows
    return np.asarray(v).reshape(rows, cols, order="F")


@dataclass(frozen=True)
class Channel:
    """Linear map between operator spaces of nu_in and nu_out sites."""

    d: int
    nu_in: int
    nu_out: int
    matrix: np.ndarray
    name: str = ""

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

    @property
    def is_square(self) -> bool:
        return self.nu_in == self.nu_out


@dataclass(frozen=True)
class DescendChannels:
    left: Channel
    right: Channel
    average: Channel


def _site_kraus(lam: Isometry, word: str) -> list[np.ndarray]:
    """One stack ``[out, k, in]`` per letter: ``L`` keeps the left child, ``R`` the right, ``g`` grows."""
    t = lam.as_tensor()  # (l1, l2, u)
    stacks = {"L": t, "R": t.transpose(1, 0, 2), "g": lam.v[:, None, :]}
    return [stacks[letter] for letter in word]


def _kraus(lam: Isometry, word: str) -> np.ndarray:
    """Product stack ``[out, k, in]`` of the word's one-site stacks, site 1 most significant."""
    out = np.ones((1, 1, 1))
    for k in _site_kraus(lam, word):
        (o, n, i), (p, m, j) = out.shape, k.shape
        out = np.einsum("oki,pmj->opkmij", out, k).reshape(o * p, n * m, i * j)
    return out


def _kraus_superop(kraus: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> sum_k K_k rho K_k^dag, from the stack ``kraus[out, k, in]``.

    Entry ``[(c, r), (c', r')]`` is ``sum_k conj(K_k[c, c']) K_k[r, r']``: one
    ``A^dag A`` product with ``A[k, (r, r')] = K_k[r, r']``, then a reordering.
    """
    dout, n, din = kraus.shape
    a = kraus.transpose(1, 0, 2).reshape(n, dout * din)
    gram = a.conj().T @ a
    return gram.reshape(dout, din, dout, din).transpose(0, 2, 1, 3).reshape(dout * dout, din * din)


def _local(lam: Isometry, op: np.ndarray, word: str) -> np.ndarray:
    """The operator ``op`` on ``len(word)`` sites pushed through the map ``word``, one site at a time.

    Each site gets ``x -> sum_k K_k x K_k^dag`` with its own stack, as two
    matrix products; the descents go first, so growth acts on the smallest
    operator.
    """
    stacks = _site_kraus(lam, word)
    n = len(stacks)
    dims = [k.shape[2] for k in stacks] * 2  # row then column dimension of each site
    x = np.asarray(op)
    for j in sorted(range(n), key=lambda j: word[j] == "g"):
        k = stacks[j]
        o, m, i = k.shape
        a, b, e = math.prod(dims[:j]), math.prod(dims[j + 1:n + j]), math.prod(dims[n + j + 1:])
        y = (k.reshape(o * m, i) @ x.reshape(a, i, b * i * e)).reshape(a, o, m, b, i, e)
        y = y.transpose(0, 1, 3, 5, 2, 4).reshape(-1, m * i) @ k.reshape(o, m * i).conj().T
        x = y.reshape(a, o, b, e, o).transpose(0, 1, 2, 4, 3)
        dims[j] = dims[n + j] = o
    dim = math.prod(dims[:n])
    return x.reshape(dim, dim)


def _extend(lam: Isometry, rho2: np.ndarray, rho3: np.ndarray | None = None) -> np.ndarray:
    """The 2->3 extension ``(Rg + gL)/2`` of rho2, or with rho3 the 2->4 extension ``(gg rho2 + RgL rho3)/2``.

    For the four-site state, ``rho3`` is the 2->3 extension of the two-site
    state one level further up, the input of the middle map ``RgL``.
    """
    if rho3 is None:
        return (_local(lam, rho2, "Rg") + _local(lam, rho2, "gL")) / 2.0
    return (_local(lam, rho2, "gg") + _local(lam, rho3, "RgL")) / 2.0


def growth_channel(lam: Isometry, tol: float = TAU_ISO) -> Channel:
    """One site to two: rho -> v rho v^dag.  Trace- and rank-preserving."""
    require_isometry(lam, tol)
    return Channel(lam.d, 1, 2, _kraus_superop(_kraus(lam, "g")), name="growth")


def _build_descend(lam: Isometry) -> DescendChannels:
    d = lam.d
    left = Channel(d, 1, 1, _kraus_superop(_kraus(lam, "L")), name="descend-left")
    right = Channel(d, 1, 1, _kraus_superop(_kraus(lam, "R")), name="descend-right")
    average = Channel(d, 1, 1, (left.matrix + right.matrix) / 2.0, name="descend")
    return DescendChannels(left, right, average)


def descend_channels(lam: Isometry, tol: float = TAU_ISO) -> DescendChannels:
    """Left/right single-site descents and their equal-weight mixture.

    Left keeps the left child (traces the right), right keeps the right
    child; both are CPT with Kraus operators sliced out of the isometry:
    ``t[:, k, :]`` for left, ``t[k, :, :]`` for right.
    """
    require_isometry(lam, tol)
    return lam._derive("descend", lambda: _build_descend(lam))


def pair_descend_channel(lam: Isometry) -> Channel:
    """Two sites to two: (left (x) left + right (x) right)/2."""
    require_isometry(lam)

    def build():
        mat = (_kraus_superop(_kraus(lam, "LL")) + _kraus_superop(_kraus(lam, "RR"))) / 2.0
        return Channel(lam.d, 2, 2, mat, name="pair-descend")

    return lam._derive("pair-descend", build)


def extension_channel(lam: Isometry, nu: int) -> Channel:
    """Two-site state of one level to the nu-site state of the level below, as a dense matrix.

    Only nu in {3, 4} is defined; larger windows have no stated construction.
    The 2->4 map composes the Kraus stacks of ``RgL`` and the 2->3 extension.
    """
    if nu not in (3, 4):
        raise ValueError("extension is defined for nu in {3, 4}, got %r" % (nu,))
    require_isometry(lam)
    d = lam.d
    ext3 = np.concatenate([_kraus(lam, "Rg"), _kraus(lam, "gL")], axis=1) * np.sqrt(0.5)
    if nu == 3:
        mat = _kraus_superop(ext3)
    else:
        middle = _kraus(lam, "RgL").reshape(-1, d ** 3) @ ext3.reshape(d ** 3, -1)
        mat = (_kraus_superop(_kraus(lam, "gg")) + _kraus_superop(middle.reshape(d ** 4, -1, d * d))) / 2.0
    return Channel(d, 2, nu, mat, name="extend-2to%d" % nu)


def adjoint(ch: Channel) -> Channel:
    """Hilbert-Schmidt dual: conjugate transpose of the superoperator matrix.

    The dual is unital when its source preserves trace.
    """
    return Channel(
        ch.d, ch.nu_out, ch.nu_in, ch.matrix.conj().T, name="adj%s" % (("-" + ch.name) if ch.name else "")
    )


def apply(ch: Channel, op) -> np.ndarray:
    """Act on an operator (DensityOp, Observable, or raw square matrix)."""
    if isinstance(op, (DensityOp, Observable)):
        mat = op.matrix
    else:
        mat = np.asarray(op, dtype=complex)
    din = ch.dim_in
    if mat.shape != (din, din):
        raise ShapeError("channel expects a %d x %d operator, got %s" % (din, din, mat.shape))
    return unvec(ch.matrix @ vec(mat), ch.dim_out)


@dataclass(frozen=True)
class ChoiReport:
    completely_positive: bool
    trace_preserving: bool
    unital: bool
    hermiticity_preserving: bool
    choi_min_eigenvalue: float
    tp_residual: float
    unital_residual: float
    herm_residual: float
    tol: float


def choi_check(ch: Channel, tol: float = 1e-10) -> ChoiReport:
    """CP/TP diagnostics: Choi positivity and unitality of the adjoint.

    The Choi operator on (input (x) output) is J = sum_ij |i><j| (x) ch(|i><j|).
    """
    m, n = ch.dim_in, ch.dim_out
    t = ch.matrix.reshape(n, n, m, m)  # (col_out, row_out, col_in, row_in)
    choi = t.transpose(3, 1, 2, 0).reshape(m * n, m * n)
    herm_residual = float(np.abs(choi - choi.conj().T).max())
    min_eig = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0])
    cp = herm_residual <= tol and min_eig >= -tol
    back = unvec(ch.matrix.conj().T @ vec(np.eye(n)), m)
    tp_residual = float(np.abs(back - np.eye(m)).max())
    forward = unvec(ch.matrix @ vec(np.eye(m)), n)
    unital_residual = float(np.abs(forward - np.eye(n)).max())
    return ChoiReport(
        completely_positive=cp,
        trace_preserving=tp_residual <= tol,
        unital=unital_residual <= tol,
        hermiticity_preserving=herm_residual <= tol,
        choi_min_eigenvalue=min_eig,
        tp_residual=tp_residual,
        unital_residual=unital_residual,
        herm_residual=herm_residual,
        tol=tol,
    )
