"""Completely positive trace-preserving maps as dense superoperator matrices.

Vectorization is column-stacking: ``vec(X)[j*rows + i] = X[i, j]``, so the
map ``X -> A X B^dag`` has superoperator matrix ``conj(B) (x) A`` and the
Hilbert-Schmidt adjoint of a channel is exactly the conjugate transpose of
its superoperator matrix.

A channel from nu_in sites to nu_out sites (local dimension d) is stored as
the dense ``d**(2*nu_out) x d**(2*nu_in)`` matrix acting on vectorized
operators.  The maps built here from a tree isometry ``v`` (d^2 x d):

* growth: one site to two, ``rho -> v rho v^dag``;
* descend left/right: trace the right/left child of the growth output,
  with averaged mixture ``(left + right)/2``;
* pair descend: both members of a site pair descend through the same child
  slot, ``(left (x) left + right (x) right)/2`` — the map whose powers give
  correlators at distances 2^m;
* extension 2 -> 3 and 2 -> 4: the maps taking the two-site state of one
  tree level to three- and four-site states of the level below.

The extensions are applied in Kraus form, ``rho -> sum_k K_k rho K_k^dag``
on the ``d^2 x d^2`` state; only :func:`extension_channel` builds their dense
matrices.  Channels and Kraus stacks are derived once per isometry and kept
on it.
"""

from __future__ import annotations

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


def _kraus_superop(kraus: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> sum_k K_k rho K_k^dag, from the stack ``kraus[out, k, in]``.

    Entry ``[(c, r), (c', r')]`` is ``sum_k conj(K_k[c, c']) K_k[r, r']``: one
    ``A^dag A`` product with ``A[k, (r, r')] = K_k[r, r']``, then a reordering.
    """
    dout, n, din = kraus.shape
    a = kraus.transpose(1, 0, 2).reshape(n, dout * din)
    gram = a.conj().T @ a
    return gram.reshape(dout, din, dout, din).transpose(0, 2, 1, 3).reshape(dout * dout, din * din)


def _apply_kraus(kraus: np.ndarray, op: np.ndarray) -> np.ndarray:
    """sum_k K_k op K_k^dag for the stack ``kraus[out, k, in]``, as two matrix products."""
    dout, n, din = kraus.shape
    left = (kraus.reshape(dout * n, din) @ op).reshape(dout, n * din)
    return left @ kraus.reshape(dout, n * din).conj().T


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _build_ext3(lam: Isometry) -> np.ndarray:
    d = lam.d
    t = lam.as_tensor()  # (l1, l2, u): R_k = t[k], L_k = t[:, k]
    right_grow = np.einsum("kau,bw->abkuw", t, lam.v).reshape(d ** 3, d, d * d)
    grow_left = np.einsum("bu,ckw->bckuw", lam.v, t).reshape(d ** 3, d, d * d)
    return np.concatenate([right_grow, grow_left], axis=1) * np.sqrt(0.5)


def _build_middle(lam: Isometry, ext3: np.ndarray) -> np.ndarray:
    d = lam.d
    t = lam.as_tensor()
    e = ext3.reshape(d, d, d, 2 * d, d * d)  # (s1, s2, s3, k, in)
    middle = np.einsum("axp,yq,zbr,pqrki->xyzabki", t, lam.v, t, e, optimize=True)
    return middle.reshape(d ** 4, 2 * d ** 3, d * d)


class _ExtensionKraus:
    """Stacked Kraus operators ``[out, k, in]`` of the extension maps of one isometry.

    The 2->3 extension is ``ext3``; the 2->4 extension is
    ``(grow_grow + middle) / 2`` on one two-site state, where ``middle`` is
    the 3->4 map ``R (x) grow (x) L`` after the 2->3 extension.  Each stack
    is built on first use and kept on the isometry, so the three-site state
    never pays for the ``2d^3`` operators of ``middle``.
    """

    def __init__(self, lam: Isometry):
        self._lam = lam

    @property
    def ext3(self) -> np.ndarray:
        """2d operators of d^3 x d^2: (R_k (x) v, v (x) L_k) / sqrt 2."""
        lam = self._lam
        return lam._derive("kraus-ext3", lambda: _frozen(_build_ext3(lam)))

    @property
    def middle(self) -> np.ndarray:
        """2d^3 operators of d^4 x d^2: (R_a (x) v (x) L_b) after each ext3 operator."""
        lam = self._lam
        return lam._derive("kraus-middle", lambda: _frozen(_build_middle(lam, self.ext3)))

    @property
    def grow_grow(self) -> np.ndarray:
        """1 operator of d^4 x d^2: v (x) v."""
        lam = self._lam
        return lam._derive("kraus-grow-grow", lambda: _frozen(np.kron(lam.v, lam.v)[:, None, :]))


def _extension_kraus(lam: Isometry) -> _ExtensionKraus:
    """The extension Kraus stacks of ``lam``, validated on every call and each built once."""
    require_isometry(lam)
    return _ExtensionKraus(lam)


def growth_channel(lam: Isometry, tol: float = TAU_ISO) -> Channel:
    """One site to two: rho -> v rho v^dag.  Trace- and rank-preserving."""
    require_isometry(lam, tol)
    v = lam.v
    return Channel(lam.d, 1, 2, np.kron(v.conj(), v), name="growth")


def _build_descend(lam: Isometry) -> DescendChannels:
    d = lam.d
    t = lam.as_tensor()  # (l1, l2, u)
    left = Channel(d, 1, 1, _kraus_superop(t), name="descend-left")
    right = Channel(d, 1, 1, _kraus_superop(t.transpose(1, 0, 2)), name="descend-right")
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
    dc = descend_channels(lam)

    def build():
        mat = (tensor(dc.left, dc.left).matrix + tensor(dc.right, dc.right).matrix) / 2.0
        return Channel(lam.d, 2, 2, mat, name="pair-descend")

    return lam._derive("pair-descend", build)


def extension_channel(lam: Isometry, nu: int) -> Channel:
    """Two-site state of one level to the nu-site state of the level below, as a dense matrix.

    Only nu in {3, 4} is defined; larger windows have no stated construction.
    """
    if nu not in (3, 4):
        raise ValueError("extension is defined for nu in {3, 4}, got %r" % (nu,))
    kraus = _extension_kraus(lam)
    if nu == 3:
        mat = _kraus_superop(kraus.ext3)
    else:
        mat = (_kraus_superop(kraus.grow_grow) + _kraus_superop(kraus.middle)) / 2.0
    return Channel(lam.d, 2, nu, mat, name="extend-2to%d" % nu)


def tensor(a: Channel, b: Channel) -> Channel:
    """Parallel action on adjacent site blocks (a on the left block)."""
    if a.d != b.d:
        raise ShapeError("tensor factors have different local dimension")
    ao, ai = a.dim_out, a.dim_in
    bo, bi = b.dim_out, b.dim_in
    m1 = a.matrix.reshape(ao, ao, ai, ai)
    m2 = b.matrix.reshape(bo, bo, bi, bi)
    # vec index of an operator on a joint block is (col_a, col_b, row_a, row_b)
    mat = np.einsum("aAcC,bBdD->abABcdCD", m1, m2).reshape((ao * bo) ** 2, (ai * bi) ** 2)
    name = "(%s (x) %s)" % (a.name or "?", b.name or "?")
    return Channel(a.d, a.nu_in + b.nu_in, a.nu_out + b.nu_out, mat, name=name)


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


def choi_matrix(ch: Channel) -> np.ndarray:
    """Choi operator on (input (x) output), J = sum_ij |i><j| (x) ch(|i><j|)."""
    m, n = ch.dim_in, ch.dim_out
    t = ch.matrix.reshape(n, n, m, m)  # (col_out, row_out, col_in, row_in)
    return t.transpose(3, 1, 2, 0).reshape(m * n, m * n)


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
    """CP/TP diagnostics: Choi positivity and unitality of the adjoint."""
    m, n = ch.dim_in, ch.dim_out
    choi = choi_matrix(ch)
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
