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


def _kraus_superop(kraus: list[np.ndarray]) -> np.ndarray:
    return sum(np.kron(k.conj(), k) for k in kraus)


def growth_channel(lam: Isometry, tol: float = TAU_ISO) -> Channel:
    """One site to two: rho -> v rho v^dag.  Trace- and rank-preserving."""
    require_isometry(lam, tol)
    v = lam.v
    return Channel(lam.d, 1, 2, np.kron(v.conj(), v), name="growth")


def descend_channels(lam: Isometry, tol: float = TAU_ISO) -> DescendChannels:
    """Left/right single-site descents and their equal-weight mixture.

    Left keeps the left child (traces the right), right keeps the right
    child; both are CPT with Kraus operators sliced out of the isometry.
    """
    require_isometry(lam, tol)
    d = lam.d
    t = lam.as_tensor()  # (l1, l2, u)
    kraus_left = [t[:, k, :] for k in range(d)]
    kraus_right = [t[k, :, :] for k in range(d)]
    left = Channel(d, 1, 1, _kraus_superop(kraus_left), name="descend-left")
    right = Channel(d, 1, 1, _kraus_superop(kraus_right), name="descend-right")
    average = Channel(d, 1, 1, (left.matrix + right.matrix) / 2.0, name="descend")
    return DescendChannels(left, right, average)


def pair_descend_channel(lam: Isometry) -> Channel:
    """Two sites to two: (left (x) left + right (x) right)/2."""
    dc = descend_channels(lam)
    mat = (tensor(dc.left, dc.left).matrix + tensor(dc.right, dc.right).matrix) / 2.0
    return Channel(lam.d, 2, 2, mat, name="pair-descend")


def extension_channel(lam: Isometry, nu: int) -> Channel:
    """Two-site state of one level to the nu-site state of the level below.

    Only nu in {3, 4} is defined; larger windows have no stated construction.
    """
    dc = descend_channels(lam)
    grow = growth_channel(lam)
    ext3 = Channel(
        lam.d, 2, 3,
        (tensor(dc.right, grow).matrix + tensor(grow, dc.left).matrix) / 2.0,
        name="extend-2to3",
    )
    if nu == 3:
        return ext3
    if nu == 4:
        middle = tensor(tensor(dc.right, grow), dc.left)  # 3 -> 4
        mat = (tensor(grow, grow).matrix + middle.matrix @ ext3.matrix) / 2.0
        return Channel(lam.d, 2, 4, mat, name="extend-2to4")
    raise ValueError("extension is defined for nu in {3, 4}, got %r" % (nu,))


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


def compose(outer: Channel, inner: Channel) -> Channel:
    """outer after inner."""
    if outer.d != inner.d or outer.nu_in != inner.nu_out:
        raise ShapeError(
            "cannot compose %d-site output into %d-site input" % (inner.nu_out, outer.nu_in)
        )
    name = "(%s o %s)" % (outer.name or "?", inner.name or "?")
    return Channel(outer.d, inner.nu_in, outer.nu_out, outer.matrix @ inner.matrix, name=name)


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
