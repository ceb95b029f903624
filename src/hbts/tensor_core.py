"""Dense complex tensor substrate: isometries, density operators, partial traces, ranks.

Conventions shared by every module in this package:

* Composite site indices are big-endian: site 1 is the most significant
  digit, so a basis state of ``nu`` sites with digits ``(l1, ..., lnu)``
  has flat index ``l1*d**(nu-1) + ... + lnu``.  ``numpy.kron(A, B)``
  therefore puts ``A`` on site 1 and ``B`` on site 2.
* Operators use standard bra-ket orientation, ``matrix[row, col] =
  <row|op|col>``.  Tensor definitions written with upper/lower index pairs
  are translated to this layout once, here, at construction time.
* The isometry embedding one site into two is stored as the d^2 x d matrix
  ``v`` with ``v[(l1, l2), u]`` the amplitude of ``|l1 l2>`` in the image
  of ``|u>``; the isometric condition reads ``v^dag v = identity``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError, ShapeError, ValidationError
from .reporting import format_float, write_text_atomic

TAU_ISO = 1e-10
TAU_HERM = 1e-10
TAU_PSD = 1e-10
TAU_TRACE = 1e-10
TAU_RANK = 1e-10
MAX_FILE_ENTRIES = 1 << 24    # largest d^arity array an entry file may declare (256 MB complex)


def _frozen_complex(a, shape=None, what="array") -> np.ndarray:
    arr = np.array(a, dtype=complex)
    if shape is not None and arr.shape != shape:
        raise ShapeError("%s must have shape %s, got %s" % (what, shape, arr.shape))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: local dimension d, site count N, optional tree depth n."""

    d: int
    N: int
    n: int | None = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("local dimension must be >= 2, got %d" % self.d)
        if self.N < 2:
            raise ValueError("site count must be >= 2, got %d" % self.N)
        if self.n is not None and self.N != 2 ** self.n:
            raise ValueError("tree lattice needs N = 2**n, got N=%d, n=%d" % (self.N, self.n))


@dataclass(frozen=True)
class Isometry:
    """One-site-into-two embedding, stored as the d^2 x d matrix ``v``.

    Channels and states derived from ``v`` are kept in a private memo on the
    instance (see :meth:`_derive`); ``v`` is read-only, so no entry goes stale.
    """

    d: int
    v: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "v", _frozen_complex(self.v, (self.d * self.d, self.d), "isometry"))

    def _derive(self, key: str, build):
        """The quantity ``key`` of this isometry, built by ``build()`` on first use.

        Callers validate the isometry before asking; a builder that raises
        stores nothing.  Builders return read-only arrays.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def as_tensor(self) -> np.ndarray:
        """View with explicit child indices: shape (d, d, d) = (l1, l2, u)."""
        return self.v.reshape(self.d, self.d, self.d)


@dataclass(frozen=True)
class TopTensor:
    """Tree-closing tensor: d x d matrix of amplitudes with unit Frobenius norm."""

    d: int
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen_complex(self.c, (self.d, self.d), "top tensor"))


@dataclass(frozen=True)
class DensityOp:
    """A labeled nu-site density operator (Hermitian, PSD, unit trace)."""

    d: int
    nu: int
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        dim = self.d ** self.nu
        object.__setattr__(self, "matrix", _frozen_complex(self.matrix, (dim, dim), "density operator"))

    @property
    def dim(self) -> int:
        return self.d ** self.nu


@dataclass(frozen=True)
class Observable:
    """Single-site Hermitian observable."""

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_complex(self.matrix, (self.d, self.d), "observable")
        if np.abs(mat - mat.conj().T).max() > TAU_HERM:
            raise ValidationError("observable is not Hermitian within %g" % TAU_HERM)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    passed: bool
    residual: float
    tol: float


def validate_isometry(lam: Isometry, tol: float = TAU_ISO) -> ValidationReport:
    """Check v^dag v = identity; residual is the max-norm deviation."""
    gram = lam.v.conj().T @ lam.v
    residual = float(np.abs(gram - np.eye(lam.d)).max())
    return ValidationReport("isometry", residual <= tol, residual, tol)


def require_isometry(lam: Isometry, tol: float = TAU_ISO) -> None:
    rep = validate_isometry(lam, tol)
    if not rep.passed:
        raise ValidationError(
            "isometric condition violated: residual %s > tol %s"
            % (format_float(rep.residual), format_float(tol))
        )


def validate_top(c: TopTensor, tol: float = TAU_ISO) -> ValidationReport:
    """Check sum of |entries|^2 equals 1; residual is the absolute deviation."""
    total = float(np.sum(np.abs(c.c) ** 2))
    residual = abs(total - 1.0)
    return ValidationReport("top", residual <= tol, residual, tol)


def require_top(c: TopTensor, tol: float = TAU_ISO) -> None:
    rep = validate_top(c, tol)
    if not rep.passed:
        raise ValidationError(
            "top-tensor normalization violated: deviation %s > tol %s"
            % (format_float(rep.residual), format_float(tol))
        )


def density_op(
    matrix: np.ndarray,
    d: int,
    nu: int | None = None,
    label: str = "",
    tol_herm: float = TAU_HERM,
    tol_psd: float = TAU_PSD,
    tol_trace: float = TAU_TRACE,
) -> DensityOp:
    """Validate and wrap a raw matrix as a DensityOp.

    Raises ValidationError on hermiticity, positivity, or trace violations.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError("density operator must be square, got %s" % (mat.shape,))
    if nu is None:
        nu = round(np.log(mat.shape[0]) / np.log(d))
    if d ** nu != mat.shape[0]:
        raise ShapeError("matrix of dimension %d is not d**nu for d=%d" % (mat.shape[0], d))
    herm = float(np.abs(mat - mat.conj().T).max())
    if herm > tol_herm:
        raise ValidationError("density operator not Hermitian: deviation %s" % format_float(herm))
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > tol_trace:
        raise ValidationError("density operator trace %s is not 1" % format_float(abs(tr)))
    evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    if evals[0] < -tol_psd:
        raise ValidationError("density operator not PSD: min eigenvalue %s" % format_float(float(evals[0])))
    return DensityOp(d, nu, mat, label)


def partial_trace(op: DensityOp, keep: Sequence[int]) -> DensityOp:
    """Reduce a DensityOp to the given (1-based) site subset; the result's site order follows ``keep``."""
    d, nu, keep = op.d, op.nu, list(keep)
    if not keep:
        raise ValueError("keep must be a nonempty site subset")
    if len(set(keep)) != len(keep):
        raise ValueError("keep contains duplicate sites: %s" % keep)
    for s in keep:
        if not 1 <= s <= nu:
            raise ValueError("site %d out of range 1..%d" % (s, nu))
    t = op.matrix.reshape((d,) * (2 * nu))
    keep0 = [s - 1 for s in keep]
    traced = [s for s in range(nu) if s not in keep0]
    for offset, s in enumerate(sorted(traced, reverse=True)):
        # row axis s and matching column axis; column block shrank by prior traces
        t = np.trace(t, axis1=s, axis2=s + nu - offset)
    # remaining axes hold the kept sites in ascending order; axis i of the
    # output must come from the rank of keep0[i] within that ascending list
    rank = np.argsort(np.argsort(keep0))
    k = len(keep0)
    t = t.transpose(tuple(rank) + tuple(k + r for r in rank))
    label = op.label + "|tr" if op.label else "partial-trace"
    return DensityOp(d, k, t.reshape(d ** k, d ** k), label)


def numerical_rank(op: DensityOp, tau_rank: float = TAU_RANK, tol_herm: float = TAU_HERM) -> int:
    """Count eigenvalues above tau_rank times the largest eigenvalue."""
    mat = op.matrix
    herm = float(np.abs(mat - mat.conj().T).max())
    if herm > tol_herm:
        raise ValidationError("rank is defined for Hermitian operators; deviation %s" % format_float(herm))
    evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    top = float(evals[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(evals > tau_rank * top))


def svd_rank(a: np.ndarray, tol: float = TAU_RANK) -> int:
    """Numerical rank of an arbitrary matrix: singular values above tol * s_max."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def random_isometry(d: int, seed: int) -> Isometry:
    """Deterministic Haar-ish isometry from a seeded complex Gaussian + QR.

    Sign convention: the largest-magnitude entry of each column is made real
    positive, so the result is unique and reproducible across runs.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2, got %d" % d)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d * d, d)) + 1j * rng.standard_normal((d * d, d))
    q, _ = np.linalg.qr(a)
    q = np.array(q[:, :d])
    for col in range(d):
        pivot = int(np.argmax(np.abs(q[:, col])))
        phase = q[pivot, col] / abs(q[pivot, col])
        q[:, col] = q[:, col] * np.conj(phase)
    return Isometry(d, q)


def paper_isometry() -> Isometry:
    """The bundled d=2 example isometry: |0> -> |01>, |1> -> (|00>+|11>)/sqrt(2)."""
    v = np.zeros((4, 2), dtype=complex)
    v[0b01, 0] = 1.0
    v[0b00, 1] = 1.0 / np.sqrt(2.0)
    v[0b11, 1] = 1.0 / np.sqrt(2.0)
    return Isometry(2, v)


def product_isometry(d: int) -> Isometry:
    """The embedding |u> -> |u>|0>, whose tree states are product states."""
    if d < 2:
        raise ValueError("local dimension must be >= 2, got %d" % d)
    v = np.zeros((d * d, d), dtype=complex)
    for u in range(d):
        v[u * d, u] = 1.0
    return Isometry(d, v)


# ----------------------------------------------------------------------------
# JSON file formats (sparse entry lists, interleaved re/im)
# ----------------------------------------------------------------------------

def _save_entries(path: str, array: np.ndarray) -> None:
    """Write {"d": d, "entries": [[i1, ..., ik, re, im], ...]} for a (d,)*k array, zeros omitted."""
    d = array.shape[0]
    rows = []
    for idx in np.ndindex(array.shape):
        z = array[idx]
        if z != 0:
            cells = [str(i) for i in idx] + [format_float(z.real), format_float(z.imag)]
            rows.append("    [%s]" % ", ".join(cells))
    text = "\n".join(['{', '  "d": %d,' % d, '  "entries": [', ",\n".join(rows), "  ]", "}"])
    write_text_atomic(path, text + "\n")


def _load_entries(path: str, arity: int) -> tuple[int, np.ndarray]:
    """Read an entry file into a (d,)*arity complex array.

    The file must be an object whose ``d`` is a positive integer and whose
    ``entries`` is a list of lists, each with arity integer indices in
    0..d-1 followed by the real numbers re, im.  A d with more than
    MAX_FILE_ENTRIES array entries is refused before anything is allocated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ShapeError("%s: expected an object with keys d and entries" % path)
    d = doc.get("d")
    if type(d) is not int or d < 1:
        raise ShapeError("%s: d must be a positive integer, got %r" % (path, d))
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ShapeError("%s: entries must be a list, got %r" % (path, entries))
    if d ** arity > MAX_FILE_ENTRIES:
        raise ResourceLimitError(
            "%s: d=%d needs %d entries, budget is %d" % (path, d, d ** arity, MAX_FILE_ENTRIES),
            required=d ** arity,
        )
    array = np.zeros((d,) * arity, dtype=complex)
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != arity + 2:
            raise ShapeError("%s: entry %r needs %d indices and re, im" % (path, entry, arity))
        idx = entry[:arity]
        if not all(type(i) is int and 0 <= i < d for i in idx):
            raise ShapeError("%s: entry %s has an index outside the integers 0..%d" % (path, entry, d - 1))
        re, im = entry[arity:]
        if not all(type(x) in (int, float) for x in (re, im)):
            raise ShapeError("%s: entry %r needs real numbers re, im" % (path, entry))
        array[tuple(idx)] = complex(re, im)
    return d, array


def save_isometry(lam: Isometry, path: str) -> None:
    """Write {"d": d, "entries": [[l1, l2, u, re, im], ...]}, zeros omitted."""
    _save_entries(path, lam.as_tensor())


def load_isometry(path: str) -> Isometry:
    d, t = _load_entries(path, 3)
    return Isometry(d, t.reshape(d * d, d))


def save_top(c: TopTensor, path: str) -> None:
    """Write {"d": d, "entries": [[l1, l2, re, im], ...]}, zeros omitted."""
    _save_entries(path, c.c)


def load_top(path: str) -> TopTensor:
    return TopTensor(*_load_entries(path, 2))


def save_observable(obs: Observable, path: str) -> None:
    """Write {"d": d, "entries": [[row, col, re, im], ...]}, zeros omitted."""
    _save_entries(path, obs.matrix)


def load_observable(path: str) -> Observable:
    return Observable(*_load_entries(path, 2))
