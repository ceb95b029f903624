"""Dense complex tensor substrate: isometries, density operators, partial traces (one einsum), ranks.

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
* Every reduced state is a ``DensityOp``, and its constructor is the one
  place a state is checked, made Hermitian and diagonalized: rank, spectrum
  and kernel readers take the stored eigenvalues and one TAU_RANK threshold.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from importlib import resources
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


def hermitian_part(mat: np.ndarray, what: str) -> np.ndarray:
    """The exact Hermitian part of a square matrix, refused unless it is finite and Hermitian within TAU_HERM."""
    if not np.isfinite(mat).all():
        raise ValidationError("%s has a non-finite entry" % what)
    # one full-size array, the adjoint: the deviation is taken over blocks of rows, then mat added in place
    out, rows = np.conjugate(mat.T, order="C"), max(1, (1 << 16) // len(mat))
    herm = max(float(np.abs(mat[k:k + rows] - out[k:k + rows]).max()) for k in range(0, len(mat), rows))
    if herm > TAU_HERM:
        raise ValidationError("%s not Hermitian: deviation %s" % (what, format_float(herm)))
    out += mat
    out /= 2.0
    return out


def _shown(value) -> str:
    """repr of value for a message, or ``~10^k`` for an int too long for a decimal string."""
    try:
        return repr(value)
    except ValueError:
        return "~%s10^%d" % ("-" if value < 0 else "", math.log10(abs(value)))


def _integer(value, what: str, low: int, high: int | None = None) -> int:
    """value as an int in [low, high] (no upper bound without high), else ValueError naming what;
    by operator.index, so numpy integers pass but 2.0 and a bool do not."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low:
        raise ValueError("%s must be an integer >= %d, got %s" % (what, low, _shown(value)))
    if high is not None and n > high:
        raise ValueError("%s must be an integer <= %d, got %s" % (what, high, _shown(value)))
    return n


def _tolerance(value, what: str) -> float:
    """value as a float >= 0, else ValueError naming what: NaN, inf, a negative number and a bool are refused."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if math.isfinite(value) and value >= 0:
                return float(value)
        except TypeError:
            pass
    raise ValueError("%s must be a finite number >= 0, got %r" % (what, value))


def _sizes(obj, *names: str) -> None:
    """Store the named size fields of a frozen dataclass as ints >= 1 by _integer, which names a field it refuses."""
    for name in names:
        object.__setattr__(obj, name, _integer(getattr(obj, name), name, 1))


def _budget(what: str, base: int, exponent: int, budget: int) -> int:
    """base**exponent (base >= 1), or over budget the ResourceLimitError "<what> = <power>, budget is <budget>".

    A power whose lower bound ``2^((bits(base) - 1) exponent)`` has more than twice the budget's bits is refused
    before it is built, as "<what>, budget is <budget>" with no ``required``: no check builds or prints a huge integer.
    """
    if (base.bit_length() - 1) * exponent > 2 * budget.bit_length():
        raise ResourceLimitError("%s, budget is %s" % (what, _shown(budget)))
    power = base ** exponent
    if power > budget:
        raise ResourceLimitError("%s = %s, budget is %s" % (what, _shown(power), _shown(budget)), required=power)
    return power


def _read_only(value):
    """value, with every array in it, in its tuples and lists and in its dict values made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    elif isinstance(value, dict):
        _read_only(list(value.values()))
    return value


class _Value:
    """Base of the frozen dataclasses that hold arrays: every array they hold is read-only, after unpickling too.

    A type without its own ``__post_init__`` freezes the arrays it is given; the others store read-only copies.
    """

    def __post_init__(self):
        _read_only(self.__dict__)

    def __setstate__(self, state):
        self.__dict__.update(_read_only(state))


def _frozen_complex(a, shape=None, what="array") -> np.ndarray:
    arr = np.array(a, dtype=complex)
    if shape is not None and arr.shape != shape:
        raise ShapeError("%s must have shape %s, got %s" % (what, shape, arr.shape))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Isometry(_Value):
    """One-site-into-two embedding, stored as the d^2 x d matrix ``v``.

    What library computations read, derived from ``v``, is kept in a private
    memo on the instance (see :meth:`_derive`): the letters' Kraus stacks, the
    frame descents, the infinite-depth states (the fixed point, rho2, eta,
    rho2 - eta, the three- and four-site states), the sector matrix and the
    spectral structure of its blocks.  It holds no dense map of a letter or word.
    ``v`` is read-only, so no entry goes stale.
    """

    d: int
    v: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _sizes(self, "d")
        if self.d < 2:
            raise ShapeError("isometry local dimension must be >= 2, got d=%d" % self.d)
        object.__setattr__(self, "v", _frozen_complex(self.v, (self.d * self.d, self.d), "isometry"))

    def _derive(self, key: str, build):
        """The quantity ``key`` of this isometry, built by ``build()`` on first use.

        The first derivation runs :func:`require_isometry` and keeps its pass in the memo, so no later or
        nested one repeats it; a check or builder that raises stores nothing.  The arrays kept are made read-only.
        """
        if key not in self._memo:
            if "isometric" not in self._memo:
                require_isometry(self)
                self._memo["isometric"] = True
            self._memo[key] = _read_only(build())
        return self._memo[key]

    def as_tensor(self) -> np.ndarray:
        """View with explicit child indices: shape (d, d, d) = (l1, l2, u)."""
        return self.v.reshape(self.d, self.d, self.d)


@dataclass(frozen=True)
class TopTensor(_Value):
    """Tree-closing tensor: d x d matrix of amplitudes with unit Frobenius norm."""

    d: int
    c: np.ndarray

    def __post_init__(self):
        _sizes(self, "d")
        object.__setattr__(self, "c", _frozen_complex(self.c, (self.d, self.d), "top tensor"))


@dataclass(frozen=True)
class DensityOp(_Value):
    """A nu-site density operator, checked at construction.

    The input must be finite, Hermitian within TAU_HERM, of unit trace
    within TAU_TRACE and PSD within TAU_PSD.  ``matrix`` holds the exact
    Hermitian part of the input and ``eigenvalues`` its ascending spectrum,
    both read-only, so readers of the spectrum never decompose it again.
    """

    d: int
    nu: int
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _sizes(self, "d", "nu")
        dim = self.d ** self.nu
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ShapeError("density operator must have shape %s, got %s" % ((dim, dim), mat.shape))
        mat = hermitian_part(mat, "density operator")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TAU_TRACE:
            raise ValidationError("density operator trace %s is not 1" % format_float(abs(tr)))
        evals = np.linalg.eigvalsh(mat)
        if evals[0] < -TAU_PSD:
            raise ValidationError("density operator not PSD: min eigenvalue %s" % format_float(float(evals[0])))
        _read_only((mat, evals))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", evals)

    @property
    def dim(self) -> int:
        return self.d ** self.nu


@dataclass(frozen=True)
class Observable(_Value):
    """Single-site observable, finite and Hermitian within TAU_HERM.

    ``matrix`` holds the exact Hermitian part of the input, read-only.
    """

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        _sizes(self, "d")
        mat = hermitian_part(_frozen_complex(self.matrix, (self.d, self.d), "observable"), "observable")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    passed: bool
    residual: float
    tol: float


def validate_isometry(lam: Isometry, tol: float = TAU_ISO) -> ValidationReport:
    """Check v^dag v = identity; residual is the max-norm deviation."""
    tol = _tolerance(tol, "tol")
    gram = lam.v.conj().T @ lam.v
    residual = float(np.abs(gram - np.eye(lam.d)).max())
    return ValidationReport("isometry", residual <= tol, residual, tol)


def _require(rep: ValidationReport, violated: str) -> None:
    if not rep.passed:
        raise ValidationError("%s %s > tol %s" % (violated, format_float(rep.residual), format_float(rep.tol)))


def require_isometry(lam: Isometry) -> None:
    _require(validate_isometry(lam), "isometric condition violated: residual")


def validate_top(c: TopTensor, tol: float = TAU_ISO) -> ValidationReport:
    """Check sum of |entries|^2 equals 1; residual is the absolute deviation."""
    tol = _tolerance(tol, "tol")
    total = float(np.sum(np.abs(c.c) ** 2))
    residual = abs(total - 1.0)
    return ValidationReport("top", residual <= tol, residual, tol)


def require_top(c: TopTensor) -> None:
    _require(validate_top(c), "top-tensor normalization violated: deviation")


def partial_trace(op: DensityOp, keep: Sequence[int]) -> DensityOp:
    """Reduce a DensityOp to the given (1-based) site subset; the result's site order follows ``keep``."""
    d, nu, keep = op.d, op.nu, [_integer(s, "site", 1) for s in keep]
    if not keep:
        raise ValueError("keep must be a nonempty site subset")
    if len(set(keep)) != len(keep):
        raise ValueError("keep contains duplicate sites: %s" % keep)
    if max(keep) > nu:
        raise ValueError("site %d out of range 1..%d" % (max(keep), nu))
    # axes 0..nu-1 are the row sites, nu..2nu-1 the column sites; a traced site's column axis takes its
    # row axis's label, so one einsum sums its diagonal, and the output lists the kept axes in keep order
    labels = list(range(nu)) + [nu + s if s + 1 in keep else s for s in range(nu)]
    k = len(keep)
    t = np.einsum(op.matrix.reshape((d,) * (2 * nu)), labels, [s - 1 for s in keep] + [s - 1 + nu for s in keep])
    return DensityOp(d, k, t.reshape(d ** k, d ** k))


def numerical_rank(op: DensityOp) -> int:
    """Count eigenvalues above TAU_RANK times the largest eigenvalue."""
    evals = op.eigenvalues
    return int(np.count_nonzero(evals > TAU_RANK * evals[-1]))


def svd_rank(a: np.ndarray) -> int:
    """Numerical rank of an arbitrary matrix: singular values above TAU_RANK * s_max."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    return int(np.count_nonzero(s > TAU_RANK * s.max(initial=0.0)))  # an empty or zero matrix has rank 0


def random_isometry(d: int, seed: int) -> Isometry:
    """Deterministic Haar-ish isometry from a seeded complex Gaussian + QR.

    Sign convention: the largest-magnitude entry of each column is made real
    positive, so the result is unique and reproducible across runs.
    """
    d = _integer(d, "local dimension d", 2)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
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


def paper_lambda_path() -> str:
    """Filesystem path of the bundled example isometry, the entry file of :func:`paper_isometry`."""
    return str(resources.files("hbts").joinpath("data/paper_lambda.json"))


def product_isometry(d: int) -> Isometry:
    """The embedding |u> -> |u>|0>, whose tree states are product states."""
    d = _integer(d, "local dimension d", 2)
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
    0..d-1 followed by the finite real numbers re, im.  A d with more than
    MAX_FILE_ENTRIES array entries is refused before anything is allocated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or an integer too long to convert
            raise ShapeError("%s: %s" % (path, exc)) from None
    if not isinstance(doc, dict):
        raise ShapeError("%s: expected an object with keys d and entries" % path)
    d = doc.get("d")
    if type(d) is not int or d < 1:
        raise ShapeError("%s: d must be a positive integer, got %r" % (path, d))
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ShapeError("%s: entries must be a list, got %r" % (path, entries))
    _budget("%s: d=%d needs d^%d entries: %d^%d" % (path, d, arity, d, arity), d, arity, MAX_FILE_ENTRIES)
    array = np.zeros((d,) * arity, dtype=complex)
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != arity + 2:
            raise ShapeError("%s: entry %r needs %d indices and re, im" % (path, entry, arity))
        idx = entry[:arity]
        if not all(type(i) is int and 0 <= i < d for i in idx):
            raise ShapeError("%s: entry %s has an index outside the integers 0..%d" % (path, entry, d - 1))
        re, im = entry[arity:]
        # the bound is False for nan, inf and ints too large for a float
        if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in (re, im)):
            raise ShapeError("%s: entry %r needs finite real numbers re, im" % (path, entry))
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
