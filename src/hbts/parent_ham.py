"""Parent Hamiltonians: kernel projectors, cyclic assembly, exact diagonalization.

The interaction term is a weighted sum of projectors onto the kernel of the
infinite-depth reduced state, of dimension d^nu less its numerical rank, so
the full Hamiltonian is PSD and kills the tree state.  Everything ground-space
related (degeneracy, the grown subspace and its translate, unfrustration,
adjoint nullity) is verified numerically: the spectrum one translation sector
at a time, and the grown subspace term by term, neither forming H.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import KernelNotFoundError, ValidationError
from .tensor_core import (DensityOp, Isometry, _Value, _budget, _integer, _shown, _sizes, _tolerance, hermitian_part,
                          numerical_rank, require_isometry, svd_rank)
from . import channels as ch
from . import thermo

TAU_GS = 1e-10
DEFAULT_MAX_DIM = 4096
BINS_MAX = 10_000  # the most histogram bins of a report: 10^5 bins already make a 7.5 MB diag report


def _weights(weights, k: int) -> np.ndarray:
    """The kernel weights as a read-only float array, refused unless they are k finite positive numbers."""
    w = np.array(weights, dtype=float)
    if w.shape != (k,):
        raise ValueError("expected %d kernel weights, got %d" % (k, w.size))
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        raise ValueError("kernel weights must be finite and strictly positive")
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class HamiltonianSpec(_Value):
    """Local interaction: d, window size nu, PSD term, kernel size and weights, checked at construction.

    The term must be finite and Hermitian within TAU_HERM, and the weights
    ``kernel_dim`` finite positive numbers.  ``h_term`` holds the exact
    Hermitian part of the term, real when it has no imaginary part, and is
    read-only, so every reader of the term sees the same array.
    """

    d: int
    nu: int
    h_term: np.ndarray
    kernel_dim: int
    weights: np.ndarray

    def __post_init__(self):
        _sizes(self, "d", "nu", "kernel_dim")
        dim = self.d ** self.nu
        mat = np.asarray(self.h_term, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError("interaction term must be %d x %d, got %s" % (dim, dim, mat.shape))
        object.__setattr__(self, "weights", _weights(self.weights, self.kernel_dim))
        mat = hermitian_part(mat, "interaction term")
        if not mat.imag.any():
            mat = mat.real.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "h_term", mat)


@dataclass(frozen=True)
class GroundSpaceReport(_Value):
    spectrum: np.ndarray
    ground_energy: float
    degeneracy: int
    histogram: tuple            # ((left, right, count), ...) on the rescaled spectrum
    tau_gs: float


@dataclass(frozen=True)
class SubspaceReport:
    N: int
    dim_grown: int
    dim_translated: int
    dim_union: int
    max_h_residual: float       # max over basis images of ||H |phi>||
    max_local_energy: float     # max over terms and basis images of <phi|H_nu(alpha)|phi>
    unfrustrated: bool


@dataclass(frozen=True)
class NullityReport:
    precondition_met: bool      # two-site state full rank
    residual: float             # max-norm of the descended interaction
    trace_residual: float       # |Tr[rho2 . adjoint(ext)(H)]|


def kernel_basis(rho: DensityOp) -> np.ndarray:
    """Orthonormal kernel vectors (columns) of a state: eigenvectors of its d^nu - numerical_rank smallest eigenvalues."""
    return np.array(np.linalg.eigh(rho.matrix)[1][:, :rho.dim - numerical_rank(rho)])


def build_interaction(
    lam: Isometry,
    weights: Sequence[float] | None = None,
    nu: int | str = "auto",
) -> HamiltonianSpec:
    """Kernel-projector interaction from the smallest window with a nontrivial kernel.

    ``nu="auto"`` walks windows 2, 3, 4 and stops at the first rank-deficient
    reduced state (theory guarantees one by nu=4).  Weights default to 1 per
    kernel vector and must be strictly positive.
    """
    try:
        candidates = [2, 3, 4] if nu == "auto" else [_integer(nu, "interaction window", 2)]
    except ValueError:
        candidates = []
    if not candidates or candidates[-1] > 4:
        raise ValueError("interaction window must be 2, 3, 4 or 'auto', got %r" % (nu,))

    for window in candidates:
        rho = thermo.reduced_infinity(lam, window)
        kernel = kernel_basis(rho)
        if kernel.shape[1] > 0:
            k = kernel.shape[1]
            w = _weights(np.ones(k) if weights is None else weights, k)
            h = kernel @ np.diag(w.astype(complex)) @ kernel.conj().T
            if not lam.v.imag.any():
                h = h.real  # every state and projector of a real tree is real; drop the roundoff
            hs = HamiltonianSpec(d=lam.d, nu=window, h_term=h, kernel_dim=k, weights=w)
            annihilation = float(np.abs(hs.h_term @ rho.matrix).max())
            if annihilation > 1e-10:
                raise ValidationError(
                    "interaction does not annihilate its reduced state: residual %g" % annihilation
                )
            return hs
    raise KernelNotFoundError(
        "no nontrivial kernel in window %s; by window 4 a valid isometry always has one"
        % "/".join(str(w) for w in candidates)
    )


def _require_ring(hs: HamiltonianSpec, N: int, max_dim: int) -> int:
    """N as an int, refused unless it is an integer, the ring hosts the term and d^N fits the integer budget."""
    N = _integer(N, "the ring size N for a %d-site interaction" % hs.nu, hs.nu)
    _budget("a ring of %s sites has dimension d^N = %d^%s" % (_shown(N), hs.d, _shown(N)), hs.d, N,
            _integer(max_dim, "max_dim", 1))
    return N


@dataclass(frozen=True)
class RingHamiltonian(_Value):
    """A ring Hamiltonian as its momentum-sector blocks; block j's eigenvalues occur multiplicity[j] times.

    A real term makes sectors k and -k complex conjugates, so only k = 0..N//2 are kept.
    """

    blocks: tuple
    multiplicity: tuple


def _orbits(d: int, N: int) -> tuple:
    """Orbits of the d^N basis states under the one-site shift T: each orbit's period, orbits numbered
    by their smallest state, and for each state s its orbit and the l < period with T^l s smallest."""
    low = d ** np.arange(N)[:, None]                 # T^l s moves the l lowest base-d digits of s to the top
    images = np.arange(d ** N) // low + np.arange(d ** N) % low * (d ** N // low)
    reps, orbit = np.unique(images.min(axis=0), return_inverse=True)
    period = N // np.count_nonzero(images == images[0], axis=0)
    return period[reps], orbit, images.argmin(axis=0)


def assemble(hs: HamiltonianSpec, N: int, max_dim: int = DEFAULT_MAX_DIM) -> RingHamiltonian:
    """Cyclic sum of the interaction over all starting sites, 1/N-normalized, one translation sector at a time.

    H commutes with the shift T, so its sector blocks come from the one term
    on sites 1..nu: h takes |x r> to |y r> with amplitude h[y, x].  Each state
    t is T^-l_t of its orbit's smallest state; the amplitudes are folded by
    l_t' - l_t mod N and the orbits a of t and b of t', one FFT over the shift
    follows, and sector k keeps the orbits whose period allows k:
    ``B_k[b, a] = sum h[y, x] exp(-ik(l_t' - l_t)) / sqrt(p_a p_b)``.
    The d^N x d^N matrix is never formed.
    """
    N = _require_ring(hs, N, max_dim)
    h = hs.h_term
    real = not np.iscomplexobj(h)
    period, orbit, shift = _orbits(hs.d, N)
    n = len(period)
    lag = shift.reshape(len(h), -1)                  # [x, r]: l_t of the state |x r>, x on sites 1..nu
    which = orbit.reshape(len(h), -1)
    index = (((lag[:, None] - lag[None]) % N * n + which[:, None]) * n + which[None]).reshape(-1)
    root = np.sqrt(period[which])
    amplitude = (h[:, :, None] / (root[:, None] * root[None])).reshape(-1)  # [y, x, r]: h[y, x] / sqrt(p_b p_a)
    folded = np.bincount(index, amplitude.real, N * n * n).astype(h.dtype, copy=False)
    if not real:
        folded.imag = np.bincount(index, amplitude.imag, N * n * n)
    del index, amplitude                             # folded[l, b, a]: the amplitudes from orbit a to b at shift l
    sectors = (np.fft.rfft if real else np.fft.fft)(folded.reshape(N, n, n), axis=0)
    del folded
    blocks, multiplicity = [], []
    for k, sector in enumerate(sectors):
        kept = np.flatnonzero(k * period % N == 0)
        block = sector[np.ix_(kept, kept)]
        if real and 2 * k % N == 0:
            block = block.real                       # sectors 0 and N/2 of a real term are real
        blocks.append(block)
        multiplicity.append(2 if real and 2 * k % N else 1)
    return RingHamiltonian(blocks=tuple(blocks), multiplicity=tuple(multiplicity))


def diagonalize(ring: RingHamiltonian, tau_gs: float = TAU_GS, bins: int = 50) -> GroundSpaceReport:
    """Full spectrum (the sorted union of the sector spectra), ground degeneracy at absolute
    tolerance, rescaled histogram of an integer count of bins in [1, BINS_MAX]."""
    tau_gs, bins = _tolerance(tau_gs, "tau_gs"), _integer(bins, "bins", 1, BINS_MAX)
    spectrum = np.sort(np.concatenate([
        np.tile(np.linalg.eigvalsh(block), m) for block, m in zip(ring.blocks, ring.multiplicity)
    ]))
    ground = float(spectrum[0])
    degeneracy = int(np.count_nonzero(spectrum <= ground + tau_gs))
    top = float(spectrum[-1])
    rescaled = spectrum / top if top > tau_gs else spectrum
    counts, edges = np.histogram(rescaled, bins=bins, range=(min(0.0, float(rescaled[0])), 1.0))
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    )
    return GroundSpaceReport(
        spectrum=spectrum, ground_energy=ground, degeneracy=degeneracy,
        histogram=histogram, tau_gs=tau_gs,
    )


def grown_basis(lam: Isometry, N: int) -> np.ndarray:
    """Orthonormal basis (columns) of the subspace grown by one tree layer.

    Column j is the image of the j-th computational basis state of N/2
    sites under one layer of isometries; orthonormality is inherited.  A
    real isometry gives a real basis.
    """
    require_isometry(lam)
    if _integer(N, "ring size N", 2) % 2 != 0:
        raise ValueError("growing a layer needs an even target size, got N=%d" % N)
    v = lam.v if lam.v.imag.any() else lam.v.real
    return functools.reduce(np.kron, [v] * (N // 2), np.ones((1, 1)))


def translate_state(vec: np.ndarray, d: int, N: int) -> np.ndarray:
    """One-site cyclic translation: site contents move one position to the right.

    ``vec`` is one state of d^N amplitudes, or a d^N x k matrix of states as columns.
    """
    vec = np.asarray(vec)
    t = vec.reshape((d,) * N + vec.shape[1:])
    return np.moveaxis(t, N - 1, 0).reshape(vec.shape)


def grown_subspace_check(
    lam: Isometry,
    hs: HamiltonianSpec,
    N: int,
    tau_gs: float = TAU_GS,
    max_dim: int = DEFAULT_MAX_DIM,
) -> SubspaceReport:
    """Verify the grown subspace is annihilated term by term, and measure its span.

    Applies the term on sites 1..nu to the basis translated 0..N-1 times,
    without forming H: each image gives one window's local energy
    (unfrustration), and their sum, translated along with the basis, is
    N H|phi>.  Then ranks the union of the subspace with its one-site translate.
    """
    if hs.d != lam.d:
        raise ValueError("isometry has d=%d, interaction d=%d" % (lam.d, hs.d))
    tau_gs = _tolerance(tau_gs, "tau_gs")
    N = _require_ring(hs, N, max_dim)
    basis = grown_basis(lam, N)                      # refuses an odd N
    h = hs.h_term
    image = np.zeros(basis.shape, dtype=np.result_type(h, basis))
    max_local = 0.0
    for _ in range(N):                               # N translations bring the basis back to itself
        term_image = np.tensordot(h, basis.reshape(len(h), -1, basis.shape[1]), axes=1).reshape(basis.shape)
        energies = np.einsum("ij,ij->j", basis.conj(), term_image)
        max_local = max(max_local, float(np.abs(energies).max()))
        image += term_image
        del term_image                               # added in place, so no translation holds a third copy
        image = translate_state(image, hs.d, N)
        basis = translate_state(basis, hs.d, N)
    max_h_residual = float(np.linalg.norm(image, axis=0).max()) / N

    translated = translate_state(basis, hs.d, N)
    dim_grown = svd_rank(basis)
    dim_translated = svd_rank(translated)
    dim_union = svd_rank(np.hstack([basis, translated]))
    return SubspaceReport(
        N=N,
        dim_grown=dim_grown,
        dim_translated=dim_translated,
        dim_union=dim_union,
        max_h_residual=max_h_residual,
        max_local_energy=max_local,
        unfrustrated=(max_local <= tau_gs and max_h_residual <= tau_gs),
    )


def adjoint_nullity_check(lam: Isometry, hs: HamiltonianSpec) -> NullityReport:
    """Descend a 3-site interaction back to 2 sites through the adjoint of the extension ``(Rg + gL)/2``.

    The adjoint is applied one site at a time, as the words' duals.  When
    the two-site infinite-depth state has full rank, the descended
    operator must vanish identically; a rank-deficient two-site state only
    flags the precondition instead of raising.
    """
    if hs.d != lam.d:
        raise ValueError("isometry has d=%d, interaction d=%d" % (lam.d, hs.d))
    if hs.nu != 3:
        raise ValueError("the operator nullity argument applies to 3-site interactions")
    rho2 = thermo.two_site_infinity(lam)
    full = numerical_rank(rho2) == rho2.dim
    descended = ch._local(lam, (hs.h_term, "Rg"), (hs.h_term, "gL"), adjoint=True)
    residual = float(np.abs(descended).max())
    trace_residual = float(abs(np.trace(rho2.matrix @ descended)))
    return NullityReport(precondition_met=full, residual=residual, trace_residual=trace_residual)
