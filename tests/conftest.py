import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hbts import channels as ch
from hbts import correlators as co
from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts import thermo
from hbts.errors import DegenerateFixedPointError, ShapeError


@pytest.fixture(scope="session")
def bundled_lam():
    return tc.paper_isometry()


@pytest.fixture(scope="session")
def product_lam():
    return tc.product_isometry(2)


@pytest.fixture(scope="session")
def sigma_z():
    return tc.Observable(2, np.diag([1.0, -1.0]).astype(complex))


@pytest.fixture(scope="session")
def sigma_x():
    return tc.Observable(2, np.array([[0, 1], [1, 0]], dtype=complex))


@pytest.fixture(scope="session")
def diag_top():
    return tc.TopTensor(2, np.eye(2, dtype=complex) / np.sqrt(2.0))


@pytest.fixture(scope="session")
def corner_top():
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0] = 1.0
    return tc.TopTensor(2, c)


def rand_density(rng, dim, rank=None):
    r = rank or dim
    a = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def rand_herm(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def rand_top(d, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return tc.TopTensor(d, c / np.linalg.norm(c))


def flip_isometry():
    """|u> -> |u, 1-u> at d = 2: descend is mixing, but pair descend fixes Z (x) Z, so its unit
    eigenvalue is double."""
    v = np.zeros((4, 2), dtype=complex)
    v[0b01, 0] = 1.0
    v[0b10, 1] = 1.0
    return tc.Isometry(2, v)


def case_isometry(kind, arg):
    """The bundled isometry ("paper"), :func:`flip_isometry` ("flip"), product_isometry(arg) ("product") or
    random_isometry(kind, arg)."""
    if kind == "paper":
        return tc.paper_isometry()
    if kind == "flip":
        return flip_isometry()
    if kind == "product":
        return tc.product_isometry(arg)
    return tc.random_isometry(kind, arg)


def write_entries(path, d, entries):
    """Write an entry file (isometry, top tensor or observable) from raw JSON lists."""
    with open(path, "w") as fh:
        json.dump({"d": d, "entries": entries}, fh)
    return str(path)


def partial_trace_reference(op, keep):
    """Reference partial trace: one np.trace per traced site, then a transpose of the kept sites into keep order."""
    d, nu = op.d, op.nu
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
    return t.transpose(tuple(rank) + tuple(k + r for r in rank)).reshape(d ** k, d ** k)


def level_states_reference(lam, c, n):
    """Reference level-n states (rho1, rho2, eta, omega): the depth-1 formulas on the top tensor's two one-site
    marginals m1, m2, then n - 1 steps of the level recursions."""
    d = c.d
    amp = np.array(c.c, dtype=complex).reshape(-1)
    rho_full = np.outer(amp, amp.conj())
    m1 = rho_full.reshape(d, d, d, d).trace(axis1=1, axis2=3)  # keep site 1
    m2 = rho_full.reshape(d, d, d, d).trace(axis1=0, axis2=2)  # keep site 2
    swap = rho_full.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    rho1 = (m1 + m2) / 2.0
    rho2 = (rho_full + swap) / 2.0
    eta = (np.kron(m1, m2) + np.kron(m2, m1)) / 2.0
    omega = (np.kron(m1, m1) + np.kron(m2, m2)) / 2.0
    for _ in range(n - 1):
        rho1, rho2, eta, omega = (
            ch._local(lam, (rho1, "L"), (rho1, "R")),
            ch._local(lam, (rho2, "RL"), (rho1, "g")),
            ch._local(lam, (eta, "RL"), (omega, "LR")),
            ch._local(lam, (omega, "LL"), (omega, "RR")),
        )
    return rho1, rho2, eta, omega


def power_iteration_fixed_point(superop, dim, tol=1e-12, max_iter=100_000, seed=0):
    """Independent fixed-point oracle: plain power iteration on the superoperator."""
    rng = np.random.default_rng(seed)
    x = rand_density(rng, dim).reshape(-1, order="F")
    for _ in range(max_iter):
        y = superop @ x
        y = y / np.linalg.norm(y)
        if np.linalg.norm(y - x) <= tol:
            x = y
            break
        x = y
    rho = x.reshape(dim, dim, order="F")
    rho = rho / np.trace(rho)
    return (rho + rho.conj().T) / 2.0


def growth_channel(lam):
    """Reference dense growth channel, one site to two: rho -> v rho v^dag."""
    tc.require_isometry(lam)
    return ch.Channel(lam.d, 1, 2, ch._gram(ch._kraus(lam, "g")))


def adjoint(channel):
    """Reference Hilbert-Schmidt dual: the conjugate transpose of the superoperator matrix."""
    return ch.Channel(channel.d, channel.nu_out, channel.nu_in, channel.matrix.conj().T)


def apply(channel, op):
    """Reference action of a dense channel on an operator (DensityOp, Observable or square matrix)."""
    mat = op.matrix if isinstance(op, (tc.DensityOp, tc.Observable)) else np.asarray(op, dtype=complex)
    if mat.shape != (channel.dim_in,) * 2:
        raise ShapeError("channel expects a %d x %d operator, got %s" % (channel.dim_in, channel.dim_in, mat.shape))
    return ch.unvec(channel.matrix @ ch.vec(mat), channel.dim_out)


def fixed_point(channel):
    """Reference stationary state of a square channel from its dense eigendecomposition: the
    trace-normalized eigenvector of a simple unit eigenvalue, with its residual."""
    if channel.nu_in != channel.nu_out:
        raise ValueError("fixed points need a square channel, got %d -> %d sites" % (channel.nu_in, channel.nu_out))
    evals, evecs = np.linalg.eig(channel.matrix)
    multiplicity = int(np.count_nonzero(np.abs(evals - 1.0) <= thermo.TAU_SPEC))
    if multiplicity != 1:
        raise DegenerateFixedPointError("unit-eigenvalue multiplicity %d" % multiplicity, multiplicity)
    x = ch.unvec(evecs[:, int(np.argmin(np.abs(evals - 1.0)))], channel.dim_out)
    state = tc.DensityOp(channel.d, channel.nu_out, x / np.trace(x))
    return thermo.FixedPointResult(state, float(np.abs(apply(channel, state.matrix) - state.matrix).max()))


def tensor(a, b):
    """Reference dense tensor product of two channels: parallel action on adjacent site blocks
    (a on the left block)."""
    assert a.d == b.d
    ao, ai = a.dim_out, a.dim_in
    bo, bi = b.dim_out, b.dim_in
    m1 = a.matrix.reshape(ao, ao, ai, ai)
    m2 = b.matrix.reshape(bo, bo, bi, bi)
    # vec index of an operator on a joint block is (col_a, col_b, row_a, row_b)
    mat = np.einsum("aAcC,bBdD->abABcdCD", m1, m2).reshape((ao * bo) ** 2, (ai * bi) ** 2)
    return ch.Channel(a.d, a.nu_in + b.nu_in, a.nu_out + b.nu_out, mat)


def dense_extension(lam, nu):
    """The 2->3 and 2->4 extensions built from dense superoperators by tensor products and matmuls."""
    dc = ch.descend_channels(lam)
    grow = growth_channel(lam)
    ext3 = (tensor(dc.right, grow).matrix + tensor(grow, dc.left).matrix) / 2.0
    if nu == 3:
        return ext3
    middle = tensor(tensor(dc.right, grow), dc.left).matrix  # 3 -> 4
    return (tensor(grow, grow).matrix + middle @ ext3) / 2.0


def pair_solve_reference(lam, source):
    """Reference for thermo._pair_solve: the frame coordinates C of (I - kron(Rr, Lr)/2) vec C = vec S/2, by one
    dense LU solve, for the frame coordinates S of a source; the state, trace-normalized."""
    lr, rr = ch._frame_descents(lam)
    n = lam.d ** 2
    c = np.linalg.solve(np.eye(n * n) - np.kron(rr, lr) / 2.0, source.reshape(-1) / 2.0)
    mat = ch._from_frame(c.reshape(n, n))
    return mat / np.trace(mat).real


def classical_pair_reference(lam):
    """Reference eta: the doubly traceless part k of sigma solved with the dense
    P_K = (kron(Lk, Lk) + kron(Rk, Rk))/2 (Lk = Lr[1:, 1:]), refused through the eigvals of P_K."""
    rho1 = thermo.single_site_infinity(lam).state.matrix
    lk, rk = (m[1:, 1:] for m in ch._frame_descents(lam))
    p_k = (np.kron(lk, lk) + np.kron(rk, rk)) / 2.0
    thermo._refuse_unless_mixing([p_k], "pair-descend channel", "K")
    product = np.kron(rho1, rho1)
    drift = ch._local(lam, (product, "LL"), (product, "RR")) - product
    k = np.linalg.solve(np.eye(len(p_k)) - p_k, ch._to_frame(drift).real[1:, 1:].reshape(-1))
    sigma = product + ch._from_frame(np.pad(k.reshape(lk.shape), (1, 0)))
    return pair_solve_reference(lam, ch._to_frame(ch._local(lam, (sigma, "LR"))).real)


def sector_matrix_reference(lam):
    """Reference for ch._sector_matrix: the adjoint from two krons, then its columns and rows gathered."""
    (p1, p2, w1, w2), _ = ch._sector_basis(lam.d)
    lr, rr = ch._frame_descents(lam)
    adj = (np.kron(lr.T, lr.T) + np.kron(rr.T, rr.T)) / 2.0
    cols = adj[:, p1] * w1 + adj[:, p2] * w2
    return w1[:, None] * cols[p1] + w2[:, None] * cols[p2]


def kron_embedding(h, d, nu, N, start):
    """h placed on sites start..start+nu-1 (0-based, cyclic) of N sites, in h's dtype: kron(h, I) with its
    tensor axes moved to the window's sites."""
    sites = [(start + j) % N for j in range(nu)]
    order = sites + [s for s in range(N) if s not in sites]
    inv = list(np.argsort(order))
    t = np.kron(h, np.eye(d ** (N - nu))).reshape((d,) * (2 * N))
    return t.transpose(inv + [N + i for i in inv]).reshape(d ** N, d ** N)


def embedded_term(h, d, nu, N, start):
    """The interaction placed on sites start..start+nu-1 (0-based, cyclic) of N sites, as a dense complex matrix."""
    return kron_embedding(np.asarray(h, dtype=complex), d, nu, N, start)


def dense_ring(hs, N):
    """Reference ring Hamiltonian: the 1/N-normalized cyclic sum of the stored (Hermitian) term
    as one dense d^N x d^N matrix, real when the term is real."""
    return sum(kron_embedding(hs.h_term, hs.d, hs.nu, N, start) for start in range(N)) / N


def assemble_reference(hs, N):
    """Reference for ph.assemble at every ring size: all amplitudes folded by shift and orbit pair into one (N, n, n)
    array, then one FFT over the shift; sector k keeps the orbits whose period allows k."""
    h = hs.h_term
    real = not np.iscomplexobj(h)
    period, orbit, shift = ph._orbits(hs.d, N)
    n = len(period)
    lag = shift.reshape(len(h), -1)
    which = orbit.reshape(len(h), -1)
    index = (((lag[:, None] - lag[None]) % N * n + which[:, None]) * n + which[None]).reshape(-1)
    root = np.sqrt(period[which])
    amplitude = (h[:, :, None] / (root[:, None] * root[None])).reshape(-1)
    folded = np.bincount(index, amplitude.real, N * n * n).astype(h.dtype, copy=False)
    if not real:
        folded.imag = np.bincount(index, amplitude.imag, N * n * n)
    sectors = (np.fft.rfft if real else np.fft.fft)(folded.reshape(N, n, n), axis=0)
    blocks, multiplicity = [], []
    for k, sector in enumerate(sectors):
        kept = np.flatnonzero(k * period % N == 0)
        block = sector[np.ix_(kept, kept)]
        blocks.append(block.real if real and 2 * k % N == 0 else block)
        multiplicity.append(2 if real and 2 * k % N else 1)
    return ph.RingHamiltonian(blocks=tuple(blocks), multiplicity=tuple(multiplicity))


def _whole(matrix):
    """co._spectral_structure of a whole matrix, one block on the diagonal once."""
    return co._spectral_structure(matrix, [slice(0, len(matrix))], [1])


def _null_vectors(matrix, structure, s, c):
    """The eigenvectors in cluster c of the diagonal block s, the matrix, of a co._spectral_structure: its kept
    columns, or for a defective cluster the null vectors of the SVD of the matrix minus kappa."""
    kappa, _, _, bases, columns, offsets, in_block = structure
    cols = columns[s][offsets[s, c]:offsets[s, c + 1]]
    if in_block[s, c] == len(cols):
        return bases[s][:, cols]
    return co._shifted_svd(matrix, kappa[c])[1][::-1][:in_block[s, c]].conj().T


def spectral_structure(matrix):
    """(kappa, algebraic, geometric, null vectors) per eigenvalue cluster of a whole matrix, from its one
    eigendecomposition (co._spectral_structure)."""
    s = _whole(matrix)
    return [(kappa, alg, geo, list(_null_vectors(matrix, s, 0, c).T))
            for c, (kappa, alg, geo) in enumerate(zip(*(a.tolist() for a in s[:3])))]


def cluster_terms(matrix, x, u, m_values):
    """co._cluster_terms of a whole real matrix as (kappa, algebraic, geometric, coefficient, terms) per cluster."""
    s = _whole(matrix)
    coefficient, terms = co._cluster_terms(matrix, s, 0, x, u, m_values)
    return list(zip(*(a.tolist() for a in s[:3]), coefficient.tolist(), terms))


def canonical(out):
    """co._canonical of cluster entries (kappa, algebraic, ...): the entries in its order, with its kappas."""
    snapped, order = co._canonical(np.array([e[0] for e in out], dtype=complex), np.array([e[1] for e in out]))
    return [(snapped[k].item(),) + tuple(out[k][1:]) for k in order.tolist()]


def full_exponent_structure(lam):
    """Reference spectrum: (kappa, algebraic, geometric) per cluster of the whole d^4 x d^4 pair-descend adjoint,
    from one eigendecomposition, the loops :func:`loop_cluster` and :func:`loop_canonical` and an SVD per
    degenerate cluster."""
    adj = adjoint(ch.pair_descend_channel(lam)).matrix
    evals = np.linalg.eigvals(adj)
    clusters = loop_cluster(evals, co.CLUSTER_TOL)
    kappas = [complex(np.mean(evals[m])) for m in clusters]
    return loop_canonical((kappa, len(m), 1 if len(m) == 1 else co._shifted_svd(adj, kappa)[0])
                          for kappa, m in zip(kappas, clusters))


LIFT_TOL = 1e-12


def lift(a, r, kappas, mu, w):
    """The columns x_j of (a - kappa_j) x_j = r_j, all at once.

    a is block upper-triangular with diagonal blocks 1, D, D (or the 1 alone), D = w diag(mu) w^-1: each
    D part is w ((w^-1 r) / (mu_i - kappa_j)), the unit part one division.  A column whose residual
    exceeds LIFT_TOL (|x_j| + |r_j|) is solved again by LU.
    """
    x = np.empty(r.shape, dtype=complex)
    if len(a) > 1:
        parts = np.linalg.solve(w, r[1:].reshape(2, len(mu), -1)) / (mu[:, None] - kappas)
        x[1:] = (w @ parts).reshape(len(x) - 1, -1)
    x[0] = (r[0] - a[0, 1:] @ x[1:]) / (a[0, 0] - kappas)
    scale = np.linalg.norm(x, axis=0) + np.linalg.norm(r, axis=0)
    for j in np.flatnonzero(~(np.linalg.norm(a @ x - x * kappas - r, axis=0) <= LIFT_TOL * scale)):
        x[:, j] = np.linalg.solve(a - kappas[j] * np.eye(len(a)), r[:, j])
    return x


def eager_spectrum(lam):
    """The eigenoperators of the pair-descend adjoint, which the library does not build: (kappa, algebraic,
    geometric, eigenoperators) per entry of co.exponent_spectrum, in its order.  The null vectors y of a sector's
    unshared clusters lift together to x = (x_low, y), (A_low,low - kappa) x_low = -A_low,block y (:func:`lift`,
    with its own eig of D), and map back as one stack per sector copy; a shared cluster's come from the SVD of the
    whole matrix.  The invariant part below a sector is the unit for D and 1 + S+ + S- for K_sym and K_anti."""
    b = ch._sector_matrix(lam)
    _, sectors = ch._sector_basis(lam.d)
    one_site = sectors[1][0]
    mu, w = (a.astype(complex) for a in np.linalg.eig(b[one_site, one_site]))
    s = co._sector_structure(lam)
    kappa, _, geometric, _, _, offsets, _ = s
    held = np.diff(offsets) > 0
    ops = [[] for _ in kappa]
    for c in np.flatnonzero(held.sum(axis=0) > 1).tolist():
        null = co._shifted_svd(b, kappa[c])[1][::-1][:geometric[c]].conj()
        ops[c] += list(ch._from_frame(ch._from_sectors(null, lam.d)))
    for k, copies in enumerate(sectors):
        low = slice(0, min(copies[0].start, sectors[2][0].start))
        own = [c for c in np.flatnonzero(held[k]).tolist() if held[:, c].sum() == 1]
        if not own:
            continue
        null = [(c, y) for c in own for y in _null_vectors(b[copies[0], copies[0]], s, k, c).T]
        y, kappas = np.stack([y for _, y in null], axis=1), kappa[[c for c, _ in null]]
        for where in copies:
            x = np.zeros((len(b), len(null)), dtype=complex)
            x[where] = y
            if low.stop:
                x[low] = lift(b[low, low], -b[low, where] @ y, kappas, mu, w)
            for (c, _), op in zip(null, ch._from_frame(ch._from_sectors(x.T, lam.d))):
                ops[c].append(op)
    return list(zip(*(a.tolist() for a in s[:3]), ops))


def loop_cluster(values, tol):
    """Reference for co._cluster: the greedy loop over the values in sorted order, each joining the
    earliest cluster with a member within tol."""
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), values[i].real, values[i].imag))
    close = np.abs(values[:, None] - values[None, :]) <= tol
    label = np.full(len(values), -1)
    clusters = []
    for i in order:
        near = label[close[i] & (label >= 0)]
        if near.size:
            label[i] = near.min()
            clusters[label[i]].append(i)
        else:
            label[i] = len(clusters)
            clusters.append([i])
    return clusters


def loop_canonical(out):
    """Reference for co._canonical: one argmin per eigenvalue for its conjugate partner, one distance
    row per value near the real axis, then the sort by |kappa| and, within CLUSTER_TOL, by Re, Im."""
    out = list(out)
    tol = co.CLUSTER_TOL
    kappas = np.array([item[0] for item in out])
    for i in np.flatnonzero(kappas.imag > tol):
        j = int(np.argmin(np.abs(kappas - kappas[i].conjugate())))
        if abs(kappas[j] - kappas[i].conjugate()) <= tol and out[j][1] == out[i][1]:
            upper = complex(kappas[i] + kappas[j].conjugate()) / 2.0
            out[i], out[j] = (upper,) + out[i][1:], (upper.conjugate(),) + out[j][1:]
    for i in np.flatnonzero(np.abs(kappas.imag) <= tol):
        partners = np.abs(kappas - kappas[i].conjugate()) <= tol
        partners[i] = False
        if not partners.any():
            out[i] = (complex(kappas[i].real, 0.0),) + out[i][1:]
    out.sort(key=lambda item: -abs(item[0]))
    cuts = [k for k in range(1, len(out)) if abs(out[k - 1][0]) - abs(out[k][0]) > tol]
    runs = [out[a:b] for a, b in zip([0] + cuts, cuts + [len(out)])]
    return [item for run in runs for item in sorted(run, key=lambda r: (-r[0].real, -r[0].imag))]


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_capped(args, cap_bytes, timeout=120):
    """Run ``python *args`` with the package importable, one BLAS thread and the
    child's address space capped at ``cap_bytes``, so an oversized allocation
    fails with MemoryError instead of exhausting the host."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, preexec_fn=cap, timeout=timeout
    )
