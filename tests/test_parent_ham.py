import time
import tracemalloc

import numpy as np
import pytest

from hbts import channels as ch
from hbts import finite_state as fs
from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts import thermo
from hbts.errors import ResourceLimitError, ValidationError

from conftest import adjoint, apply, assemble_reference, dense_ring, embedded_term, rand_herm, rand_top


@pytest.fixture(scope="module")
def paper_interaction(bundled_lam):
    return ph.build_interaction(bundled_lam)


class TestKernelBasis:
    def test_half_filled_diagonal(self):
        rho = tc.DensityOp(2, 2, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        kernel = ph.kernel_basis(rho)
        assert kernel.shape == (4, 2)
        projector = kernel @ kernel.conj().T
        assert np.abs(projector - np.diag([0, 0, 1, 1])).max() < 1e-12

    def test_full_rank_state_has_empty_kernel(self):
        rho = tc.DensityOp(2, 2, np.eye(4) / 4)
        assert ph.kernel_basis(rho).shape[1] == 0

    def test_bundled_four_site_kernel_dimension(self, bundled_lam):
        rho4 = thermo.reduced_infinity(bundled_lam, 4)
        kernel = ph.kernel_basis(rho4)
        assert kernel.shape[1] == 16 - 12 >= 4


CORPUS = (
    [("paper", tc.paper_isometry())] + [("product-d%d" % d, tc.product_isometry(d)) for d in (2, 3)]
    + [("seed%d-d%d" % (seed, d), tc.random_isometry(d, seed)) for d in (2, 3, 4) for seed in (0, 1)]
)


@pytest.mark.parametrize("lam", [lam for _, lam in CORPUS], ids=[name for name, _ in CORPUS])
@pytest.mark.parametrize("nu", ["auto", 4])
def test_kernel_dim_is_the_window_dimension_less_the_rank(lam, nu):
    hs = ph.build_interaction(lam, nu=nu)
    rho = thermo.reduced_infinity(lam, hs.nu)
    assert hs.kernel_dim == rho.dim - tc.numerical_rank(rho) > 0


class TestBuildInteraction:
    def test_bundled_tree_selects_four_site_window(self, paper_interaction):
        assert paper_interaction.nu == 4
        assert paper_interaction.kernel_dim == 4

    def test_interaction_annihilates_its_state(self, bundled_lam, paper_interaction):
        rho4 = thermo.reduced_infinity(bundled_lam, 4)
        assert np.abs(paper_interaction.h_term @ rho4.matrix).max() <= 1e-10

    def test_random_spin1_tree_needs_only_three_sites(self):
        lam = tc.random_isometry(3, 7)
        hs = ph.build_interaction(lam)
        assert hs.nu == 3
        assert hs.kernel_dim >= 27 - 18

    def test_product_tree_uses_accidental_pair_kernel(self, product_lam):
        hs = ph.build_interaction(product_lam)
        assert hs.nu == 2
        assert hs.kernel_dim == 3

    def test_weight_validation(self, bundled_lam):
        with pytest.raises(ValueError):
            ph.build_interaction(bundled_lam, weights=[1.0, 1.0])
        with pytest.raises(ValueError):
            ph.build_interaction(bundled_lam, weights=[1.0, 1.0, 1.0, -1.0])
        for nu in (5, 1, 3.0, np.float64(4.0), True, "3"):  # 3.0 and 4.0 equal windows but are not integers
            with pytest.raises(ValueError, match="interaction window must be 2, 3, 4 or 'auto'"):
                ph.build_interaction(bundled_lam, nu=nu)
        assert ph.build_interaction(bundled_lam, nu=np.int64(4)).nu == 4


class TestHamiltonianSpec:
    @pytest.mark.parametrize("broken", ["nan", "skew"])
    def test_non_finite_or_non_hermitian_term_is_refused(self, broken):
        h = np.eye(4, dtype=complex)
        h[0, 1] = np.nan if broken == "nan" else 1e-3
        with pytest.raises(ValidationError):
            ph.HamiltonianSpec(d=2, nu=2, h_term=h, kernel_dim=4, weights=np.ones(4))

    @pytest.mark.parametrize("scale", [1.0, 1e7, 1e12])
    def test_hermiticity_is_judged_relative_to_a_term_past_one(self, scale):
        h = scale * np.diag([1.0, 0.5, 0.25, 0.0]).astype(complex)
        h[0, 1] = 0.5e-10 * scale            # within TAU_HERM of the largest entry
        assert ph.HamiltonianSpec(d=2, nu=2, h_term=h, kernel_dim=4, weights=np.ones(4)).h_term[0, 1] == h[0, 1] / 2
        h[0, 1] = 1e-8 * scale
        with pytest.raises(ValidationError, match="not Hermitian"):
            ph.HamiltonianSpec(d=2, nu=2, h_term=h, kernel_dim=4, weights=np.ones(4))

    @pytest.mark.parametrize("weights", [[1.0] * 3, [1.0] * 5, [1.0, 1.0, 1.0, 0.0], [1.0, 1.0, -1.0, 1.0],
                                         [1.0, 1.0, 1.0, np.nan], [1.0, np.inf, 1.0, 1.0]])
    def test_weights_must_be_kernel_dim_finite_positive_numbers(self, weights):
        with pytest.raises(ValueError):
            ph.HamiltonianSpec(d=2, nu=2, h_term=np.eye(4), kernel_dim=4, weights=weights)

    def test_real_term_is_stored_as_read_only_float64(self):
        hs = ph.HamiltonianSpec(d=2, nu=2, h_term=np.eye(4, dtype=complex), kernel_dim=4, weights=np.ones(4))
        assert hs.h_term.dtype == np.float64
        assert not hs.h_term.flags.writeable and not hs.weights.flags.writeable
        assert np.array_equal(hs.h_term, np.eye(4))

    def test_complex_term_is_stored_exactly_hermitian(self):
        h = rand_herm(np.random.default_rng(5), 8)
        h[0, 1] += 1e-12
        hs = ph.HamiltonianSpec(d=2, nu=3, h_term=h, kernel_dim=1, weights=np.ones(1))
        assert hs.h_term.dtype == np.complex128
        assert np.array_equal(hs.h_term, hs.h_term.conj().T)
        assert np.abs(hs.h_term - h).max() <= 1e-12

    def test_assemble_and_nullity_read_the_stored_term(self, monkeypatch):
        lam = tc.random_isometry(3, 7)
        base = ph.build_interaction(lam)
        # within TAU_HERM of base's term, whose Hermitian part it has exactly
        skew = ph.HamiltonianSpec(d=3, nu=3, h_term=base.h_term + 1e-11j * np.eye(27),
                                  kernel_dim=base.kernel_dim, weights=base.weights)
        assert np.array_equal(skew.h_term, base.h_term)
        seen = []
        local = ch._local

        def spy(lam, *terms, adjoint=False):
            if adjoint:
                seen.extend(op for op, _ in terms)
            return local(lam, *terms, adjoint=adjoint)

        monkeypatch.setattr(ch, "_local", spy)
        assert ph.adjoint_nullity_check(lam, skew) == ph.adjoint_nullity_check(lam, base)
        assert seen[0] is skew.h_term
        for got, want in zip(ph.assemble(skew, 4).blocks, ph.assemble(base, 4).blocks):
            assert np.array_equal(got, want)


class TestAssemble:
    def test_identity_term_assembles_to_identity(self):
        hs = ph.HamiltonianSpec(d=2, nu=2, h_term=np.eye(4), kernel_dim=4, weights=np.ones(4))
        for N in (2, 4, 5):
            assert np.abs(dense_ring(hs, N) - np.eye(2 ** N)).max() < 1e-14

    def test_pair_projector_on_two_sites(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0b11, 0b11] = 1.0
        hs = ph.HamiltonianSpec(d=2, nu=2, h_term=h, kernel_dim=1, weights=np.ones(1))
        out = dense_ring(hs, 2)
        assert np.abs(out - h).max() < 1e-15

    def test_bundled_hamiltonian_is_psd(self, paper_interaction):
        ham = dense_ring(paper_interaction, 8)
        assert ham.shape == (256, 256)
        assert np.linalg.eigvalsh(ham)[0] >= -1e-12

    def test_lattice_too_small(self, paper_interaction):
        for N in (3, 8.0, True, "8"):  # too small, or not an integer
            with pytest.raises(ValueError, match="ring size N"):
                ph.assemble(paper_interaction, N)
        as_numpy = ph.assemble(paper_interaction, np.int64(6))
        for got, want in zip(as_numpy.blocks, ph.assemble(paper_interaction, 6).blocks):
            assert np.array_equal(got, want)

    def test_budget(self, paper_interaction):
        with pytest.raises(ResourceLimitError, match=r"dimension d\^N = 2\^16 = 65536, budget is 4096"):
            ph.assemble(paper_interaction, 16)

    @pytest.mark.parametrize("check", [False, True])
    def test_a_ring_past_the_decimal_string_limit_is_refused_on_the_budget(self, bundled_lam, paper_interaction, check):
        # 10^5000 has more digits than Python converts to a string, so the refusal gives its order of magnitude
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"^a ring of ~10\^5000 sites has dimension d\^N = 2\^~10\^5000, "):
            if check:
                ph.grown_subspace_check(bundled_lam, paper_interaction, 10 ** 5000)
            else:
                ph.assemble(paper_interaction, 10 ** 5000)
        assert time.perf_counter() - start < 0.05

    def test_embedding_matches_explicit_kron(self):
        rng = np.random.default_rng(4)
        h2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h2 = (h2 + h2.conj().T) / 2
        # trailing placement on 3 sites is a plain kron with the identity
        embedded = embedded_term(h2, 2, 2, 3, 1)
        assert np.abs(embedded - np.kron(np.eye(2), h2)).max() < 1e-14
        leading = embedded_term(h2, 2, 2, 3, 0)
        assert np.abs(leading - np.kron(h2, np.eye(2))).max() < 1e-14

    def test_wraparound_embedding_involves_edge_sites(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0b11, 0b11] = 1.0
        out = embedded_term(h, 2, 2, 3, 2)  # sites 3 and 1
        # |1 l 1> states pick up the projector for every middle digit l
        for middle in (0, 1):
            idx = 0b101 if middle == 0 else 0b111
            assert abs(out[idx, idx] - 1.0) < 1e-15
        assert abs(out[0b011, 0b011]) < 1e-15


RINGS = [(2, 2, 5), (2, 3, 6), (2, 4, 7), (3, 2, 4), (3, 3, 5)]


class TestRingPlacement:
    @pytest.mark.parametrize("d, nu, N", RINGS)
    @pytest.mark.parametrize("real", [True, False])
    def test_assemble_is_the_mean_of_embedded_terms(self, d, nu, N, real):
        h = rand_herm(np.random.default_rng(10 * N + d), d ** nu)
        if real:
            h = h.real
        hs = ph.HamiltonianSpec(d=d, nu=nu, h_term=h, kernel_dim=1, weights=np.ones(1))
        terms = [embedded_term(h, d, nu, N, start) for start in range(N)]  # starts past N - nu wrap around
        ham = dense_ring(hs, N)
        assert ham.dtype == (np.float64 if real else np.complex128)
        assert np.abs(ham - sum(terms) / N).max() < 1e-13
        assert np.abs(ph.diagonalize(ph.assemble(hs, N)).spectrum - np.linalg.eigvalsh(ham)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_real_isometry_gives_a_real_term(self, d):
        q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d * d, d)))
        hs = ph.build_interaction(tc.Isometry(d, q))
        assert not hs.h_term.imag.any()
        N = hs.nu + 2
        ring = ph.assemble(hs, N)
        assert len(ring.blocks) == N // 2 + 1  # sectors 0..N/2; the rest are their conjugates
        assert ring.blocks[0].dtype == np.float64
        as_complex = sum(embedded_term(hs.h_term, d, hs.nu, N, s) for s in range(N)) / N
        assert as_complex.dtype == np.complex128
        reference = np.linalg.eigvalsh(as_complex)
        assert np.abs(ph.diagonalize(ring).spectrum - reference).max() < 1e-12

    @pytest.mark.parametrize("which, N", [("paper", 4), ("paper", 6), ("paper", 8), ("spin1", 4), ("spin1", 6)])
    def test_subspace_check_matches_the_dense_reference(self, bundled_lam, which, N):
        lam = bundled_lam if which == "paper" else tc.random_isometry(3, 7)
        hs = ph.build_interaction(lam)
        rep = ph.grown_subspace_check(lam, hs, N)
        basis = ph.grown_basis(lam, N)
        residual = np.linalg.norm(dense_ring(hs, N) @ basis, axis=0).max()
        local = max(
            np.abs(np.einsum("ij,ij->j", basis.conj(), embedded_term(hs.h_term, lam.d, hs.nu, N, s) @ basis)).max()
            for s in range(N)
        )
        assert abs(rep.max_h_residual - residual) < 1e-13
        assert abs(rep.max_local_energy - local) < 1e-13

    def test_grown_basis_columns_are_products_of_isometry_columns(self):
        lam = tc.random_isometry(3, 2)
        basis = ph.grown_basis(lam, 4)
        for j in range(9):
            assert np.array_equal(basis[:, j], np.kron(lam.v[:, j // 3], lam.v[:, j % 3]))

    @pytest.mark.parametrize("N", [8, 10])
    def test_real_isometry_checks_its_subspace_in_real_arithmetic(self, bundled_lam, paper_interaction, N):
        # a global phase on v leaves the subspace alone but keeps the basis complex
        phased = tc.Isometry(2, 1j * bundled_lam.v)
        assert ph.grown_basis(bundled_lam, N).dtype == np.float64
        assert ph.grown_basis(phased, N).dtype == np.complex128
        rep = ph.grown_subspace_check(bundled_lam, paper_interaction, N)
        reference = ph.grown_subspace_check(phased, paper_interaction, N)
        for field in ("dim_grown", "dim_translated", "dim_union", "unfrustrated"):
            assert getattr(rep, field) == getattr(reference, field), field
        assert abs(rep.max_h_residual - reference.max_h_residual) < 1e-12
        assert abs(rep.max_local_energy - reference.max_local_energy) < 1e-12

    def test_translation_of_columns_matches_single_states(self, bundled_lam):
        basis = ph.grown_basis(bundled_lam, 6)
        columns = np.stack([ph.translate_state(basis[:, j], 2, 6) for j in range(basis.shape[1])], axis=1)
        assert np.array_equal(ph.translate_state(basis, 2, 6), columns)


def _no_fft(*args, **kwargs):
    raise AssertionError("assemble ran an FFT")


class TestSectorAccumulation:
    """assemble, one sector at a time with no FFT, against the fold over the shift and its one FFT
    (assemble_reference): the same multiplicities, dtypes and shapes, and blocks within 1e-15 of their scale."""

    @staticmethod
    def check(hs, N, monkeypatch):
        want = assemble_reference(hs, N)
        monkeypatch.setattr(np.fft, "rfft", _no_fft)
        monkeypatch.setattr(np.fft, "fft", _no_fft)
        got = ph.assemble(hs, N, max_dim=hs.d ** N)
        assert got.multiplicity == want.multiplicity
        assert [b.dtype for b in got.blocks] == [b.dtype for b in want.blocks]
        assert [b.shape for b in got.blocks] == [b.shape for b in want.blocks]
        scale = max(float(np.abs(b).max()) for b in want.blocks)
        assert max(float(np.abs(a - b).max()) for a, b in zip(got.blocks, want.blocks)) <= 1e-15 * scale

    @pytest.mark.parametrize("d, nu, N", RINGS)
    @pytest.mark.parametrize("real", [True, False])
    def test_rings(self, d, nu, N, real, monkeypatch):
        h = rand_herm(np.random.default_rng(10 * N + d), d ** nu)
        hs = ph.HamiltonianSpec(d=d, nu=nu, h_term=h.real if real else h, kernel_dim=1, weights=np.ones(1))
        self.check(hs, N, monkeypatch)

    @pytest.mark.parametrize("d, nu, N", RINGS)
    @pytest.mark.parametrize("real", [True, False])
    def test_blocks_are_the_ring_in_its_momentum_states(self, d, nu, N, real):
        # Sector k's states sum exp(-2 pi i k l / N) T^l over each kept orbit's smallest state, so translate_state
        # multiplies them by exp(2 pi i k / N); block k is the dense ring between them, with no FFT in the reference.
        h = rand_herm(np.random.default_rng(10 * N + d), d ** nu)
        hs = ph.HamiltonianSpec(d=d, nu=nu, h_term=h.real if real else h, kernel_dim=1, weights=np.ones(1))
        ham = dense_ring(hs, N)
        powers = [np.eye(d ** N)]
        for _ in range(N - 1):
            powers.append(ph.translate_state(powers[-1], d, N))
        smallest = sorted({min(int(np.argmax(p[:, s])) for p in powers) for s in range(d ** N)})
        ring = ph.assemble(hs, N)
        assert len(ring.blocks) == (N // 2 + 1 if real else N)
        for k, block in enumerate(ring.blocks):
            roots = np.exp(-2j * np.pi * k * np.arange(N) / N)
            states = [sum(r * p[:, s] for r, p in zip(roots, powers)) for s in smallest]
            basis = np.stack([v / np.linalg.norm(v) for v in states if np.linalg.norm(v) > 1e-9], axis=1)
            assert basis.shape[1] == len(block)
            assert np.abs(ph.translate_state(basis, d, N) - np.exp(2j * np.pi * k / N) * basis).max() < 1e-13
            assert np.abs(basis.conj().T @ ham @ basis - block).max() < 1e-13

    @pytest.mark.parametrize("N", range(9, 14))
    def test_bundled_rings(self, paper_interaction, N, monkeypatch):
        self.check(paper_interaction, N, monkeypatch)

    @pytest.mark.parametrize("N", range(5, 8))
    def test_spin1_rings(self, N, monkeypatch):
        hs = ph.build_interaction(tc.random_isometry(3, 0))
        assert np.iscomplexobj(hs.h_term)
        self.check(hs, N, monkeypatch)

    def test_traced_peak_is_within_half_the_blocks_again(self, paper_interaction):
        ph.assemble(paper_interaction, 12)           # the orbits and numpy's first calls, outside the trace
        tracemalloc.start()
        try:
            ring = ph.assemble(paper_interaction, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sum(block.nbytes for block in ring.blocks)


def _qr_isometry(d, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d * d, d)))
    return tc.Isometry(d, q)


SECTOR_CASES = (
    [("paper", N) for N in range(4, 12)]
    + [("product", N) for N in range(2, 7)]
    + [("spin1-complex", N) for N in range(3, 7)]
    + [("spin1-real", N) for N in range(3, 7)]
    + [("identity", N) for N in (2, 3, 4, 5)]
)


class TestSectors:
    @pytest.fixture(scope="class")
    def interactions(self, bundled_lam, product_lam):
        return {
            "paper": ph.build_interaction(bundled_lam),
            "product": ph.build_interaction(product_lam),
            "spin1-complex": ph.build_interaction(tc.random_isometry(3, 7)),
            "spin1-real": ph.build_interaction(_qr_isometry(3, 3)),
            "identity": ph.HamiltonianSpec(d=2, nu=2, h_term=np.eye(4), kernel_dim=4, weights=np.ones(4)),
        }

    @pytest.mark.parametrize("which, N", SECTOR_CASES)
    def test_sector_spectrum_matches_dense_eigvalsh(self, interactions, which, N):
        hs = interactions[which]
        reference = np.linalg.eigvalsh(dense_ring(hs, N))
        rep = ph.diagonalize(ph.assemble(hs, N))
        assert rep.spectrum.shape == reference.shape
        assert np.abs(rep.spectrum - reference).max() < 1e-12
        assert rep.degeneracy == np.count_nonzero(reference <= reference[0] + ph.TAU_GS)


class TestDiagonalize:
    @pytest.mark.parametrize("N,degeneracy", [(4, 8), (6, 16), (8, 32), (10, 64), (12, 128)])
    def test_even_lattices_degeneracy(self, paper_interaction, N, degeneracy):
        rep = ph.diagonalize(ph.assemble(paper_interaction, N))
        assert abs(rep.ground_energy) <= 1e-10
        assert rep.degeneracy == degeneracy == 2 * 2 ** (N // 2)

    @pytest.mark.parametrize("N", [5, 7])
    def test_odd_lattices_are_frustrated(self, paper_interaction, N):
        rep = ph.diagonalize(ph.assemble(paper_interaction, N))
        assert rep.ground_energy > 1e-6

    def test_histogram_covers_spectrum(self, paper_interaction):
        rep = ph.diagonalize(ph.assemble(paper_interaction, 6), bins=20)
        assert sum(count for _, _, count in rep.histogram) == len(rep.spectrum)

    def test_degeneracy_lower_bound(self, paper_interaction):
        for N in (4, 6, 8):
            rep = ph.diagonalize(ph.assemble(paper_interaction, N))
            assert rep.degeneracy >= 2 ** (N // 2)

    def test_no_ring_sized_matrix_is_allocated(self, paper_interaction):
        tracemalloc.start()
        try:
            ph.diagonalize(ph.assemble(paper_interaction, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 11 * 2 ** 11 * 8  # the dense float64 ring matrix alone

    def test_weight_rescaling_scales_spectrum_keeps_ground_space(self, bundled_lam, paper_interaction):
        scaled = ph.build_interaction(bundled_lam, weights=[3.0] * paper_interaction.kernel_dim)
        base = ph.diagonalize(ph.assemble(paper_interaction, 6))
        resc = ph.diagonalize(ph.assemble(scaled, 6))
        assert resc.degeneracy == base.degeneracy
        assert abs(resc.ground_energy) <= 1e-10
        assert np.abs(resc.spectrum - 3.0 * base.spectrum).max() < 1e-10


class TestGroundSpace:
    def test_tree_state_is_ground_state(self, bundled_lam, paper_interaction, diag_top):
        for n, N in ((2, 4), (3, 8)):
            psi = fs.build_state(bundled_lam, diag_top, n).amplitudes
            ham = dense_ring(paper_interaction, N)
            assert abs(np.vdot(psi, ham @ psi)) <= 1e-10

    def test_translation_orbit_in_ground_space(self, bundled_lam, paper_interaction):
        top = rand_top(2, 17)
        psi = fs.build_state(bundled_lam, top, 3).amplitudes
        ham = dense_ring(paper_interaction, 8)
        current = psi
        for _ in range(8):
            assert np.linalg.norm(ham @ current) <= 1e-10
            current = ph.translate_state(current, 2, 8)

    def test_zero_modes_are_locally_unfrustrated(self, paper_interaction):
        ham = dense_ring(paper_interaction, 6)
        evals, evecs = np.linalg.eigh(ham)
        zero_modes = evecs[:, evals <= 1e-10]
        for alpha in range(6):
            term = embedded_term(paper_interaction.h_term, 2, 4, 6, alpha)
            energies = np.einsum("ij,ij->j", zero_modes.conj(), term @ zero_modes)
            assert np.abs(energies).max() <= 1e-10


class TestGrownSubspace:
    def test_dimensions_match_measured_degeneracy(self, bundled_lam, paper_interaction):
        rep = ph.grown_subspace_check(bundled_lam, paper_interaction, 8)
        assert rep.dim_grown == 16
        assert rep.dim_union == 32
        degeneracy = ph.diagonalize(ph.assemble(paper_interaction, 8)).degeneracy
        assert rep.dim_union == degeneracy

    def test_small_lattice_annihilation(self, bundled_lam, paper_interaction):
        rep = ph.grown_subspace_check(bundled_lam, paper_interaction, 4)
        assert rep.dim_grown == 4
        assert rep.max_h_residual <= 1e-10
        assert rep.max_local_energy <= 1e-10
        assert rep.unfrustrated

    def test_product_tree_dimerized_ground_state(self, product_lam):
        # the product tree hits the accidental two-site kernel, where the
        # grown-subspace theorem does not apply: only the all-zeros dimerized
        # product is annihilated, and the check reports the violation honestly
        hs = ph.build_interaction(product_lam)
        assert hs.nu == 2
        rep = ph.grown_subspace_check(product_lam, hs, 4)
        assert rep.dim_grown == 4
        assert not rep.unfrustrated
        ham = dense_ring(hs, 4)
        phi0 = ph.grown_basis(product_lam, 4)[:, 0]  # image of |00>: the |0000> product
        assert np.linalg.norm(ham @ phi0) <= 1e-12

    def test_odd_size_rejected(self, bundled_lam, paper_interaction):
        with pytest.raises(ValueError, match="even"):
            ph.grown_subspace_check(bundled_lam, paper_interaction, 5)
        with pytest.raises(ValueError, match="integer"):  # not rounded down to an even 8
            ph.grown_subspace_check(bundled_lam, paper_interaction, 8.5)
        assert ph.grown_subspace_check(bundled_lam, paper_interaction, np.int64(6)).N == 6

    def test_non_isometry_is_refused(self, bundled_lam, paper_interaction):
        # the grown basis reads v without a derivation, so it checks v itself
        with pytest.raises(ValidationError, match="isometric"):
            ph.grown_subspace_check(tc.Isometry(2, 1.5 * bundled_lam.v), paper_interaction, 6)


@pytest.mark.parametrize("check", [lambda lam, hs: ph.grown_subspace_check(lam, hs, 6), ph.adjoint_nullity_check])
def test_interaction_of_another_dimension_is_refused(bundled_lam, check):
    hs = ph.build_interaction(tc.random_isometry(3, 0))
    assert hs.nu == 3
    with pytest.raises(ValueError, match="d=2.*d=3"):
        check(bundled_lam, hs)


class TestAdjointNullity:
    def test_spin1_random_trees(self):
        for seed in (7, 1, 2):
            lam = tc.random_isometry(3, seed)
            hs = ph.build_interaction(lam)
            assert hs.nu == 3
            rep = ph.adjoint_nullity_check(lam, hs)
            assert rep.precondition_met
            assert rep.residual <= 1e-10
            assert rep.trace_residual <= 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_dense_extension_adjoint(self, d, seed):
        lam = tc.random_isometry(d, seed)
        kernel = ph.build_interaction(lam)
        assert kernel.nu == 3
        generic = ph.HamiltonianSpec(d, 3, rand_herm(np.random.default_rng(seed), d ** 3), 1, [1.0])
        rho2 = thermo.two_site_infinity(lam).matrix
        adj = adjoint(ch.extension_channel(lam, 3))
        for hs in (kernel, generic):
            descended = apply(adj, hs.h_term)
            rep = ph.adjoint_nullity_check(lam, hs)
            assert abs(rep.residual - np.abs(descended).max()) < 1e-13
            assert abs(rep.trace_residual - abs(np.trace(rho2 @ descended))) < 1e-13

    def test_scaling_invariance(self):
        lam = tc.random_isometry(3, 7)
        hs = ph.build_interaction(lam)
        scaled = ph.HamiltonianSpec(
            d=3, nu=3, h_term=5.0 * hs.h_term, kernel_dim=hs.kernel_dim, weights=5.0 * hs.weights
        )
        rep = ph.adjoint_nullity_check(lam, scaled)
        assert rep.residual <= 1e-10

    def test_spin_half_trace_analog(self, bundled_lam, paper_interaction):
        # four-site interaction descended through the 2->4 extension adjoint
        # must pair to zero against the two-site state (three-site state is
        # full rank here, so only the scalar identity is available)
        assert paper_interaction.nu == 4
        rho2 = thermo.two_site_infinity(bundled_lam)
        rho3 = thermo.reduced_infinity(bundled_lam, 3)
        assert tc.numerical_rank(rho3) == 8
        descended = apply(adjoint(ch.extension_channel(bundled_lam, 4)), paper_interaction.h_term)
        assert abs(np.trace(rho2.matrix @ descended)) <= 1e-10

    def test_wrong_window_rejected(self, bundled_lam, paper_interaction):
        with pytest.raises(ValueError):
            ph.adjoint_nullity_check(bundled_lam, paper_interaction)
