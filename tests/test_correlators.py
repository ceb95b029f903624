import pickle

import numpy as np
import pytest

from hbts import channels as ch
from hbts import correlators as co
from hbts import tensor_core as tc

import conftest
from conftest import (adjoint, apply, canonical, case_isometry, cluster_terms, eager_spectrum, full_exponent_structure,
                      level_states_reference, lift, loop_canonical, loop_cluster, rand_herm, run_capped,
                      sector_matrix_reference, spectral_structure)


class TestCorrelatorThermo:
    def test_product_tree_has_no_correlations(self, product_lam, sigma_z):
        for m in range(5):
            value = co.correlator_thermo(product_lam, co.CorrelatorQuery(sigma_z, sigma_z, m))
            assert abs(value) < 1e-13

    def test_decay_to_zero_at_huge_distance(self, bundled_lam, sigma_z, sigma_x):
        for obs in (sigma_z, sigma_x):
            value = co.correlator_thermo(bundled_lam, co.CorrelatorQuery(obs, obs, 60))
            assert abs(value) < 1e-12

    def test_matches_deep_finite_levels(self, bundled_lam, sigma_z, diag_top):
        # channel-iterated depth-10 correlators approximate the limit to 1e-6
        block = np.kron(sigma_z.matrix, sigma_z.matrix)
        for m in range(7):
            thermo_val = co.correlator_thermo(bundled_lam, co.CorrelatorQuery(sigma_z, sigma_z, m))
            _, rho2, eta, _ = level_states_reference(bundled_lam, diag_top, 10 - m)
            level_val = next(co.pair_descend_series(bundled_lam, rho2 - eta, block, [m]))[1]
            assert abs(thermo_val - level_val) < 1e-6

    def test_heisenberg_equals_schrodinger(self, bundled_lam):
        rng = np.random.default_rng(21)
        pair = ch.pair_descend_channel(bundled_lam)
        adj = adjoint(pair)
        diff = co.pair_difference_infinity(bundled_lam)
        for m in (0, 1, 3):
            x = rand_herm(rng, 4)
            forward = ch.unvec(np.linalg.matrix_power(pair.matrix, m) @ ch.vec(diff), 4)
            backward = ch.unvec(np.linalg.matrix_power(adj.matrix, m) @ ch.vec(x), 4)
            assert abs(np.trace(x @ forward) - np.trace(diff @ backward)) < 1e-12

    def test_distance_one_equals_prefactor(self, bundled_lam, sigma_z):
        diff = co.pair_difference_infinity(bundled_lam)
        block = np.kron(sigma_z.matrix, sigma_z.matrix)
        direct = complex(np.trace(diff @ block))
        value = co.correlator_thermo(bundled_lam, co.CorrelatorQuery(sigma_z, sigma_z, 0))
        assert abs(value - direct) < 1e-15

    def test_negative_distance_exponent_rejected(self, sigma_z):
        for m in (-1, True, 2.0, np.float64(2.0), "2"):  # only integers: no bool, no float
            with pytest.raises(ValueError, match="distance exponent"):
                co.CorrelatorQuery(sigma_z, sigma_z, m)
        query = co.CorrelatorQuery(sigma_z, sigma_z, np.int64(2))
        assert type(query.m) is int and query == co.CorrelatorQuery(sigma_z, sigma_z, 2)

    def test_distance_exponent_is_bounded(self, bundled_lam, sigma_z):
        # 2**M_MAX is the largest distance that is a finite float; above it the exact distances only grow
        query = co.CorrelatorQuery(sigma_z, sigma_z)
        distance, _ = co.correlator_series(bundled_lam, query, [co.M_MAX])[0]
        assert distance == 2 ** 1023 and np.isfinite(float(distance))
        for m in (co.M_MAX + 1, 10 ** 8):
            with pytest.raises(ValueError, match="distance exponent m must be an integer <= 1023"):
                co.correlator_series(bundled_lam, query, [0, m])
            with pytest.raises(ValueError, match="distance exponent m must be an integer <= 1023"):
                co.CorrelatorQuery(sigma_z, sigma_z, m)


class TestExponentSpectrum:
    def test_product_tree_spectrum(self, product_lam):
        spec = co.exponent_spectrum(product_lam)
        assert len(spec.entries) == 2
        top, rest = spec.entries
        assert abs(top.kappa - 1.0) < 1e-10 and top.algebraic == 1
        assert abs(rest.kappa - 0.5) < 1e-10 and rest.algebraic == 15
        assert abs(rest.exponent.real + 1.0) < 1e-10
        assert spec.diagonalizable

    def test_bundled_tree_cluster_structure(self, bundled_lam):
        spec = co.exponent_spectrum(bundled_lam)
        got = [(round(abs(e.kappa), 6), e.algebraic, e.geometric) for e in spec.entries]
        assert got == [
            (1.0, 1, 1),
            (round(2 ** -0.5, 6), 2, 2),
            (0.5, 2, 2),
            (round(2 ** -1.5, 6), 2, 2),
            (0.25, 1, 1),
            (0.0, 8, 8),
        ]
        assert spec.diagonalizable
        exps = [e.exponent.real for e in spec.entries if e.exponent is not None]
        assert np.abs(np.array(exps) - np.array([0.0, -0.5, -1.0, -1.5, -2.0])).max() < 1e-10
        assert spec.entries[-1].exponent is None

    def test_unit_disk_and_negative_exponents(self, bundled_lam):
        spec = co.exponent_spectrum(bundled_lam)
        moduli = [abs(e.kappa) for e in spec.entries]
        assert max(moduli) <= 1 + 1e-10
        assert abs(max(moduli) - 1.0) < 1e-10  # unital adjoint always peaks at 1
        for e in spec.entries:
            if e.exponent is not None:
                assert e.exponent.real <= 1e-10
                if abs(e.kappa) < 1 - 1e-10:
                    assert e.exponent.real < 0

    def test_reported_eigenoperators_are_eigenoperators(self, bundled_lam):
        adj = adjoint(ch.pair_descend_channel(bundled_lam))
        for kappa, _, geometric, ops in eager_spectrum(bundled_lam):
            assert len(ops) == geometric
            for x in ops:
                out = apply(adj, x)
                assert np.abs(out - kappa * x).max() < 1e-8 * np.abs(x).max()


class TestPowerlawCheck:
    def test_eigenoperator_with_half_eigenvalue(self, bundled_lam, sigma_x):
        # x (x) x is an exact eigenoperator at eigenvalue 1/2
        series = co.powerlaw_check(bundled_lam, co.CorrelatorQuery(sigma_x, sigma_x))
        assert series.is_eigenoperator
        assert abs(series.kappa - 0.5) < 1e-10
        assert abs(series.fitted_exponent - (-1.0)) < 1e-8
        assert not series.degenerate

    def test_synthetic_injected_eigenoperator(self, bundled_lam):
        half = next(ops for kappa, _, _, ops in eager_spectrum(bundled_lam) if abs(kappa - 0.5) < 1e-8)
        series = co.powerlaw_check(bundled_lam, half[0], range(0, 16))
        assert series.is_eigenoperator and not series.degenerate
        assert abs(series.fitted_exponent - (-1.0)) < 1e-8

    def test_product_tree_series_degenerate(self, product_lam, sigma_z):
        series = co.powerlaw_check(product_lam, co.CorrelatorQuery(sigma_z, sigma_z), range(0, 10))
        assert series.degenerate
        assert series.fitted_exponent is None

    def test_largest_contributing_eigenoperator_ratio(self, bundled_lam):
        # walk eigenoperators by descending |kappa| < 1; the first with a
        # resolvable series must pass the ratio test out to m = 20
        checked = False
        for kappa, _, _, ops in eager_spectrum(bundled_lam):
            if not 1e-6 < abs(kappa) < 1 - 1e-10:
                continue
            series = co.powerlaw_check(bundled_lam, ops[0], range(0, 21))
            if series.degenerate:
                continue
            values = [v for _, v in series.points]
            for i in range(len(values) - 1):
                assert abs(values[i + 1] / values[i] - kappa) < 1e-8
            checked = True
            break
        assert checked

    def test_general_block_spectral_decomposition(self, bundled_lam, sigma_z):
        # z (x) z is not an eigenoperator; its series is carried by the
        # single eigenvalue 1/4 with weight 4/27
        series = co.powerlaw_check(bundled_lam, co.CorrelatorQuery(sigma_z, sigma_z))
        assert not series.is_eigenoperator and not series.degenerate
        assert not series.log_corrections
        assert series.residual < 1e-12
        assert abs(series.prefactor - 4.0 / 27.0) < 1e-12
        heavy = [(k, c) for k, c in series.decomposition if abs(c) > 1e-10]
        assert len(heavy) == 1
        assert abs(heavy[0][0] - 0.25) < 1e-10
        assert abs(heavy[0][1] - 4.0 / 27.0) < 1e-10
        assert abs(series.fitted_exponent - (-2.0)) < 1e-10

    def test_difference_state_is_traceless(self, bundled_lam):
        assert abs(np.trace(co.pair_difference_infinity(bundled_lam))) < 1e-12

    def test_bad_arguments(self, bundled_lam, sigma_z):
        query = co.CorrelatorQuery(sigma_z, sigma_z)
        for m_range in ([], [0, 1.5, 3], [0, True], [np.float64(2.0)], [3, -1]):
            with pytest.raises(ValueError):
                co.powerlaw_check(bundled_lam, query, m_range)
        for block in (np.eye(2), np.full((4, 4), np.nan), np.diag([1.0, np.inf, 0.0, 0.0])):
            with pytest.raises(ValueError):
                co.powerlaw_check(bundled_lam, block)
        with pytest.raises(ValueError):  # finite, but its series overflows
            co.powerlaw_check(bundled_lam, np.full((4, 4), 1e308))
        huge = tc.Observable(2, np.diag([1e200, -1e200]))
        with pytest.raises(ValueError):  # finite observables whose product overflows
            co.powerlaw_check(bundled_lam, co.CorrelatorQuery(huge, huge))
        wide = tc.Observable(2, np.diag([1e200, 1e200]))
        with pytest.raises(ValueError, match="finite"):  # a nan before; a RuntimeWarning fails the suite
            co.correlator_thermo(bundled_lam, co.CorrelatorQuery(wide, wide))
        reference = co.powerlaw_check(bundled_lam, query, range(4))
        for m_range in (np.arange(4), [np.int64(3), 0, 1, 2]):
            assert co.powerlaw_check(bundled_lam, query, m_range) == reference

    def test_one_checked_series_behind_every_correlator(self, bundled_lam, sigma_z):
        query = co.CorrelatorQuery(sigma_z, sigma_z)
        series = co.correlator_series(bundled_lam, query, [5, np.int64(2), 0, 2])
        assert [delta for delta, _ in series] == [1, 4, 32]
        diff = co.pair_difference_infinity(bundled_lam)
        assert series == list(co.pair_descend_series(bundled_lam, diff, query.block(), [0, 2, 5]))
        for delta, value in series:
            m = delta.bit_length() - 1
            assert co.correlator_thermo(bundled_lam, co.CorrelatorQuery(sigma_z, sigma_z, m)) == value
        assert co.correlator_series(bundled_lam, query.block(), [2, 0, 5]) == series
        assert list(co.powerlaw_check(bundled_lam, query, [2, 5]).points) == series[1:]
        assert co.powerlaw_check(bundled_lam, query, [2, 5]).prefactor == series[0][1]
        for m_values in ([], [1.0], [True], [-1]):
            with pytest.raises(ValueError, match="m"):
                co.correlator_series(bundled_lam, query, m_values)


def assert_null_vectors(matrix, structure):
    for kappa, _, geometric, null in structure:
        assert len(null) == geometric
        for x in null:
            assert np.linalg.norm(matrix @ x - kappa * x) <= 1e-12 * np.linalg.norm(x)


def greedy_clusters(values, tol):
    """Reference for co._cluster: each value joins the first earlier cluster with a member within tol."""
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), values[i].real, values[i].imag))
    clusters = []
    for i in order:
        for cluster in clusters:
            if any(abs(values[i] - values[j]) <= tol for j in cluster):
                cluster.append(i)
                break
        else:
            clusters.append([i])
    return clusters


@pytest.mark.parametrize("seed", range(4))
def test_cluster_matches_the_greedy_loop(seed):
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    near = np.repeat(centres, 3) + 4e-8 * (rng.standard_normal(90) + 1j * rng.standard_normal(90))
    chain = 0.5 + 0.8e-7 * rng.permutation(6)  # neighbours within tol, ends beyond it
    values = np.concatenate([near, chain, [0.0, 0.0]])
    assert co._cluster(values, co.CLUSTER_TOL) == greedy_clusters(values, co.CLUSTER_TOL)


TOL = co.CLUSTER_TOL
CRAFTED = {
    "chain of three": np.array([0.5, 0.5 + 0.6 * TOL, 0.5 + 1.2 * TOL, 0.25, -0.3]),
    "conjugate pair off by half the tolerance": np.array([0.3 + 0.4j, 0.3 + 0.5 * TOL - 0.4j, 0.9, -0.2]),
    "real with positive roundoff": np.array([1.0, -0.5 + 1e-16j, 0.2 + 0.1j, 0.2 - 0.1j]),
    "real with negative roundoff": np.array([1.0, -0.5 - 1e-16j, 0.2 + 0.1j, 0.2 - 0.1j]),
    "equal moduli": 0.5 * np.exp(0.25j * np.pi * np.arange(8)),
    # two values exactly 2^-24 < TOL from the conjugate of the first: the nearest partner is a tie
    "tied conjugate partners": np.array([0.5 + 0.5j, 0.5 - 0.5j + 2.0 ** -24, 0.5 - 0.5j - 2.0 ** -24, 0.9]),
}


def _as_entries(values, clusters):
    return [(complex(np.mean(values[m])), len(m), len(m), tuple(m)) for m in clusters]


def _bits(out):
    """Cluster entries with kappa as the hex of its parts, so the last bit and the sign of zero count."""
    return [(complex(k).real.hex(), complex(k).imag.hex(), *rest) for k, *rest in out]


def assert_matches_the_loops(values):
    clusters = co._cluster(values, TOL)
    assert clusters == loop_cluster(values, TOL)
    assert _bits(canonical(_as_entries(values, clusters))) == _bits(loop_canonical(_as_entries(values, clusters)))
    return clusters


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_cluster_and_canonical_match_the_loops_on_crafted_values(name):
    clusters = assert_matches_the_loops(CRAFTED[name])
    assert max(len(m) for m in clusters) == (3 if name == "chain of three" else 1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cluster_and_canonical_match_the_loops_on_seeded_blocks(d):
    # a product tree's K blocks hold the one eigenvalue 1/2 (36 and 28 times at d = 3), split by roundoff
    _, sectors = ch._sector_basis(d)
    for lam in [tc.product_isometry(d)] + [tc.random_isometry(d, seed) for seed in range(16)]:
        b = ch._sector_matrix(lam)
        for (where,) in sectors[2:]:
            assert_matches_the_loops(np.linalg.eig(b[where, where])[0])


@pytest.mark.parametrize("seed", range(4))
def test_cluster_and_canonical_match_the_loops_on_a_few_hundred_values(seed):
    # conjugate clusters, each member and its partner jittered apart within the tolerance, chains along the
    # real axis, values within the tolerance of the real axis with and without a partner, and exact duplicates
    rng = np.random.default_rng(seed)

    def jitter(n, scale=0.4 * TOL):
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    centres = np.repeat(rng.standard_normal(80) + 1j * rng.standard_normal(80), rng.integers(1, 4, 80))
    upper = centres + jitter(len(centres))
    chain = rng.standard_normal(4).repeat(5) + 0.8 * TOL * np.tile(np.arange(5), 4)
    axis = rng.standard_normal(40) + 1j * rng.uniform(-TOL, TOL, 40)
    values = np.concatenate([upper, upper.conj() + jitter(len(upper)), chain, axis, axis[:10].conj(), axis[:5]])
    clusters = assert_matches_the_loops(values[rng.permutation(len(values))])
    assert len(values) > 300 and max(len(m) for m in clusters) >= 5


class TestSpectralStructure:
    def test_diagonal_with_a_double_eigenvalue(self):
        a = np.diag([1.0, 0.5, 0.5, 0.25])
        structure = spectral_structure(a)
        assert [(k, alg, geo) for k, alg, geo, _ in structure] == [(1, 1, 1), (0.5, 2, 2), (0.25, 1, 1)]
        assert_null_vectors(a, structure)

    def test_jordan_block_has_one_eigenvector(self):
        # a 2x2 Jordan block at 1/2 plus the eigenvalue 1, in a rotated basis
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
        a = q @ np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]) @ q.T
        structure = spectral_structure(a)
        assert [(alg, geo) for _, alg, geo, _ in structure] == [(1, 1), (2, 1)]
        assert abs(structure[0][0] - 1.0) < 1e-12 and abs(structure[1][0] - 0.5) < 1e-7
        assert_null_vectors(a, structure)

    def test_a_multiple_of_the_identity_has_every_eigenvector(self):
        # the block minus kappa is roundoff alone, so its rank is judged against the block's norm, not its own
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        kappa, algebraic, geometric, _, _, _, in_block = co._spectral_structure(q @ (0.5 * np.eye(3)) @ q.T,
                                                                                 [slice(0, 3)], [1])
        assert abs(kappa[0] - 0.5) < 1e-15
        assert algebraic.tolist() == geometric.tolist() == in_block.ravel().tolist() == [3]

    @pytest.mark.parametrize("d, held", [(2, [0, 3, 6, 3]), (3, [0, 8, 36, 28])])
    def test_every_block_holds_all_its_eigenvectors_of_a_product_tree(self, d, held):
        kappa, _, _, _, _, offsets, in_block = co._sector_structure(tc.product_isometry(d))
        c = int(np.argmin(np.abs(kappa - 0.5)))
        assert np.diff(offsets)[:, c].tolist() == in_block[:, c].tolist() == held

    def test_non_normal_matrix_with_simple_eigenvalues(self):
        rng = np.random.default_rng(5)
        a = np.diag([0.9, 0.6, 0.3, 0.1]) + np.triu(rng.standard_normal((4, 4)), 1)
        s = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        a = s @ a @ np.linalg.inv(s)
        structure = spectral_structure(a)
        assert [(alg, geo) for _, alg, geo, _ in structure] == [(1, 1)] * 4
        assert np.abs(np.array([k for k, _, _, _ in structure]) - [0.9, 0.6, 0.3, 0.1]).max() < 1e-12
        assert_null_vectors(a, structure)


@pytest.mark.parametrize("d, seed", [(d, seed) for d in (2, 3, 4) for seed in (0, 1, 2)])
def test_seeded_spectrum_properties(d, seed):
    lam = tc.random_isometry(d, seed)
    adj = adjoint(ch.pair_descend_channel(lam))
    spec = co.exponent_spectrum(lam)
    assert sum(e.algebraic for e in spec.entries) == d ** 4
    assert all(1 <= e.geometric <= e.algebraic for e in spec.entries)
    assert abs(spec.entries[0].kappa - 1.0) < 1e-10
    assert max(abs(e.kappa) for e in spec.entries) <= 1 + 1e-10
    for kappa, _, _, ops in eager_spectrum(lam):
        for x in ops:
            assert np.abs(apply(adj, x) - kappa * x).max() <= 1e-8 * np.abs(x).max()
    kappas = np.array([e.kappa for e in spec.entries])
    dist = np.abs(np.linalg.eigvals(adj.matrix)[:, None] - kappas[None, :])
    assert dist.min(axis=1).max() <= 1e-10 and dist.min(axis=0).max() <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_conjugate_pairs_are_exact_and_list_the_upper_member_first(seed):
    # the order within a pair must not hang on the last bit of |kappa| or Re kappa
    kappas = [e.kappa for e in co.exponent_spectrum(tc.random_isometry(3, seed)).entries]
    lower = [i for i, k in enumerate(kappas) if k.imag < -co.CLUSTER_TOL]
    assert lower
    for i in lower:
        assert kappas[i - 1] == kappas[i].conjugate()
    assert [abs(k) for k in kappas] == sorted((abs(k) for k in kappas), reverse=True)


def test_real_negative_kappas_take_one_branch_of_the_log():
    spec = co.exponent_spectrum(tc.random_isometry(3, 1))
    negative = [e for e in spec.entries if e.kappa.real < 0 and abs(e.kappa.imag) <= co.CLUSTER_TOL]
    assert negative
    assert {np.copysign(1.0, e.kappa.imag) for e in negative} == {1.0}
    branches = {e.exponent.imag for e in negative}
    assert len(branches) == 1 and abs(branches.pop() - np.pi / np.log(2.0)) < 1e-14


@pytest.mark.parametrize("roundoff", [1e-16, -1e-16, 0.0, -0.0])
def test_real_negative_kappa_ignores_the_sign_of_roundoff(roundoff):
    structure = spectral_structure(np.diag([1.0, complex(-0.5, roundoff), 0.25]))
    kappa = structure[1][0]
    assert kappa.real == -0.5 and kappa.imag == 0.0 and np.copysign(1.0, kappa.imag) == 1.0
    assert abs(co._log2_or_none([kappa])[0] - complex(-1.0, np.pi / np.log(2.0))) < 1e-15


SECTOR_CASES = [("paper", None), ("flip", None), ("product", 2), ("product", 3)] + [
    (d, seed) for d in (2, 3, 4) for seed in range(16)
]


def _explicit_sector_basis(d):
    """Columns: the vectorized sector basis operators G_q, built from kron products of frame operators."""
    frame = ch._hermitian_frame(d)
    (p1, p2, w1, w2), _ = ch._sector_basis(d)
    ops = [ch.unvec(frame[:, i], d) for i in range(d * d)]
    product = np.stack([ch.vec(np.kron(a, b)) for a in ops for b in ops], axis=1)
    u = np.zeros((d ** 4, d ** 4))
    q = np.arange(d ** 4)
    u[p1, q] += w1
    u[p2, q] += w2
    return product @ u


@pytest.mark.parametrize("kind, arg", [("paper", None)] + [("product", d) for d in (2, 3, 4, 5)]
                         + [(d, seed) for d in (2, 3, 4, 5) for seed in (0, 1)])
def test_sector_matrix_is_the_reference_bit_for_bit(kind, arg):
    lam = case_isometry(kind, arg)
    assert np.array_equal(ch._sector_matrix(lam), sector_matrix_reference(lam))


class TestSectorResolvedSpectrum:
    @pytest.mark.parametrize("kind, arg", SECTOR_CASES)
    def test_matches_the_full_matrix_and_gives_eigenoperators(self, kind, arg):
        lam = case_isometry(kind, arg)
        spec = co.exponent_spectrum(lam)
        reference = full_exponent_structure(lam)
        assert [(e.algebraic, e.geometric) for e in spec.entries] == [(alg, geo) for _, alg, geo in reference]
        assert spec.diagonalizable == all(alg == geo for _, alg, geo in reference)
        assert max(abs(e.kappa - kappa) for e, (kappa, _, _) in zip(spec.entries, reference)) <= 1e-12
        adj = adjoint(ch.pair_descend_channel(lam)).matrix
        for kappa, _, geometric, ops in eager_spectrum(lam):
            assert len(ops) == geometric
            for op in ops:
                x = ch.vec(op)
                assert np.linalg.norm(adj @ x - kappa * x) <= 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sectors_are_invariant(self, d):
        # the sector basis rebuilt in the standard basis, column by column from products of
        # frame operators; 1 + S and each copy of S with 1 are invariant under the adjoint,
        # K_sym and K_anti under the map itself
        _, sectors = ch._sector_basis(d)
        basis = _explicit_sector_basis(d)
        assert np.abs(basis.conj().T @ basis - np.eye(d ** 4)).max() <= 1e-13
        pair = ch.pair_descend_channel(tc.random_isometry(d, 1)).matrix
        (unit,), (s1, s2), (k_sym,), (k_anti,) = sectors
        for mat, cols in [
            (pair.conj().T, np.r_[unit, s1, s2]),
            (pair.conj().T, np.r_[unit, s1]),
            (pair.conj().T, np.r_[unit, s2]),
            (pair, np.r_[k_sym]),
            (pair, np.r_[k_anti]),
        ]:
            w = basis[:, cols]
            assert np.linalg.norm(mat @ w - w @ (w.conj().T @ mat @ w)) <= 1e-13
        assert [s.stop - s.start for s in (s1, k_sym, k_anti)] == [
            d * d - 1, d * d * (d * d - 1) // 2, (d * d - 1) * (d * d - 2) // 2
        ]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_no_svd_for_seeded_isometries(self, d, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for seed in range(16):
            co.exponent_spectrum(tc.random_isometry(d, seed))

    def test_five_site_dimension_matches_eigvals(self):
        lam = tc.random_isometry(5, 0)
        spec = co.exponent_spectrum(lam)
        kappas = np.array([e.kappa for e in spec.entries])
        adj = adjoint(ch.pair_descend_channel(lam)).matrix
        evals = np.linalg.eigvals(adj)
        dist = np.abs(evals[:, None] - kappas[None, :])
        assert dist.min(axis=1).max() <= 1e-10 and dist.min(axis=0).max() <= 1e-10
        eager = eager_spectrum(lam)
        ops = np.stack([ch.vec(op) for *_, entry_ops in eager for op in entry_ops], axis=1)
        kappa_of_op = np.array([kappa for kappa, *_, entry_ops in eager for _ in entry_ops])
        assert ops.shape[1] == sum(e.geometric for e in spec.entries)
        residual = np.linalg.norm(adj @ ops - ops * kappa_of_op, axis=0)
        assert np.all(residual <= 1e-8 * np.linalg.norm(ops, axis=0))

    def test_six_site_dimension_fits_in_320_mib(self):
        # the spectrum reads one eig per sector block and an SVD of the whole matrix per shared cluster;
        # it builds no eigenoperator
        script = "from hbts import correlators as co, tensor_core as tc\n" \
                 "print(len(co.exponent_spectrum(tc.random_isometry(6, 0)).entries))"
        out = run_capped(["-c", script], 320 << 20)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1261"]


@pytest.mark.parametrize("d", [2, 3])
def test_sector_coordinates_invert_the_basis(d):
    rng = np.random.default_rng(d)
    ops = rng.standard_normal((3, d * d, d * d)) + 1j * rng.standard_normal((3, d * d, d * d))
    coords = ch._sector_coordinates(ops, d)
    basis = _explicit_sector_basis(d)
    for op, c in zip(ops, coords):
        assert np.abs(basis @ c - ch.vec(op)).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3])
def test_sector_operators_invert_the_coordinates(d):
    # the scatter to frame coordinates inverts the gather of the sector coordinates
    rng = np.random.default_rng(d)
    ops = rng.standard_normal((3, d * d, d * d)) + 1j * rng.standard_normal((3, d * d, d * d))
    frame = ch._from_sectors(ch._sector_coordinates(ops, d), d)
    assert np.abs(frame - ch._to_frame(ops)).max() <= 1e-13
    assert np.abs(ch._from_frame(frame) - ops).max() <= 1e-13


def test_lift_solves_again_where_the_eigenbasis_fails(monkeypatch):
    # D a rotated 3x3 Jordan block: its eig vectors are nearly parallel, so the solve through them
    # misses the residual bound and each column is solved again by LU
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    jordan = q @ (0.5 * np.eye(3) + np.eye(3, k=1)) @ q.T
    b = np.zeros((7, 7))
    b[0] = np.r_[1.0, rng.standard_normal(6)]
    b[1:4, 1:4] = b[4:, 4:] = jordan
    r = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    kappas = np.array([0.2, -0.3, 0.7j, 0.9, 0.1 + 0.1j])

    def residual(x):
        return np.linalg.norm(b @ x - x * kappas - r, axis=0) / (np.linalg.norm(x, axis=0) + np.linalg.norm(r, axis=0))

    assert residual(lift(b, r, kappas, *np.linalg.eig(jordan))).max() <= 1e-14
    monkeypatch.setattr(conftest, "LIFT_TOL", np.inf)  # the solve through the eigenbasis alone
    assert residual(lift(b, r, kappas, *np.linalg.eig(jordan))).min() > 1e-12


@pytest.mark.parametrize("d, seed", [(d, seed) for d in (2, 3, 4) for seed in range(4)])
def test_pair_difference_lies_in_the_doubly_traceless_sectors(d, seed):
    lam = tc.random_isometry(d, seed)
    diff = co.pair_difference_infinity(lam)
    x = ch._sector_coordinates(diff[None], d)[0]
    n = d * d
    assert np.abs(x[:2 * n - 1]).max() <= 1e-14 * np.abs(diff).max()


# log2 of the largest |kappa| of the K blocks of seeded trees: a generic block weighs every eigenvalue
# of K and none outside it, so neither kappa = 1 (exponent 0) nor a one-site eigenvalue (at d = 2,
# seed 3: kappa = 0.293, exponent -1.770) leads
LEADING_EXPONENTS = [(3, 0, -1.56647026), (3, 1, -1.50102797), (3, 2, -1.79253104), (3, 3, -1.75543917),
                     (2, 3, -2.71239566)]


@pytest.mark.parametrize("d, seed, exponent", LEADING_EXPONENTS)
def test_generic_block_reports_its_leading_exponent(d, seed, exponent):
    lam = tc.random_isometry(d, seed)
    series = co.powerlaw_check(lam, rand_herm(np.random.default_rng(seed), d * d))
    assert not series.is_eigenoperator and not series.degenerate
    assert abs(series.fitted_exponent - exponent) <= 1e-6
    assert all(abs(kappa - 1.0) > co.CLUSTER_TOL for kappa, _ in series.decomposition)


def test_two_site_z_block_has_one_exact_weight(bundled_lam, sigma_z):
    series = co.powerlaw_check(bundled_lam, co.CorrelatorQuery(sigma_z, sigma_z))
    heavy = [(k, c) for k, c in series.decomposition if abs(c) > 1e-12]
    assert len(heavy) == 1
    assert abs(heavy[0][0] - 0.25) <= 1e-12 and abs(heavy[0][1] - 4.0 / 27.0) <= 1e-12


def test_eigenoperators_carry_only_their_own_power(bundled_lam):
    checked = 0
    for entry, (*_, ops) in zip(co.exponent_spectrum(bundled_lam).entries, eager_spectrum(bundled_lam)):
        for op in ops:
            series = co.powerlaw_check(bundled_lam, op)
            if series.degenerate:
                continue
            assert series.is_eigenoperator and abs(series.kappa - entry.kappa) <= 1e-12
            assert abs(series.fitted_exponent - entry.exponent) <= 1e-12
            scale = max(abs(v) for _, v in series.points)
            heavy = [k for k, c in series.decomposition if abs(c) > 1e-12 * scale]
            assert len(heavy) == 1 and abs(heavy[0] - entry.kappa) <= 1e-12
            checked += 1
    assert checked >= 3


DECOMPOSITION_CASES = [("paper", None), ("product", 2), ("product", 3)] + [
    (d, seed) for d in (2, 3, 4) for seed in range(4)
]


@pytest.mark.parametrize("kind, arg", DECOMPOSITION_CASES)
def test_decomposition_is_exact(kind, arg):
    lam = case_isometry(kind, arg)
    d = lam.d
    block = rand_herm(np.random.default_rng(7), d * d)
    m_values = range(21)
    series = co.powerlaw_check(lam, block, m_values)
    pair = ch.pair_descend_channel(lam).matrix
    current = ch.vec(co.pair_difference_infinity(lam))
    reference = []
    for _ in m_values:
        reference.append(np.trace(block @ ch.unvec(current, d * d)))
        current = pair @ current
    reference = np.array(reference)
    scale = np.abs(reference).max()
    if kind == "product":  # a product tree is uncorrelated: rho2 - eta is exactly zero
        assert scale == 0.0 and series.degenerate and series.decomposition is None
        return
    assert not series.log_corrections
    kappas = np.array([k for k, _ in series.decomposition])
    coefficients = np.array([c for _, c in series.decomposition])
    rebuilt = (kappas[None, :] ** np.arange(21)[:, None]) @ coefficients
    assert np.abs(rebuilt - reference).max() <= 1e-12 * scale
    assert series.residual <= 1e-12 * scale
    assert abs(coefficients.sum() - series.prefactor) <= 1e-12 * scale
    spectrum = np.array([e.kappa for e in co.exponent_spectrum(lam).entries])
    assert np.abs(kappas[:, None] - spectrum[None, :]).min(axis=1).max() <= 1e-10
    for kappa, coefficient in series.decomposition:  # a Hermitian block gives a real series
        partner = np.argmin(np.abs(kappas - np.conj(kappa)))
        assert abs(kappas[partner] - np.conj(kappa)) <= 1e-10
        assert coefficients[partner] == np.conj(coefficient)


def _kappa_bits(kappa):
    return complex(kappa).real.hex(), complex(kappa).imag.hex()


@pytest.mark.parametrize("kind, arg", DECOMPOSITION_CASES)
def test_decomposition_kappas_are_the_spectrum_kappas(kind, arg):
    # both read the one kept structure, whose clusters span the blocks: a cluster that a doubly traceless block
    # shares with the one-site (S+-) eigenvalues, as the bundled isometry's kappa = 0, is one kappa in both
    lam = case_isometry(kind, arg)
    series = co.powerlaw_check(lam, rand_herm(np.random.default_rng(7), lam.d ** 2), range(21))
    if series.decomposition is None:  # a product tree
        return
    spectrum = {_kappa_bits(e.kappa) for e in co.exponent_spectrum(lam).entries}
    for kappa, _ in series.decomposition:
        assert _kappa_bits(kappa) in spectrum


@pytest.mark.parametrize("kind, arg", [("paper", None), ("flip", None), ("product", 2), ("product", 3), ("product", 4)]
                         + [(d, seed) for d in (2, 3, 4) for seed in range(3)])
def test_eager_spectrum_is_the_library_spectrum_bit_for_bit(kind, arg):
    lam = case_isometry(kind, arg)
    reference = eager_spectrum(tc.Isometry(lam.d, lam.v))
    assert [(e.kappa, e.algebraic, e.geometric) for e in co.exponent_spectrum(lam).entries] == \
        [entry[:3] for entry in reference]


@pytest.mark.parametrize("kind, arg", [("paper", None), (3, 0), (4, 1)])
def test_powerlaw_check_reuses_the_spectrum_eig(kind, arg, monkeypatch):
    # the kept cluster structure: no eig, no SVD of a degenerate cluster (the bundled isometry has three) and no
    # clustering or ordering of the clusters again
    lam = case_isometry(kind, arg)
    co.exponent_spectrum(lam)
    for module, name in ((np.linalg, "eig"), (np.linalg, "svd"), (co, "_cluster"), (co, "_canonical")):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError("%s ran again" % name)

        monkeypatch.setattr(module, name, refuse)
    series = co.powerlaw_check(lam, rand_herm(np.random.default_rng(7), lam.d ** 2), range(21))
    assert not series.degenerate
    assert series.residual <= 1e-12 * max(abs(v) for _, v in series.points)


def test_a_spectrum_takes_one_eig_per_sector_block_and_one_clustering(monkeypatch):
    calls = {"eig": 0, "_cluster": 0, "_canonical": 0}

    def counted(module, name):
        original = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran")

    for module, name in ((np.linalg, "eig"), (co, "_cluster"), (co, "_canonical")):
        counted(module, name)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    co.exponent_spectrum(tc.random_isometry(3, 0))
    assert calls == {"eig": 4, "_cluster": 1, "_canonical": 1}  # the blocks 1, D, K_sym and K_anti


@pytest.mark.parametrize("kind, arg", [("paper", None), (3, 0)])
def test_the_memo_keeps_one_read_only_spectral_structure(kind, arg):
    lam = case_isometry(kind, arg)
    co.exponent_spectrum(lam)
    spectral = [key for key in lam._memo if "spectr" in key or "structure" in key]
    assert spectral == ["spectral-structure"]
    for kept in (lam, pickle.loads(pickle.dumps(lam))):
        structure = kept._memo["spectral-structure"]
        arrays = [a for field in structure for a in (field if isinstance(field, tuple) else (field,))]
        # kappa, algebraic, geometric, each block's eig vectors and column order, offsets and in_block
        assert len(arrays) == 3 + 2 * 4 + 2 and all(isinstance(a, np.ndarray) for a in arrays)
        assert not any(a.flags.writeable for a in arrays)
    assert co.exponent_spectrum(pickle.loads(pickle.dumps(lam))) == co.exponent_spectrum(lam)


def test_jordan_cluster_terms_reproduce_the_series():
    # a 2x2 Jordan block at 1/2 among simple real and complex eigenvalues, in a rotated basis
    rng = np.random.default_rng(8)
    a = np.zeros((8, 8))
    a[:2, :2] = [[0.5, 1.0], [0.0, 0.5]]
    a[2:4, 2:4] = [[0.3, -0.4], [0.4, 0.3]]
    a[4:, 4:] = np.diag([0.9, -0.6, 0.2, 0.0])
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    matrix = q @ a @ q.T
    x, u = rng.standard_normal(8), rng.standard_normal(8) + 1j * rng.standard_normal(8)
    m_values = range(21)
    series = np.array([u @ np.linalg.matrix_power(matrix, m) @ x for m in m_values])
    terms = cluster_terms(matrix.T, x, np.stack([u.real, u.imag]), m_values)
    assert [(alg, geo) for kappa, alg, geo, _, _ in terms if abs(kappa - 0.5) < 1e-6] == [(2, 1)]
    assert sum(alg for _, alg, _, _, _ in terms) == 8
    assert np.abs(sum(t for *_, t in terms) - series).max() <= 1e-12 * np.abs(series).max()
    assert abs(sum(c for _, _, _, c, _ in terms) - series[0]) <= 1e-12 * np.abs(series).max()
    powers_only = sum(c * kappa ** np.arange(21) for kappa, _, _, c, _ in terms)
    assert np.abs(powers_only - series).max() > 1e-3 * np.abs(series).max()  # the m kappa^(m-1) part matters


@pytest.mark.parametrize("seed", range(4))
def test_repeated_real_clusters_have_exactly_real_coefficients(seed):
    # a double real eigenvalue 0.7 and a 2x2 Jordan block at -0.4 among conjugate pairs, in a rotated basis
    rng = np.random.default_rng(seed)
    a = np.zeros((9, 9))
    a[:2, :2] = np.diag([0.7, 0.7])
    a[2:4, 2:4] = [[-0.4, 1.0], [0.0, -0.4]]
    a[4:6, 4:6] = [[0.3, -0.4], [0.4, 0.3]]
    a[6:8, 6:8] = [[-0.1, 0.6], [-0.6, -0.1]]
    a[8, 8] = 0.2
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    matrix = q @ a @ q.T
    x, u = rng.standard_normal(9), rng.standard_normal(9)
    m_values = range(21)
    series = np.array([u @ np.linalg.matrix_power(matrix, m) @ x for m in m_values])
    terms = cluster_terms(matrix.T, x, np.stack([u.real, u.imag]), m_values)
    real = sorted((round(kappa.real, 6), alg, geo) for kappa, alg, geo, _, _ in terms if kappa.imag == 0)
    assert real == [(-0.4, 2, 1), (0.2, 1, 1), (0.7, 2, 2)]
    coefficients = {kappa: c for kappa, _, _, c, _ in terms}
    for kappa, c in coefficients.items():  # exactly: a real kappa's weight is real, a pair's weights conjugate
        assert c == coefficients[kappa.conjugate()].conjugate()
    assert np.abs(sum(t for *_, t in terms) - series).max() <= 1e-12 * np.abs(series).max()


@pytest.mark.xfail(strict=True, reason="a 3x3 Jordan block splits by about eps^(1/3) (here into three eigenvalues "
                   "6e-6 apart, far beyond CLUSTER_TOL), taken as simple clusters whose weights reach 8e9 times "
                   "the series; the terms miss the series by 2e-6 relative and no defect is flagged")
def test_three_by_three_jordan_cluster_terms_reproduce_the_series():
    # a 3x3 Jordan block at 1/2 among simple real and complex eigenvalues, in a rotated basis
    rng = np.random.default_rng(8)
    a = np.zeros((8, 8))
    a[:3, :3] = [[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]
    a[3:5, 3:5] = [[0.3, -0.4], [0.4, 0.3]]
    a[5:, 5:] = np.diag([0.9, -0.6, 0.1])
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    matrix = q @ a @ q.T
    x, u = rng.standard_normal(8), rng.standard_normal(8) + 1j * rng.standard_normal(8)
    m_values = range(21)
    series = np.array([u @ np.linalg.matrix_power(matrix, m) @ x for m in m_values])
    terms = cluster_terms(matrix.T, x, np.stack([u.real, u.imag]), m_values)
    assert [(alg, geo) for kappa, alg, geo, _, _ in terms if abs(kappa - 0.5) < 1e-3] == [(3, 1)]
    assert np.abs(sum(t for *_, t in terms) - series).max() <= 1e-12 * np.abs(series).max()
