import numpy as np
import pytest

from hbts import channels as ch
from hbts import finite_state as fs
from hbts import tensor_core as tc
from hbts.errors import ResourceLimitError

from conftest import apply, level_states_reference, rand_top


def basis_state(d, digits):
    index = 0
    for x in digits:
        index = index * d + x
    amp = np.zeros(d ** len(digits), dtype=complex)
    amp[index] = 1.0
    return amp


class TestBuildState:
    def test_depth_one_amplitudes_are_top_entries(self, bundled_lam, diag_top):
        psi = fs.build_state(bundled_lam, diag_top, 1)
        expect = (basis_state(2, [0, 0]) + basis_state(2, [1, 1])) / np.sqrt(2)
        assert np.abs(psi.amplitudes - expect).max() < 1e-15

    def test_depth_two_corner_top_gives_0101(self, bundled_lam, corner_top):
        psi = fs.build_state(bundled_lam, corner_top, 2)
        assert np.abs(psi.amplitudes - basis_state(2, [0, 1, 0, 1])).max() < 1e-15

    def test_norm_one_at_depth_three(self, bundled_lam, diag_top):
        psi = fs.build_state(bundled_lam, diag_top, 3)
        assert abs(psi.norm() - 1.0) < 1e-12

    def test_norm_preserved_at_every_depth(self, bundled_lam):
        top = rand_top(2, 3)
        for n in range(1, 5):
            assert abs(fs.build_state(bundled_lam, top, n).norm() - 1.0) <= 1e-10

    def test_budget_exceeded(self, bundled_lam, diag_top):
        with pytest.raises(ResourceLimitError) as err:
            fs.build_state(bundled_lam, diag_top, 5)
        assert err.value.required == 2 ** 32


class TestReducedAvg:
    def test_bell_single_site(self, bundled_lam, diag_top):
        psi = fs.build_state(bundled_lam, diag_top, 1)
        out = fs.reduced_avg(psi, 1)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-15

    def test_alternating_pattern_pair_average(self, bundled_lam, corner_top):
        psi = fs.build_state(bundled_lam, corner_top, 2)
        out = fs.reduced_avg(psi, 2)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0b01, 0b01] = 0.5
        expect[0b10, 0b10] = 0.5
        assert np.abs(out.matrix - expect).max() < 1e-15

    def test_single_site_average_equals_descend_iterates(self, bundled_lam, diag_top):
        psi = fs.build_state(bundled_lam, diag_top, 3)
        brute = fs.reduced_avg(psi, 1).matrix
        dc = ch.descend_channels(bundled_lam)
        base = fs.single_site_base(diag_top).matrix
        iterated = apply(dc.average, apply(dc.average, base))
        assert np.abs(brute - iterated).max() < 1e-12

    @pytest.mark.parametrize("d, n, nu", [(2, 3, 2), (2, 2, 3), (2, 4, 4), (3, 2, 3), (3, 3, 4)])
    def test_cyclic_marginal_identity(self, bundled_lam, d, n, nu):
        """Tracing either end site out of the averaged nu-site window gives the (nu-1)-site average."""
        lam = bundled_lam if d == 2 else tc.random_isometry(d, 8)
        psi = fs.build_state(lam, rand_top(d, 8), n)
        wide = fs.reduced_avg(psi, nu)
        narrow = fs.reduced_avg(psi, nu - 1).matrix
        for keep in (range(1, nu), range(2, nu + 1)):
            assert np.abs(tc.partial_trace(wide, keep).matrix - narrow).max() < 1e-12

    def test_window_out_of_range(self, bundled_lam, diag_top):
        psi = fs.build_state(bundled_lam, diag_top, 2)
        with pytest.raises(ValueError):
            fs.reduced_avg(psi, 5)


class TestSingleSiteBase:
    def test_corner_top(self, corner_top):
        out = fs.single_site_base(corner_top)
        expect = np.zeros((2, 2))
        expect[0, 0] = 1.0
        assert np.abs(out.matrix - expect).max() < 1e-15

    def test_diag_top(self, diag_top):
        assert np.abs(fs.single_site_base(diag_top).matrix - np.eye(2) / 2).max() < 1e-15

    def test_matches_depth_one_average(self, bundled_lam):
        top = rand_top(2, 12)
        brute = fs.reduced_avg(fs.build_state(bundled_lam, top, 1), 1).matrix
        assert np.abs(fs.single_site_base(top).matrix - brute).max() < 1e-12


class TestRecursionCheck:
    def test_bundled_tree(self, bundled_lam, diag_top):
        rep = fs.recursion_check(bundled_lam, diag_top, 4)
        assert rep.max_residual <= 1e-10

    def test_product_tree(self, product_lam):
        rep = fs.recursion_check(product_lam, rand_top(2, 5), 3)
        assert rep.max_residual <= 1e-12

    def test_random_tree(self):
        lam = tc.random_isometry(2, 42)
        rep = fs.recursion_check(lam, rand_top(2, 42), 4)
        assert rep.max_residual <= 1e-10

    @pytest.mark.parametrize("d, n_max", [(2, 4), (3, 3), (4, 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_trees_over_all_four_states(self, d, n_max, seed):
        rep = fs.recursion_check(tc.random_isometry(d, seed), rand_top(d, seed), n_max)
        assert rep.n_max == n_max
        assert rep.max_residual <= 1e-12

    def test_depth_too_small(self, bundled_lam, diag_top):
        with pytest.raises(ValueError):
            fs.recursion_check(bundled_lam, diag_top, 1)


class TestLevelStates:
    @pytest.mark.parametrize(
        "d, seed, n_max", [(2, None, 4)] + [(2, s, 4) for s in range(3)] + [(d, s, 3) for d in (3, 4) for s in range(3)]
    )
    def test_all_four_states_match_brute_force(self, bundled_lam, d, seed, n_max):
        lam = bundled_lam if seed is None else tc.random_isometry(d, seed)
        top = rand_top(d, 77)
        for n in range(1, n_max + 1):
            psi = fs.build_state(lam, top, n)
            lv = fs.level_states(lam, top, n)
            assert np.abs(lv.single.matrix - fs.reduced_avg(psi, 1).matrix).max() < 1e-12
            assert np.abs(lv.pair.matrix - fs.reduced_avg(psi, 2).matrix).max() < 1e-12
            assert np.abs(lv.classical_pair.matrix - fs.classical_pair_avg(psi).matrix).max() < 1e-12
            assert np.abs(lv.same_site_pair.matrix - fs.same_site_pair_avg(psi).matrix).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_match_the_depth_one_formulas(self, d):
        for seed in range(2):
            lam, top = tc.random_isometry(d, seed), rand_top(d, seed)
            for n in (1, 2, 3):
                lv = fs.level_states(lam, top, n)
                reference = level_states_reference(lam, top, n)
                for got, want in zip((lv.single, lv.pair, lv.classical_pair, lv.same_site_pair), reference):
                    assert np.abs(got.matrix - want).max() <= 1e-14
            assert np.abs(fs.single_site_base(top).matrix - level_states_reference(lam, top, 1)[0]).max() <= 1e-14

    def test_classical_pair_shares_trace_and_marginals(self, bundled_lam):
        psi = fs.build_state(bundled_lam, rand_top(2, 13), 3)
        eta = fs.classical_pair_avg(psi)
        pair = fs.reduced_avg(psi, 2)
        assert abs(np.trace(eta.matrix) - np.trace(pair.matrix)) < 1e-12
        for keep in ([1], [2]):
            a = tc.partial_trace(eta, keep).matrix
            b = tc.partial_trace(pair, keep).matrix
            assert np.abs(a - b).max() < 1e-12


class TestCorrelatorFinite:
    def test_product_state_has_no_correlations(self, product_lam, sigma_z, corner_top):
        psi = fs.build_state(product_lam, corner_top, 2)
        for delta in (1, 2, 3):
            assert abs(fs.correlator_finite(psi, sigma_z, sigma_z, delta)) < 1e-14

    def test_bell_state_perfect_correlation(self, bundled_lam, diag_top, sigma_z):
        psi = fs.build_state(bundled_lam, diag_top, 1)
        value = fs.correlator_finite(psi, sigma_z, sigma_z, 1)
        assert abs(value - 1.0) < 1e-12

    def test_depth_four_matches_pair_descend_formula(self, bundled_lam, diag_top, sigma_z):
        # one application of the pair-descend map on the depth-3 difference
        psi4 = fs.build_state(bundled_lam, diag_top, 4)
        brute = fs.correlator_finite(psi4, sigma_z, sigma_z, 2)
        psi3 = fs.build_state(bundled_lam, diag_top, 3)
        diff = fs.reduced_avg(psi3, 2).matrix - fs.classical_pair_avg(psi3).matrix
        pair = ch.pair_descend_channel(bundled_lam)
        formula = np.trace(np.kron(sigma_z.matrix, sigma_z.matrix) @ apply(pair, diff))
        assert abs(brute - formula) < 1e-10

    def test_correlator_level_matches_brute_force(self, bundled_lam, sigma_z):
        top = rand_top(2, 30)
        for n in (3, 4):
            psi = fs.build_state(bundled_lam, top, n)
            for m in range(0, n):
                brute = fs.correlator_finite(psi, sigma_z, sigma_z, 2 ** m)
                via = fs.correlator_level(bundled_lam, top, n, sigma_z, sigma_z, m)
                assert abs(brute - via) < 1e-10

    def test_distance_out_of_range(self, bundled_lam, diag_top, sigma_z):
        psi = fs.build_state(bundled_lam, diag_top, 2)
        with pytest.raises(ValueError):
            fs.correlator_finite(psi, sigma_z, sigma_z, 4)
        with pytest.raises(ValueError):
            fs.correlator_finite(psi, sigma_z, sigma_z, 0)

    def test_level_distance_exponent_bounds(self, bundled_lam, diag_top, sigma_z):
        with pytest.raises(ValueError):
            fs.correlator_level(bundled_lam, diag_top, 3, sigma_z, sigma_z, 3)
