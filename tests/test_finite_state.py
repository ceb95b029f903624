import time

import numpy as np
import pytest

from hbts import channels as ch
from hbts import correlators as co
from hbts import finite_state as fs
from hbts import tensor_core as tc
from hbts.errors import ResourceLimitError

from conftest import apply, level_states_reference, rand_herm, rand_top


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
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_norm_preserved_at_every_depth(self, bundled_lam):
        top = rand_top(2, 3)
        for n in range(1, 5):
            assert abs(np.linalg.norm(fs.build_state(bundled_lam, top, n).amplitudes) - 1.0) <= 1e-10

    def test_depth_must_be_a_positive_integer(self, bundled_lam, diag_top):
        for n in (0, 2.0, True, "2"):  # True would build the depth-1 state
            with pytest.raises(ValueError, match="tree depth n must be an integer"):
                fs.build_state(bundled_lam, diag_top, n)
        assert np.array_equal(fs.build_state(bundled_lam, diag_top, np.int64(2)).amplitudes,
                              fs.build_state(bundled_lam, diag_top, 2).amplitudes)

    def test_budget_exceeded(self, bundled_lam, diag_top):
        with pytest.raises(ResourceLimitError) as err:
            fs.build_state(bundled_lam, diag_top, 5)
        assert err.value.required == 2 ** 32
        assert str(err.value) == "depth 5 needs d^(2^n) amplitudes: 2^(2^5) = 4294967296, budget is 65536"

    def test_budget_is_checked_before_the_power_is_built(self, bundled_lam, diag_top):
        # 2^(2^14) has 4933 digits, more than Python converts to a string
        with pytest.raises(ResourceLimitError) as err:
            fs.build_state(bundled_lam, diag_top, 14)
        assert err.value.required is None
        assert str(err.value) == "depth 14 needs d^(2^n) amplitudes: 2^(2^14), budget is 65536"

    @pytest.mark.parametrize("n", [10 ** 8, 10 ** 18])
    def test_a_huge_depth_is_refused_without_building_its_exponent(self, bundled_lam, diag_top, n):
        # 2 ** (10 ** 8) alone takes about 0.4 s to build; 2 ** (10 ** 18) would not fit in memory
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            fs.build_state(bundled_lam, diag_top, n)
        assert time.perf_counter() - start < 0.05
        assert err.value.required is None
        assert str(err.value) == "depth %d needs d^(2^n) amplitudes: 2^(2^%d), budget is 65536" % (n, n)

    def test_a_depth_past_the_decimal_string_limit_is_refused_on_the_budget(self, bundled_lam, diag_top):
        # 10^5000 has more digits than Python converts to a string, so the refusal gives its order of magnitude
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            fs.build_state(bundled_lam, diag_top, 10 ** 5000)
        assert str(err.value) == "depth ~10^5000 needs d^(2^n) amplitudes: 2^(2^~10^5000), budget is 65536"
        assert time.perf_counter() - start < 0.05


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
        base = fs.reduced_avg(fs.build_state(bundled_lam, diag_top, 1), 1).matrix
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
        for nu in (5, 0, True, 1.0):  # True would be read as nu = 1
            with pytest.raises(ValueError, match="window size"):
                fs.reduced_avg(psi, nu)


class TestSingleSiteBase:
    """The one-site base of the level recursions: the average of the depth-1 tree, whose two sites hold the top
    tensor's amplitudes."""

    def test_corner_top(self, bundled_lam, corner_top):
        out = fs.reduced_avg(fs.build_state(bundled_lam, corner_top, 1), 1)
        expect = np.zeros((2, 2))
        expect[0, 0] = 1.0
        assert np.abs(out.matrix - expect).max() < 1e-15

    def test_diag_top(self, bundled_lam, diag_top):
        out = fs.reduced_avg(fs.build_state(bundled_lam, diag_top, 1), 1)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-15


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
        for n_max in (1, 3.0, True):
            with pytest.raises(ValueError, match="n_max must be an integer"):
                fs.recursion_check(bundled_lam, diag_top, n_max)


class TestLevelStates:
    @pytest.mark.parametrize(
        "d, seed, n_max", [(2, None, 4)] + [(2, s, 4) for s in range(3)] + [(d, s, 3) for d in (3, 4) for s in range(3)]
    )
    def test_all_four_states_match_brute_force(self, bundled_lam, d, seed, n_max):
        lam = bundled_lam if seed is None else tc.random_isometry(d, seed)
        top = rand_top(d, 77)
        for n in range(1, n_max + 1):
            psi = fs.build_state(lam, top, n)
            rho1, rho2, eta, omega = level_states_reference(lam, top, n)
            assert np.abs(rho1 - fs.reduced_avg(psi, 1).matrix).max() < 1e-12
            assert np.abs(rho2 - fs.reduced_avg(psi, 2).matrix).max() < 1e-12
            assert np.abs(eta - fs.classical_pair_avg(psi).matrix).max() < 1e-12
            assert np.abs(omega - fs.same_site_pair_avg(psi).matrix).max() < 1e-12

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

    @pytest.mark.parametrize("d, seed", [(2, None), (3, 0), (3, 1), (4, 0)])
    def test_correlator_level_matches_brute_force(self, bundled_lam, sigma_z, d, seed):
        # the depth-n correlator at distance 2**m is the m-th pair-descend image of the depth n - m states' rho2 - eta
        lam = bundled_lam if seed is None else tc.random_isometry(d, seed)
        rng = np.random.default_rng(30)
        top = rand_top(d, 30)
        observables = [(sigma_z, sigma_z)] if seed is None else []
        observables.append((tc.Observable(d, rand_herm(rng, d)), tc.Observable(d, rand_herm(rng, d))))
        for n in (2, 3, 4) if d == 2 else (2, 3):
            psi = fs.build_state(lam, top, n)
            for theta, theta_prime in observables:
                block = np.kron(theta.matrix, theta_prime.matrix)
                for m in range(0, n):
                    brute = fs.correlator_finite(psi, theta, theta_prime, 2 ** m)
                    _, rho2, eta, _ = level_states_reference(lam, top, n - m)
                    via = next(co.pair_descend_series(lam, rho2 - eta, block, [m]))[1]
                    assert abs(brute - via) < 1e-12

    def test_distance_out_of_range(self, bundled_lam, diag_top, sigma_z):
        psi = fs.build_state(bundled_lam, diag_top, 2)
        for delta in (4, 0, True, 1.0):  # True would be read as delta = 1
            with pytest.raises(ValueError, match="distance"):
                fs.correlator_finite(psi, sigma_z, sigma_z, delta)
