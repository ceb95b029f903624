"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hbts import channels as ch
from hbts import correlators as co
from hbts import finite_state as fs
from hbts import mera_bounds as mb
from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts import thermo
from hbts.cli import main, paper_lambda_path

from conftest import eager_spectrum, rand_top


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL — %s" % (number, description))
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, "criterion %d exceeded %.0f s (%.1f s)" % (number, limit_seconds, elapsed)
    print("ACCEPTANCE %d: PASS — %s (%.2f s)" % (number, description, elapsed))


@pytest.fixture(scope="module")
def bundled_lam():
    return tc.load_isometry(paper_lambda_path())


@pytest.fixture(scope="module")
def bundled_interaction(bundled_lam):
    return ph.build_interaction(bundled_lam)  # uniform weights, auto window


def test_criterion_1_even_lattice_degeneracies(bundled_lam, bundled_interaction):
    with criterion(1, "even-N ground degeneracy 2*2^(N/2) with zero energy", 5.0):
        expected = {4: 8, 6: 16, 8: 32}
        for N, degeneracy in expected.items():
            rep = ph.diagonalize(ph.assemble(bundled_interaction, N))
            assert abs(rep.ground_energy) <= 1e-10, N
            assert rep.degeneracy == degeneracy, N
            assert len(rep.spectrum) == 2 ** N


def test_criterion_2_odd_lattice_frustration(bundled_interaction):
    with criterion(2, "odd-N ground energy strictly positive", 5.0):
        for N in (5, 7):
            rep = ph.diagonalize(ph.assemble(bundled_interaction, N))
            assert rep.ground_energy > 1e-6, N


def test_criterion_3_grown_subspace(bundled_lam, bundled_interaction):
    with criterion(3, "grown subspace + translate exhaust the N=8 ground space", 10.0):
        rep = ph.grown_subspace_check(bundled_lam, bundled_interaction, 8)
        assert rep.dim_grown == 16
        assert rep.max_h_residual <= 1e-10
        assert rep.max_local_energy <= 1e-10
        assert rep.dim_union == 32
        degeneracy = ph.diagonalize(ph.assemble(bundled_interaction, 8)).degeneracy
        assert rep.dim_union == degeneracy


def test_criterion_4_rank_bounds():
    with criterion(4, "kernel-rank bounds over 10 seeds at d=2 and d=3", 30.0):
        for d in (2, 3):
            for seed in range(10):
                lam = tc.random_isometry(d, seed)
                rank3 = tc.numerical_rank(thermo.reduced_infinity(lam, 3))
                rank4 = tc.numerical_rank(thermo.reduced_infinity(lam, 4))
                assert rank3 <= 2 * d * d, (d, seed)
                assert rank4 <= d * d + d ** 3, (d, seed)
                if d == 3:
                    kernel = ph.kernel_basis(thermo.reduced_infinity(lam, 3))
                    assert kernel.shape[1] >= 9, seed


def test_criterion_5_adjoint_nullity():
    with criterion(5, "three-site interaction vanishes under the extension adjoint", 10.0):
        checked = 0
        for seed in (7, 1, 2, 3):
            lam = tc.random_isometry(3, seed)
            hs = ph.build_interaction(lam)
            if hs.nu != 3:
                continue
            rep = ph.adjoint_nullity_check(lam, hs)
            if not rep.precondition_met:
                continue
            assert rep.residual <= 1e-10, seed
            checked += 1
        assert checked >= 3


def test_criterion_6_recursion_oracle(bundled_lam, diag_top):
    with criterion(6, "all four level recursions match brute force at n <= 4", 60.0):
        rep = fs.recursion_check(bundled_lam, diag_top, 4)
        assert rep.max_residual <= 1e-10
        for seed in range(5):
            lam = tc.random_isometry(2, 100 + seed)
            top = rand_top(2, 200 + seed)
            rep = fs.recursion_check(lam, top, 4)
            assert rep.max_residual <= 1e-10, seed


def test_criterion_7_correlator_consistency(bundled_lam, diag_top, sigma_z, sigma_x):
    with criterion(7, "finite-n correlators equal the descend formula; limit decays", 30.0):
        states = {n: fs.build_state(bundled_lam, diag_top, n) for n in (1, 2, 3, 4)}
        pair = ch.pair_descend_channel(bundled_lam)
        for theta, theta_prime in ((sigma_z, sigma_z), (sigma_x, sigma_x), (sigma_z, sigma_x)):
            block = np.kron(theta.matrix, theta_prime.matrix)
            for m, delta in ((0, 1), (1, 2), (2, 4), (3, 8)):
                brute = fs.correlator_finite(states[4], theta, theta_prime, delta)
                source = states[4 - m]
                diff = fs.reduced_avg(source, 2).matrix - fs.classical_pair_avg(source).matrix
                moved = ch.unvec(np.linalg.matrix_power(pair.matrix, m) @ ch.vec(diff), 4)
                formula = complex(np.trace(block @ moved))
                assert abs(brute - formula) <= 1e-10, (m, delta)
        for obs in (sigma_z, sigma_x):
            tail = co.correlator_thermo(bundled_lam, co.CorrelatorQuery(obs, obs, 60))
            assert abs(tail) <= 1e-12


def test_criterion_8_powerlaw_property(bundled_lam):
    with criterion(8, "eigenoperator correlator ratios reproduce their eigenvalues", 10.0):
        spectrum = co.exponent_spectrum(bundled_lam)
        dc = ch.descend_channels(bundled_lam)
        for square in (dc.left, dc.right, dc.average, ch.pair_descend_channel(bundled_lam)):
            assert np.abs(np.linalg.eigvals(square.matrix)).max() <= 1 + 1e-10
        assert max(abs(e.kappa) for e in spectrum.entries) <= 1 + 1e-10

        resolvable_floor = 1e-13
        checked = 0
        for kappa, _, _, ops in eager_spectrum(bundled_lam):
            if not 1e-6 < abs(kappa) < 1 - 1e-10:
                continue
            for x in ops:
                series = co.powerlaw_check(bundled_lam, x, range(0, 16))
                values = [v for _, v in series.points]
                if max(abs(v) for v in values) < 1e-14:
                    continue  # zero overlap with the driving state: nothing to fit
                pairs = 0
                for i in range(len(values) - 1):
                    if min(abs(values[i]), abs(values[i + 1])) < resolvable_floor:
                        continue
                    assert abs(values[i + 1] / values[i] - kappa) < 1e-8, kappa
                    pairs += 1
                assert pairs > 0
                checked += 1
        assert checked >= 1


def test_criterion_9_mera_bounds():
    with criterion(9, "renormalization-topology rank bounds", 1.0):
        cases = {("binary", 3): (5, 162), ("binary", 2): (6, 48), ("ternary", 2): (7, 96)}
        for (topology, d), (nu, bound) in cases.items():
            out = mb.mera_rank_bound(topology, d)
            assert (out.nu, out.bound) == (nu, bound)
            assert out.bound < d ** out.nu


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "every CLI command is byte-stable across reruns", 120.0):
        lam_path = paper_lambda_path()
        commands = {
            "validate": ["validate", "--isometry", lam_path],
            "random-isometry": ["random-isometry", "--d", "2", "--seed", "9"],
            "thermo": ["thermo", "--isometry", lam_path, "--nu", "4"],
            "exponents": ["exponents", "--isometry", lam_path],
            "correlate": ["correlate", "--isometry", lam_path, "--theta", "z",
                          "--theta-prime", "z", "--m-max", "8"],
            "finite-check": ["finite-check", "--isometry", lam_path, "--top", "diag", "--n-max", "3"],
            "parent": ["parent", "--isometry", lam_path],
            "diag": ["diag", "--isometry", lam_path, "--N", "6"],
            "subspace-check": ["subspace-check", "--isometry", lam_path, "--N", "6"],
            "mera-bounds": ["mera-bounds", "--topology", "binary", "--d", "2"],
        }
        for name, argv in commands.items():
            blobs = []
            for attempt in (0, 1):
                target = str(tmp_path / ("%s-%d.out" % (name, attempt)))
                assert main(argv + ["-o", target]) == 0, name
                blobs.append(open(target, "rb").read())
            assert blobs[0] == blobs[1], name
        capsys.readouterr()
