import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbts import channels as ch
from hbts import correlators as co
from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts import thermo
from hbts.errors import DegenerateFixedPointError, ValidationError

from conftest import (apply, case_isometry, classical_pair_reference, dense_extension, fixed_point, flip_isometry,
                      growth_channel, level_states_reference, pair_solve_reference, power_iteration_fixed_point, rand_top,
                      run_capped, tensor)


def copy_isometry():
    # |0> -> |00>, |1> -> |11>: its descend channel is pure dephasing with a
    # two-dimensional space of stationary states
    v = np.zeros((4, 2), dtype=complex)
    v[0b00, 0] = 1.0
    v[0b11, 1] = 1.0
    return tc.Isometry(2, v)


def swap_isometry():
    # |0> -> |11>, |1> -> |00>: descend is a bit flip, whose unique stationary state is 1/2 but whose
    # peripheral eigenvalue -1 keeps it from mixing
    v = np.zeros((4, 2), dtype=complex)
    v[0b11, 0] = 1.0
    v[0b00, 1] = 1.0
    return tc.Isometry(2, v)


class TestFixedPoint:
    def test_bundled_descend_fixed_point_is_maximally_mixed(self, bundled_lam):
        res = thermo.single_site_infinity(bundled_lam)
        assert np.abs(res.state.matrix - np.eye(2) / 2).max() < 1e-12
        assert res.residual <= 1e-10

    def test_bundled_descend_spectrum(self, bundled_lam):
        moduli = np.sort(np.abs(np.linalg.eigvals(ch.descend_channels(bundled_lam).average.matrix)))
        assert np.abs(moduli - np.array([0.0, 0.0, 2 ** -0.5, 1.0])).max() < 1e-12

    def test_product_descend_fixed_point(self, product_lam):
        res = thermo.single_site_infinity(product_lam)
        expect = np.zeros((2, 2))
        expect[0, 0] = 1.0
        assert np.array_equal(res.state.matrix, expect)  # exact, so a product tree's rho2 - eta is exactly 0

    def test_pair_descend_fixed_point_matches_power_iteration(self, bundled_lam):
        pair = ch.pair_descend_channel(bundled_lam)
        res = fixed_point(pair)
        assert res.residual <= 1e-10
        oracle = power_iteration_fixed_point(pair.matrix, 4)
        assert np.abs(res.state.matrix - oracle).max() < 1e-10

    def test_degenerate_fixed_point_raises_with_multiplicity(self):
        with pytest.raises(DegenerateFixedPointError) as err:
            thermo.single_site_infinity(copy_isometry())
        assert err.value.multiplicity == 2

    @pytest.mark.parametrize("lam, multiplicity", [(copy_isometry(), 2), (swap_isometry(), 1)], ids=["copy", "swap"])
    def test_non_mixing_descend_is_refused_with_its_multiplicity(self, lam, multiplicity):
        with pytest.raises(DegenerateFixedPointError, match="^averaged descend channel is not mixing") as err:
            thermo.single_site_infinity(lam)
        assert err.value.multiplicity == multiplicity
        for nu in (1, 2, 3, 4):
            with pytest.raises(DegenerateFixedPointError):
                thermo.reduced_infinity(lam, nu)

    def test_state_failing_its_own_equation_is_refused(self, monkeypatch):
        monkeypatch.setattr(thermo, "TAU_FIX", -1.0)
        with pytest.raises(ValidationError, match="fails its own equation"):
            thermo.single_site_infinity(tc.random_isometry(2, 0))

    @settings(max_examples=16, derandomize=True, database=None, deadline=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_dense_eigenvector_and_power_iteration(self, d, seed):
        lam = tc.random_isometry(d, seed)
        res = thermo.single_site_infinity(lam)
        assert res.residual <= thermo.TAU_FIX
        average = ch.descend_channels(lam).average
        assert np.abs(res.state.matrix - fixed_point(average).state.matrix).max() <= 1e-12
        assert np.abs(res.state.matrix - power_iteration_fixed_point(average.matrix, d, tol=1e-14)).max() <= 1e-12

    def test_rectangular_channel_rejected(self, bundled_lam):
        with pytest.raises(ValueError):
            fixed_point(growth_channel(bundled_lam))


class TestTwoSite:
    def test_product_state(self, product_lam):
        out = thermo.two_site_infinity(product_lam)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.abs(out.matrix - expect).max() < 1e-12

    def test_self_consistency(self, bundled_lam):
        rho2 = thermo.two_site_infinity(bundled_lam)
        rho1 = thermo.single_site_infinity(bundled_lam).state
        dc = ch.descend_channels(bundled_lam)
        again = (
            apply(tensor(dc.right, dc.left), rho2) + apply(growth_channel(bundled_lam), rho1)
        ) / 2.0
        assert np.abs(again - rho2.matrix).max() <= 1e-10

    def test_matches_truncated_series(self, bundled_lam):
        # independent oracle: sum the geometric series to 40 terms
        rho1 = thermo.single_site_infinity(bundled_lam).state
        dc = ch.descend_channels(bundled_lam)
        rl = tensor(dc.right, dc.left)
        term = apply(growth_channel(bundled_lam), rho1)
        acc = np.zeros((4, 4), dtype=complex)
        for m in range(41):
            acc += term / 2.0 ** (m + 1)
            term = apply(rl, term)
        assert np.abs(acc - thermo.two_site_infinity(bundled_lam).matrix).max() <= 1e-10

    def test_both_marginals_equal_single_site_state(self, bundled_lam):
        rho2 = thermo.two_site_infinity(bundled_lam)
        rho1 = thermo.single_site_infinity(bundled_lam).state.matrix
        for keep in ([1], [2]):
            marg = tc.partial_trace(rho2, keep).matrix
            assert np.abs(marg - rho1).max() < 1e-10

    def test_degenerate_channel_propagates(self):
        with pytest.raises(DegenerateFixedPointError):
            thermo.two_site_infinity(copy_isometry())

    def test_two_site_state_at_d8_fits_in_320_mib(self):
        # the dense I - kron(Rr, Lr)/2 of d = 8 alone is 4096^2 doubles (128 MiB); the doubling sum keeps
        # every array d^2 x d^2
        script = "from hbts import thermo, tensor_core as tc\n" \
                 "print(thermo.reduced_infinity(tc.random_isometry(8, 0), 2).nu)"
        out = run_capped(["-c", script], 320 << 20)
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout.split() == ["2"]

    def test_two_site_report_at_d16_fits_in_320_mib(self, tmp_path):
        # the dense growth map of d = 16 alone is a 4096 x 4096 Gram and a 65536 x 256 matrix (256 MiB each);
        # growth through v keeps every array of the report within a few d^4
        path = str(tmp_path / "iso16.json")
        tc.save_isometry(tc.random_isometry(16, 0), path)
        out = run_capped(["-m", "hbts", "thermo", "--isometry", path, "--nu", "2"], 320 << 20)
        assert out.returncode == 0, out.stderr[-2000:]
        assert json.loads(out.stdout)["nu"] == 2


@pytest.mark.parametrize("kind, arg", [("paper", None), ("product", 2), ("product", 3)]
                         + [(d, seed) for d in (2, 3, 4, 5) for seed in range(3)])
def test_pair_states_match_the_dense_lu(kind, arg):
    # rho2 from the source g(rho1), eta from the dense P_K solve of conftest, each summed by one dense LU
    lam = case_isometry(kind, arg)
    rho1 = thermo.single_site_infinity(lam).state.matrix
    rho2, eta = thermo.two_site_infinity(lam).matrix, thermo.classical_pair_infinity(lam).matrix
    for got, want in ((rho2, pair_solve_reference(lam, ch._to_frame(ch._local(lam, (rho1, "g"))).real)),
                      (eta, classical_pair_reference(lam))):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    if kind == "product":
        assert not (rho2 - eta).any()


class TestClassicalPair:
    @pytest.mark.parametrize("d", [2, 3])
    def test_product_equals_two_site_state(self, d):
        lam = tc.product_isometry(d)
        assert not (thermo.two_site_infinity(lam).matrix - thermo.classical_pair_infinity(lam).matrix).any()

    def test_unit_trace(self, bundled_lam):
        eta = thermo.classical_pair_infinity(bundled_lam)
        assert abs(np.trace(eta.matrix) - 1.0) < 1e-12

    def test_difference_is_traceless(self, bundled_lam):
        diff = thermo.two_site_infinity(bundled_lam).matrix - thermo.classical_pair_infinity(bundled_lam).matrix
        assert abs(np.trace(diff)) < 1e-12

    @pytest.mark.parametrize("d, seed", [(d, seed) for d in (2, 3, 4, 5) for seed in range(3)])
    def test_sector_blocks_match_the_dense_p_k(self, d, seed):
        lam = tc.random_isometry(d, seed)
        assert np.abs(thermo.classical_pair_infinity(lam).matrix - classical_pair_reference(lam)).max() <= 1e-12

    def test_matches_truncated_series(self, bundled_lam):
        pair = ch.pair_descend_channel(bundled_lam)
        sigma = fixed_point(pair).state
        dc = ch.descend_channels(bundled_lam)
        rl = tensor(dc.right, dc.left)
        term = apply(tensor(dc.left, dc.right), sigma)
        acc = np.zeros((4, 4), dtype=complex)
        for m in range(41):
            acc += term / 2.0 ** (m + 1)
            term = apply(rl, term)
        assert np.abs(acc - thermo.classical_pair_infinity(bundled_lam).matrix).max() <= 1e-10


class TestReducedInfinity:
    def test_product_four_site_state(self, product_lam):
        out = thermo.reduced_infinity(product_lam, 4)
        expect = np.zeros((16, 16))
        expect[0, 0] = 1.0
        assert np.abs(out.matrix - expect).max() < 1e-12

    def test_bundled_rank_three_sites_is_full(self, bundled_lam):
        # the 2d^2 bound is vacuous at d=2: measured rank saturates all 8
        out = thermo.reduced_infinity(bundled_lam, 3)
        assert tc.numerical_rank(out) == 8 <= 2 * 4

    def test_bundled_rank_four_sites_deficient(self, bundled_lam):
        out = thermo.reduced_infinity(bundled_lam, 4)
        rank = tc.numerical_rank(out)
        assert rank == 12
        assert rank <= 12 < 16

    def test_unsupported_window(self, bundled_lam):
        with pytest.raises(ValueError):
            thermo.reduced_infinity(bundled_lam, 5)

    def test_non_integer_window_is_refused_before_the_memo(self):
        lam = tc.random_isometry(3, 0)
        for nu in (3.0, True, np.float64(4.0), "3"):  # 3.0 would be stored under reduced-3, True read as nu = 1
            with pytest.raises(ValueError, match="nu must be an integer"):
                thermo.reduced_infinity(lam, nu)
        hs = ph.build_interaction(lam)
        fresh = ph.build_interaction(tc.random_isometry(3, 0))
        assert hs.nu == fresh.nu and np.array_equal(hs.h_term, fresh.h_term)
        assert thermo.reduced_infinity(lam, np.int64(3)) is thermo.reduced_infinity(lam, 3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rank_bounds_random_isometries(self, d):
        for seed in range(3):
            lam = tc.random_isometry(d, seed)
            assert tc.numerical_rank(thermo.reduced_infinity(lam, 3)) <= 2 * d * d
            assert tc.numerical_rank(thermo.reduced_infinity(lam, 4)) <= d * d + d ** 3

    def test_marginal_consistency(self, bundled_lam):
        rho1 = thermo.single_site_infinity(bundled_lam).state.matrix
        for nu in (2, 3, 4):
            state = thermo.reduced_infinity(bundled_lam, nu)
            assert thermo.marginal_deviation(state, rho1) < 1e-10


FOUR_SITE_AT_D4 = """
import json, tracemalloc
import numpy as np
from hbts import tensor_core as tc, thermo
out = []
for seed in (0, 1):
    lam = tc.random_isometry(4, seed)
    tracemalloc.start()
    rho4 = thermo.reduced_infinity(lam, 4)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rho3 = thermo.reduced_infinity(lam, 3).matrix
    gaps = [float(np.abs(tc.partial_trace(rho4, keep).matrix - rho3).max()) for keep in ([1, 2, 3], [2, 3, 4])]
    m = rho4.matrix
    out.append({
        "peak_mb": peak / 1e6,
        "shape": list(m.shape),
        "herm": float(np.abs(m - m.conj().T).max()),
        "trace": abs(complex(np.trace(m)) - 1.0),
        "min_eig": float(np.linalg.eigvalsh(m)[0]),
        "marginal_gap": max(gaps),
    })
print(json.dumps(out))
"""


class TestKrausExtensions:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_states_match_dense_extensions(self, d, seed):
        lam = tc.random_isometry(d, seed)
        rho2 = thermo.two_site_infinity(lam).matrix
        for nu in (3, 4):
            dense = ch.unvec(dense_extension(lam, nu) @ ch.vec(rho2), d ** nu)
            assert np.abs(thermo.reduced_infinity(lam, nu).matrix - dense).max() < 1e-13, nu

    def test_three_site_state_builds_no_four_site_stack(self):
        # The three-site state does none of the four-site state's work.
        lam = tc.random_isometry(5, 0)
        thermo.two_site_infinity(lam)
        tracemalloc.start()
        try:
            thermo.reduced_infinity(lam, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_four_site_state_is_extended_site_by_site(self):
        # R (x) grow (x) L composed into 2d^3 operators of d^4 x d^2 peaked at 200 MB here;
        # applied one site at a time to the three-site state it needs a tenth of that.
        lam = tc.random_isometry(5, 0)
        thermo.reduced_infinity(lam, 3)
        tracemalloc.start()
        try:
            thermo.reduced_infinity(lam, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120e6

    def test_later_terms_add_into_the_first_image(self):
        # The second term adds into a view of the first one's image; copied back to canonical layout first,
        # it peaked at 3.08 images.
        lam = tc.random_isometry(5, 1)
        rho2 = thermo.two_site_infinity(lam).matrix
        rho3 = thermo.reduced_infinity(lam, 3).matrix
        image = ch._extend(lam, rho2, rho3)
        tracemalloc.start()
        try:
            ch._extend(lam, rho2, rho3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * image.nbytes

    def test_four_site_state_at_d4_fits_small_memory(self):
        # The dense 3->4 superoperator alone would be 4^14 complex entries (4 GiB): under the
        # 3 GiB cap only a construction that never forms it can finish.
        proc = run_capped(["-c", FOUR_SITE_AT_D4], 3 << 30)
        assert proc.returncode == 0, proc.stderr[-2000:]
        for rep in json.loads(proc.stdout):
            assert rep["shape"] == [256, 256]
            assert rep["herm"] <= 1e-12 and rep["trace"] <= 1e-12 and rep["min_eig"] >= -1e-12
            assert rep["marginal_gap"] <= 1e-12
            assert rep["peak_mb"] < 200.0


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


def _derive_everything(lam):
    ch.descend_channels(lam)
    ch.pair_descend_channel(lam)
    for nu in (1, 2, 3, 4):
        thermo.reduced_infinity(lam, nu)
        if nu > 2:
            ch.extension_channel(lam, nu)
    thermo.classical_pair_infinity(lam)
    co.pair_difference_infinity(lam)


class TestPerIsometryMemo:
    def test_each_quantity_is_derived_once(self):
        lam = tc.random_isometry(3, 2)
        for fn in (thermo.single_site_infinity, thermo.two_site_infinity, thermo.classical_pair_infinity,
                   co.pair_difference_infinity):
            assert fn(lam) is fn(lam), fn.__name__
        again = tc.Isometry(3, lam.v)
        assert thermo.two_site_infinity(again) is not thermo.two_site_infinity(lam)
        assert np.array_equal(thermo.two_site_infinity(again).matrix, thermo.two_site_infinity(lam).matrix)

    def test_the_memo_holds_no_dense_channel(self):
        # the public dense maps are built on each call and kept by no one
        lam = tc.random_isometry(3, 2)
        _derive_everything(lam)
        co.exponent_spectrum(lam)
        assert not [key for key, value in lam._memo.items() if isinstance(value, (ch.Channel, ch.DescendChannels))]
        assert not [key for key in lam._memo if key.startswith("letter-")]  # each letter is kept as its Kraus stack
        for fn in (ch.descend_channels, ch.pair_descend_channel):
            first, second = fn(lam), fn(lam)
            assert first is not second, fn.__name__
            pairs = list(zip(_arrays(first), _arrays(second)))
            assert pairs and all(a is not b and np.array_equal(a, b) for a, b in pairs), fn.__name__

    def test_reduced_states_are_derived_once_and_shared(self, monkeypatch):
        lam = tc.random_isometry(2, 0)
        states = [thermo.reduced_infinity(lam, nu) for nu in (1, 2, 3, 4)]
        for nu, state in enumerate(states, 1):
            assert thermo.reduced_infinity(lam, nu) is state, nu

        # the four-site state extends the kept three-site one: one 2->3 extension in all
        fresh = tc.random_isometry(2, 1)
        seen = []
        extend = ch._extend
        monkeypatch.setattr(ch, "_extend", lambda lam, rho2, rho3=None: seen.append(rho3) or extend(lam, rho2, rho3))
        thermo.reduced_infinity(fresh, 4)
        thermo.reduced_infinity(fresh, 3)
        assert len(seen) == 2 and seen[0] is None and seen[1] is thermo.reduced_infinity(fresh, 3).matrix

        def refuse(*args, **kwargs):
            raise AssertionError("a reduced state was extended again")

        read = []
        kernel_basis = ph.kernel_basis
        monkeypatch.setattr(ph, "kernel_basis", lambda rho: read.append(rho) or kernel_basis(rho))
        monkeypatch.setattr(ch, "_extend", refuse)
        assert ph.build_interaction(lam).nu == 4
        assert len(read) == 3 and all(got is want for got, want in zip(read, states[1:]))
        thermo.thermo_report(lam, 4)

    def test_cached_arrays_are_read_only(self):
        lam = tc.random_isometry(3, 2)
        _derive_everything(lam)
        arrays = list(_arrays(tuple(lam._memo.values())))
        assert len(arrays) >= 8
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 0.0
        with pytest.raises(ValueError):
            co.pair_difference_infinity(lam)[0, 0] = 0.0

    def test_looser_tolerance_is_not_remembered(self):
        v = np.array(tc.random_isometry(2, 0).v) * (1.0 + 5e-10)  # isometry residual about 1e-9
        lam = tc.Isometry(2, v)
        assert 5e-10 < tc.validate_isometry(lam).residual < 5e-9
        calls = [
            lambda: ch.descend_channels(lam),
            lambda: ch.pair_descend_channel(lam),
            lambda: ch.extension_channel(lam, 4),
            lambda: thermo.single_site_infinity(lam),
            lambda: thermo.reduced_infinity(lam, 4),
            lambda: co.pair_difference_infinity(lam),
            lambda: co.exponent_spectrum(lam),
        ]
        for call in calls:
            with pytest.raises(ValidationError):
                call()

    def test_isometric_condition_is_checked_once(self, monkeypatch):
        # the first derivation checks v and keeps the pass; no later or nested derivation checks it again
        checks = []
        validate = tc.validate_isometry
        monkeypatch.setattr(tc, "validate_isometry", lambda lam, *args: checks.append(lam) or validate(lam, *args))
        lam = tc.random_isometry(3, 0)
        z = tc.Observable(3, np.diag([1.0, 0.0, -1.0]))
        ch.descend_channels(lam)
        thermo.thermo_report(lam, 4)
        for m in range(16):
            co.correlator_thermo(lam, co.CorrelatorQuery(z, z, m))
        co.exponent_spectrum(lam)
        ch.pair_descend_channel(lam)
        ch.extension_channel(lam, 4)
        ph.build_interaction(lam)
        assert checks == [lam]


class TestTopIndependence:
    def test_signatures_take_no_top_tensor(self):
        import inspect

        for fn in (thermo.single_site_infinity, thermo.two_site_infinity,
                   thermo.classical_pair_infinity, thermo.reduced_infinity):
            assert "c" not in inspect.signature(fn).parameters
            assert "top" not in inspect.signature(fn).parameters

    def test_levels_with_different_tops_converge_together(self, bundled_lam):
        c1, c2 = rand_top(2, 1), rand_top(2, 2)
        rho_inf = thermo.single_site_infinity(bundled_lam).state.matrix
        gaps = []
        for n in (6, 8, 10):
            a = level_states_reference(bundled_lam, c1, n)[0]
            b = level_states_reference(bundled_lam, c2, n)[0]
            gaps.append(float(np.abs(a - b).max()))
            assert np.abs(a - rho_inf).max() <= 2 * 0.75 ** (n - 1)
        assert gaps[2] < gaps[1] < gaps[0]


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       top_seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=2, unique=True))
def test_level_states_reach_the_thermodynamic_pair_states_from_any_top(d, seed, top_seeds):
    # the finite-depth recursions iterate the site words; their error decays as r^n, r the largest
    # non-unit |eigenvalue| of the dense pair-descend channel, so the depth is 60 or more if r needs it
    lam = tc.random_isometry(d, seed)
    r = np.sort(np.abs(np.linalg.eigvals(ch.pair_descend_channel(lam).matrix)))[-2]
    depth = max(60, int(np.ceil(np.log(1e-14) / np.log(r))))
    rho2 = thermo.two_site_infinity(lam).matrix
    eta = thermo.classical_pair_infinity(lam).matrix
    for top_seed in top_seeds:
        _, pair, classical_pair, _ = level_states_reference(lam, rand_top(d, top_seed), depth)
        assert np.abs(pair - rho2).max() <= 1e-10
        assert np.abs(classical_pair - eta).max() <= 1e-10


class TestNonMixingPair:
    def test_descend_mixes_but_the_classical_pair_is_refused(self):
        lam = flip_isometry()
        assert thermo.single_site_infinity(lam).residual <= thermo.TAU_FIX  # descend mixes: its state is found
        with pytest.raises(DegenerateFixedPointError) as err:
            thermo.classical_pair_infinity(lam)
        assert err.value.multiplicity == 2

    def test_correlator_is_refused(self, sigma_z):
        with pytest.raises(DegenerateFixedPointError) as err:
            co.correlator_thermo(flip_isometry(), co.CorrelatorQuery(sigma_z, sigma_z, 1))
        assert err.value.multiplicity == 2


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_thermo_report_residuals_of_complex_isometries(d, seed):
    lam = tc.random_isometry(d, seed)
    for nu in (1, 2, 3, 4):
        assert thermo.thermo_report(lam, nu)["residual"] <= 1e-10, nu


def test_thermo_report_contents(bundled_lam):
    rep = thermo.thermo_report(bundled_lam, 4)
    assert rep["nu"] == 4
    assert rep["rank"] == 12
    assert rep["mixing"] is True
    assert rep["residual"] <= 1e-10
    assert len(rep["eigenvalues"]) == 16
    assert rep["eigenvalues"][0] >= rep["eigenvalues"][-1]


def test_four_site_report_decomposes_its_state_once(monkeypatch):
    # rank, spectrum and positivity check all read the eigenvalues the state stored
    lam = tc.random_isometry(3, 0)
    thermo.two_site_infinity(lam)
    sizes = []

    def spy(real):
        def call(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return real(a, *args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    rep = thermo.thermo_report(lam, 4)
    assert sizes.count((81, 81)) == 1
    assert len(rep["eigenvalues"]) == 81
