import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from hbts import channels as ch
from hbts import finite_state as fs
from hbts import mera_bounds as mb
from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts import thermo
from hbts.errors import ResourceLimitError, ShapeError, ValidationError

from conftest import partial_trace_reference, rand_density, rand_herm, rand_top, write_entries


def basis_projector(dim, index):
    p = np.zeros((dim, dim), dtype=complex)
    p[index, index] = 1.0
    return p


class TestValidateIsometry:
    def test_bundled_map_passes(self, bundled_lam):
        rep = tc.validate_isometry(bundled_lam)
        assert rep.passed
        assert rep.residual < 1e-15

    def test_product_map_passes(self, product_lam):
        assert tc.validate_isometry(product_lam).passed

    def test_all_ones_fails_with_exact_residual(self):
        # gram matrix is d^2 * (all ones), so the max-norm residual is d^2
        lam = tc.Isometry(2, np.ones((4, 2)))
        rep = tc.validate_isometry(lam)
        assert not rep.passed
        assert rep.residual == 4.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            tc.Isometry(2, np.ones((3, 2)))


class TestValidateTop:
    def test_scaled_identity_passes(self, diag_top):
        assert tc.validate_top(diag_top).passed

    def test_single_entry_passes(self, corner_top):
        assert tc.validate_top(corner_top).passed

    def test_unnormalized_identity_fails_with_deviation_one(self):
        rep = tc.validate_top(tc.TopTensor(2, np.eye(2)))
        assert not rep.passed
        assert abs(rep.residual - 1.0) < 1e-15

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            tc.TopTensor(2, np.ones((2, 3)) / np.sqrt(6))


class TestPartialTrace:
    def test_keep_first_site(self):
        op = tc.DensityOp(2, 2, basis_projector(4, 0b01))
        out = tc.partial_trace(op, [1])
        assert np.abs(out.matrix - basis_projector(2, 0)).max() == 0

    def test_keep_second_site(self):
        op = tc.DensityOp(2, 2, basis_projector(4, 0b01))
        out = tc.partial_trace(op, [2])
        assert np.abs(out.matrix - basis_projector(2, 1)).max() == 0

    def test_bell_marginal_is_maximally_mixed(self):
        bell = np.zeros((4, 4), dtype=complex)
        for a in (0b00, 0b11):
            for b in (0b00, 0b11):
                bell[a, b] = 0.5
        out = tc.partial_trace(tc.DensityOp(2, 2, bell), [1])
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-15

    def test_keep_order_reorders_sites(self):
        op = tc.DensityOp(2, 2, basis_projector(4, 0b01))
        out = tc.partial_trace(op, [2, 1])
        assert np.abs(out.matrix - basis_projector(4, 0b10)).max() == 0

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = rand_density(rng, 8)
            out = tc.partial_trace(tc.DensityOp(2, 3, rho), [1, 3])
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out.matrix)[0] > -1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    def test_matches_the_trace_loop_for_every_ordered_keep(self, d, nu):
        op = tc.DensityOp(d, nu, rand_density(np.random.default_rng([d, nu]), d ** nu))
        for k in range(1, nu + 1):
            for keep in itertools.permutations(range(1, nu + 1), k):
                assert np.abs(tc.partial_trace(op, keep).matrix - partial_trace_reference(op, keep)).max() <= 1e-15

    def test_bad_subsets_raise(self):
        op = tc.DensityOp(2, 2, np.eye(4) / 4)
        with pytest.raises(ValueError):
            tc.partial_trace(op, [])
        with pytest.raises(ValueError):
            tc.partial_trace(op, [3])
        with pytest.raises(ValueError):
            tc.partial_trace(op, [0])
        with pytest.raises(ValueError):
            tc.partial_trace(op, [1, 1])


class TestNumericalRank:
    def test_half_filled_diagonal(self):
        op = tc.DensityOp(2, 2, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        assert tc.numerical_rank(op) == 2

    def test_maximally_mixed_is_full_rank(self):
        op = tc.DensityOp(2, 3, np.eye(8) / 8)
        assert tc.numerical_rank(op) == 8

    def test_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = rand_density(rng, 8, rank=3)
            q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
            op = tc.DensityOp(2, 3, rho)
            rotated = tc.DensityOp(2, 3, q @ rho @ q.conj().T)
            assert tc.numerical_rank(op) == tc.numerical_rank(rotated) == 3

    def test_non_hermitian_rejected(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.3
        with pytest.raises(ValidationError):
            tc.numerical_rank(tc.DensityOp(2, 2, mat))


class TestRandomIsometry:
    def test_deterministic_for_fixed_seed(self):
        a = tc.random_isometry(2, 42)
        b = tc.random_isometry(2, 42)
        assert np.abs(a.v - b.v).max() == 0

    def test_validates_tightly(self):
        assert tc.validate_isometry(tc.random_isometry(3, 7), 1e-12).passed

    def test_different_seeds_differ(self):
        a = tc.random_isometry(2, 1)
        b = tc.random_isometry(2, 2)
        assert np.abs(a.v - b.v).max() > 1e-3

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            tc.random_isometry(1, 0)


class TestDensityOpValidation:
    def test_rejects_non_hermitian(self):
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 1] = 0.2
        with pytest.raises(ValidationError):
            tc.DensityOp(2, 1, mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            tc.DensityOp(2, 1, np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            tc.DensityOp(2, 1, np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entry(self, bad, where):
        mat = np.eye(2, dtype=complex) / 2
        mat[where] = bad
        with pytest.raises(ValidationError):
            tc.DensityOp(2, 1, mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_observable_rejects_non_finite_entry(self, bad, where):
        mat = np.diag([1.0, -1.0]).astype(complex)
        mat[where] = bad
        with pytest.raises(ValidationError):
            tc.Observable(2, mat)


class TestDensityOpInvariants:
    def test_nearly_hermitian_input_is_stored_exactly_hermitian(self):
        rho = rand_density(np.random.default_rng(5), 4)
        rho[0, 1] += 1e-12
        op = tc.DensityOp(2, 2, rho)
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        assert np.abs(op.matrix - rho).max() <= 1e-12

    def test_eigenvalues_are_read_only_ascending_spectrum(self):
        op = tc.DensityOp(2, 3, rand_density(np.random.default_rng(6), 8, rank=5))
        assert not op.eigenvalues.flags.writeable and not op.matrix.flags.writeable
        assert np.all(np.diff(op.eigenvalues) >= 0)
        assert np.array_equal(op.eigenvalues, np.linalg.eigvalsh(op.matrix))

    def test_partial_trace_returns_a_checked_state(self):
        op = tc.DensityOp(2, 3, rand_density(np.random.default_rng(7), 8))
        out = tc.partial_trace(op, [3, 1])
        assert np.array_equal(out.eigenvalues, np.linalg.eigvalsh(out.matrix))

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_hermitian_part_is_the_mean_with_the_adjoint_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        mat = rand_herm(rng, n) + 1e-12 * rng.standard_normal((n, n))
        out = tc.hermitian_part(mat, "matrix")
        assert np.array_equal(out.view(float), ((mat + mat.conj().T) / 2.0).view(float))  # the sign of zero too
        assert np.array_equal(out, out.conj().T) and out.flags.c_contiguous
        mat[0, -1] += 1e-9j
        with pytest.raises(ValidationError, match="not Hermitian"):
            tc.hermitian_part(mat, "matrix")

    def test_hermitian_part_holds_one_full_size_array(self):
        # the conjugate transpose is the one full-size array; the deviation is taken over row blocks
        mat = rand_herm(np.random.default_rng(8), 1296)
        tracemalloc.start()
        try:
            tc.hermitian_part(mat, "matrix")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * mat.nbytes

    def test_one_site_thermodynamic_state_is_a_checked_state(self, bundled_lam):
        out = thermo.reduced_infinity(bundled_lam, 1)
        assert out is thermo.single_site_infinity(bundled_lam).state
        assert np.array_equal(out.eigenvalues, np.linalg.eigvalsh(out.matrix))


SIZE_FIELDS = {"Isometry": ["d"], "TopTensor": ["d"], "DensityOp": ["d", "nu"], "Observable": ["d"],
               "HamiltonianSpec": ["d", "nu", "kernel_dim"], "PureState": ["d", "N"],
               "Channel": ["d", "nu_in", "nu_out"]}
# one site, a two-site ring, one kernel vector, a one-site map
VALID_SIZES = {"d": 2, "nu": 1, "N": 2, "kernel_dim": 1, "nu_in": 1, "nu_out": 1}


def sized_value(kind, **sizes):
    """A value type of VALID_SIZES, with the given sizes replaced."""
    s = {**VALID_SIZES, **sizes}
    return {
        "Isometry": lambda: tc.Isometry(s["d"], np.eye(4, 2)),
        "TopTensor": lambda: tc.TopTensor(s["d"], np.eye(2) / np.sqrt(2.0)),
        "DensityOp": lambda: tc.DensityOp(s["d"], s["nu"], np.eye(2) / 2.0),
        "Observable": lambda: tc.Observable(s["d"], np.eye(2)),
        "HamiltonianSpec": lambda: ph.HamiltonianSpec(s["d"], s["nu"], np.eye(2), s["kernel_dim"], [1.0]),
        "PureState": lambda: fs.PureState(s["d"], s["N"], np.eye(4)[0]),
        "Channel": lambda: ch.Channel(s["d"], s["nu_in"], s["nu_out"], np.eye(4)),
    }[kind]()


# a call of one size argument, its valid value, values refused as not integers or too small, and the name refused
SIZE_ARGUMENTS = {
    "random_isometry d": (lambda x: tc.random_isometry(x, 0), 2, [2.0, True], "local dimension d"),
    "random_isometry seed": (lambda x: tc.random_isometry(2, x), 0, [1.5, -1], "seed"),
    "product_isometry d": (tc.product_isometry, 2, [2.0], "local dimension d"),
    "mera_rank_bound d": (lambda x: mb.mera_rank_bound("binary", x), 2, [2.0], "local dimension d"),
    "extension_channel nu": (lambda x: ch.extension_channel(tc.paper_isometry(), x), 3, [3.0], "extension window nu"),
    "grown_basis N": (lambda x: ph.grown_basis(tc.paper_isometry(), x), 6, [6.0], "ring size N"),
    "partial_trace site": (lambda x: tc.partial_trace(tc.DensityOp(2, 2, np.eye(4) / 4.0), [x]), 1, [1.0, True],
                           "site"),
    # a NaN budget would switch its guard off (x > nan is False); np.histogram would take "auto" or a list as bins
    "diagonalize bins": (lambda x: ph.diagonalize(ph.assemble(ph.build_interaction(tc.paper_isometry()), 6), bins=x),
                         50, [0, True, 50.0, "auto", [0.0, 0.5, 1.0], ph.BINS_MAX + 1], "bins"),
    "assemble max_dim": (lambda x: ph.assemble(ph.build_interaction(tc.paper_isometry()), 6, max_dim=x), 64,
                         [0, float("nan"), True, 64.0], "max_dim"),
    "grown_subspace_check max_dim": (lambda x: ph.grown_subspace_check(tc.paper_isometry(),
                                                                       ph.build_interaction(tc.paper_isometry()), 6,
                                                                       max_dim=x), 64, [0, float("nan")], "max_dim"),
    "build_state max_amplitudes": (lambda x: fs.build_state(tc.paper_isometry(), tc.TopTensor(2, np.eye(2) / 2 ** 0.5),
                                                            2, max_amplitudes=x), 16, [0, float("nan"), 16.0],
                                   "max_amplitudes"),
}


class TestIntegerSizes:
    @pytest.mark.parametrize("kind, field", [(kind, f) for kind, fields in SIZE_FIELDS.items() for f in fields])
    def test_float_or_bool_size_is_refused_by_name(self, kind, field):
        good = VALID_SIZES[field]
        for bad in (float(good), np.float64(good), True):  # the floats equal the valid size
            with pytest.raises(ValueError, match="^%s must be an integer" % field):
                sized_value(kind, **{field: bad})

    @pytest.mark.parametrize("kind", sorted(SIZE_FIELDS))
    def test_numpy_integer_sizes_are_stored_as_int(self, kind):
        value = sized_value(kind, d=np.int64(2), nu=np.int32(1), N=np.uint8(2), kernel_dim=np.int16(1),
                            nu_in=np.int8(1), nu_out=np.uint16(1))
        for field in SIZE_FIELDS[kind]:
            assert type(getattr(value, field)) is int

    def test_an_integer_past_the_decimal_string_limit_is_refused_by_its_order_of_magnitude(self):
        # 10^5000 has more digits than Python converts to a string
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^tree depth n must be an integer >= 1, got ~-10\^5000$"):
            tc._integer(-10 ** 5000, "tree depth n", 1)
        with pytest.raises(ValueError, match=r"^tree depth n must be an integer <= 3, got ~10\^5000$"):
            tc._integer(10 ** 5000, "tree depth n", 1, 3)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("case", sorted(SIZE_ARGUMENTS))
    def test_float_bool_or_small_size_argument_is_refused_by_name(self, case):
        call, good, bad_values, name = SIZE_ARGUMENTS[case]
        call(good)
        for bad in bad_values:
            with pytest.raises(ValueError, match="^%s must be an integer" % name):
                call(bad)


def _paper_ring_call(x, check):
    lam = tc.paper_isometry()
    hs = ph.build_interaction(lam)
    return ph.grown_subspace_check(lam, hs, 6, tau_gs=x) if check else ph.diagonalize(ph.assemble(hs, 6), tau_gs=x)


# a call of one tolerance argument and the name it is refused by
TOLERANCE_ARGUMENTS = {
    "validate_isometry tol": (lambda x: tc.validate_isometry(tc.paper_isometry(), x), "tol"),
    "validate_top tol": (lambda x: tc.validate_top(tc.TopTensor(2, np.eye(2) / np.sqrt(2.0)), x), "tol"),
    "diagonalize tau_gs": (lambda x: _paper_ring_call(x, False), "tau_gs"),
    "grown_subspace_check tau_gs": (lambda x: _paper_ring_call(x, True), "tau_gs"),
}


class TestTolerances:
    @pytest.mark.parametrize("case", sorted(TOLERANCE_ARGUMENTS))
    def test_nan_inf_negative_or_bool_tolerance_is_refused_by_name(self, case):
        call, name = TOLERANCE_ARGUMENTS[case]
        for bad in (float("nan"), float("inf"), -1.0, -1e-300, True, np.bool_(False), "1e-10", 1e-10j):
            with pytest.raises(ValueError, match="^%s must be a finite number >= 0" % name):
                call(bad)

    @pytest.mark.parametrize("case", sorted(TOLERANCE_ARGUMENTS))
    def test_zero_int_and_numpy_tolerances_pass(self, case):
        call, _ = TOLERANCE_ARGUMENTS[case]
        for good in (0.0, 0, np.float32(1e-6), np.int64(1), 1e-10):
            report = call(good)
            if not case.startswith("grown"):  # a subspace report keeps no tolerance
                assert (report.tau_gs if case.startswith("diag") else report.tol) == good

    def test_tolerance_is_a_float(self):
        assert type(tc._tolerance(np.float32(0.5), "tol")) is float and tc._tolerance(0, "tol") == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 5, 9])
class TestFileRoundTrips:
    # every tensor comes back bit for bit

    def test_isometry_round_trip(self, tmp_path, d, seed):
        lam = tc.random_isometry(d, seed)
        path = str(tmp_path / "iso.json")
        tc.save_isometry(lam, path)
        again = tc.load_isometry(path)
        assert again.d == d
        assert np.array_equal(again.v, lam.v)

    def test_top_round_trip(self, tmp_path, d, seed):
        top = rand_top(d, seed)
        path = str(tmp_path / "top.json")
        tc.save_top(top, path)
        again = tc.load_top(path)
        assert again.d == d
        assert np.array_equal(again.c, top.c)

    def test_observable_round_trip(self, tmp_path, d, seed):
        obs = tc.Observable(d, rand_herm(np.random.default_rng(seed), d))
        path = str(tmp_path / "obs.json")
        tc.save_observable(obs, path)
        again = tc.load_observable(path)
        assert again.d == d
        assert np.array_equal(again.matrix, obs.matrix)


def test_the_bundled_file_is_the_paper_isometry_bit_for_bit():
    # the two sources of the bundled isometry: its entry file and paper_isometry()
    loaded, built = tc.load_isometry(tc.paper_lambda_path()), tc.paper_isometry()
    assert loaded.d == built.d
    assert loaded.v.dtype == built.v.dtype and loaded.v.tobytes() == built.v.tobytes()


BAD_INDICES = {
    "isometry": (tc.load_isometry, [[0, 2, 0, 1, 0], [-1, 0, 0, 1, 0], [0, 0, 2, 1, 0], [0, 0.5, 0, 1, 0]]),
    "top": (tc.load_top, [[2, 0, 1, 0], [0, -1, 1, 0], [0.0, 1, 1, 0]]),
    "observable": (tc.load_observable, [[0, 2, 1, 0], [-1, 0, 1, 0], [True, 0, 1, 0]]),
}


class TestEntryIndexRange:
    @pytest.mark.parametrize(
        "kind, entry",
        [(kind, entry) for kind, (_, entries) in BAD_INDICES.items() for entry in entries],
    )
    def test_index_outside_range_is_a_shape_error(self, tmp_path, kind, entry):
        load = BAD_INDICES[kind][0]
        path = write_entries(tmp_path / "bad.json", 2, [entry])
        with pytest.raises(ShapeError):
            load(path)

    @pytest.mark.parametrize("load", [tc.load_isometry, tc.load_top, tc.load_observable])
    def test_wrong_entry_length_is_a_shape_error(self, tmp_path, load):
        path = write_entries(tmp_path / "bad.json", 2, [[0, 0, 0, 0, 1, 0]])
        with pytest.raises(ShapeError):
            load(path)


LOADERS = {"isometry": (tc.load_isometry, 3), "top": (tc.load_top, 2), "observable": (tc.load_observable, 2)}


def malformed_docs(arity):
    """Entry-file documents with one defect each, by name, for files with arity indices."""
    entry = [0] * arity + [1, 0]
    return {
        "top-level list": [entry],
        "null entries": {"d": 2, "entries": None},
        "bare number entry": {"d": 2, "entries": [1.5]},
        "string re": {"d": 2, "entries": [entry[:arity] + ["1", 0]]},
        "string im": {"d": 2, "entries": [entry[:arity] + [1, "0"]]},
        "fractional d": {"d": 2.7, "entries": [entry]},
        "string d": {"d": "2", "entries": [entry]},
        "boolean d": {"d": True, "entries": [entry]},
        "zero d": {"d": 0, "entries": []},
        "negative d": {"d": -1, "entries": []},
        "NaN re": {"d": 2, "entries": [entry[:arity] + [float("nan"), 0]]},
        "infinite im": {"d": 2, "entries": [entry[:arity] + [1, float("inf")]]},
        "huge integer re": {"d": 2, "entries": [entry[:arity] + [10 ** 400, 0]]},
    }


class TestMalformedEntryFiles:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("case", list(malformed_docs(2)))
    def test_malformed_file_is_a_shape_error_naming_the_file(self, tmp_path, kind, case):
        load, arity = LOADERS[kind]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(malformed_docs(arity)[case]))
        with pytest.raises(ShapeError, match="bad.json"):
            load(str(path))

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_huge_d_is_refused_before_allocation(self, tmp_path, kind):
        # d = 10^5 asks for 10^10 (top, observable) or 10^15 (isometry) complex entries
        load, _ = LOADERS[kind]
        path = write_entries(tmp_path / "huge.json", 10 ** 5, [])
        with pytest.raises(ResourceLimitError, match="huge.json"):
            load(path)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_absurd_d_is_refused_on_the_budget(self, tmp_path, kind):
        # d^2 of d = 10^3000 has 6001 digits, more than Python converts to a string
        load, arity = LOADERS[kind]
        path = write_entries(tmp_path / "absurd.json", 10 ** 3000, [])
        with pytest.raises(ResourceLimitError, match=r"absurd.json: d=10+ needs d\^%d entries: 10+\^%d, budget is %d$"
                           % (arity, arity, tc.MAX_FILE_ENTRIES)):
            load(path)
