import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbts import channels as ch
from hbts import correlators as co
from hbts import finite_state as fs
from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts import thermo
from hbts.cli import main
from hbts.errors import ShapeError, ValidationError

from conftest import (adjoint, apply, dense_extension, fixed_point, growth_channel, rand_density, rand_herm,
                      rand_top, tensor)


def proj(dim, index):
    p = np.zeros((dim, dim), dtype=complex)
    p[index, index] = 1.0
    return p


def bell_projector():
    b = np.zeros((4, 4), dtype=complex)
    for a in (0b00, 0b11):
        for c in (0b00, 0b11):
            b[a, c] = 0.5
    return b


WORDS = ("L", "R", "g", "LL", "RR", "RL", "LR", "gg", "Rg", "gL", "RgL")


def site_channel(lam, letter):
    """Reference one-site map of a word letter, as the kron sum of its Kraus operators."""
    t = lam.as_tensor()
    kraus = {"L": [t[:, k, :] for k in range(lam.d)], "R": [t[k] for k in range(lam.d)], "g": [lam.v]}[letter]
    return ch.Channel(lam.d, 1, 2 if letter == "g" else 1, sum(np.kron(k.conj(), k) for k in kraus))


def all_channels(lam):
    """Every public dense channel; the 2->4 extension (d^12 entries) only at d <= 3."""
    dc = ch.descend_channels(lam)
    channels = {
        "growth": growth_channel(lam),
        "left": dc.left,
        "right": dc.right,
        "descend": dc.average,
        "pair": ch.pair_descend_channel(lam),
        "ext3": ch.extension_channel(lam, 3),
    }
    if lam.d <= 3:
        channels["ext4"] = ch.extension_channel(lam, 4)
    return channels


class TestGrowth:
    def test_bundled_zero_maps_to_01(self, bundled_lam):
        out = apply(growth_channel(bundled_lam), proj(2, 0))
        assert np.abs(out - proj(4, 0b01)).max() < 1e-15

    def test_bundled_one_maps_to_bell(self, bundled_lam):
        out = apply(growth_channel(bundled_lam), proj(2, 1))
        assert np.abs(out - bell_projector()).max() < 1e-15

    def test_product_appends_zero_site(self, product_lam):
        rng = np.random.default_rng(0)
        grow = growth_channel(product_lam)
        for _ in range(5):
            rho = rand_density(rng, 2)
            out = apply(grow, rho)
            assert np.abs(out - np.kron(rho, proj(2, 0))).max() < 1e-14

    def test_invalid_isometry_rejected(self):
        with pytest.raises(ValidationError):
            growth_channel(tc.Isometry(2, np.ones((4, 2))))

    def test_rank_preserved_on_random_inputs(self, bundled_lam):
        rng = np.random.default_rng(1)
        for lam in (bundled_lam, tc.random_isometry(2, 6), tc.random_isometry(3, 6)):
            grow = growth_channel(lam)
            d = lam.d
            for k in range(20):
                rho = rand_density(rng, d, rank=1 + k % d)
                out = tc.DensityOp(d, 2, apply(grow, rho))
                assert tc.numerical_rank(out) == tc.numerical_rank(tc.DensityOp(d, 1, rho))


class TestDescend:
    def test_bundled_basis_states_mix(self, bundled_lam):
        dc = ch.descend_channels(bundled_lam)
        assert np.abs(apply(dc.average, proj(2, 0)) - np.eye(2) / 2).max() < 1e-15
        assert np.abs(apply(dc.average, np.eye(2) / 2) - np.eye(2) / 2).max() < 1e-15

    def test_product_left_is_identity_right_restarts(self, product_lam):
        dc = ch.descend_channels(product_lam)
        assert np.abs(dc.left.matrix - np.eye(4)).max() < 1e-15
        rng = np.random.default_rng(2)
        rho = rand_density(rng, 2)
        assert np.abs(apply(dc.right, rho) - proj(2, 0) * np.trace(rho)).max() < 1e-14

    def test_average_is_exact_mean_of_matrices(self, bundled_lam):
        dc = ch.descend_channels(bundled_lam)
        assert np.abs(dc.average.matrix - (dc.left.matrix + dc.right.matrix) / 2).max() == 0


class TestPairDescend:
    def test_product_spectrum_is_one_and_fifteen_halves(self, product_lam):
        # analytic form: (identity + restart-to-|00>)/2
        w = np.sort(np.abs(np.linalg.eigvals(ch.pair_descend_channel(product_lam).matrix)))
        assert abs(w[-1] - 1.0) < 1e-12
        assert np.abs(w[:15] - 0.5).max() < 1e-12

    def test_trace_preserved_on_density_inputs(self, bundled_lam):
        rng = np.random.default_rng(3)
        pair = ch.pair_descend_channel(bundled_lam)
        for _ in range(5):
            rho = np.kron(rand_density(rng, 2), rand_density(rng, 2))
            assert abs(np.trace(apply(pair, rho)) - 1.0) < 1e-13

    def test_iterates_converge_to_stationary_state(self, bundled_lam):
        from hbts import thermo

        pair = ch.pair_descend_channel(bundled_lam)
        sigma = fixed_point(pair).state.matrix
        rng = np.random.default_rng(4)
        x = rand_herm(rng, 4)
        moved = ch.unvec(np.linalg.matrix_power(pair.matrix, 200) @ ch.vec(x), 4)
        assert np.abs(moved - sigma * np.trace(x)).max() < 1e-12


class TestExtension:
    def test_unsupported_window_rejected(self, bundled_lam):
        for nu in (2, 5):
            with pytest.raises(ValueError):
                ch.extension_channel(bundled_lam, nu)

    def test_product_extends_00_to_000(self, product_lam):
        out = apply(ch.extension_channel(product_lam, 3), proj(4, 0))
        assert np.abs(out - proj(8, 0)).max() < 1e-15

    def test_output_is_state_for_density_input(self, bundled_lam):
        rng = np.random.default_rng(5)
        for nu in (3, 4):
            ext = ch.extension_channel(bundled_lam, nu)
            rho = rand_density(rng, 4)
            out = apply(ext, rho)
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-12

    def test_bundled_triple_rank_bound(self, bundled_lam):
        rng = np.random.default_rng(6)
        ext = ch.extension_channel(bundled_lam, 3)
        rho = rand_density(rng, 4)  # full rank
        out = tc.DensityOp(2, 3, apply(ext, rho))
        assert tc.numerical_rank(out) <= 2 * 2 * 2


class TestKrausForm:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_extension_matches_dense_construction(self, d, seed):
        lam = tc.random_isometry(d, seed)
        for nu in (3, 4):
            ext = ch.extension_channel(lam, nu)
            assert np.abs(ext.matrix - dense_extension(lam, nu)).max() < 1e-13, nu

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_words_match_dense_tensor_products(self, d, seed):
        lam = tc.random_isometry(d, seed)
        rng = np.random.default_rng(seed)
        for word in WORDS:
            dense = functools.reduce(tensor, [site_channel(lam, letter) for letter in word])
            dim = d ** len(word)
            op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert np.abs(ch._local(lam, (op, word)) - apply(dense, op)).max() < 1e-13, word
            assert np.abs(ch._gram(ch._kraus(lam, word)) - dense.matrix).max() < 1e-13, word
            out = rng.standard_normal((dense.dim_out,) * 2) + 1j * rng.standard_normal((dense.dim_out,) * 2)
            assert np.abs(ch._local(lam, (out, word), adjoint=True) - apply(adjoint(dense), out)).max() < 1e-13, word

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extension_stacks_have_the_choi_rank(self, d, seed):
        # 2d Kraus operators for 2->3 and 1 + 2d^3 for 2->4, and no fewer: the Choi matrix has exactly that rank
        lam = tc.random_isometry(d, seed)
        one = np.eye(d * d)[None]
        ext3 = ch._extend(lam, one, engine=ch._compose)
        ext4 = ch._extend(lam, one, ext3, engine=ch._compose)
        for nu, stack, members in ((3, ext3, 2 * d), (4, ext4, 1 + 2 * d ** 3)):
            m, n = d * d, d ** nu
            assert stack.shape == (members, n, m), nu
            choi = ch.extension_channel(lam, nu).matrix.reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(m * n, m * n)
            assert np.linalg.matrix_rank(choi, tol=ch.TAU_CHOI, hermitian=True) == members, nu

    @pytest.mark.parametrize("d", [2, 3])
    def test_words_map_a_stack_as_each_operator_alone(self, d):
        lam = tc.random_isometry(d, 4)
        rng = np.random.default_rng(d)
        for word, adjoint in itertools.product(WORDS, (False, True)):
            dim = d ** (len(word) + adjoint * word.count("g"))  # the dual takes the word's output
            ops = rng.standard_normal((dim, dim, 3)) + 1j * rng.standard_normal((dim, dim, 3))
            stacked = ch._local(lam, (ops, word), adjoint=adjoint)
            for s in range(ops.shape[2]):
                alone = ch._local(lam, (ops[..., s], word), adjoint=adjoint)
                assert np.abs(stacked[..., s] - alone).max() < 1e-14, (word, adjoint)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_words_preserve_trace_and_hermiticity_at_d4(self, seed):
        lam = tc.random_isometry(4, seed)
        rng = np.random.default_rng(seed)
        for word in WORDS:
            x = rand_herm(rng, 4 ** len(word))
            out = ch._local(lam, (x, word))
            assert abs(np.trace(out) - np.trace(x)) < 1e-12, word
            assert np.abs(out - out.conj().T).max() < 1e-12, word

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_terms_average_bit_for_bit(self, d, seed, stack):
        # the mean of the terms' images, each term as a call of its own, up to the last bit
        lam = tc.random_isometry(d, seed)
        rng = np.random.default_rng(seed)

        def op(sites):
            shape = (d ** sites,) * 2 + stack
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        one, two, three = op(1), op(2), op(3)
        cases = [
            ([(one, "L"), (one, "R")], False),
            ([(two, "RL"), (one, "g")], False),
            ([(two, "LL"), (two, "RR"), (two, "LR")], False),
            ([(two, "gg"), (three, "RgL")], False),
            ([(three, "Rg"), (three, "gL")], True),
        ]
        for terms, adjoint in cases:
            alone = [ch._local(lam, term, adjoint=adjoint) for term in terms]
            together = ch._local(lam, *terms, adjoint=adjoint)
            assert np.array_equal(together, sum(alone) / len(alone)), [word for _, word in terms]

    @pytest.mark.parametrize("d", [2, 3])
    def test_descend_matches_kron_sum(self, d):
        t = tc.random_isometry(d, 5).as_tensor()
        dc = ch.descend_channels(tc.random_isometry(d, 5))
        for kraus, channel in (([t[:, k, :] for k in range(d)], dc.left), ([t[k] for k in range(d)], dc.right)):
            reference = sum(np.kron(k.conj(), k) for k in kraus)
            assert np.abs(channel.matrix - reference).max() < 1e-14


def word_images(lam, x):
    """What each public dense channel on x's sites should give, through the site-by-site maps."""
    def local(word):
        return ch._local(lam, (x, word))

    if x.shape[0] == lam.d:
        return {"growth": local("g"), "left": local("L"), "right": local("R"), "descend": (local("L") + local("R")) / 2}
    images = {"pair": (local("LL") + local("RR")) / 2, "ext3": ch._extend(lam, x)}
    if lam.d <= 3:
        images["ext4"] = ch._extend(lam, x, ch._extend(lam, x))
    return images


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_dense_channels_are_cptp_and_match_their_words(d, seed):
    lam = tc.random_isometry(d, seed)
    dense = all_channels(lam)
    rng = np.random.default_rng(seed)
    for dim in (d, d * d):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for name, image in word_images(lam, x).items():
            assert np.abs(apply(dense[name], x) - image).max() < 1e-12, name
    for name, c in dense.items():
        rep = checked(c)
        assert rep.completely_positive and rep.trace_preserving, name


class TestAdjoint:
    def test_adjoint_of_identity(self):
        ident = ch.Channel(2, 1, 1, np.eye(4))
        assert np.abs(adjoint(ident).matrix - np.eye(4)).max() == 0

    def test_descend_adjoint_is_unital(self, bundled_lam):
        dc = ch.descend_channels(bundled_lam)
        back = apply(adjoint(dc.average), np.eye(2))
        assert np.abs(back - np.eye(2)).max() < 1e-14

    def test_defining_identity_for_extension(self, bundled_lam):
        rng = np.random.default_rng(7)
        ext3 = ch.extension_channel(bundled_lam, 3)
        adj = adjoint(ext3)
        for _ in range(20):
            rho = rand_density(rng, 4)
            h = rand_herm(rng, 8)
            lhs = np.trace(apply(ext3, rho) @ h)
            rhs = np.trace(rho @ apply(adj, h))
            assert abs(lhs - rhs) < 1e-12

    def test_defining_identity_all_channels(self, bundled_lam):
        rng = np.random.default_rng(8)
        for name, c in all_channels(bundled_lam).items():
            adj = adjoint(c)
            for _ in range(20):
                a = rand_herm(rng, c.dim_in)
                b = rand_herm(rng, c.dim_out)
                lhs = np.trace(b.conj().T @ apply(c, a))
                rhs = np.trace(apply(adj, b).conj().T @ a)
                assert abs(lhs - rhs) < 1e-12, name


class TestApply:
    def test_identity_channel_is_identity(self):
        rng = np.random.default_rng(9)
        rho = rand_density(rng, 4)
        assert np.abs(apply(ch.Channel(2, 2, 2, np.eye(16)), rho) - rho).max() == 0

    def test_dimension_mismatch_raises(self, bundled_lam):
        with pytest.raises(ShapeError):
            apply(growth_channel(bundled_lam), np.eye(4))

    def test_hermiticity_preserved(self, bundled_lam):
        rng = np.random.default_rng(10)
        pair = ch.pair_descend_channel(bundled_lam)
        x = rand_herm(rng, 4)
        out = apply(pair, x)
        assert np.abs(out - out.conj().T).max() < 1e-13


def choi_reference(c):
    """CP and TP as a full spectrum decides them: Hermitian Choi matrix, smallest eigenvalue, identity pulled back."""
    m, n = c.dim_in, c.dim_out
    choi = c.matrix.reshape(n, n, m, m).transpose(3, 1, 2, 0).reshape(m * n, m * n)
    min_eig = np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0]
    tp = np.abs(ch.unvec(c.matrix.conj().T @ ch.vec(np.eye(n)), m) - np.eye(m)).max()
    herm = np.abs(choi - choi.conj().T).max() <= ch.TAU_CHOI
    return herm and min_eig >= -ch.TAU_CHOI, tp <= ch.TAU_CHOI, min_eig


def checked(c):
    """choi_check of c, asserted to decide CP and TP as the full spectrum does."""
    rep = ch.choi_check(c)
    cp, tp, min_eig = choi_reference(c)
    assert (rep.completely_positive, rep.trace_preserving) == (cp, tp)
    assert (rep.choi_min_eigenvalue is None) == rep.completely_positive
    if rep.choi_min_eigenvalue is not None:
        assert abs(rep.choi_min_eigenvalue - min_eig) < 1e-14
    return rep


def map_with_choi(choi, d):
    """The one-site map on d x d operators whose Choi matrix is choi."""
    return ch.Channel(d, 1, 1, choi.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d))


def low_rank_hermitian(rng, dim, spectrum, support=None):
    """A seeded Hermitian dim x dim matrix with the given nonzero spectrum, zero outside the indices ``support``."""
    support = list(range(dim)) if support is None else support
    shape = (len(support), len(spectrum))
    q = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    h = np.zeros((dim, dim), dtype=complex)
    h[np.ix_(support, support)] = (q * spectrum) @ q.conj().T
    return (h + h.conj().T) / 2


def hermitian_with_min(rng, dim, lowest):
    """A seeded Hermitian matrix with smallest eigenvalue ``lowest`` and the rest in [0.1, 1]."""
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    h = (u * np.concatenate([[lowest], rng.uniform(0.1, 1.0, dim - 1)])) @ u.conj().T
    return (h + h.conj().T) / 2


class TestChoi:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_tree_channels_are_cptp(self, d, seed):
        lam = tc.random_isometry(d, seed)
        for name, c in all_channels(lam).items():
            rep = checked(c)
            assert rep.completely_positive, (d, seed, name)
            assert rep.trace_preserving, (d, seed, name)
            assert rep.choi_min_eigenvalue is None, (d, seed, name)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("lowest, cp", [(-10 * ch.TAU_CHOI, False), (-0.1 * ch.TAU_CHOI, True), (0.0, True)])
    def test_smallest_choi_eigenvalue_decides(self, d, seed, lowest, cp):
        rng = np.random.default_rng([d, seed])
        rep = checked(map_with_choi(hermitian_with_min(rng, d * d, lowest), d))
        assert rep.hermiticity_preserving
        assert rep.completely_positive == cp
        if not cp:
            assert abs(rep.choi_min_eigenvalue - lowest) < 1e-14

    @pytest.mark.parametrize("d", [8, 9])
    @pytest.mark.parametrize("lowest, cp", [(-10 * ch.TAU_CHOI, False), (-0.1 * ch.TAU_CHOI, True)])
    def test_low_rank_choi_matrix_with_one_negative_direction(self, d, lowest, cp):
        rng = np.random.default_rng([d, 2])
        spectrum = np.concatenate([rng.uniform(0.1, 1.0, 6), [lowest]])
        rep = checked(map_with_choi(low_rank_hermitian(rng, d * d, spectrum), d))
        assert rep.completely_positive == cp
        if not cp:
            assert abs(rep.choi_min_eigenvalue - lowest) < 1e-14

    @pytest.mark.parametrize("d", [8, 9])
    def test_indefinite_part_the_pivots_never_see_is_refused(self, d):
        """Rows a and b of the low-rank part are zero, so no pivot and no diagonal entry sees the +-eps block."""
        rng = np.random.default_rng([d, 3])
        a, b, eps = 5, 17, 10 * ch.TAU_CHOI
        choi = low_rank_hermitian(rng, d * d, rng.uniform(0.1, 1.0, 6), [i for i in range(d * d) if i not in (a, b)])
        choi[a, b] = choi[b, a] = eps
        rep = checked(map_with_choi(choi, d))
        assert not rep.completely_positive
        assert abs(rep.choi_min_eigenvalue + eps) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_low_rank_tree_maps_need_no_full_factorization(self, seed, monkeypatch):
        lam = tc.random_isometry(3, seed)
        maps = [ch.pair_descend_channel(lam), ch.extension_channel(lam, 3), ch.extension_channel(lam, 4)]

        def refuse(*args, **kwargs):
            raise AssertionError("a full factorization of the Choi matrix was made")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for c in maps:
            rep = ch.choi_check(c)
            assert rep.completely_positive and rep.choi_min_eigenvalue is None, (c.nu_in, c.nu_out)

    @pytest.mark.parametrize("d", [2, 3])
    def test_transpose_map_is_not_cp(self, d):
        k = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                k[j * d + i, i * d + j] = 1.0
        rep = checked(ch.Channel(d, 1, 1, k))
        assert not rep.completely_positive
        assert rep.trace_preserving
        assert abs(rep.choi_min_eigenvalue + 1) < 1e-14

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_map_that_is_not_hermiticity_preserving_is_not_cp(self, d, seed):
        """Its Choi matrix has a positive definite Hermitian part, so only the Hermiticity check refuses it."""
        rng = np.random.default_rng([d, seed, 1])
        choi = hermitian_with_min(rng, d * d, 0.1) + 1e-3j * rand_herm(rng, d * d)
        rep = checked(map_with_choi(choi, d))
        assert not rep.hermiticity_preserving
        assert not rep.completely_positive
        assert rep.choi_min_eigenvalue > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_matrix_that_is_not_finite_is_refused(self, bad):
        m = np.eye(4)
        m[0, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            ch.Channel(2, 1, 1, m)

    def test_half_identity_is_not_tp(self):
        rep = checked(ch.Channel(2, 1, 1, np.eye(4) / 2))
        assert not rep.trace_preserving


class TestAlgebra:
    def test_square_cpt_eigenvalues_inside_unit_disk(self):
        for seed in range(5):
            lam = tc.random_isometry(2, seed)
            dc = ch.descend_channels(lam)
            for c in (dc.left, dc.right, dc.average, ch.pair_descend_channel(lam)):
                assert np.abs(np.linalg.eigvals(c.matrix)).max() <= 1 + 1e-10

    def test_tensor_matches_parallel_application(self, bundled_lam):
        rng = np.random.default_rng(12)
        dc = ch.descend_channels(bundled_lam)
        grow = growth_channel(bundled_lam)
        joint = tensor(dc.right, grow)
        a, b = rand_density(rng, 2), rand_density(rng, 2)
        out = apply(joint, np.kron(a, b))
        expect = np.kron(apply(dc.right, a), apply(grow, b))
        assert np.abs(out - expect).max() < 1e-13

    def test_tensor_associativity(self, bundled_lam):
        dc = ch.descend_channels(bundled_lam)
        grow = growth_channel(bundled_lam)
        left = tensor(tensor(dc.right, grow), dc.left)
        right = tensor(dc.right, tensor(grow, dc.left))
        assert np.abs(left.matrix - right.matrix).max() < 1e-14

    def test_tensor_bilinearity(self, bundled_lam):
        dc = ch.descend_channels(bundled_lam)
        lhs = tensor(dc.average, dc.left).matrix
        rhs = (tensor(dc.left, dc.left).matrix + tensor(dc.right, dc.left).matrix) / 2
        assert np.abs(lhs - rhs).max() < 1e-14


def test_only_channels_forms_dense_two_site_superoperators(monkeypatch, tmp_path, capsys, sigma_z):
    # every state, correlator, spectrum, oracle check and interaction works in the frame or with site
    # words: no library computation builds a dense channel
    def refuse(*args, **kwargs):
        raise AssertionError("a dense superoperator was formed")

    gram = ch._gram

    def one_site_gram(stack):  # the L and R stacks of the isometries below (d = 2, 3) are the only maps built dense
        return gram(stack) if stack.shape in ((2, 2, 2), (3, 3, 3)) else refuse()

    monkeypatch.setattr(ch, "_gram", one_site_gram)
    monkeypatch.setattr(ch, "pair_descend_channel", refuse)
    monkeypatch.setattr(ch, "descend_channels", refuse)
    monkeypatch.setattr(ch.Channel, "__post_init__", refuse)
    lam, top = tc.random_isometry(2, 5), rand_top(2, 5)
    for nu in (1, 2, 3, 4):
        thermo.thermo_report(lam, nu)
    thermo.classical_pair_infinity(lam)
    co.correlator_thermo(lam, co.CorrelatorQuery(sigma_z, sigma_z, 2))
    co.powerlaw_check(lam, co.CorrelatorQuery(sigma_z, sigma_z))
    co.exponent_spectrum(lam)
    fs.recursion_check(lam, top, 4)
    ph.build_interaction(lam)
    lam3 = tc.random_isometry(3, 7)
    ph.adjoint_nullity_check(lam3, ph.build_interaction(lam3))
    path = str(tmp_path / "iso.json")
    tc.save_isometry(tc.random_isometry(2, 6), path)
    assert main(["correlate", "--isometry", path, "--theta", "z", "--theta-prime", "z"]) == 0
    assert capsys.readouterr().err == ""
