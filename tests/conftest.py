import json

import numpy as np
import pytest

from hbts import tensor_core as tc


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


def write_entries(path, d, entries):
    """Write an entry file (isometry, top tensor or observable) from raw JSON lists."""
    with open(path, "w") as fh:
        json.dump({"d": d, "entries": entries}, fh)
    return str(path)


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
