"""Every public result type survives a pickle round trip, so results can cross process boundaries."""

import dataclasses
import pickle

import numpy as np
import pytest

from hbts import channels as ch
from hbts import correlators as co
from hbts import finite_state as fs
from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts import thermo


def _z():
    return tc.Observable(2, np.diag([1.0, -1.0]))


def _derived(lam):
    """lam after a spectrum, with the eigs it derived kept in its memo."""
    co.exponent_spectrum(lam)
    return lam


# each public result type and a call that makes one from the bundled isometry
RESULTS = {
    "Isometry": _derived,
    "DensityOp": thermo.two_site_infinity,
    "FixedPointResult": thermo.single_site_infinity,
    "SpectrumReport": co.exponent_spectrum,
    "CorrelatorSeries": lambda lam: co.powerlaw_check(lam, co.CorrelatorQuery(_z(), _z())),
    "Channel": ch.pair_descend_channel,
    "ChoiReport": lambda lam: ch.choi_check(ch.pair_descend_channel(lam)),
    "HamiltonianSpec": ph.build_interaction,
    "GroundSpaceReport": lambda lam: ph.diagonalize(ph.assemble(ph.build_interaction(lam), 6)),
    "SubspaceReport": lambda lam: ph.grown_subspace_check(lam, ph.build_interaction(lam), 6),
    "RecursionReport": lambda lam: fs.recursion_check(lam, tc.TopTensor(2, np.eye(2) / np.sqrt(2.0)), 3),
}


def assert_same(a, b):
    """a and b hold the same values, field by field of a dataclass and item by item of a container."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")
    else:
        assert a == b or (a != a and b != b)  # NaN is the one value unequal to itself


@pytest.mark.parametrize("kind", sorted(RESULTS))
def test_public_results_pickle(kind):
    lam = tc.paper_isometry()
    result = RESULTS[kind](lam)
    assert type(result).__name__ == kind
    copy = pickle.loads(pickle.dumps(result))
    assert_same(copy, result)
    if kind == "SpectrumReport":
        assert copy == result
