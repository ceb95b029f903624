"""Homogeneous binary-tree state toolkit.

Computes infinite-depth local density matrices and two-point correlators of
homogeneous binary-tree states through completely positive trace-preserving
channel recursions, extracts power-law critical exponents from channel
spectra, and constructs and verifies local parent Hamiltonians whose exact
ground states these trees are.
"""

from .errors import (
    DegenerateFixedPointError,
    KernelNotFoundError,
    ResourceLimitError,
    ShapeError,
    ValidationError,
)
from .tensor_core import (
    DensityOp,
    Isometry,
    Observable,
    TopTensor,
    numerical_rank,
    paper_isometry,
    paper_lambda_path,
    partial_trace,
    product_isometry,
    random_isometry,
    validate_isometry,
    validate_top,
)
from .channels import (
    Channel,
    choi_check,
    descend_channels,
    extension_channel,
    pair_descend_channel,
)
from .thermo import (
    FixedPointResult,
    classical_pair_infinity,
    reduced_infinity,
    single_site_infinity,
    two_site_infinity,
)
from .correlators import (
    CorrelatorQuery,
    CorrelatorSeries,
    SpectrumReport,
    correlator_series,
    correlator_thermo,
    exponent_spectrum,
    powerlaw_check,
)
from .finite_state import (
    PureState,
    build_state,
    correlator_finite,
    recursion_check,
    reduced_avg,
)
from .parent_ham import (
    GroundSpaceReport,
    HamiltonianSpec,
    RingHamiltonian,
    adjoint_nullity_check,
    assemble,
    build_interaction,
    diagonalize,
    grown_subspace_check,
    kernel_basis,
)
from .mera_bounds import MeraBound, mera_rank_bound

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
