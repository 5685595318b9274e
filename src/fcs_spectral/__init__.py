"""Learning matrix-product-operator descriptions of finitely correlated
states from estimates of small marginals, with empirical validation of the
associated perturbation bounds."""

from .analysis import (
    CheckReport,
    ErrorParameters,
    PrecisionBudget,
    PreconditionError,
    error_propagation_bound,
    hs_distance,
    precision_budget,
    trace_distance,
)
from .fcs import (
    AKLT_THETA,
    CStarRealization,
    ChainRealization,
    DensityMatrix,
    Realization,
    aklt,
    chain_state,
    dense_state,
    from_cstar,
    load_realization,
    marginal,
    product_realization,
    random_cstar,
    random_chain,
    rank_profile,
    save_realization,
    t_star,
)
from .noise import make_rng, perturb_matrix, perturb_omega_data, simulate_tomography, spawn_rng
from .opbasis import HermitianBasis, expand_in_basis, gellmann
from .spectral import (
    ChainOmegaData,
    OmegaData,
    SvdTruncation,
    build_chain_omega,
    build_omega,
    build_omega_from_marginal,
    nonhomog_reconstruct,
    spectral_realization,
    truncate,
)

__version__ = "0.1.0"
