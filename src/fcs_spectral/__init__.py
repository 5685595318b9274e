"""Learning matrix-product-operator descriptions of finitely correlated
states from estimates of small marginals, with empirical validation of the
associated perturbation bounds.

The exports resolve on first use (PEP 562), so importing the package loads
no numpy: ``fcs_spectral.cli`` can then set OpenBLAS's idle-thread timeout
before numpy loads.
"""

import importlib

# export name -> the module of the package that defines it
_EXPORTS = {name: module for module, names in {
    "analysis": ("CheckReport", "ErrorParameters", "PrecisionBudget", "PreconditionError",
                 "check_projected_sigma_stability", "check_pseudoinverse_perturbation",
                 "check_singular_subspace_stability", "check_singular_value_perturbation",
                 "error_propagation_bound", "hs_distance", "precision_budget",
                 "trace_distance"),
    "fcs": ("AKLT_THETA", "CStarRealization", "ChainRealization", "DensityMatrix",
            "Realization", "aklt", "from_cstar", "load_realization", "marginal",
            "product_realization", "random_cstar", "random_chain", "rank_profile",
            "save_realization", "t_star"),
    "noise": ("make_rng", "perturb_matrix", "perturb_omega_data", "simulate_tomography",
              "spawn_rng"),
    "opbasis": ("expand_in_basis", "gellmann"),
    "spectral": ("ChainOmegaData", "OmegaData", "SvdTruncation", "build_chain_omega",
                 "build_omega", "build_omega_from_marginal", "nonhomog_reconstruct",
                 "spectral_realization", "truncate"),
}.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
