"""Input guards of the library: each rejects a bad input with a
``ValueError`` whose message names the fault."""

import dataclasses

import numpy as np
import pytest

from fcs_spectral import analysis, fcs, linalg, noise, opbasis, spectral
from fcs_spectral.analysis import PreconditionError

AKLT = fcs.from_cstar(fcs.aklt())
OMEGA = spectral.build_omega(AKLT)
CHAIN_STATE = fcs.random_chain(3, 2, 2, 1).state()
CHAIN = spectral.build_chain_omega(CHAIN_STATE, 1, 1)

GUARDS = {
    # fcs
    "realization-kappa-shape": (
        lambda: fcs.Realization(3, np.zeros((4, 2, 2)), np.ones(2), np.ones(2)).validate(),
        ValueError, r"kappa has shape \(4, 2, 2\), expected \(9, m, m\)"),
    "realization-non-finite": (
        lambda: dataclasses.replace(AKLT, e=np.full(AKLT.m, np.nan)).validate(),
        ValueError, "realization contains non-finite entries"),
    "realization-normalization": (
        lambda: dataclasses.replace(AKLT, rho=2.0 * AKLT.rho).validate(),
        ValueError, r"normalization rho\(e\) = 1\.99.* differs from 1"),
    "cstar-rho0-not-stationary": (
        lambda: fcs.CStarRealization(2, 2, fcs.random_cstar(2, 2, 7).v,
                                     np.diag([1.0, 0.0])).validate(),
        ValueError, "rho0 is not stationary"),
    "cstar-isometry-shape": (
        lambda: fcs.CStarRealization(3, 2, np.zeros((5, 2)), np.eye(2) / 2).validate(),
        ValueError, r"V has shape \(5, 2\), expected \(6, 2\)"),
    "density-matrix-trace": (
        lambda: fcs.DensityMatrix(np.eye(2), 2, 1).validate(),
        ValueError, "trace 2.0 differs from 1"),
    "partial-trace-window": (
        lambda: fcs.partial_trace_window(np.eye(4), 2, 2, 2, 1),
        ValueError, r"invalid window \[2, 1\] for 2 sites"),
    "zero-site-marginal": (
        lambda: fcs.marginal(AKLT, 0), ValueError, "t must be >= 1"),
    "product-state-shape": (
        lambda: fcs.product_realization(np.eye(2, 3)),
        ValueError, r"site state has shape \(2, 3\), expected \(2, 2\)"),
    "product-state-trace": (
        lambda: fcs.product_realization(np.eye(2)), ValueError, "site state must have trace 1"),
    "document-kappa-shape": (
        lambda: fcs.realization_from_dict({"version": 1, "d_a": 2, "m": 1, "kappa": [[[1.0]]],
                                           "e": [1.0], "rho": [1.0]}),
        ValueError, r"kappa has shape \(1, 1, 1\), expected \(4, 1, 1\)"),
    # spectral
    "coefficient-vector-size": (
        lambda: spectral.omega_data_from_coefficients(np.zeros(10), d_a=2, s=1),
        ValueError, "coefficient vector size does not match block size s"),
    "truncation-rank-range": (
        lambda: spectral.truncate(OMEGA.omega, rank=10),
        ValueError, r"rank 10 out of range \[1, 9\]"),
    "threshold-above-sigma-1": (
        lambda: spectral.truncate(OMEGA.omega, threshold=10.0),
        ValueError, "threshold 10.0 discards every singular value"),
    "frame-mismatch": (
        lambda: spectral.spectral_realization(OMEGA, spectral.truncate(np.eye(4), rank=1)),
        ValueError, "truncation frame does not match the Omega row space"),
    "chain-block-widths": (
        lambda: spectral.build_chain_omega(CHAIN_STATE, 0, 1),
        ValueError, "block widths must be >= 1"),
    "chain-rank-list-length": (
        lambda: spectral.nonhomog_reconstruct(CHAIN, ranks=[1]),
        ValueError, "expected 2 per-site ranks, got 1"),
    # analysis
    "surrogate-variant": (
        lambda: analysis.surrogate_parameters(OMEGA, OMEGA, 0.1, 4, variant="cstr"),
        ValueError, "unknown variant 'cstr'"),
    "surrogate-sigma": (
        lambda: analysis.surrogate_parameters(OMEGA, OMEGA, 0.0, 4),
        ValueError, "sigma must be positive"),
    "budget-variant": (
        lambda: analysis.precision_budget(0.1, 0.5, 4, 3, 2, variant="cstr"),
        ValueError, "unknown variant 'cstr'"),
    "budget-sigma-above-one": (
        lambda: analysis.precision_budget(0.1, 1.5, 4, 3, 2),
        ValueError, r"sigma must lie in \(0, 1\]"),
    "budget-zero-scale": (
        lambda: analysis.precision_budget(0.1, 0.5, 0, 3, 2),
        ValueError, "scale, d_a and t must be >= 1"),
    "singular-value-shapes": (
        lambda: analysis.check_singular_value_perturbation(np.zeros((2, 3)), np.zeros((3, 2))),
        PreconditionError, r"shape mismatch \(2, 3\) vs \(3, 2\)"),
    "pseudoinverse-shapes": (
        lambda: analysis.check_pseudoinverse_perturbation(np.zeros((2, 3)), np.zeros((3, 2))),
        PreconditionError, r"shape mismatch \(2, 3\) vs \(3, 2\)"),
    "subspace-wide-matrix": (
        lambda: analysis.check_singular_subspace_stability(np.zeros((2, 3)), np.zeros((2, 3)),
                                                           0.5),
        PreconditionError, r"need rows >= cols, got \(2, 3\)"),
    "projected-sigma-shapes": (
        lambda: analysis.check_projected_sigma_stability(np.eye(3), np.eye(2), 0.1),
        PreconditionError, r"shape mismatch \(3, 3\) vs \(2, 2\)"),
    "projected-sigma-rank": (
        lambda: analysis.check_projected_sigma_stability(np.eye(3), np.eye(3), 0.1, m=4),
        PreconditionError, "invalid rank m = 4"),
    # noise, opbasis and linalg
    "negative-epsilon": (
        lambda: noise.perturb_matrix(np.zeros(2), -1.0, noise.make_rng(0)),
        ValueError, "epsilon must be >= 0"),
    "expansion-shape": (
        lambda: opbasis.expand_in_basis(np.eye(3), 2, 1),
        ValueError, r"expected a 2x2 matrix for 1 sites, got \(3, 3\)"),
    "hermitian-not-square": (
        lambda: linalg._check_hermitian(np.zeros((2, 3))),
        ValueError, r"expected a square matrix, got shape \(2, 3\)"),
    "matrix-units-letter-count": (
        lambda: opbasis.matrix_units(np.zeros((5, 1, 1))),
        ValueError, r"matrix_units: 5 letters are not d\^2 for a d >= 2"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_raises_its_named_error(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=message):
        call()
