import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fcs_spectral import analysis
from fcs_spectral.analysis import (
    GUARANTEE_CONSTANT,
    CheckReport,
    ErrorParameters,
    PreconditionError,
    chain_bound,
    check_singular_subspace_stability,
    difference_distances,
    error_propagation_bound,
    hs_distance,
    check_realization_estimate_bounds,
    check_singular_value_perturbation,
    check_pseudoinverse_perturbation,
    check_projected_sigma_stability,
    precision_budget,
    sigma_m,
    surrogate_parameters,
    trace_distance,
)
from fcs_spectral.fcs import from_cstar, random_chain, random_cstar
from fcs_spectral.noise import make_rng, perturb_omega_data, spawn_rng
from fcs_spectral.opbasis import gellmann
from fcs_spectral.spectral import build_chain_omega, build_omega, truncate
from oracles import assemble_from_coefficients


# -- distances -----------------------------------------------------------------

def test_trace_distance_identical_is_zero():
    a = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(a, a) == 0.0


def test_trace_distance_orthogonal_pure_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)


def test_trace_distance_diagonal_case():
    assert trace_distance(np.diag([0.6, 0.4]), np.diag([0.5, 0.5])) == pytest.approx(0.1)


def test_trace_distance_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        trace_distance(np.eye(2), np.eye(3))


@pytest.mark.parametrize("seed", range(10))
def test_trace_distance_metric_axioms(seed):
    rng = np.random.default_rng(seed)

    def rand_state():
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    a, b, c = rand_state(), rand_state(), rand_state()
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_hs_distance():
    assert hs_distance(np.zeros((2, 2)), np.eye(2)) == pytest.approx(math.sqrt(2.0))


def test_difference_distances_match_pairwise():
    rng = np.random.default_rng(3)
    c1 = rng.standard_normal(16)
    c2 = rng.standard_normal(16)
    a = assemble_from_coefficients(c1, gellmann(2), 2)
    b = assemble_from_coefficients(c2, gellmann(2), 2)
    td, hs = difference_distances(a - b)
    assert td == pytest.approx(trace_distance(a, b), abs=1e-12)
    assert hs == pytest.approx(hs_distance(a, b), abs=1e-12)
    # the basis is orthonormal: the HS distance is the coefficient 2-norm
    assert hs == pytest.approx(np.linalg.norm(c1 - c2), rel=1e-13)


def test_trial_evaluation_peak_memory(aklt_realization, aklt_omega):
    # one trial's evaluation at t = 6 (TD and HS of a 729 x 729 difference)
    # allocates at most 2.5 such matrices: the product and its transposed copy
    from fcs_spectral.fcs import marginal_difference
    from fcs_spectral.spectral import spectral_realization, truncate

    od_hat = perturb_omega_data(aklt_omega, 1e-3, None, spawn_rng(5, 0))
    sr = spectral_realization(od_hat, truncate(od_hat.omega, rank=4))
    tracemalloc.start()
    try:
        td, hs = difference_distances(next(marginal_difference(sr, aklt_realization, [6])))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < hs <= 2.0 * td
    assert peak <= 2.5 * 729 * 729 * 16, f"peak {peak / (729 * 729 * 16):.2f} matrices"


# -- error propagation ------------------------------------------------------------

def test_error_propagation_zero():
    assert error_propagation_bound(ErrorParameters(0, 0, 0), 5) == 0.0


def test_error_propagation_all_ones():
    assert error_propagation_bound(ErrorParameters(1, 1, 1), 1) == pytest.approx(7.0)


def test_error_propagation_monotone_and_proof_step():
    # with delta_1 = delta_inf = a and Delta = a/t, the bound is at most
    # (1+a)^2 (1+2a) - 1 via (1 + a/t)^t <= 1 + 2a for a in [0, 1]
    for a in np.linspace(0.01, 1.0, 12):
        for t in (1, 2, 5, 17):
            val = error_propagation_bound(ErrorParameters(a, a, a / t), t)
            cap = (1 + a) ** 2 * (1 + 2 * a) - 1
            assert val <= cap + 1e-12
    base = error_propagation_bound(ErrorParameters(0.1, 0.1, 0.1), 3)
    assert error_propagation_bound(ErrorParameters(0.2, 0.1, 0.1), 3) > base
    assert error_propagation_bound(ErrorParameters(0.1, 0.2, 0.1), 3) > base
    assert error_propagation_bound(ErrorParameters(0.1, 0.1, 0.2), 3) > base
    assert error_propagation_bound(ErrorParameters(0.1, 0.1, 0.1), 4) > base


def test_error_propagation_past_float_range_is_inf():
    assert error_propagation_bound(ErrorParameters(0, 0, 1e200), 2) == np.inf
    assert error_propagation_bound(ErrorParameters(1e200, 1e200, 0), 1) == np.inf


def test_error_parameters_reject_negative():
    with pytest.raises(ValueError):
        ErrorParameters(-0.1, 0, 0)
    with pytest.raises(ValueError):
        error_propagation_bound(ErrorParameters(0, 0, 0), -1)


# -- precision budget --------------------------------------------------------------

def test_budget_guarantee_constant():
    assert GUARANTEE_CONSTANT == pytest.approx(145.0 / 9.0)
    pb = precision_budget(0.5, 0.5, 2, 3, 4)
    assert pb.guarantee_constant == pytest.approx(145.0 / 9.0)
    assert pb.guaranteed_error == pytest.approx(0.5 * 145.0 / 9.0)


def test_budget_unit_plugin_case():
    # sigma = 1, scale = 1, d_a = 1, t = 1, eps -> 1 (approached from below)
    eps = 0.999999
    pb = precision_budget(eps, 1.0, 1, 1, 1)
    assert pb.tol_omega == pytest.approx((1.0 / 3.0) * min(0.25, math.sqrt(3) / 8) * eps)
    assert pb.tol_tau_omega == pytest.approx(0.75 * eps)
    assert pb.tol_omega_one == pytest.approx(math.sqrt(3.0) / 2.0 * eps)
    assert pb.tol_omega_dot == pytest.approx(3.0 * math.sqrt(3.0) / 8.0 * eps)
    assert pb.epsilon_hs == pytest.approx(eps / 20.0)


def test_budget_hand_evaluated_cases():
    # five hand-evaluated plug-ins, general variant; all formulas reduced
    # independently by hand to the expressions below
    cases = [
        # (eps, sigma, scale, d_a, t)
        (0.1, 2.0 / 9.0, 4, 3, 5),
        (0.5, 0.5, 2, 2, 3),
        (0.01, 1.0, 1, 4, 2),
        (0.25, 0.9, 3, 9, 7),
        (0.9, 0.3, 5, 2, 1),
    ]
    for eps, sig, scale, d_a, t in cases:
        pb = precision_budget(eps, sig, scale, d_a, t)
        assert pb.tol_tau_omega == pytest.approx(3 * sig * eps / 4, rel=1e-15)
        assert pb.tol_omega_one == pytest.approx(math.sqrt(3) * sig * eps / 2, rel=1e-15)
        assert pb.tol_omega == pytest.approx(
            min(sig ** 2 * eps / 12,
                math.sqrt(3) * sig ** 3 * eps / (24 * t * scale * math.sqrt(d_a))),
            rel=1e-15)
        assert pb.tol_omega_dot == pytest.approx(
            3 * math.sqrt(3) * sig ** 2 * eps / (8 * t * scale * math.sqrt(d_a)), rel=1e-15)
        assert pb.epsilon_hs == pytest.approx(
            eps * sig ** 3 / (20 * t * scale * math.sqrt(d_a)), rel=1e-15)


def test_budget_aklt_regression_values():
    # recorded from the first run at sigma_4 = 2/9, scale m = 4, d_a = 3
    pb = precision_budget(0.1, 2.0 / 9.0, 4, 3, 5)
    assert pb.tol_tau_omega == pytest.approx(0.016666666666666666, rel=1e-12)
    assert pb.tol_omega_one == pytest.approx(0.019245008972987525, rel=1e-12)
    assert pb.tol_omega == pytest.approx(2.2862368541380883e-06, rel=1e-12)
    assert pb.tol_omega_dot == pytest.approx(9.25925925925926e-05, rel=1e-12)
    assert pb.epsilon_hs == pytest.approx(1.5839513558014423e-06, rel=1e-12)


def test_budget_cstar_variant_scales():
    g = precision_budget(0.1, 0.5, 4, 3, 5, variant="general")
    c = precision_budget(0.1, 0.5, 4, 3, 5, variant="cstar")
    assert c.tol_omega_one == pytest.approx(g.tol_omega_one / 2.0)  # sqrt(d_b) = 2
    assert c.tol_omega == g.tol_omega
    assert c.tol_omega_dot == g.tol_omega_dot


def test_budget_rejects_degenerate_sigma():
    with pytest.raises(ValueError):
        precision_budget(0.1, 0.0, 1, 2, 1)
    with pytest.raises(ValueError):
        precision_budget(1.5, 0.5, 1, 2, 1)


# -- sigma_m -----------------------------------------------------------

def test_sigma_m_identity():
    assert sigma_m(np.eye(5), 3) == pytest.approx(1.0)


def test_sigma_m_aklt(aklt_omega):
    assert sigma_m(aklt_omega.omega, 4) > 1e-10
    assert sigma_m(aklt_omega.omega, 5) <= 1e-10
    assert sigma_m(aklt_omega.omega, 4) == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_sigma_m_range_check():
    with pytest.raises(ValueError):
        sigma_m(np.eye(3), 4)


# -- perturbation checkers ------------------------------------------------------------

def test_sv_perturbation_zero_equality():
    rep = check_singular_value_perturbation(np.diag([2.0, 1.0]), np.zeros((2, 2)))
    assert rep.passed
    assert all(c.lhs == 0.0 for c in rep.inequalities)


@pytest.mark.parametrize("seed", range(100))
def test_sv_perturbation_random_sweep(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 4))
    e = rng.standard_normal((6, 4)) * rng.uniform(0.01, 5.0)
    assert check_singular_value_perturbation(a, e).passed


@pytest.mark.parametrize("seed", range(50))
def test_pinv_perturbation_random_sweep(seed):
    rng = np.random.default_rng(500 + seed)
    a = rng.standard_normal((5, 7))
    assert check_pseudoinverse_perturbation(a, a + 0.1 * rng.standard_normal((5, 7))).passed


def test_subspace_stability_preconditions_raise():
    a = np.diag([2.0, 1.0])
    with pytest.raises(PreconditionError):
        check_singular_subspace_stability(a, np.eye(2) * 5.0, 0.5)  # ||E|| too large
    with pytest.raises(PreconditionError):
        check_singular_subspace_stability(a, np.zeros((2, 2)), 1.5)  # epsilon >= 1
    with pytest.raises(PreconditionError):
        check_singular_subspace_stability(np.zeros((3, 2)), np.zeros((3, 2)), 0.5)  # rank deficient


@pytest.mark.parametrize("seed", range(50))
def test_subspace_stability_random_sweep(seed):
    rng = np.random.default_rng(900 + seed)
    a = rng.standard_normal((8, 4))
    eps = float(rng.uniform(0.05, 0.9))
    sig_n = np.linalg.svd(a, compute_uv=False)[-1]
    e = rng.standard_normal((8, 4))
    e *= 0.9 * eps * sig_n / np.linalg.svd(e, compute_uv=False)[0]
    assert check_singular_subspace_stability(a, e, eps).passed


def test_projected_sigma_preconditions_raise(aklt_omega):
    with pytest.raises(PreconditionError):
        check_projected_sigma_stability(aklt_omega.omega, aklt_omega.omega, 0.7)  # epsilon >= 1/2
    big = aklt_omega.omega + np.full_like(aklt_omega.omega, 1.0)
    with pytest.raises(PreconditionError):
        check_projected_sigma_stability(aklt_omega.omega, big, 0.4)


def test_projected_sigma_aklt_perturbation(aklt_omega):
    rng = make_rng(17)
    sig4 = sigma_m(aklt_omega.omega, 4)
    p = rng.standard_normal((9, 9))
    pert = aklt_omega.omega + 0.1 * sig4 * p / np.linalg.svd(p, compute_uv=False)[0]
    rep = check_projected_sigma_stability(aklt_omega.omega, pert, 0.1, m=4)
    assert rep.passed
    names = [c.name for c in rep.inequalities]
    assert len(names) == 3


@pytest.mark.parametrize("seed", range(50))
def test_projected_sigma_random_sweep(seed):
    rng = np.random.default_rng(1300 + seed)
    rows, cols = 9, 7
    m = int(rng.integers(1, 7))
    u = np.linalg.qr(rng.standard_normal((rows, m)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, m)))[0]
    s = np.sort(rng.uniform(0.1, 1.0, size=m))[::-1]
    omega = (u * s) @ v.T
    eps = float(rng.uniform(0.01, 0.49))
    e = rng.standard_normal((rows, cols))
    e *= 0.9 * eps * s[-1] / np.linalg.svd(e, compute_uv=False)[0]
    assert check_projected_sigma_stability(omega, omega + e, eps, m=m).passed


# -- realization estimate bounds -------------------------------------------------------

@pytest.fixture(scope="module")
def aklt_frame(aklt_omega):
    return truncate(aklt_omega.omega, rank=4)


def test_estimate_bounds_zero_noise_left_sides_vanish(aklt_omega, aklt_frame):
    rep = check_realization_estimate_bounds(aklt_omega, aklt_omega, aklt_frame)
    assert rep.passed
    by_name = {c.name: c for c in rep.inequalities}
    assert by_name["||e^ - e~||_2 <= ||dOmega(1)||_2"].lhs <= 1e-12
    assert by_name["||K~ - K^||_2->2 bound"].lhs <= 1e-10


def test_estimate_bounds_hypothesis_violation_raises(aklt_omega, aklt_frame):
    # way beyond sigma_m / 3
    noisy = dataclasses.replace(aklt_omega, omega=aklt_omega.omega + 0.5)
    with pytest.raises(PreconditionError):
        check_realization_estimate_bounds(aklt_omega, noisy, aklt_frame)


@pytest.mark.parametrize("seed", range(20))
def test_estimate_bounds_aklt_sweep(seed, aklt_omega, aklt_frame):
    od_hat = perturb_omega_data(aklt_omega, 1e-3, 1e-3, make_rng(2000 + seed))
    assert check_realization_estimate_bounds(aklt_omega, od_hat, aklt_frame).passed


@pytest.mark.parametrize("seed", range(10))
def test_estimate_bounds_random_model_sweep(seed):
    r = from_cstar(random_cstar(2, 2, 3000 + seed))
    od = build_omega(r)
    sv = np.linalg.svd(od.omega, compute_uv=False)
    rank = int((sv > 1e-9 * sv[0]).sum())
    od_hat = perturb_omega_data(od, 1e-4, 1e-4, spawn_rng(31, seed))
    assert check_realization_estimate_bounds(od, od_hat, truncate(od.omega, rank=rank)).passed


def test_surrogate_parameters_zero_noise(aklt_omega):
    ep = surrogate_parameters(aklt_omega, aklt_omega, 2.0 / 9.0, 4)
    assert ep.delta_1 == 0.0 and ep.delta_inf == 0.0 and ep.delta_cap == 0.0
    ep_c = surrogate_parameters(aklt_omega, aklt_omega, 2.0 / 9.0, 2, variant="cstar")
    assert ep_c.delta_cap == 0.0


# float.hex of the surrogate parameters of 20 noisy block-size-2 AKLT
# estimates; omega_dot has 9 x 81 x 81 entries there, enough for a BLAS dot
# to split its sum across threads
_SURROGATE_BITS = """
from fcs_spectral import analysis, fcs, noise, spectral
od = spectral.build_omega(fcs.from_cstar(fcs.aklt()), s_left=2, s_right=2)
sigma = analysis.sigma_m(od.omega, 4)
for trial in range(20):
    od_hat = noise.perturb_omega_data(od, 1e-3, 1e-3, noise.spawn_rng(3, 0, trial))
    p = analysis.surrogate_parameters(od, od_hat, sigma, 4)
    print(p.delta_1.hex(), p.delta_inf.hex(), p.delta_cap.hex())
"""


def test_surrogate_parameters_bits_independent_of_blas_threads():
    src = str(Path(analysis.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _SURROGATE_BITS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 20
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("site, bits", [
    (1, "0x1.ab787c55aa998p-1"), (2, "0x1.ed5378480b02fp+9"), (4, "0x1.aea69cc61b2a4p+0"),
])
def test_chain_bound_bits(site, bits):
    # recorded before the chain bound moved into analysis.  A deviation at
    # one site alone makes its term the maximum: site 1 takes m = sigma = 1
    # on its frame side, and site n = 4 has no window form
    cod = build_chain_omega(random_chain(4, 2, 2, 3).state(), 2, 2)
    sigmas = [sigma_m(cod.omegas[j], 4) for j in range(1, 4)]
    cod_hat = dataclasses.replace(cod, omegas=dict(cod.omegas), omega_dots=dict(cod.omega_dots))
    cod_hat.omega_dots[site] = cod.omega_dots[site] + 1e-4
    if site < 4:
        cod_hat.omegas[site] = cod.omegas[site] + 1e-4
    assert chain_bound(cod, cod_hat, [4, 4, 4], sigmas).hex() == bits


def test_report_serializes_to_json(aklt_omega, aklt_frame):
    rep = check_realization_estimate_bounds(aklt_omega, aklt_omega, aklt_frame)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["version"] == 1
    assert doc["passed"] is True
    for ineq in doc["inequalities"]:
        assert set(ineq) == {"name", "lhs", "rhs", "margin", "ok"}
    assert isinstance(CheckReport(name="x"), CheckReport)
