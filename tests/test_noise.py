import numpy as np
import pytest

from fcs_spectral.fcs import DensityMatrix, marginal
from fcs_spectral.noise import (
    _product_outcomes,
    make_rng,
    perturb_matrix,
    perturb_omega_data,
    simulate_tomography,
    spawn_rng,
)
from fcs_spectral.opbasis import expand_in_basis, gellmann
from oracles import block_element, multi_index

def test_perturb_zero_epsilon_is_identity():
    a = np.arange(12.0).reshape(3, 4)
    out = perturb_matrix(a, 0.0, make_rng(0))
    assert np.array_equal(out, a)


def test_perturb_exact_frobenius_distance():
    a = np.ones((4, 4))
    out = perturb_matrix(a, 0.01, make_rng(3))
    assert np.linalg.norm(out - a) == pytest.approx(0.01, abs=1e-14)


def test_perturb_seeds_differ_norms_match():
    a = np.zeros((3, 3))
    o1 = perturb_matrix(a, 0.5, make_rng(1))
    o2 = perturb_matrix(a, 0.5, make_rng(2))
    assert not np.allclose(o1, o2)
    assert np.linalg.norm(o1) == pytest.approx(np.linalg.norm(o2))


def test_perturb_deterministic_per_seed():
    a = np.zeros((3, 3))
    assert np.array_equal(perturb_matrix(a, 0.5, make_rng(9)),
                          perturb_matrix(a, 0.5, make_rng(9)))
    assert np.array_equal(perturb_matrix(np.zeros(5), 0.3, spawn_rng(9, 1, 2)),
                          perturb_matrix(np.zeros(5), 0.3, spawn_rng(9, 1, 2)))


def test_perturb_omega_data_zero_is_copy(aklt_omega):
    out = perturb_omega_data(aklt_omega, 0.0, 0.0, make_rng(0))
    assert np.array_equal(out.omega, aklt_omega.omega)
    assert np.array_equal(out.omega_dot, aklt_omega.omega_dot)
    out.omega[0, 0] += 1.0  # and it is a copy, not a view
    assert aklt_omega.omega[0, 0] != out.omega[0, 0]


def test_perturb_omega_data_draw_order(aklt_omega):
    # one stream: omega, each omega_dot slice at epsilon', omega_one, tau_omega
    rng = make_rng(4)
    omega = perturb_matrix(aklt_omega.omega, 1e-3, rng)
    dots = [perturb_matrix(z, 2e-3, rng) for z in aklt_omega.omega_dot]
    one = perturb_matrix(aklt_omega.omega_one, 1e-3, rng)
    tau = perturb_matrix(aklt_omega.tau_omega, 1e-3, rng)
    out = perturb_omega_data(aklt_omega, 1e-3, 2e-3, make_rng(4))
    assert np.array_equal(out.omega, omega)
    assert np.array_equal(out.omega_dot, np.stack(dots))
    assert np.array_equal(out.omega_one, one)
    assert np.array_equal(out.tau_omega, tau)


def test_perturb_omega_data_per_slice_distance(aklt_omega):
    out = perturb_omega_data(aklt_omega, 1e-3, 1e-3, make_rng(5))
    assert np.linalg.norm(out.omega - aklt_omega.omega) == pytest.approx(1e-3, abs=1e-15)
    for k in range(9):
        dev = np.linalg.norm(out.omega_dot[k] - aklt_omega.omega_dot[k])
        assert dev == pytest.approx(1e-3, abs=1e-15)
    assert np.linalg.norm(out.omega_one - aklt_omega.omega_one) == pytest.approx(1e-3, abs=1e-15)


def test_direction_uniform_on_frobenius_sphere():
    # pooled direction coordinates rescaled by sqrt(n) should look standard
    # normal; chi-square goodness of fit against fixed decile bins
    from statistics import NormalDist

    rng = make_rng(123)
    n = 9 * 9
    coords = []
    for _ in range(200):
        p = perturb_matrix(np.zeros((9, 9)), 1.0, rng)
        coords.append(p.reshape(-1) * np.sqrt(n))
    pooled = np.concatenate(coords)
    edges = [NormalDist().inv_cdf(q) for q in np.linspace(0.1, 0.9, 9)]
    counts, _ = np.histogram(pooled, bins=[-np.inf] + edges + [np.inf])
    expected = pooled.size / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df = 9; 27.9 is the 0.1% critical value
    assert chi2 < 27.9


def test_tomography_identity_observable_is_exact():
    rho = DensityMatrix(matrix=np.eye(3, dtype=complex) / 3.0, dim=3, sites=1)
    est = simulate_tomography(rho, shots=5, rng=make_rng(0))
    assert est[0] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
    # identical across seeds: deterministic outcome
    est2 = simulate_tomography(rho, shots=5, rng=make_rng(99))
    assert est2[0] == est[0]


def test_tomography_large_n_concentrates(aklt_realization):
    m1 = marginal(aklt_realization, 1)
    shots = 10 ** 6
    est = simulate_tomography(m1, shots=shots, rng=make_rng(7))
    # exact lambda_3 coefficient is 0; allow 5 standard errors
    g = gellmann(3)[3]
    var = np.trace(g @ g @ m1.matrix).real  # <G^2> with <G> = 0
    assert abs(est[3]) <= 5 * np.sqrt(var / shots)


# simulate_tomography has one shot model; "mode" only names it in the test ids
@pytest.mark.parametrize("mode", ["shot_multinomial"])
def test_tomography_unbiased_and_variance(mode):
    rng = np.random.default_rng(1)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_m = g @ g.conj().T
    rho_m /= np.trace(rho_m).real
    dm = DensityMatrix(matrix=rho_m, dim=2, sites=1)
    exact = np.array([np.trace(rho_m @ el).real for el in gellmann(2)])
    shots = 64
    reps = 1000
    samples = np.array([
        simulate_tomography(dm, shots=shots, rng=spawn_rng(42, i))
        for i in range(reps)
    ])
    mean = samples.mean(axis=0)
    g_sq = np.array([np.trace(el @ el @ rho_m).real for el in gellmann(2)])
    var = (g_sq - exact ** 2) / shots
    se = np.sqrt(var / reps)
    nontrivial = var > 1e-18
    assert np.all(np.abs(mean - exact)[nontrivial] <= 5 * se[nontrivial])
    emp_var = samples.var(axis=0, ddof=1)
    ratio = emp_var[nontrivial] / var[nontrivial]
    assert np.all((ratio > 0.85) & (ratio < 1.15))


def test_tomography_clips_negative_probabilities():
    # slightly non-PSD input triggers the clip-and-renormalize warning
    m = np.diag([1.001, -0.001]).astype(complex)
    dm = DensityMatrix(matrix=m, dim=2, sites=1)
    with pytest.warns(RuntimeWarning, match="clipping"):
        est = simulate_tomography(dm, shots=10, rng=make_rng(0))
    assert np.all(np.isfinite(est))


def test_tomography_rejects_bad_args():
    dm = DensityMatrix(matrix=np.eye(2, dtype=complex) / 2, dim=2, sites=1)
    with pytest.raises(ValueError):
        simulate_tomography(dm, shots=0, rng=make_rng(0))


def test_reconstruction_error_monotone_in_epsilon(aklt_omega, aklt_realization):
    # mean trace distance over seeds grows with the perturbation scale
    from fcs_spectral.analysis import difference_distances
    from fcs_spectral.fcs import marginal_difference
    from fcs_spectral.spectral import spectral_realization, truncate

    means = []
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        tds = []
        for trial in range(20):
            od_hat = perturb_omega_data(aklt_omega, eps, eps, spawn_rng(77, trial))
            sr = spectral_realization(od_hat, truncate(od_hat.omega, rank=4))
            tds.append(difference_distances(
                next(marginal_difference(sr, aklt_realization, [3])))[0])
        means.append(np.mean(tds))
    assert all(a < b for a, b in zip(means, means[1:]))


# -- product-basis simulator against the per-element oracle --------------------

def _random_state(d, k, seed):
    rng = np.random.default_rng(seed)
    n = d ** k
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityMatrix(matrix=m / np.trace(m).real, dim=d, sites=k)


def _reference_outcomes(dm):
    """Eigenvalues and outcome probabilities of every block element, one
    Kronecker product and one eigh per element."""
    out = []
    for flat in range(dm.dim ** (2 * dm.sites)):
        g = block_element(gellmann(dm.dim), multi_index(flat, dm.sites, dm.dim))
        vals, vecs = np.linalg.eigh(g)
        probs = np.einsum("ik,ij,jk->k", vecs.conj(), dm.matrix, vecs).real
        out.append((vals, probs))
    return out


def _by_eigenvalue(vals, probs):
    # a degenerate eigenspace has no preferred basis; its total probability
    # Tr(P_lambda rho) does
    order = np.argsort(vals)
    v, p = vals[order], probs[order]
    starts = np.flatnonzero(np.r_[True, np.diff(v) > 1e-9])
    return v[starts], np.add.reduceat(p, starts)


@pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_product_outcomes_match_per_element_oracle(d, k):
    dm = _random_state(d, k, seed=10 * d + k)
    vals, probs = _product_outcomes(dm.matrix, d, k)
    assert vals.shape == probs.shape == (d ** (2 * k), d ** k)
    for w, (ref_vals, ref_probs) in enumerate(_reference_outcomes(dm)):
        levels, dist = _by_eigenvalue(vals[w], probs[w])
        ref_levels, ref_dist = _by_eigenvalue(ref_vals, ref_probs)
        assert levels.shape == ref_levels.shape, w
        assert np.abs(levels - ref_levels).max() <= 1e-12, w
        assert np.abs(dist - ref_dist).max() <= 1e-12, w
    means = np.einsum("ij,ij->i", vals, probs)
    assert np.abs(means - expand_in_basis(dm.matrix, d, k)).max() <= 1e-12


@pytest.mark.parametrize("mode", ["shot_multinomial"])
def test_tomography_two_site_unbiased_and_variance(mode):
    dm = _random_state(2, 2, seed=1)
    exact = expand_in_basis(dm.matrix, 2, 2)
    elements = [block_element(gellmann(2), multi_index(w, 2, 2)) for w in range(16)]
    g_sq = np.array([np.trace(g @ g @ dm.matrix).real for g in elements])
    shots = 64
    reps = 1000
    samples = np.array([
        simulate_tomography(dm, shots=shots, rng=spawn_rng(43, i))
        for i in range(reps)
    ])
    var = (g_sq - exact ** 2) / shots
    nontrivial = var > 1e-18
    assert np.all(samples[:, ~nontrivial] == exact[~nontrivial])
    mean = samples.mean(axis=0)
    se = np.sqrt(var / reps)
    assert np.all(np.abs(mean - exact)[nontrivial] <= 5 * se[nontrivial])
    ratio = samples.var(axis=0, ddof=1)[nontrivial] / var[nontrivial]
    assert np.all((ratio > 0.85) & (ratio < 1.15))


@pytest.mark.parametrize("mode", ["shot_multinomial"])
@pytest.mark.parametrize("d", [2, 3])
def test_tomography_identity_exact_at_three_sites(d, mode):
    dm = _random_state(d, 3, seed=5)
    est = [simulate_tomography(dm, shots=7, rng=make_rng(seed))[0] for seed in (0, 1)]
    assert est[0] == est[1]
    assert est[0] == pytest.approx(d ** -1.5, abs=1e-12)


@pytest.mark.parametrize("mode", ["shot_multinomial"])
def test_tomography_one_batched_draw_per_marginal(mode):
    # the identity row has zero variance and draws nothing; every other
    # element is drawn in one call, rows in flat block order
    class Recorder:
        def __init__(self):
            self.rng, self.calls = make_rng(0), []

        def multinomial(self, n, pvals):
            self.calls.append(("multinomial", np.shape(pvals)))
            return self.rng.multinomial(n, pvals)

    rec = Recorder()
    simulate_tomography(_random_state(2, 2, seed=3), shots=10, rng=rec)
    assert rec.calls == [("multinomial", (15, 4))]
