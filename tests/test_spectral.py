import numpy as np
import pytest

from fcs_spectral import fcs
from fcs_spectral.analysis import difference_distances, trace_distance
from fcs_spectral.fcs import (
    from_cstar,
    marginal,
    product_realization,
    random_cstar,
    random_chain,
)
from fcs_spectral.noise import make_rng, perturb_chain_omega, perturb_omega_data, spawn_rng
from fcs_spectral.opbasis import expand_in_basis
from fcs_spectral.spectral import (
    build_chain_omega,
    build_omega,
    build_omega_from_marginal,
    nonhomog_reconstruct,
    spectral_realization,
    truncate,
)
from oracles import chain_forms, validate_exact, word_coefficient_tensor


# -- Omega assembly -----------------------------------------------------------

def test_product_state_omega_is_rank_one():
    r = product_realization(np.diag([0.8, 0.2]).astype(complex))
    od = build_omega(r, s_left=2, s_right=2)
    s = np.linalg.svd(od.omega, compute_uv=False)
    assert s[0] > 0 and np.all(s[1:] <= 1e-12)
    # omega = xi xi^T with xi the 2-site coefficient vector
    xi = expand_in_basis(marginal(r, 2).matrix, 2, 2)
    assert np.abs(od.omega - np.outer(xi, xi)).max() <= 1e-12


def test_aklt_omega_identity_entry(aklt_omega):
    assert aklt_omega.omega[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_aklt_omega_rank_four(aklt_omega):
    s = np.linalg.svd(aklt_omega.omega, compute_uv=False)
    assert int((s > 1e-10).sum()) == 4


def test_omega_exact_consistency(aklt_omega):
    validate_exact(aklt_omega)


def test_build_omega_matches_marginal_path(aklt_realization):
    # every field of block size s is a slice of the (2s+1)-site marginal
    random2 = from_cstar(random_cstar(2, 2, 5))
    for r in (aklt_realization, random2):
        for s in (1, 2):
            exact = build_omega(r, s_left=s, s_right=s)
            od = build_omega_from_marginal(marginal(r, 2 * s + 1))
            assert (od.s_left, od.s_right) == (s, s)
            for name in ("omega", "omega_dot", "omega_one", "tau_omega"):
                got, want = getattr(od, name), getattr(exact, name)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("sites", [1, 2, 4])
def test_build_omega_from_marginal_needs_odd_size(aklt_realization, sites):
    with pytest.raises(ValueError, match=f"a {sites}-site marginal is not of size 2s"):
        build_omega_from_marginal(marginal(aklt_realization, sites))


def test_build_omega_is_linear_in_marginals():
    ra = from_cstar(random_cstar(2, 2, 21))
    rb = from_cstar(random_cstar(2, 2, 22))
    a, b = marginal(ra, 3), marginal(rb, 3)
    lam = 0.3
    mixed = fcs.DensityMatrix(matrix=lam * a.matrix + (1 - lam) * b.matrix, dim=2, sites=3)
    od_mix = build_omega_from_marginal(mixed)
    od_a = build_omega_from_marginal(a)
    od_b = build_omega_from_marginal(b)
    assert np.abs(od_mix.omega - (lam * od_a.omega + (1 - lam) * od_b.omega)).max() <= 1e-12


# -- truncation ----------------------------------------------------------------

def test_truncate_threshold_keeps_everything_above():
    tr = truncate(np.eye(4), threshold=0.5)
    assert tr.rank == 4 and tr.discarded.size == 0


def test_truncate_threshold_tie_is_kept():
    tr = truncate(np.diag([1.0, 0.5, 0.3]), threshold=0.5)
    assert tr.rank == 2


def test_truncate_threshold_splits():
    tr = truncate(np.diag([1.0, 0.3]), threshold=0.5)
    assert tr.rank == 1
    assert np.allclose(tr.discarded, [0.3])


def test_truncate_fixed_rank_aklt(aklt_omega):
    tr = truncate(aklt_omega.omega, rank=4)
    assert np.all(tr.discarded <= 1e-10)
    assert np.abs(tr.u_hat.T @ tr.u_hat - np.eye(4)).max() <= 1e-10


def test_truncate_rank_deficient_raises():
    with pytest.raises(ValueError, match="rank-deficient"):
        truncate(np.diag([1.0, 0.0]), rank=2)


def test_truncate_rank_guard_is_the_inversion_cutoff():
    # sigma_4 / sigma_1 = 1e-13 is above an absolute 1e-14 but at most
    # PINV_RTOL: the pseudoinverse of U^T Omega would drop the fourth
    # direction, so rank 4 is rejected; rank 3 is not
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((9, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((9, 4)))[0]
    omega = (u * [0.5, 0.3, 0.2, 5e-14]) @ v.T
    with pytest.raises(ValueError, match="rank-deficient truncation: sigma_4"):
        truncate(omega, rank=4)
    assert truncate(omega, rank=3).rank == 3


def test_spectral_realization_rejects_rank_deficient_projected_omega(aklt_omega):
    # threshold 1e-20 keeps 8 directions of the rank-4 exact Omega, four of
    # them at or below the inversion cutoff: the realization refuses them
    # rather than invert them as zero
    tr = truncate(aklt_omega.omega, threshold=1e-20)
    assert tr.rank == 8
    with pytest.raises(ValueError, match="rank-deficient projected Omega"):
        spectral_realization(aklt_omega, tr)


def test_truncate_argument_validation(aklt_omega):
    with pytest.raises(ValueError):
        truncate(aklt_omega.omega)
    with pytest.raises(ValueError):
        truncate(aklt_omega.omega, rank=4, threshold=0.1)


# -- spectral reconstruction ----------------------------------------------------

def test_product_state_reconstruction():
    rho_site = np.diag([0.8, 0.2]).astype(complex)
    r = product_realization(rho_site)
    od = build_omega(r)
    tr = truncate(od.omega, rank=1)
    sr = spectral_realization(od, tr)
    assert sr.m == 1
    expected = rho_site.copy()
    for t in range(1, 6):
        rec = marginal(sr, t)
        assert np.abs(rec.matrix - expected).max() <= 1e-10
        expected = np.kron(expected, rho_site)


def test_aklt_exact_round_trip_small(aklt_realization, aklt_omega):
    tr = truncate(aklt_omega.omega, rank=4)
    sr = spectral_realization(aklt_omega, tr)
    for t in (1, 2, 3, 4):
        rec = marginal(sr, t)
        exact = marginal(aklt_realization, t)
        assert trace_distance(rec, exact) <= 1e-9
        assert rec.trace() == pytest.approx(1.0, abs=1e-9)


def test_block_size_must_reach_stabilized_rank():
    # memory-3 qubit model: the bilinear form has rank 9, but single-site
    # blocks span only a 4-dimensional space; reconstruction is exact once
    # the blocks are wide enough and garbage below that
    from fcs_spectral.fcs import marginal_difference, rank_profile, t_star

    r = from_cstar(random_cstar(2, 3, 42))
    profile = rank_profile(r, 3)
    assert profile[0, 0] == 4 and profile[-1, -1] == 9
    assert t_star(profile) == (2, 2)
    od2 = build_omega(r, 2, 2)
    sr = spectral_realization(od2, truncate(od2.omega, rank=9))
    assert difference_distances(next(marginal_difference(sr, r, [4])))[0] <= 1e-9
    od1 = build_omega(r, 1, 1)
    sr1 = spectral_realization(od1, truncate(od1.omega, rank=4))
    assert difference_distances(next(marginal_difference(sr1, r, [4])))[0] > 0.1


def test_asymmetric_blocks_still_exact(aklt_realization):
    # left block of 2 sites, right block of 1: rank stays 4 and the
    # reconstruction is still exact
    od = build_omega(aklt_realization, s_left=2, s_right=1)
    validate_exact(od)
    assert od.omega.shape == (81, 9)
    sr = spectral_realization(od, truncate(od.omega, rank=4))
    for t in (1, 3, 4):
        rec = marginal(sr, t)
        exact = marginal(aklt_realization, t)
        assert trace_distance(rec, exact) <= 1e-9


@pytest.mark.parametrize("seed", [11, 23])
def test_random_model_exact_round_trip(seed):
    r = from_cstar(random_cstar(2, 2, seed))
    od = build_omega(r, s_left=2, s_right=2)
    sv = np.linalg.svd(od.omega, compute_uv=False)
    rank = int((sv > 1e-9 * sv[0]).sum())
    sr = spectral_realization(od, truncate(od.omega, rank=rank))
    for t in (1, 3, 5):
        rec = marginal(sr, t)
        exact = marginal(r, t)
        assert trace_distance(rec, exact) <= 1e-9


def test_gauge_invariance_of_reconstruction(aklt_omega, aklt_realization):
    tr = truncate(aklt_omega.omega, rank=4)
    sr = spectral_realization(aklt_omega, tr)
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    tr_rot = truncate(aklt_omega.omega, rank=4)
    tr_rot.u_hat = tr.u_hat @ q
    sr_rot = spectral_realization(aklt_omega, tr_rot)
    for t in (1, 2, 3):
        a = word_coefficient_tensor(sr.rho, sr.kappa, sr.e, t)
        b = word_coefficient_tensor(sr_rot.rho, sr_rot.kappa, sr_rot.e, t)
        assert np.abs(a - b).max() <= 1e-10


def test_noisy_reconstruction_regression(aklt_omega):
    # recorded on first run: trace of the noisy rank-4 reconstruction
    od_hat = perturb_omega_data(aklt_omega, 1e-3, 1e-3, make_rng(1))
    sr = spectral_realization(od_hat, truncate(od_hat.omega, rank=4))
    rec = marginal(sr, 4)
    assert np.abs(rec.matrix - rec.matrix.conj().T).max() <= 1e-12
    assert rec.trace() == pytest.approx(1.0, abs=1e-2)
    assert rec.trace() == pytest.approx(0.9983678908710114, abs=1e-6)


# -- empirical realization: exact data in an estimated frame -------------------

def test_empirical_realization_with_exact_frame(aklt_omega, aklt_realization):
    er = spectral_realization(aklt_omega, truncate(aklt_omega.omega, rank=4))
    r = aklt_realization
    for t in (1, 2, 3):
        got = word_coefficient_tensor(er.rho, er.kappa, er.e, t)
        want = word_coefficient_tensor(r.rho, r.kappa, r.e, t)
        assert np.abs(got - want).max() <= 1e-10


def test_empirical_realization_noisy_frame_still_exact(aklt_omega, aklt_realization):
    # as long as U_hat^T U is invertible, the exact data in the noisy frame
    # realize the state exactly
    od_hat = perturb_omega_data(aklt_omega, 1e-4, 1e-4, make_rng(4))
    er = spectral_realization(aklt_omega, truncate(od_hat.omega, rank=4))
    r = aklt_realization
    for t in (1, 2, 4):
        got = word_coefficient_tensor(er.rho, er.kappa, er.e, t)
        want = word_coefficient_tensor(r.rho, r.kappa, r.e, t)
        assert np.abs(got - want).max() <= 1e-8


def test_empirical_realization_rotation_invariance(aklt_omega):
    tr = truncate(aklt_omega.omega, rank=4)
    rng = np.random.default_rng(0)
    skew = rng.standard_normal((4, 4)) * 0.05
    q = np.linalg.qr(np.eye(4) + skew - skew.T)[0]
    tr_rot = truncate(aklt_omega.omega, rank=4)
    tr_rot.u_hat = tr.u_hat @ q
    er = spectral_realization(aklt_omega, tr_rot)
    base = spectral_realization(aklt_omega, tr)
    for t in (1, 3):
        a = word_coefficient_tensor(er.rho, er.kappa, er.e, t)
        b = word_coefficient_tensor(base.rho, base.kappa, base.e, t)
        assert np.abs(a - b).max() <= 1e-10


# -- non-homogeneous --------------------------------------------------------------

def test_nonhomog_product_chain_exact():
    # N = 2 chain of two independent pure sites
    psis = []
    rng = np.random.default_rng(5)
    isos = []
    for _ in range(2):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        psis.append(psi)
    # memory dimension 1: V maps C -> C^2 (x) C
    chain = fcs.ChainRealization.from_channels(
        [psi.reshape(2, 1) for psi in psis], np.eye(1, dtype=complex), d_a=2, d_b=1)
    state = chain.state()
    cod = build_chain_omega(state, 1, 1)
    recon = nonhomog_reconstruct(cod, ranks=[1])
    got = recon.state()
    expected = np.kron(np.outer(psis[0], psis[0].conj()), np.outer(psis[1], psis[1].conj()))
    assert np.abs(got.matrix - expected).max() <= 1e-10


@pytest.mark.parametrize("left, right", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_build_chain_omega_matches_window_forms(left, right):
    # both forms of site j are slices of window j; the reference expands
    # each of the 2n - 1 forms from its own window
    n, nb = 5, 4
    state = random_chain(n, 2, 2, 2).state()
    cod = build_chain_omega(state, left, right)
    omegas, omega_dots = chain_forms(state, left, right)
    assert sorted(cod.omegas) == list(range(1, n))
    assert sorted(cod.omega_dots) == list(range(1, n + 1))
    for j in range(1, n + 1):
        # blocks clip at both ends of the chain; at j = 1 the left block of
        # the middle form is empty, a single row
        n_right = nb ** (min(n, j + right) - j)
        assert cod.omega_dots[j].shape == (nb, nb ** (j - max(1, j - left)), n_right)
        assert np.abs(cod.omega_dots[j] - omega_dots[j]).max() <= 1e-15
        if j < n:
            assert cod.omegas[j].shape == (nb ** (j - max(0, j - left)), n_right)
            assert np.abs(cod.omegas[j] - omegas[j]).max() <= 1e-15


@pytest.mark.parametrize("seed", [3, 17])
def test_nonhomog_exact_recovery(seed):
    chain = random_chain(5, 2, 2, seed)
    state = chain.state()
    cod = build_chain_omega(state, 2, 2)
    recon = nonhomog_reconstruct(cod, threshold=1e-8)
    td, _ = difference_distances(recon.state().matrix - state.matrix)
    assert td <= 1e-8


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_nonhomog_exact_equals_brute_force_all_lengths(n_sites):
    # 4 seeds per length x 5 lengths: 20 random chains in total
    for seed in range(4):
        chain = random_chain(n_sites, 2, 2, 40 + 10 * n_sites + seed)
        state = chain.state()
        cod = build_chain_omega(state, 2, 2)
        recon = nonhomog_reconstruct(cod, threshold=1e-8)
        td, _ = difference_distances(recon.state().matrix - state.matrix)
        assert td <= 1e-8, f"N={n_sites} seed={seed}: TD {td:.2e}"


def test_nonhomog_noisy_regression():
    # recorded on first run: eps = 1e-4 noise stays below 1e-3 trace distance
    chain = random_chain(5, 2, 2, 3)
    state = chain.state()
    cod = build_chain_omega(state, 2, 2)
    ranks = [4, 4, 4, 4]
    tds = []
    for trial in range(5):
        cod_hat = perturb_chain_omega(cod, 1e-4, spawn_rng(3, 0, trial))
        recon = nonhomog_reconstruct(cod_hat, ranks=ranks)
        tds.append(difference_distances(recon.state().matrix - state.matrix)[0])
    assert max(tds) <= 1e-3
    assert min(tds) > 0


@pytest.mark.parametrize("mode, message", [
    ("ranks", "site 2: rank-deficient truncation"),
    ("threshold", "rank-deficient projected Omega at site 2"),
])
def test_nonhomog_rejects_window_below_inversion_cutoff(mode, message):
    # the window form of site 2 keeps sigma_4 / sigma_1 = 5e-13, in (1e-14,
    # 1e-12]: the rank guard of the truncation or of the projected form
    # rejects it, where the pseudoinverse would drop it
    cod = build_chain_omega(random_chain(4, 2, 2, 6).state(), 2, 2)
    u, s, vt = np.linalg.svd(cod.omegas[2])
    cod.omegas[2] = (u[:, :4] * (s[0] * np.array([1.0, 0.5, 0.2, 5e-13]))) @ vt[:4]
    args = {"ranks": [4, 4, 4]} if mode == "ranks" else {"threshold": 2.5e-13 * s[0]}
    with pytest.raises(ValueError, match=message):
        nonhomog_reconstruct(cod, **args)


def test_nonhomog_failure_names_site():
    chain = random_chain(4, 2, 2, 6)
    state = chain.state()
    cod = build_chain_omega(state, 2, 2)
    cod.omegas[2] = np.zeros_like(cod.omegas[2])
    with pytest.raises(ValueError, match="site 2"):
        nonhomog_reconstruct(cod, ranks=[4, 4, 4])
