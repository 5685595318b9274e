import json

import numpy as np
import pytest

from conftest import aklt_bond_projector
from fcs_spectral import fcs
from fcs_spectral.fcs import (
    aklt,
    from_cstar,
    load_realization,
    marginal,
    partial_trace_window,
    product_realization,
    random_cstar,
    random_chain,
    rank_profile,
    realization_to_dict,
    save_realization,
    t_star,
)
from fcs_spectral.opbasis import expand_in_basis, gellmann
from fcs_spectral.spectral import build_chain_omega
from oracles import (apply_channels, dense_state, evaluate_word, random_chain_channels,
                     single_matmul_product, word_coefficient_tensor)


# -- AKLT family ------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.3, fcs.AKLT_THETA, 1.5, 3.0])
def test_aklt_isometry_all_angles(theta):
    model = aklt(theta)
    v = model.v
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-12


def test_aklt_theta_zero_columns():
    v = aklt(0.0).v
    # |1/2> -> |1, -1/2>, |-1/2> -> -|-1, 1/2>
    col0 = np.zeros(6, dtype=complex)
    col0[0 * 2 + 1] = 1.0
    col1 = np.zeros(6, dtype=complex)
    col1[2 * 2 + 0] = -1.0
    assert np.allclose(v[:, 0], col0)
    assert np.allclose(v[:, 1], col1)


def test_aklt_two_site_marginal_in_bond_kernel(aklt_realization):
    rho2 = marginal(aklt_realization, 2)
    rho2.validate()
    proj = aklt_bond_projector()
    assert abs(np.trace(rho2.matrix @ proj).real) <= 1e-12
    assert np.abs(proj @ rho2.matrix).max() <= 1e-10


def test_aklt_single_site_marginal_is_maximally_mixed(aklt_realization, aklt_model):
    m1 = marginal(aklt_realization, 1)
    assert np.abs(m1.matrix - np.eye(3) / 3.0).max() <= 1e-12
    # independent sequential-channel oracle agrees
    assert np.abs(dense_state(aklt_model, 1).matrix - m1.matrix).max() <= 1e-12


def test_aklt_realization_memory_dimension(aklt_realization):
    assert aklt_realization.m == 4
    aklt_realization.validate()


# -- word evaluation ----------------------------------------------------------

def test_evaluate_all_identity_word(aklt_realization):
    c = np.zeros(9)
    c[0] = np.sqrt(3.0)  # coefficients of the identity
    for t in (1, 2, 5):
        assert evaluate_word(aklt_realization, [c] * t) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_traceless_single_site_is_zero(aklt_realization):
    # single-site marginal is 1/3, so every traceless coefficient vanishes
    for idx in range(1, 9):
        c = np.zeros(9)
        c[idx] = 1.0
        assert evaluate_word(aklt_realization, [c]) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_word_rejects_wrong_length(aklt_realization):
    with pytest.raises(ValueError, match="shape"):
        evaluate_word(aklt_realization, [np.zeros(4)])


def test_product_state_words_factorize():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    r = product_realization(rho)
    assert r.m == 1
    ca, cb = np.eye(4)[1], np.eye(4)[3]
    lone_a = evaluate_word(r, [ca])
    lone_b = evaluate_word(r, [cb])
    assert evaluate_word(r, [ca, cb]) == pytest.approx(lone_a * lone_b, abs=1e-14)


@pytest.mark.parametrize("d_a,d_b,seed", [(2, 2, 42), (2, 3, 1), (3, 2, 5)])
def test_words_match_sequential_channel_oracle(d_a, d_b, seed):
    model = random_cstar(d_a, d_b, seed)
    r = from_cstar(model)
    t = 6 if d_a == 2 else 4
    oracle = dense_state(model, t)
    oracle_coeffs = expand_in_basis(oracle.matrix, d_a, t)
    got = word_coefficient_tensor(r.rho, r.kappa, r.e, t)
    assert np.abs(got - oracle_coeffs).max() <= 1e-10


def test_random_words_match_oracle_elementwise():
    model = random_cstar(2, 2, 42)
    r = from_cstar(model)
    basis = gellmann(2)
    t = 6
    oracle = dense_state(model, t)
    rng = np.random.default_rng(0)
    for _ in range(100):
        word_idx = rng.integers(0, 4, size=t)
        coeffs = [np.eye(4)[i] for i in word_idx]
        block = None
        for i in word_idx:
            el = basis[i]
            block = el if block is None else np.kron(block, el)
        expected = np.trace(oracle.matrix @ block).real
        assert evaluate_word(r, coeffs) == pytest.approx(expected, abs=1e-10)


# -- constructors -------------------------------------------------------------

def test_from_cstar_trivial_memory_is_product():
    psi = np.array([[1.0], [0.0]], dtype=complex)
    model = fcs.CStarRealization(d_a=2, d_b=1, v=psi, rho0=np.eye(1))
    r = from_cstar(model)
    assert r.m == 1
    expected = product_realization(np.outer(psi[:, 0], psi[:, 0].conj()))
    assert np.allclose(r.kappa, expected.kappa, atol=1e-12)


def test_random_cstar_deterministic():
    a = random_cstar(2, 2, 7)
    b = random_cstar(2, 2, 7)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.rho0, b.rho0)


def test_stationary_state_nonconvergence_is_linalg_error():
    model = random_cstar(2, 2, 7)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge within 1 steps"):
        fcs.stationary_state(model.v, 2, 2, max_iter=1)


def test_random_cstar_trivial_memory_is_product():
    model = random_cstar(2, 1, 3)
    r = from_cstar(model)
    assert r.m == 1
    # words factorize site by site
    rng = np.random.default_rng(0)
    c1, c2 = rng.standard_normal(4), rng.standard_normal(4)
    prod = evaluate_word(r, [c1]) * evaluate_word(r, [c2])
    assert evaluate_word(r, [c1, c2]) == pytest.approx(prod, abs=1e-12)


def test_random_cstar_stationarity_residual():
    model = random_cstar(2, 2, 7)
    r = from_cstar(model)
    t = r.transfer_identity()
    assert np.abs(r.rho @ t - r.rho).max() <= 1e-10
    assert np.abs(t @ r.e - r.e).max() <= 1e-10


def test_random_cstar_rejects_bad_dims():
    with pytest.raises(ValueError):
        random_cstar(0, 2, 1)


# -- marginals ----------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
def test_marginal_partial_trace_consistency(seed):
    r = from_cstar(random_cstar(2, 2, seed))
    for t in (1, 2, 3):
        big = marginal(r, t + 1)
        reduced = partial_trace_window(big.matrix, 2, t + 1, 1, t)
        small = marginal(r, t)
        assert np.abs(reduced - small.matrix).max() <= 1e-10
        assert small.trace() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("t", range(2, 8))
def test_dense_product_blocks_equal_single_matmul(aklt_realization, t):
    # at t = 6 and 7 the product runs in blocks of the left row index, below
    # in one matmul; either way the bits are the unblocked formula's, and the
    # marginal is exactly Hermitian, so the eigensolve makes no symmetrized copy
    r = aklt_realization
    got = fcs.dense_product(r.rho, [r.kappa] * t, r.e)
    assert np.array_equal(got, single_matmul_product(r.rho, [r.kappa] * t, r.e))
    assert np.array_equal(got, got.conj().T)


def test_marginal_difference_sizes_are_single_products(aklt_realization):
    # each size, in the order asked for, has the bits of its own product
    a, b = aklt_realization, from_cstar(random_cstar(3, 2, 4))
    r = fcs.direct_sum([a, b], [1.0, -1.0])
    sizes = [4, 1, 3, 4, 2]
    got = list(fcs.marginal_difference(a, b, sizes))
    assert len(got) == len(sizes)
    for t, diff in zip(sizes, got):
        assert np.array_equal(diff, fcs.dense_product(r.rho, [r.kappa] * t, r.e))
    with pytest.raises(ValueError, match="cap"):
        list(fcs.marginal_difference(a, b, [2, 8]))


def test_marginal_cap_enforced(aklt_realization):
    with pytest.raises(ValueError, match="cap"):
        marginal(aklt_realization, 8)


def test_rank_profile_cap_enforced(aklt_realization):
    with pytest.raises(ValueError, match="cap"):
        rank_profile(aklt_realization, 5)


def test_chain_state_cap_enforced():
    # 2^12 = 4096 exceeds the dense cap 2187
    chain = random_chain(12, 2, 2, 1)
    with pytest.raises(ValueError, match="cap"):
        chain.state()


# -- rank profile -------------------------------------------------------------

def test_rank_profile_product_state():
    r = product_realization(np.diag([0.7, 0.3]).astype(complex))
    profile = rank_profile(r, 3)
    assert np.all(profile == 1)
    assert t_star(profile) == (1, 1)


def test_rank_profile_aklt(aklt_realization):
    profile = rank_profile(aklt_realization, 2)
    assert profile[0, 0] == 4
    assert np.all(profile == 4)
    assert t_star(profile) == (1, 1)


def test_t_star_grows_the_narrower_block_until_the_rank_is_full():
    # both edges reach rank 3 at width 2, the corner (2, 2) does not: the
    # left block grows first on a tie
    assert t_star(np.array([[1, 1, 1], [1, 2, 3], [1, 3, 3]])) == (3, 2)


def test_rank_profile_random_monotone():
    r = from_cstar(random_cstar(2, 2, 12))
    profile = rank_profile(r, 3)
    assert profile[-1, -1] <= r.m
    assert np.all(np.diff(profile, axis=0) >= 0)
    assert np.all(np.diff(profile, axis=1) >= 0)
    t1, t2 = t_star(profile)
    assert profile[t2 - 1, t1 - 1] == profile[-1, -1]


# -- chains -------------------------------------------------------------------

def test_chain_single_site():
    chain = random_chain(1, 2, 2, 4)
    state = chain.state()
    state.validate()
    # matches one raw application of the channel (rho0 of a generic chain
    # is not stationary, so this is the only valid comparison)
    (v,), rho0 = random_chain_channels(1, 2, 2, 4)
    expected = np.einsum("ibjb->ij", (v @ rho0 @ v.conj().T).reshape(2, 2, 2, 2))
    assert np.abs(state.matrix - expected).max() <= 1e-12


def test_stationary_chain_windows_translation_invariant():
    c = random_cstar(2, 2, 9)
    state = fcs.ChainRealization.from_channels([c.v] * 5, c.rho0, 2, 2).state()
    cod = build_chain_omega(state, 1, 1)
    # interior windows all equal
    for j in (3,):
        assert np.abs(cod.omegas[j] - cod.omegas[2]).max() <= 1e-10
        assert np.abs(cod.omega_dots[j] - cod.omega_dots[2]).max() <= 1e-10


def test_random_chain_state_is_valid():
    chain = random_chain(5, 2, 2, 3)
    chain.state().validate(psd_tol=1e-9)


def test_chain_validate_rejects_non_psd_rho0():
    isometries, _ = random_chain_channels(3, 2, 2, 3)
    # Hermitian and of trace one, but with eigenvalue -0.5
    rho0 = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        fcs.ChainRealization.from_channels(isometries, rho0, 2, 2)


def test_chain_from_channels_rejects_non_isometry_and_empty_chain():
    isometries, rho0 = random_chain_channels(3, 2, 2, 3)
    isometries[1] = 2.0 * isometries[1]
    with pytest.raises(ValueError, match="site 2: V is not an isometry"):
        fcs.ChainRealization.from_channels(isometries, rho0, 2, 2)
    with pytest.raises(ValueError, match="at least one site"):
        fcs.ChainRealization.from_channels([], rho0, 2, 2)


@pytest.mark.parametrize("stationary", [False, True])
@pytest.mark.parametrize("d_b", [1, 2, 3])
@pytest.mark.parametrize("n_sites", range(1, 7))
def test_chain_state_matches_channel_loop(n_sites, d_b, stationary):
    # the operator product of the per-site maps against the dense state grown
    # one channel at a time; the product is exactly Hermitian.  A stationary
    # chain repeats one channel from its stationary state
    seed = 10 * n_sites + d_b
    if stationary:
        c = random_cstar(2, d_b, seed)
        isometries, rho0 = [c.v] * n_sites, c.rho0
        chain = fcs.ChainRealization.from_channels(isometries, rho0, 2, d_b)
    else:
        chain = random_chain(n_sites, 2, d_b, seed)
        isometries, rho0 = random_chain_channels(n_sites, 2, d_b, seed)
    got = chain.state().matrix
    want = apply_channels(rho0, isometries, 2, d_b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(got, got.conj().T)


# -- persistence ---------------------------------------------------------------

def test_realization_json_roundtrip(tmp_path, aklt_realization):
    path = tmp_path / "aklt.json"
    save_realization(aklt_realization, path)
    loaded = load_realization(path)
    assert loaded.d_a == aklt_realization.d_a
    assert np.allclose(loaded.kappa, aklt_realization.kappa)
    assert np.allclose(loaded.e, aklt_realization.e)
    assert np.allclose(loaded.rho, aklt_realization.rho)


def test_realization_load_revalidates(tmp_path, aklt_realization):
    doc = realization_to_dict(aklt_realization)
    doc["e"] = [1.0, 0.0, 0.0, 1.0]  # breaks stationarity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="stationarity"):
        load_realization(path)


def test_realization_load_rejects_unknown_version(tmp_path, aklt_realization):
    doc = realization_to_dict(aklt_realization)
    doc["version"] = 2
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_realization(path)
