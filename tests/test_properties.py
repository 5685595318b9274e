"""Property tests of the word-contraction kernel and the realization maps
built on it: gauge invariance, single words against the word tensor, and
per-site chain maps against a brute-force matrix product; the dense operator
product against the assembled word coefficients; exact round trips of the
Hermitian basis expansion, and linearity of the Omega data in the
marginals."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fcs_spectral.fcs import (ChainRealization, DensityMatrix, Realization, direct_sum,
                              marginal, marginal_difference, word_rows)
from fcs_spectral.opbasis import expand_in_basis, gellmann
from fcs_spectral.spectral import build_omega_from_marginal
from oracles import (assemble_from_coefficients, chain_coefficients, evaluate_word,
                     word_coefficient_tensor)

SETTINGS = settings(max_examples=40, deadline=None)

seeds = st.integers(0, 2 ** 32 - 1)


def random_realization(rng, d_a: int, m: int) -> Realization:
    """Random (not stationary, not normalized) real realization data."""
    return Realization(d_a=d_a, kappa=rng.standard_normal((d_a ** 2, m, m)) / m,
                       e=rng.standard_normal(m), rho=rng.standard_normal(m))


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def well_conditioned(rng, m: int) -> np.ndarray:
    """Random invertible m x m matrix with condition number at most 4."""
    q1 = np.linalg.qr(rng.standard_normal((m, m)))[0]
    q2 = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return (q1 * rng.uniform(0.5, 2.0, size=m)) @ q2


@SETTINGS
@given(seed=seeds, d_a=st.integers(1, 3), m=st.integers(1, 5), t=st.integers(0, 4))
def test_word_tensor_gauge_invariant(seed, d_a, m, t):
    rng = np.random.default_rng(seed)
    r = random_realization(rng, d_a, m)
    s = well_conditioned(rng, m)
    s_inv = np.linalg.inv(s)
    kappa = np.einsum("ij,ajk,kl->ail", s, r.kappa, s_inv)
    a = word_coefficient_tensor(r.rho, r.kappa, r.e, t)
    b = word_coefficient_tensor(r.rho @ s_inv, kappa, s @ r.e, t)
    scale = np.abs(r.rho).sum() * np.abs(r.e).sum() * max(1.0, np.abs(r.kappa).sum()) ** t
    assert np.abs(a - b).max() <= 1e-12 * scale


@SETTINGS
@given(seed=seeds, d_a=st.integers(1, 3), m=st.integers(1, 4), t=st.integers(0, 4))
def test_evaluate_word_matches_word_tensor(seed, d_a, m, t):
    rng = np.random.default_rng(seed)
    r = random_realization(rng, d_a, m)
    nb = d_a ** 2
    tensor = word_coefficient_tensor(r.rho, r.kappa, r.e, t)
    letters = tuple(int(a) for a in rng.integers(0, nb, size=t))
    units = [np.eye(nb)[a] for a in letters]
    flat = np.ravel_multi_index(letters, (nb,) * t) if t else 0
    assert abs(evaluate_word(r, units) - tensor[flat]) <= 1e-12 * max(1.0, np.abs(tensor).max())
    # a general word of coefficient vectors is the same tensor contracted
    # with one vector per site
    coeffs = [rng.standard_normal(nb) for _ in range(t)]
    want = tensor.reshape((nb,) * t)
    for c in coeffs:
        want = np.tensordot(c, want, axes=(0, 0))
    assert abs(evaluate_word(r, coeffs) - float(want)) <= 1e-10 * max(1.0, abs(float(want)))


@SETTINGS
@given(seed=seeds, n_sites=st.integers(1, 4), nb=st.integers(1, 4),
       widths=st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_chain_coefficients_match_brute_force(seed, n_sites, nb, widths):
    rng = np.random.default_rng(seed)
    dims = [1] + widths[:n_sites - 1] + [1]
    k_maps = [rng.standard_normal((nb, dims[j], dims[j + 1])) for j in range(n_sites)]
    got = chain_coefficients(k_maps)
    want = [np.linalg.multi_dot([np.eye(1)] + [k[a] for k, a in zip(k_maps, word)]
                                + [np.eye(1)])[0, 0]
            for word in itertools.product(range(nb), repeat=n_sites)]
    assert got.shape == (nb ** n_sites,)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(seed=seeds, n_sites=st.integers(0, 4), nb=st.integers(1, 3),
       widths=st.lists(st.integers(1, 3), min_size=5, max_size=5))
def test_word_rows_agree_from_either_end(seed, n_sites, nb, widths):
    rng = np.random.default_rng(seed)
    dims = widths[:n_sites + 1]
    maps = [rng.standard_normal((nb, dims[j], dims[j + 1])) for j in range(n_sites)]
    left, right = rng.standard_normal(dims[0]), rng.standard_normal(dims[-1])
    from_left = word_rows(left, maps)
    from_right = word_rows(right, maps, from_right=True)
    assert [x.shape[0] for x in from_left] == [nb ** k for k in range(n_sites + 1)]
    a = from_left[-1] @ right
    b = from_right[-1] @ left
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def max_abs(x) -> float:
    return float(np.abs(x).max())


def assembled_marginal(r: Realization, t: int, basis) -> np.ndarray:
    """The t-site marginal by the coefficient path, the kernel's oracle."""
    return assemble_from_coefficients(word_coefficient_tensor(r.rho, r.kappa, r.e, t), basis, t)


@SETTINGS
@given(seed=seeds, d_a=st.integers(2, 3), m=st.integers(1, 4), t=st.integers(1, 5))
def test_dense_product_matches_coefficient_assembly(seed, d_a, m, t):
    rng = np.random.default_rng(seed)
    r = random_realization(rng, d_a, m)
    want = assembled_marginal(r, t, gellmann(d_a))
    got = marginal(r, t).matrix
    assert np.abs(got - want).max() <= 1e-13 * max_abs(want)


@SETTINGS
@given(seed=seeds, d_a=st.integers(2, 3), m_a=st.integers(1, 4), m_b=st.integers(1, 4),
       t=st.integers(1, 5), w_a=st.floats(-2.0, 2.0), w_b=st.floats(-2.0, 2.0))
def test_marginal_difference_is_difference_of_marginals(seed, d_a, m_a, m_b, t, w_a, w_b):
    # and the marginal of a weighted direct sum is the weighted sum of marginals
    rng = np.random.default_rng(seed)
    a, b = random_realization(rng, d_a, m_a), random_realization(rng, d_a, m_b)
    basis = gellmann(d_a)
    ma, mb = assembled_marginal(a, t, basis), assembled_marginal(b, t, basis)
    scale = max(max_abs(ma), max_abs(mb))
    (got,) = marginal_difference(a, b, [t])
    assert np.abs(got - (ma - mb)).max() <= 1e-13 * scale
    got = marginal(direct_sum([a, b], [w_a, w_b]), t).matrix
    tol = 1e-13 * max(abs(w_a) + abs(w_b), 1.0) * scale
    assert np.abs(got - (w_a * ma + w_b * mb)).max() <= tol


@SETTINGS
@given(seed=seeds, d_a=st.integers(2, 3), n_sites=st.integers(1, 5),
       widths=st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_chain_state_matches_coefficient_assembly(seed, d_a, n_sites, widths):
    rng = np.random.default_rng(seed)
    dims = [1] + widths[:n_sites - 1] + [1]
    k_maps = [rng.standard_normal((d_a ** 2, dims[j], dims[j + 1])) / dims[j]
              for j in range(n_sites)]
    recon = ChainRealization(d_a, k_maps)
    want = assemble_from_coefficients(chain_coefficients(k_maps), gellmann(d_a), n_sites)
    got = recon.state().matrix
    assert np.abs(got - want).max() <= 1e-13 * max_abs(want)


@SETTINGS
@given(seed=seeds, d=st.integers(2, 3), sites=st.integers(1, 3))
def test_basis_expansion_round_trips(seed, d, sites):
    rng = np.random.default_rng(seed)
    basis = gellmann(d)
    h = random_hermitian(rng, d ** sites)
    c = expand_in_basis(h, d, sites)
    assert np.abs(assemble_from_coefficients(c, basis, sites) - h).max() <= 1e-13 * np.abs(h).max()
    coeffs = rng.standard_normal(len(basis) ** sites)
    back = expand_in_basis(assemble_from_coefficients(coeffs, basis, sites), d, sites)
    assert np.abs(back - coeffs).max() <= 1e-13 * np.abs(coeffs).max()


@SETTINGS
@given(seed=seeds, ds=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_omega_data_linear_in_marginals(seed, ds, a, b):
    # so the Omega data of a mixture is the mixture of the parts' Omega data
    rng = np.random.default_rng(seed)
    d, s = ds
    k = 2 * s + 1
    first, second = random_hermitian(rng, d ** k), random_hermitian(rng, d ** k)

    def omega_data(m):
        return build_omega_from_marginal(DensityMatrix(matrix=m, dim=d, sites=k))

    mixed = omega_data(a * first + b * second)
    od_x, od_y = omega_data(first), omega_data(second)
    for name in ("omega", "omega_dot", "omega_one", "tau_omega"):
        x, y = getattr(od_x, name), getattr(od_y, name)
        scale = abs(a) * np.abs(x).max() + abs(b) * np.abs(y).max()
        assert np.abs(getattr(mixed, name) - (a * x + b * y)).max() <= 1e-13 * max(scale, 1.0)
