import numpy as np
import pytest

from fcs_spectral.opbasis import expand_in_basis, gellmann
from oracles import assemble_from_coefficients, block_element, multi_index


def test_gellmann_rejects_small_dimension():
    with pytest.raises(ValueError):
        gellmann(1)


def test_gellmann_d3_identity_element():
    b = gellmann(3)
    assert np.allclose(b[0], np.eye(3) / np.sqrt(3))


def test_gellmann_d3_last_diagonal():
    b = gellmann(3)
    assert np.allclose(b[8], np.diag([1.0, 1.0, -2.0]) / np.sqrt(6))


def test_gellmann_d2_is_scaled_paulis():
    b = gellmann(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    expected = [np.eye(2) / np.sqrt(2), sx / np.sqrt(2), sy / np.sqrt(2), sz / np.sqrt(2)]
    for got, want in zip(b, expected):
        assert np.allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gellmann_orthonormal_and_hermitian(d):
    b = gellmann(d)
    assert b.shape == (d * d, d, d)
    gram = np.einsum("iab,jba->ij", b, b)
    assert np.abs(gram - np.eye(d * d)).max() <= 1e-12
    assert np.abs(b - np.conj(np.transpose(b, (0, 2, 1)))).max() <= 1e-12


def test_gellmann_is_one_read_only_array_per_dimension():
    b = gellmann(3)
    assert gellmann(3) is b and gellmann(2) is not b
    assert not b.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        b[0, 0, 0] = 0.0


@pytest.mark.parametrize("d,s", [(2, 2), (2, 3), (3, 2)])
def test_block_orthonormality(d, s):
    # full Gram of the s-site product basis, via the expansion map
    b = gellmann(d)
    n = len(b) ** s
    rng = np.random.default_rng(d * 10 + s)
    picks = rng.integers(0, n, size=25)
    for flat in picks:
        g = block_element(b, multi_index(int(flat), s, d))
        c = expand_in_basis(g, d, s)
        unit = np.zeros(n)
        unit[flat] = 1.0
        assert np.abs(c - unit).max() <= 1e-12


def test_multi_index_roundtrip():
    # first entry most significant: the C-order digits of the flat index
    d = 3
    for flat in [0, 1, 17, 80, 700]:
        multi = multi_index(flat, 3, d)
        assert multi == tuple(int(i) for i in np.unravel_index(flat, (d * d,) * 3))
        assert np.ravel_multi_index(multi, (d * d,) * 3) == flat
    assert multi_index(1 * 4 + 2, 2, 2) == (1, 2)
    with pytest.raises(IndexError):
        multi_index(9 ** 2, 2, 3)
    with pytest.raises(IndexError):
        multi_index(-1, 2, 3)


def test_block_element_single_site_identity():
    b = gellmann(4)
    assert np.allclose(block_element(b, (0,)), np.eye(4) / 2.0)


def test_block_element_two_site_pauli():
    b = gellmann(2)
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(block_element(b, (0, 3)), np.kron(np.eye(2), sz) / 2.0)


def test_block_element_trace_pairs_random():
    b = gellmann(3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        i = tuple(rng.integers(0, 9, size=2))
        j = tuple(rng.integers(0, 9, size=2))
        val = np.trace(block_element(b, i) @ block_element(b, j))
        assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_expand_identity_coefficients():
    c = expand_in_basis(np.eye(3) / 3.0, 3, 1)
    expected = np.zeros(9)
    expected[0] = 1.0 / np.sqrt(3)
    assert np.allclose(c, expected, atol=1e-14)


def test_expand_basis_element_is_unit_vector():
    b = gellmann(3)
    c = expand_in_basis(b[3], 3, 1)
    unit = np.zeros(9)
    unit[3] = 1.0
    assert np.allclose(c, unit, atol=1e-14)


def test_expand_assemble_roundtrip_random():
    b = gellmann(3)
    rng = np.random.default_rng(12)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = g + g.conj().T
    c = expand_in_basis(h, 3, 2)
    assert np.abs(assemble_from_coefficients(c, b, 2) - h).max() <= 1e-10
    c2 = rng.standard_normal(81)
    assert np.allclose(expand_in_basis(assemble_from_coefficients(c2, b, 2), 3, 2), c2,
                       atol=1e-10)


def test_expand_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not real"):
        expand_in_basis(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 2, 1)


@pytest.mark.parametrize("d,s", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_trace_one_identity_coefficient(d, s):
    rng = np.random.default_rng(d + s)
    n = d ** s
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    h = h / np.trace(h).real
    c = expand_in_basis(h, d, s)
    assert c[0] == pytest.approx(d ** (-s / 2.0), abs=1e-12)
