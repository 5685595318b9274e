"""Reference implementations that the tests check the package against.

The package evaluates every marginal as one dense operator product
(``fcs.dense_product``).  These are the slower, independent routes to the
same numbers: single correlation words, the full word-coefficient tensor,
per-element block basis matrices, block matrices assembled from their
coefficients, the exact-data identities of Omega, the dense product as
one unblocked matmul, the chain window forms expanded one form at a time,
and dense states grown by applying one channel per site, which never form
a correlation word.
"""

import math
from typing import Iterable

import numpy as np

from fcs_spectral import fcs
from fcs_spectral.fcs import (CStarRealization, DensityMatrix, Realization, _split_rows,
                              partial_trace_window, word_rows)
from fcs_spectral.opbasis import expand_in_basis, matrix_units
from fcs_spectral.spectral import OmegaData


def evaluate_word(r: Realization, word) -> float:
    """Correlation value rho . K_{c_1} ... K_{c_t} . e for coefficient vectors c_k."""
    n = r.kappa.shape[0]
    maps = []
    for c in word:
        c = np.asarray(c, dtype=float)
        if c.shape != (n,):
            raise ValueError(f"coefficient vector has shape {c.shape}, expected ({n},)")
        maps.append(np.tensordot(c, r.kappa, axes=(0, 0))[None])
    return float(word_rows(r.e, maps, from_right=True)[-1][0] @ np.asarray(r.rho, dtype=float))


def word_coefficient_tensor(rho, kappa, e, t: int) -> np.ndarray:
    """All correlation words of length t as a flat ((d^2)^t,) array.

    Entry at flat index (i_1..i_t) is rho . kappa[i_1] ... kappa[i_t] . e.
    """
    kappa = np.asarray(kappa, dtype=float)
    left = word_rows(rho, [kappa] * (t // 2))[-1]
    right = word_rows(e, [kappa] * (t - t // 2), from_right=True)[-1]
    return (left @ right.T).reshape(-1)


def chain_coefficients(k_maps) -> np.ndarray:
    """Word coefficients of a finite chain: the words over its per-site maps
    between trivial boundaries, first site most significant."""
    return word_rows(np.ones(1), k_maps)[-1].reshape(-1)


def multi_index(flat: int, sites: int, d: int) -> tuple[int, ...]:
    """Multi-index (i_1, ..., i_s) of a flat block index, first entry most
    significant."""
    n = d * d
    if not 0 <= flat < n ** sites:
        raise IndexError(f"flat index {flat} out of range for {sites} sites")
    out = []
    for _ in range(sites):
        out.append(flat % n)
        flat //= n
    return tuple(reversed(out))


def block_element(basis: np.ndarray, multi: Iterable[int]) -> np.ndarray:
    """Kronecker product of elements of a (d^2, d, d) basis array, leftmost
    site = leftmost factor."""
    multi = tuple(multi)
    if not multi:
        raise IndexError("empty block index")
    out = None
    for i in multi:
        if not 0 <= i < len(basis):
            raise IndexError(f"basis index {i} out of range [0, {len(basis)})")
        out = basis[i] if out is None else np.kron(out, basis[i])
    return out


def assemble_from_coefficients(coeffs, basis: np.ndarray, sites: int) -> np.ndarray:
    """Block matrix sum_w c[w] g_{w_1} x ... x g_{w_s} from real coefficients
    in a (d^2, d, d) basis array; in ``opbasis.gellmann(d)`` the inverse of
    ``opbasis.expand_in_basis``."""
    coeffs = np.asarray(coeffs, dtype=float)
    nb, d = len(basis), basis.shape[-1]
    if coeffs.size != nb ** sites:
        raise ValueError(
            f"expected {nb ** sites} coefficients for {sites} sites, got {coeffs.size}"
        )
    x = coeffs.reshape((nb,) * sites).astype(complex)
    for _ in range(sites):
        x = np.tensordot(x, basis, axes=([0], [0]))
    # axes are now (r_1, c_1, ..., r_s, c_s); interleave back to block form
    perm = list(range(0, 2 * sites, 2)) + list(range(1, 2 * sites, 2))
    n = d ** sites
    return np.ascontiguousarray(x.transpose(perm)).reshape(n, n)


def validate_exact(od: OmegaData, atol=1e-10) -> OmegaData:
    """Marginal-compatibility identities that hold for exact Omega data only.

    Appending an identity site is invisible to the state, so entries with
    trailing/leading identity indices must agree with the smaller marginals
    after the 1/sqrt(d) basis normalization.
    """
    d = od.d_a
    nb = d * d
    # omega_one[j] = sqrt(d^s_right) * omega[j, all-identity right index]
    dev1 = np.abs(od.omega_one - math.sqrt(float(d ** od.s_right)) * od.omega[:, 0]).max()
    dev2 = np.abs(od.tau_omega - math.sqrt(float(d ** od.s_left)) * od.omega[0, :]).max()
    # right index ending in the identity relates omega_dot to omega with the
    # middle label shifted into the right block:
    #   sqrt(d) * omega_dot[k, j, (i_1..i_{s-1}, 0)] = omega[j, (k, i_1..i_{s-1})]
    dot = od.omega_dot.reshape(nb, od.omega.shape[0], nb ** (od.s_right - 1), nb)
    lhs = math.sqrt(float(d)) * dot[..., 0]
    rhs = od.omega.reshape(od.omega.shape[0], nb, nb ** (od.s_right - 1)).transpose(1, 0, 2)
    dev3 = np.abs(lhs - rhs).max()
    worst = max(dev1, dev2, dev3)
    if worst > atol:
        raise ValueError(f"exact-mode consistency violated: max deviation {worst:.3e}")
    return od


def single_matmul_product(left, maps, right) -> np.ndarray:
    """``fcs.dense_product`` as one matmul of the full word rows and one
    contiguous copy of its transpose, without blocks."""
    d, t = math.isqrt(len(maps[0])), len(maps)
    units = [matrix_units(k) for k in maps]
    h = t // 2
    lefts = _split_rows(word_rows(left, units[:h])[-1], d, h)
    rights = _split_rows(word_rows(right, units[h:], from_right=True)[-1], d, t - h)
    x = (lefts @ rights.T).reshape(d ** h, d ** h, d ** (t - h), d ** (t - h))
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(d ** t, d ** t)


def chain_window_form(state: DensityMatrix, i: int, j: int, k: int) -> np.ndarray:
    """Window bilinear form of a finite-chain state, as a matrix.

    Rows index the Hermitian product basis on sites [i, j], columns the one
    on [j+1, k]; out-of-range i or k are clipped to the chain.  For j = i-1
    the left block is empty and a single-row matrix is returned.
    """
    n = state.sites
    i = max(1, i)
    k = min(n, k)
    if not i - 1 <= j <= k:
        raise ValueError(f"invalid window split [{i}, {j}, {k}]")
    c = expand_in_basis(partial_trace_window(state.matrix, state.dim, n, i, k),
                        state.dim, k - i + 1)
    nb = state.dim ** 2
    return c.reshape(nb ** (j - i + 1), nb ** (k - j))


def chain_forms(state: DensityMatrix, left_width: int, right_width: int) -> tuple[dict, dict]:
    """``spectral.build_chain_omega``'s (omegas, omega_dots), each of its
    2n - 1 forms expanded from its own window marginal."""
    n, l, r = state.sites, left_width, right_width
    omegas = {j: chain_window_form(state, j - l + 1, j, j + r) for j in range(1, n)}
    omega_dots = {}
    for j in range(1, n + 1):
        f = chain_window_form(state, j - l, j - 1, j + r)
        omega_dots[j] = f.reshape(f.shape[0], state.dim ** 2, -1).transpose(1, 0, 2)
    return omegas, omega_dots


def apply_channels(rho0, isometries, d_a: int, d_b: int) -> np.ndarray:
    """Dense state of len(isometries) sites, memory traced out.

    Grows the state one site at a time via sigma -> (1 x V) sigma (1 x V)^dag.
    """
    sigma = np.asarray(rho0, dtype=complex)
    for k, v in enumerate(isometries):
        op = np.kron(np.eye(d_a ** k), v)
        sigma = op @ sigma @ op.conj().T
    n = d_a ** len(isometries)
    return np.einsum("ibjb->ij", sigma.reshape(n, d_b, n, d_b))


def dense_state(c: CStarRealization, t: int) -> DensityMatrix:
    """t-site marginal of a channel model by sequential channel application,
    the independent oracle for ``fcs.marginal``."""
    return DensityMatrix(matrix=apply_channels(c.rho0, [c.v] * t, c.d_a, c.d_b),
                         dim=c.d_a, sites=t)


def random_chain_channels(n_sites: int, d_a: int, d_b: int,
                          seed: int) -> tuple[list, np.ndarray]:
    """The isometries and memory state rho0 that ``fcs.random_chain`` draws
    for the same arguments."""
    rng = np.random.default_rng(seed)
    isometries = [fcs._haar_isometry(d_a * d_b, d_b, rng) for _ in range(n_sites)]
    g = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
    rho0 = g @ g.conj().T
    return isometries, rho0 / np.trace(rho0).real
