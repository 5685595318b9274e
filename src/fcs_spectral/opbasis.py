"""The orthonormal Hermitian site basis and its block extensions.

The site basis is a function of the local dimension d alone: the normalized
Gell-Mann family, a read-only (d^2, d, d) array built once per d.  Element 0
is the normalized identity 1/sqrt(d), followed by the traceless generators
ordered as symmetric pairs (lexicographic (j,k), j < k), then antisymmetric
pairs, then diagonal generators.  All elements satisfy Tr(g_i g_j) = delta_ij.

Blocks of s sites use the Kronecker-product basis with the leftmost site as
the most significant index: the flat index of (i_1, ..., i_s) is the usual
C-order value sum_k i_k * (d^2)^(s-k).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "gellmann",
    "expand_in_basis",
    "matrix_units",
]


def gellmann(d: int) -> np.ndarray:
    """Normalized Gell-Mann basis for local dimension d >= 2: the read-only
    (d^2, d, d) complex array of its elements, the same array on every call."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return _hermitian_basis(d)


@functools.cache
def _hermitian_basis(d: int) -> np.ndarray:
    # Internal variant that also admits the trivial d = 1 memory algebra.
    elements = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = e[k, j] = 1.0
            elements.append(e / np.sqrt(2.0))
    for j in range(d):
        for k in range(j + 1, d):
            f = np.zeros((d, d), dtype=complex)
            f[j, k] = -1.0j
            f[k, j] = 1.0j
            elements.append(f / np.sqrt(2.0))
    for l in range(1, d):
        v = np.zeros(d)
        v[:l] = 1.0
        v[l] = -float(l)
        elements.append(np.diag(v).astype(complex) / np.sqrt(l * (l + 1.0)))
    elements = np.array(elements)
    elements.setflags(write=False)
    return elements


def expand_in_basis(m, d: int, sites: int) -> np.ndarray:
    """Real coefficient vector of a Hermitian block matrix.

    Returns c with c[flat(i_1..i_s)] = Tr(g_{i_1} x ... x g_{i_s} m) in the
    site basis ``gellmann(d)``.  The input must be Hermitian so the
    coefficients are real; imaginary parts beyond 1e-10 (relative to the
    matrix norm) raise.
    """
    m = np.asarray(m)
    n = d ** sites
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for {sites} sites, got {m.shape}")
    x = _contract_sites(m, gellmann(d), sites)
    imag = np.abs(x.imag).max()
    if imag > 1e-10 * max(np.linalg.norm(m), 1.0):
        raise ValueError(f"coefficients are not real: max imaginary part {imag:.3e}")
    return np.ascontiguousarray(x.real).reshape(-1)


def _contract_sites(m, ops, sites: int) -> np.ndarray:
    """Tensor x[a_1, ..., a_s] = Tr((ops[a_1] x ... x ops[a_s]) m).

    ``ops`` is a stack of single-site d x d operators and m a d^s x d^s
    block matrix; the result is complex with one axis of len(ops) per site.
    """
    d = ops.shape[-1]
    # Tr(O m) with O = o_{a_1} x ... x o_{a_s} contracts, site by site, the
    # row index of m with the column index of o and vice versa.
    x = m.reshape((d,) * (2 * sites))
    for site in range(sites):
        x = np.tensordot(x, ops, axes=([site, sites], [2, 1]))
        x = np.moveaxis(x, -1, site)
    return x


def matrix_units(letters) -> np.ndarray:
    """Letters rotated from the site basis to matrix units.

    ``letters`` has shape (d^2, p, q), one p x q matrix per element of
    ``gellmann(d)``, so d is the square root of the letter count.  Entry
    i*d + j of the result is sum_a (g_a)_{ij} letters[a], so a word over the
    rotated letters is one entry of the block matrix.  Entries (i, j) and
    (j, i) are made exact complex conjugates, so the products built from
    them are Hermitian to the last bit wherever the arithmetic treats both
    signs alike, and the Hermiticity check before an eigensolve then copies
    nothing.
    """
    letters = np.asarray(letters)
    d = math.isqrt(len(letters))
    if d < 2 or d * d != len(letters):
        raise ValueError(f"matrix_units: {len(letters)} letters are not d^2 for a d >= 2")
    m = np.tensordot(gellmann(d), letters, axes=(0, 0))
    m = 0.5 * (m + m.transpose(1, 0, 2, 3).conj())
    return m.reshape(d * d, *letters.shape[1:])
