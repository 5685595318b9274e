"""The learning core: Omega data, truncated SVD, spectral reconstruction.

Translation-invariant path
    1. collect the bilinear-form data (Omega, Omega_dot, Omega(1), tau Omega)
       in the product of the site basis ``gellmann(d)``, which the local
       dimension d fixes, either exactly from a realization
       or from one (estimated) marginal: every field of block size s is a
       slice of the (2s+1)-site marginal's coefficient vector;
    2. truncate the SVD of Omega to a fixed rank or singular value threshold;
    3. form the estimated realization
           e_hat   = U^T Omega(1)
           rho_hat = (tau Omega) (U^T Omega)^+
           K_hat_a = U^T Omega_a (U^T Omega)^+
       as a :class:`~fcs_spectral.fcs.Realization`, whose words
       rho_hat K_hat ... K_hat e_hat are the reconstructed marginals.

Non-homogeneous path: per-site window forms Omega^{[i,j,k]}, each site
learned by step 3 (:func:`nonhomog_reconstruct`).  Both forms of site j
are slices of one window marginal, so an n-site chain is learned from n
marginals of at most l + r + 1 sites (:func:`build_chain_omega`).

Estimates are generally neither stationary nor positive semidefinite, so
they are not validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fcs
from .fcs import ChainRealization, DensityMatrix, Realization, check_dense_cap
from .linalg import PINV_RTOL, numerical_rank, svd
from .opbasis import expand_in_basis

__all__ = [
    "OmegaData",
    "SvdTruncation",
    "build_omega",
    "build_omega_from_marginal",
    "omega_data_from_coefficients",
    "truncate",
    "spectral_realization",
    "ChainOmegaData",
    "build_chain_omega",
    "nonhomog_reconstruct",
]


@dataclass
class OmegaData:
    """Bilinear-form data of a state in the product site basis.

    omega[j, i]        = omega(Y_j x X_i)          (left s_left, right s_right sites)
    omega_dot[k, j, i] = omega(Y_j x Z_k x X_i)    (one middle site)
    omega_one[j]       = omega(Y_j)
    tau_omega[i]       = omega(X_i)
    """

    d_a: int
    s_left: int
    s_right: int
    omega: np.ndarray
    omega_dot: np.ndarray
    omega_one: np.ndarray
    tau_omega: np.ndarray


def build_omega(r: Realization, s_left: int = 1, s_right: int = 1) -> OmegaData:
    """Exact Omega data of a realization for given block sizes."""
    check_dense_cap(r.d_a, s_left + s_right, "build_omega")
    # (nL, m) rows rho.K_word and (nR, m) rows K_word.e
    left = fcs.word_rows(r.rho, [r.kappa] * s_left)[-1]
    right = fcs.word_rows(r.e, [r.kappa] * s_right, from_right=True)[-1]
    omega = left @ right.T
    omega_dot = np.einsum("jm,amn,in->aji", left, r.kappa, right)
    omega_one = left @ np.asarray(r.e, dtype=float)
    tau_omega = right @ np.asarray(r.rho, dtype=float)
    return OmegaData(r.d_a, s_left, s_right, omega, omega_dot, omega_one, tau_omega)


def build_omega_from_marginal(marg: DensityMatrix) -> OmegaData:
    """Omega data of block size s from the (2s+1)-site marginal alone."""
    if marg.sites < 3 or marg.sites % 2 == 0:
        raise ValueError(f"a {marg.sites}-site marginal is not of size 2s+1 with s >= 1")
    c = expand_in_basis(marg.matrix, marg.dim, marg.sites)
    return omega_data_from_coefficients(c, d_a=marg.dim, s=marg.sites // 2)


def omega_data_from_coefficients(c, d_a: int, s: int) -> OmegaData:
    """Omega data from the coefficient vector of a (2s+1)-site marginal (such
    as tomography output), indexed (Y, Z, X) over s, 1 and s sites.

    Omega_dot is the whole vector.  The smaller forms are its slices at the
    identity g_0 = 1/sqrt(d) on trailing sites, each of which contributes a
    factor sqrt(d): Omega[Y, X] = sqrt(d) c[Y, X, g_0], and Omega(1) =
    tau Omega = d^((s+1)/2) c[Y, g_0, ..., g_0] by translation invariance.
    """
    nb = d_a * d_a
    n_blk = nb ** s
    c = np.asarray(c, dtype=float)
    if c.size != nb * n_blk ** 2:
        raise ValueError("coefficient vector size does not match block size s")
    omega_dot = c.reshape(n_blk, nb, n_blk).transpose(1, 0, 2).copy()
    omega = math.sqrt(d_a) * c.reshape(n_blk, n_blk, nb)[:, :, 0]
    one = d_a ** ((s + 1) / 2) * c.reshape(n_blk, -1)[:, 0]
    return OmegaData(d_a, s, s, omega, omega_dot, one, one.copy())


# ---------------------------------------------------------------------------
# truncation and reconstruction
# ---------------------------------------------------------------------------

@dataclass
class SvdTruncation:
    """Retained left singular frame of an Omega estimate."""

    u_hat: np.ndarray          # (nL, m_hat), orthonormal columns
    retained: np.ndarray       # singular values kept, descending
    discarded: np.ndarray      # singular values dropped

    @property
    def rank(self) -> int:
        return self.u_hat.shape[1]


def truncate(omega, rank: int | None = None, threshold: float | None = None) -> SvdTruncation:
    """Truncated SVD frame of Omega, by fixed rank or singular value threshold.

    In rank mode sigma_rank must be above the inversion cutoff; in threshold
    mode every singular value >= threshold is kept (the tie at the threshold
    is kept: the selection condition is closed).
    """
    if (rank is None) == (threshold is None):
        raise ValueError("specify exactly one of rank or threshold")
    u, s, _ = svd(np.asarray(omega, dtype=float))
    if rank is not None:
        if not 1 <= rank <= s.size:
            raise ValueError(f"rank {rank} out of range [1, {s.size}]")
        if numerical_rank(s, PINV_RTOL) < rank:
            raise ValueError(f"rank-deficient truncation: sigma_{rank} = {s[rank - 1]:.3e}")
        keep = rank
    else:
        keep = int((s >= threshold).sum())
        if keep == 0:
            raise ValueError(f"threshold {threshold} discards every singular value")
    return SvdTruncation(u_hat=u[:, :keep], retained=s[:keep].copy(),
                         discarded=s[keep:].copy())


def _projected_pinv(u_hat: np.ndarray, omega: np.ndarray):
    """SVD of B = U^T Omega and B^+.  A B of numerical rank below the frame's
    width would have a kept direction inverted as zero, so it is refused."""
    b_svd = svd(u_hat.T @ omega)
    if numerical_rank(b_svd.s, PINV_RTOL) < u_hat.shape[1]:
        raise ValueError("rank-deficient projected Omega")
    return b_svd, b_svd.pinv()


def _maps(u_in: np.ndarray, omega_dot: np.ndarray, b_pinv: np.ndarray) -> np.ndarray:
    """Transition maps K_a = U_in^T Omega_a B^+, stacked on the first axis."""
    # the path optimize=True finds for square forms (U_in first), fixed to skip the search
    return np.einsum("lj,alk,kr->ajr", u_in, omega_dot, b_pinv,
                     optimize=["einsum_path", (0, 1), (0, 1)])


def _realize(od: OmegaData, u_hat: np.ndarray):
    """e = U^T Omega(1), rho = (tau Omega) B^+ and K_a = U^T Omega_a B^+ with
    B = U^T Omega; returns the realization and the SVD of B."""
    b_svd, b_pinv = _projected_pinv(u_hat, od.omega)
    r = Realization(d_a=od.d_a, kappa=_maps(u_hat, od.omega_dot, b_pinv),
                    e=u_hat.T @ od.omega_one, rho=od.tau_omega @ b_pinv)
    return r, b_svd


def spectral_realization(od: OmegaData, tr: SvdTruncation) -> Realization:
    """Estimated realization from Omega data and a truncated frame."""
    if tr.u_hat.shape[0] != od.omega.shape[0]:
        raise ValueError("truncation frame does not match the Omega row space")
    r, b_svd = _realize(od, tr.u_hat)
    r.diagnostics = {
        "sigma_m_hat": float(tr.retained[-1]),
        "rank": tr.rank,
        "cond_utomega": float(b_svd.s[0] / b_svd.s[-1]),
        "discarded_max": float(tr.discarded[0]) if tr.discarded.size else 0.0,
    }
    return r


# ---------------------------------------------------------------------------
# non-homogeneous case
# ---------------------------------------------------------------------------

@dataclass
class ChainOmegaData:
    """Window bilinear forms of a finite-chain state.

    For site j the window form uses left block [max(1, j-l+1), j] and right
    block [j+1, min(j+r, N)]; the middle forms shift the left block one site
    down and carry the site-j label on their first axis.  Boundary forms at
    j = 1 and j = N have a trivial (one-dimensional) outer side.
    """

    d_a: int
    n_sites: int
    omegas: dict[int, np.ndarray]       # j = 1..N-1
    omega_dots: dict[int, np.ndarray]   # j = 1..N, shape (d^2, nL_j, nR_j)


def build_chain_omega(state: DensityMatrix, left_width: int,
                      right_width: int) -> ChainOmegaData:
    """Exact window forms of a dense finite-chain state from its n window
    marginals [max(1, j-l), min(n, j+r)], each expanded once.

    The middle form of site j is window j itself.  The window form of site
    j < n is window j too when j <= l; otherwise it is sqrt(d) times the
    slice of window j at the identity g_0 = 1/sqrt(d) on site j - l.
    """
    n, d = state.sites, state.dim
    nb = d * d
    if left_width < 1 or right_width < 1:
        raise ValueError("block widths must be >= 1")
    omegas = {}
    omega_dots = {}
    for j in range(1, n + 1):
        first, last = max(1, j - left_width), min(n, j + right_width)
        w = fcs.partial_trace_window(state.matrix, d, n, first, last)
        c = expand_in_basis(w, d, last - first + 1)
        omega_dots[j] = np.ascontiguousarray(
            c.reshape(nb ** (j - first), nb, -1).transpose(1, 0, 2))
        if j < n:
            if j > left_width:
                c = math.sqrt(d) * c.reshape(nb, -1)[0]
                first += 1
            omegas[j] = c.reshape(nb ** (j - first + 1), -1)
    return ChainOmegaData(d_a=d, n_sites=n, omegas=omegas, omega_dots=omega_dots)


def nonhomog_reconstruct(cod: ChainOmegaData, ranks: list[int] | None = None,
                         threshold: float | None = None) -> ChainRealization:
    """Spectral reconstruction of a finite chain from window form estimates.

    Per-site ranks are either given (list of length N-1 for sites 1..N-1)
    or resolved by the singular value threshold.  Site j's maps are
    U_{j-1}^T Omega_a^{[j]} (U_j^T Omega^{[j]})^+, with a 1x1 frame left of
    site 1 and a 1x1 inverse right of site N.
    """
    n = cod.n_sites
    if ranks is not None and len(ranks) != n - 1:
        raise ValueError(f"expected {n - 1} per-site ranks, got {len(ranks)}")
    frames, pinvs = [np.ones((1, 1))], []
    for j in range(1, n):
        try:
            tr = truncate(cod.omegas[j], rank=None if ranks is None else ranks[j - 1],
                          threshold=threshold)
        except ValueError as exc:
            raise ValueError(f"truncation failed at site {j}: {exc}") from exc
        try:
            pinvs.append(_projected_pinv(tr.u_hat, cod.omegas[j])[1])
        except ValueError as exc:
            raise ValueError(f"{exc} at site {j}") from exc
        frames.append(tr.u_hat)
    pinvs.append(np.ones((1, 1)))
    k_maps = [_maps(u, cod.omega_dots[j], b_pinv)
              for j, (u, b_pinv) in enumerate(zip(frames, pinvs), start=1)]
    return ChainRealization(d_a=cod.d_a, k_maps=k_maps)
