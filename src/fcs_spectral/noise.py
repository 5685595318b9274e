"""Simulated estimation error, seeded and reproducible.

Two noise families:

* Gaussian matrix perturbation ``a + epsilon * P / ||P||_F`` with P drawn
  entrywise from N(0, 1), so the Schatten-2 distance of the perturbed
  object is exactly epsilon.
* A shot-noise tomography simulator that measures each element of the
  block basis of ``gellmann(d)``, d the marginal's local dimension, on n
  copies by multinomial sampling of its eigenvalues.  It uses the
  product structure of the block basis: the eigenprojectors of
  g_{a_1} x ... x g_{a_k} are products of single-site eigenprojectors, so
  one eigendecomposition of the d^2 single-site elements and one
  site-by-site contraction of the marginal give every outcome probability.

RNG contract: streams come from numpy's PCG64 generator.  Per-trial
sub-streams are derived with ``numpy.random.SeedSequence(seed, spawn_key)``
where the spawn key is the tuple of loop indices; statistical (not
bit-level cross-language) reproducibility is the contract.  The tomography
simulator makes one batched ``multinomial`` draw per marginal, one row of
outcome probabilities per element in flat block order; zero-variance
elements draw nothing.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .opbasis import _contract_sites, gellmann
from .spectral import ChainOmegaData, OmegaData

__all__ = [
    "make_rng",
    "spawn_rng",
    "perturb_matrix",
    "perturb_omega_data",
    "perturb_chain_omega",
    "simulate_tomography",
]

NOISE_MODES = ("gaussian_matrix", "shot_multinomial")


def make_rng(seed) -> np.random.Generator:
    """PCG64 generator for the given seed (or SeedSequence)."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic sub-stream for a trial, keyed by loop indices."""
    return make_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def perturb_matrix(a, epsilon: float, rng) -> np.ndarray:
    """a + epsilon * P/||P||_F with standard normal entries of P: the output
    is exactly at Frobenius distance epsilon from a, an array of any shape
    (for a vector, the Euclidean distance)."""
    a = np.asarray(a, dtype=float)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if epsilon == 0:
        return a.copy()
    p = rng.standard_normal(a.shape)
    return a + (epsilon / np.linalg.norm(p)) * p


def perturb_omega_data(od: OmegaData, epsilon: float, epsilon_prime: float | None,
                       rng) -> OmegaData:
    """Independently perturb Omega at epsilon, each Omega_dot slice at
    epsilon', and the two vectors at epsilon (Euclidean normalization), in
    that order on ``rng``."""
    eps_p = epsilon if epsilon_prime is None else epsilon_prime
    omega = perturb_matrix(od.omega, epsilon, rng)
    omega_dot = np.stack([perturb_matrix(z, eps_p, rng) for z in od.omega_dot])
    omega_one = perturb_matrix(od.omega_one, epsilon, rng)
    tau_omega = perturb_matrix(od.tau_omega, epsilon, rng)
    return dataclasses.replace(od, omega=omega, omega_dot=omega_dot, omega_one=omega_one,
                               tau_omega=tau_omega)


def perturb_chain_omega(cod: ChainOmegaData, epsilon: float, rng) -> ChainOmegaData:
    """Perturb every window form, then every middle slice, at epsilon."""
    omegas = {j: perturb_matrix(cod.omegas[j], epsilon, rng) for j in sorted(cod.omegas)}
    omega_dots = {j: np.stack([perturb_matrix(z, epsilon, rng) for z in cod.omega_dots[j]])
                  for j in sorted(cod.omega_dots)}
    return dataclasses.replace(cod, omegas=omegas, omega_dots=omega_dots)


def _product_outcomes(rho, d: int, sites: int):
    """Outcome table of every block basis element, rows in flat block order.

    Returns (vals, probs) of shape ((d^2)^sites, d^sites): probs[w, o] =
    Tr(Pi rho) for the o-th eigenprojector Pi of block element w, and
    vals[w, o] its eigenvalue.  Element g_{a_1} x ... x g_{a_k} has the
    eigenprojectors Pi_{a_1 o_1} x ... x Pi_{a_k o_k} with eigenvalues
    prod_j lambda_{a_j o_j}.
    """
    site_vals, site_vecs = np.linalg.eigh(gellmann(d))
    # proj[a * d + o] = |v_ao><v_ao|, the o-th eigenprojector of element a
    proj = np.einsum("aio,ajo->aoij", site_vecs, site_vecs.conj()).reshape(-1, d, d)
    x = _contract_sites(np.asarray(rho), proj, sites).real
    # axes (a_1, o_1, ..., a_k, o_k) -> rows a_1..a_k, columns o_1..o_k
    perm = list(range(0, 2 * sites, 2)) + list(range(1, 2 * sites, 2))
    probs = x.reshape((d * d, d) * sites).transpose(perm).reshape(d ** (2 * sites), -1)
    del x
    vals = np.ones((1, 1))
    for _ in range(sites):
        vals = (vals[:, None, :, None] * site_vals[None, :, None, :]).reshape(
            vals.shape[0] * d * d, -1)
    return vals, probs


def simulate_tomography(dm, shots: int, rng) -> np.ndarray:
    """Estimated coefficient vector of a marginal from n measurement shots.

    For each block basis element G = sum_k g_k Pi_k the simulator draws n
    outcomes with probabilities Tr(Pi_k rho) and returns the sample mean:
    unbiased, with variance (<G^2> - <G>^2)/n.  A zero-variance observable
    is returned exactly.

    All elements are drawn in one call on ``rng``, one row per element in
    flat block order; zero-variance rows draw nothing.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    vals, probs = _product_outcomes(dm.matrix, dm.dim, dm.sites)
    lo = probs.min()
    if lo < -1e-9:
        warnings.warn(
            f"clipping negative outcome probability {lo:.3e} (non-PSD input)",
            RuntimeWarning,
            stacklevel=2,
        )
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    est = np.einsum("ij,ij->i", vals, probs)
    # centred form: a constant spectrum gives var = 0 up to (ulp)^2, not
    # the O(ulp) cancellation error of <G^2> - <G>^2
    dev = vals - est[:, None]
    var = np.einsum("ij,ij,ij->i", dev, dev, probs)
    del dev
    # a deterministic outcome (degenerate spectrum), up to roundoff, keeps
    # its exact mean
    live = ~(var <= 1e-18 * np.maximum(1.0, vals.max(axis=1) ** 2))
    counts = rng.multinomial(shots, probs[live])
    est[live] = np.einsum("ij,ij->i", vals[live], counts) / shots
    return est
