"""Finitely correlated states as ground truth.

A realization is a quadruple (memory dimension m, transition tensor kappa,
boundary vector e, boundary functional rho) evaluating correlation words as

    omega(A_1 x ... x A_t) = rho . K_{A_1} ... K_{A_t} . e,

where K_A = sum_a Tr(g_a A) kappa[a] in the site basis {g_a} = gellmann(d),
fixed by the local dimension d.  All realization data is real because memory
coordinates are taken in a Hermitian basis of the memory algebra.

The module provides exact evaluation and dense marginals, constructors
(AKLT family, product states, seeded Haar-random quantum-channel models,
weighted direct sums such as mixtures, random finite chains), rank
profiling of the induced bilinear form, and the JSON persistence format.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linalg import (RANK_RTOL, blas_threads_for, hermitian_eigenvalues, numerical_rank,
                     singular_values)
from .opbasis import _hermitian_basis, gellmann, matrix_units

__all__ = [
    "DEFAULT_DENSE_CAP",
    "check_dense_cap",
    "AKLT_THETA",
    "DensityMatrix",
    "Realization",
    "CStarRealization",
    "ChainRealization",
    "partial_trace_window",
    "word_rows",
    "dense_product",
    "marginal",
    "marginal_difference",
    "from_cstar",
    "product_realization",
    "direct_sum",
    "aklt",
    "random_cstar",
    "stationary_state",
    "random_chain",
    "rank_profile",
    "t_star",
    "realization_to_dict",
    "realization_from_dict",
    "write_json",
    "save_realization",
    "load_realization",
]

# Largest dense Hilbert dimension we assemble/eigensolve by default (3^7).
DEFAULT_DENSE_CAP = 2187


def check_dense_cap(d: int, sites: int, where: str):
    """Raises a ``ValueError`` naming ``where`` if ``sites`` sites of local
    dimension ``d`` exceed the dense cap."""
    if d ** sites > DEFAULT_DENSE_CAP:
        raise ValueError(f"{where}: {d}^{sites} exceeds the dense cap {DEFAULT_DENSE_CAP}")


# Bytes of the matmul block in ``dense_product``: a product of up to 512 x
# 512 complex entries (t <= 5 sites of a qutrit, chains of <= 9 qubits) is
# one matmul; a 3^6 one runs in 3 blocks and a 3^7 one in blocks of one of
# its 27 left row indices.
_PRODUCT_CHUNK_BYTES = 1 << 22

# cos(theta) = sqrt(2/3) reproduces the AKLT ground state.
AKLT_THETA = math.acos(math.sqrt(2.0 / 3.0))

# Tolerance of a model's exactness checks: isometry, stationarity and the
# memory state's density matrix.
_MODEL_TOL = 1e-10


@dataclass
class DensityMatrix:
    """Hermitian trace-one matrix on a block of `sites` qudits of dimension `dim`."""

    matrix: np.ndarray
    dim: int
    sites: int

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def validate(self, trace_tol=1e-10, psd_tol=1e-9, herm_tol=1e-10):
        lo = float(hermitian_eigenvalues(self.matrix, herm_tol)[0])
        tr = self.trace()
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {trace_tol:.0e}")
        if lo < -psd_tol:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        return self


def partial_trace_window(matrix, dim: int, sites: int, first: int, last: int) -> np.ndarray:
    """Reduce a `sites`-site density matrix to the window [first, last] (1-based)."""
    if not 1 <= first <= last <= sites:
        raise ValueError(f"invalid window [{first}, {last}] for {sites} sites")
    pre = dim ** (first - 1)
    mid = dim ** (last - first + 1)
    post = dim ** (sites - last)
    r = np.asarray(matrix).reshape(pre, mid, post, pre, mid, post)
    return np.einsum("ambacb->mc", r)


# ---------------------------------------------------------------------------
# realization records
# ---------------------------------------------------------------------------

@dataclass
class Realization:
    """Linear realization with real data in a Hermitian site basis.

    kappa[a] is the m x m matrix of the generating map evaluated on basis
    element a; kappa[0] corresponds to the normalized identity, so the
    identity transfer matrix is sqrt(d_a) * kappa[0].

    Exact models are stationary and normalized (see :meth:`validate`);
    spectral estimates generally are neither and carry their spectral
    diagnostics, which are saved with them.
    """

    d_a: int
    kappa: np.ndarray  # (d_a^2, m, m) real
    e: np.ndarray      # (m,)
    rho: np.ndarray    # (m,)
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.kappa.shape[1]

    def transfer_identity(self) -> np.ndarray:
        return math.sqrt(self.d_a) * self.kappa[0]

    def validate(self):
        kappa = np.asarray(self.kappa, dtype=float)
        if kappa.ndim != 3 or kappa.shape[0] != self.d_a ** 2 or kappa.shape[1] != kappa.shape[2]:
            raise ValueError(f"kappa has shape {kappa.shape}, expected ({self.d_a ** 2}, m, m)")
        if not (np.all(np.isfinite(kappa)) and np.all(np.isfinite(self.e)) and np.all(np.isfinite(self.rho))):
            raise ValueError("realization contains non-finite entries")
        t = self.transfer_identity()
        left = np.abs(self.rho @ t - self.rho).max()
        right = np.abs(t @ self.e - self.e).max()
        if max(left, right) > _MODEL_TOL:
            raise ValueError(
                f"stationarity violated: residuals left={left:.3e} right={right:.3e}"
            )
        norm = float(self.rho @ self.e)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"normalization rho(e) = {norm!r} differs from 1")
        return self


@dataclass
class CStarRealization:
    """Quantum-channel model: isometry V : C^d_b -> C^d_a x C^d_b, state rho0.

    The generating map is E_A(B) = V^dag (A x B) V; its unital dual is the
    channel rho -> Tr_site(V rho V^dag) whose fixed point rho0 must be.
    """

    d_a: int
    d_b: int
    v: np.ndarray      # (d_a * d_b, d_b) complex isometry
    rho0: np.ndarray   # (d_b, d_b) density matrix

    def validate(self):
        tol = _MODEL_TOL
        v = _check_isometry(self.v, self.d_a, self.d_b, "V")
        rho0 = DensityMatrix(np.asarray(self.rho0), self.d_b, 1).validate(tol, tol, tol).matrix
        res = np.abs(_dual_step(v, rho0, self.d_a, self.d_b) - rho0).max()
        if res > tol:
            raise ValueError(f"rho0 is not stationary: residual {res:.3e}")
        return self


@dataclass
class ChainRealization:
    """Finite chain of n sites: real per-site maps between trivial boundaries.

    k_maps[j-1] has shape (d_a^2, m_{j-1}, m_j) with m_0 = m_n = 1, one
    transfer matrix per basis element of site j.  Exact chains come from
    :meth:`from_channels`, learned ones from ``spectral.nonhomog_reconstruct``.
    """

    d_a: int
    k_maps: list[np.ndarray]

    @property
    def n_sites(self) -> int:
        return len(self.k_maps)

    @classmethod
    def from_channels(cls, isometries, rho0, d_a: int, d_b: int) -> ChainRealization:
        """Exact chain of one channel isometry per site from the memory state
        rho0: each site's maps are its channel's, as in :func:`from_cstar`,
        with rho0 folded into site 1 and the trace into site n."""
        if not isometries:
            raise ValueError("a chain needs at least one site")
        tol = _MODEL_TOL
        rho0 = DensityMatrix(np.asarray(rho0), d_b, 1).validate(tol, tol, tol).matrix
        k_maps = [_channel_maps(_check_isometry(v, d_a, d_b, f"site {j}: V"), d_a, d_b)
                  for j, v in enumerate(isometries, start=1)]
        e, rho = _memory_boundaries(rho0, d_b)
        k_maps[0] = np.einsum("i,aij->aj", rho, k_maps[0])[:, None, :]
        k_maps[-1] = (k_maps[-1] @ e)[:, :, None]
        return cls(d_a=d_a, k_maps=k_maps)

    def state(self) -> DensityMatrix:
        """Dense chain state, the operator product of the maps; exactly
        Hermitian by construction."""
        one = np.ones(1)
        matrix = dense_product(one, self.k_maps, one)
        return DensityMatrix(matrix=matrix, dim=self.d_a, sites=self.n_sites)


def _check_isometry(v, d_a: int, d_b: int, name: str) -> np.ndarray:
    """``v`` as an array, checked to be a (d_a d_b) x d_b isometry."""
    v = np.asarray(v)
    if v.shape != (d_a * d_b, d_b):
        raise ValueError(f"{name} has shape {v.shape}, expected ({d_a * d_b}, {d_b})")
    dev = np.abs(v.conj().T @ v - np.eye(d_b)).max()
    if dev > _MODEL_TOL:
        raise ValueError(f"{name} is not an isometry: max |V^dag V - I| = {dev:.3e}")
    return v


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def word_rows(boundary, maps, from_right: bool = False) -> list[np.ndarray]:
    """Word rows grown one site at a time over a sequence of per-site maps.

    ``maps`` lists the sites 1..N in order; ``maps[k]`` has shape
    (n_k, p_k, q_k), one p_k x q_k transfer matrix per letter of site k+1.
    Entry k of the result (k = 0..N) holds one row per word of k letters,
    first letter most significant, over sites 1..k from the left and over
    sites N-k+1..N from the right:

        from the left:   boundary . M_1[a_1] ... M_k[a_k]
        from the right:  (M_{N-k+1}[a_1] ... M_N[a_k] . boundary)^T

    Entry 0 is the boundary as a single row.  Real maps give real rows; the
    letters may be complex, such as the matrix units of ``dense_product``.
    """
    cur = np.asarray(boundary)
    cur = cur.astype(np.result_type(cur, float), copy=False).reshape(1, -1)
    rows = [cur]
    if from_right:
        for k in reversed(maps):
            cur = np.einsum("aij,wj->awi", k, cur).reshape(-1, k.shape[1])
            rows.append(cur)
    else:
        for k in maps:
            cur = np.einsum("wi,aij->waj", cur, k).reshape(-1, k.shape[2])
            rows.append(cur)
    return rows


def dense_product(left, maps, right) -> np.ndarray:
    """Dense d^t x d^t matrix of the operator product over t = len(maps) sites,

        sum_w (left . maps[0][w_1] ... maps[t-1][w_t] . right) g_{w_1} x ... x g_{w_t},

    with ``maps[k]`` of shape (d^2, p_k, q_k) in the site basis.  The
    letters of each distinct map are rotated to matrix units once, so a word
    over them is one matrix entry, and ``_unit_product`` multiplies them out.
    The correlation coefficients are never formed.
    """
    distinct = {id(k): k for k in maps}
    rotated = {i: matrix_units(k) for i, k in distinct.items()}
    return _unit_product(left, [rotated[id(k)] for k in maps], right)


def _unit_product(left, units, right) -> np.ndarray:
    """``dense_product`` over letters already rotated to matrix units.

    Word rows grow from both ends, with their row and column indices
    separated, and a matmul and a transpose give the block matrix.  The
    matmul runs over blocks of the left row index of at most
    ``_PRODUCT_CHUNK_BYTES`` each, written straight into the output, so the
    output is the one full-size array; from ``linalg._THREADED_MIN_DIM``
    output rows on it runs at the inherited BLAS thread count
    (``blas_threads_for``).
    """
    t = len(units)
    if t < 1:
        raise ValueError("t must be >= 1")
    d = math.isqrt(len(units[0]))
    check_dense_cap(d, t, "dense_product")
    h = t // 2
    lefts = _split_rows(word_rows(left, units[:h])[-1], d, h)
    rights = _split_rows(word_rows(right, units[h:], from_right=True)[-1], d, t - h)
    # x[I_L, J_L, I_R, J_R] = lefts @ rights.T: row and column multi-indices
    # of the left h sites and of the right t - h sites; out[I_L, I_R, J_L, J_R].
    # The order lefts @ rights.T keeps the result exactly Hermitian.
    dl, dr = d ** h, d ** (t - h)
    out = np.empty((dl, dr, dl, dr), dtype=np.result_type(lefts, rights))
    step = max(1, _PRODUCT_CHUNK_BYTES // out[0].nbytes)
    with blas_threads_for(d ** t):
        for i in range(0, dl, step):
            # one expression: each block is freed before the next one is made
            out[i:i + step] = ((lefts[i * dl:(i + step) * dl] @ rights.T)
                               .reshape(-1, dl, dr, dr).transpose(0, 2, 1, 3))
    return out.reshape(d ** t, d ** t)


def _split_rows(rows: np.ndarray, d: int, k: int) -> np.ndarray:
    """Word rows over k matrix-unit letters, index (i_1, j_1, ..., i_k, j_k),
    reordered to (i_1..i_k, j_1..j_k)."""
    perm = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2)) + [2 * k]
    x = rows.reshape((d,) * (2 * k) + (rows.shape[1],)).transpose(perm)
    return np.ascontiguousarray(x).reshape(d ** (2 * k), rows.shape[1])


def marginal(r: Realization, t: int) -> DensityMatrix:
    """Dense t-site marginal, the operator product of the realization.

    For a spectral estimate the result is Hermitian by construction; its
    trace is reported as computed (no renormalization, no positivity
    projection).
    """
    matrix = dense_product(r.rho, [r.kappa] * t, r.e)
    return DensityMatrix(matrix=matrix, dim=r.d_a, sites=t)


def marginal_difference(a: Realization, b: Realization, sizes) -> Iterator[np.ndarray]:
    """Dense differences of the t-site marginals of two realizations, one for
    each t of ``sizes`` in order: the operator products of their direct sum
    with weights (1, -1).

    The direct sum and its matrix-unit letters are made once for all sizes.
    A difference is built only when the next one is asked for, so a caller
    that drops each before asking holds one at a time.
    """
    r = direct_sum([a, b], [1.0, -1.0])
    units = matrix_units(r.kappa)
    for t in sizes:
        yield _unit_product(r.rho, [units] * t, r.e)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_cstar(c: CStarRealization) -> Realization:
    """Real-coordinate realization of a quantum-channel model.

    Memory coordinates are taken in the orthonormal Hermitian basis of the
    d_b x d_b memory algebra, so kappa, e and rho all come out real.
    """
    c.validate()
    e, rho = _memory_boundaries(c.rho0, c.d_b)
    return Realization(d_a=c.d_a, kappa=_channel_maps(np.asarray(c.v), c.d_a, c.d_b),
                       e=e, rho=rho).validate()


def _channel_maps(v: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Transition coefficients kappa[a, i, j] = Tr(mu_i V^dag (g_a x mu_j) V)
    of an isometry, in the Gell-Mann site basis {g_a} and the Hermitian
    memory basis {mu_i}."""
    site_basis = gellmann(d_a)
    mem = _hermitian_basis(d_b)
    kappa = np.zeros((len(site_basis), len(mem), len(mem)))
    for a, g in enumerate(site_basis):
        for j, mu in enumerate(mem):
            w = v.conj().T @ np.kron(g, mu) @ v
            col = np.einsum("iab,ba->i", mem, w)
            if np.abs(col.imag).max() > 1e-10:
                raise ValueError("transition coefficients are not real")
            kappa[a, :, j] = col.real
    return kappa


def _memory_boundaries(rho0, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """(e, rho): the trace functional and the memory state rho0 in the
    Hermitian memory basis."""
    mem = _hermitian_basis(d_b)
    e = np.array([np.trace(mu).real for mu in mem])
    rho = np.array([np.trace(np.asarray(rho0) @ mu).real for mu in mem])
    return e, rho


def product_realization(site_state) -> Realization:
    """Rank-one realization of the product state site_state^(x infinity)
    of a d x d site state."""
    site_state = np.asarray(site_state)
    d = len(site_state)
    if site_state.shape != (d, d):
        raise ValueError(f"site state has shape {site_state.shape}, expected ({d}, {d})")
    if abs(np.trace(site_state).real - 1.0) > 1e-10:
        raise ValueError("site state must have trace 1")
    phi = np.array([np.trace(site_state @ g).real for g in gellmann(d)])
    kappa = phi.reshape(-1, 1, 1)
    return Realization(d_a=d, kappa=kappa, e=np.ones(1), rho=np.ones(1)).validate()


def direct_sum(parts: list[Realization], weights: list[float]) -> Realization:
    """Realization of the weighted sum sum_i w_i omega_i of the parts' states:
    kappa = blockdiag(kappa_i), rho = concat(w_i rho_i), e = concat(e_i).

    Weights of a mixture, summing to 1, give a state; weights (1, -1) give
    the difference of two states.  The result is not validated.
    """
    d_a = parts[0].d_a
    m = sum(p.m for p in parts)
    kappa = np.zeros((d_a ** 2, m, m))
    at = 0
    for p in parts:
        kappa[:, at:at + p.m, at:at + p.m] = p.kappa
        at += p.m
    rho = np.concatenate([w * p.rho for p, w in zip(parts, weights, strict=True)])
    return Realization(d_a=d_a, kappa=kappa, e=np.concatenate([p.e for p in parts]), rho=rho)


def aklt(theta: float = AKLT_THETA) -> CStarRealization:
    """Spin-1 valence-bond family; theta = arccos(sqrt(2/3)) is the AKLT point.

    Site basis order |1>, |0>, |-1>; memory basis |+1/2>, |-1/2>.  The
    defining isometry sends
        |+1/2> -> cos(theta) |1, -1/2> - sin(theta) |0, +1/2>,
        |-1/2> -> sin(theta) |0, -1/2> - cos(theta) |-1, +1/2>.
    The maximally mixed memory state is stationary for every theta.
    """
    c, s = math.cos(theta), math.sin(theta)
    v = np.zeros((6, 2), dtype=complex)
    v[0 * 2 + 1, 0] = c    # |1, -1/2>
    v[1 * 2 + 0, 0] = -s   # |0, +1/2>
    v[1 * 2 + 1, 1] = s    # |0, -1/2>
    v[2 * 2 + 0, 1] = -c   # |-1, +1/2>
    return CStarRealization(d_a=3, d_b=2, v=v, rho0=np.eye(2) / 2.0).validate()


def _dual_step(v, rho, d_a, d_b):
    # dual of B -> V^dag (1 x B) V, i.e. rho -> Tr_site(V rho V^dag)
    w = v @ rho @ v.conj().T
    return np.einsum("aiaj->ij", w.reshape(d_a, d_b, d_a, d_b))


def stationary_state(v, d_a: int, d_b: int, max_iter=100_000) -> np.ndarray:
    """Fixed point of the memory channel by power iteration from 1/d_b, to a
    max-entry step below 1e-12.

    Raises ``numpy.linalg.LinAlgError`` if the iteration does not converge
    within ``max_iter`` steps.
    """
    rho = np.eye(d_b, dtype=complex) / d_b
    for _ in range(max_iter):
        nxt = _dual_step(v, rho, d_a, d_b)
        nxt = 0.5 * (nxt + nxt.conj().T)
        nxt /= np.trace(nxt).real
        if np.abs(nxt - rho).max() < 1e-12:
            return nxt
        rho = nxt
    raise np.linalg.LinAlgError(
        f"stationary state iteration did not converge within {max_iter} steps "
        "(degenerate peripheral spectrum?)"
    )


def _haar_isometry(rows: int, cols: int, rng) -> np.ndarray:
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_cstar(d_a: int, d_b: int, seed: int) -> CStarRealization:
    """Seeded Haar-random channel model with its stationary memory state."""
    if d_a < 1 or d_b < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    v = _haar_isometry(d_a * d_b, d_b, rng)
    rho0 = stationary_state(v, d_a, d_b)
    return CStarRealization(d_a=d_a, d_b=d_b, v=v, rho0=rho0).validate()


def random_chain(n_sites: int, d_a: int, d_b: int, seed: int) -> ChainRealization:
    """Seeded chain of Haar-random per-site channels and a random memory
    state rho0.  A chain of one channel repeated from its stationary state
    is ``ChainRealization.from_channels([c.v] * n_sites, c.rho0, d_a, d_b)``
    for ``c = random_cstar(d_a, d_b, seed)``."""
    rng = np.random.default_rng(seed)
    isometries = [_haar_isometry(d_a * d_b, d_b, rng) for _ in range(n_sites)]
    g = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
    rho0 = g @ g.conj().T
    rho0 /= np.trace(rho0).real
    return ChainRealization.from_channels(isometries, rho0, d_a, d_b)


# ---------------------------------------------------------------------------
# rank profiling
# ---------------------------------------------------------------------------

def rank_profile(r: Realization, max_block: int) -> np.ndarray:
    """Numerical ranks of the block bilinear forms.

    Entry [i-1, j-1] is the rank (cutoff ``RANK_RTOL * sigma_1``) of the matrix
    [omega(Y x X)] with left block of j sites and right block of i sites.
    Ranks are non-decreasing in both block sizes and bounded by m.
    """
    # the largest form spans 2 * max_block sites
    check_dense_cap(r.d_a, 2 * max_block, "rank_profile")
    lefts = word_rows(r.rho, [r.kappa] * max_block)
    rights = word_rows(r.e, [r.kappa] * max_block, from_right=True)
    out = np.zeros((max_block, max_block), dtype=int)
    for i in range(1, max_block + 1):
        for j in range(1, max_block + 1):
            s = singular_values(lefts[j] @ rights[i].T)
            out[i - 1, j - 1] = numerical_rank(s, RANK_RTOL)
    return out


def t_star(profile: np.ndarray) -> tuple[int, int]:
    """Smallest (left, right) block widths at which the rank stabilizes."""
    full = profile[-1, -1]
    t1 = 1 + int(np.argmax(profile[-1, :] == full))
    t2 = 1 + int(np.argmax(profile[:, -1] == full))
    while profile[t2 - 1, t1 - 1] != full:
        if t1 <= t2 and t1 < profile.shape[1]:
            t1 += 1
        elif t2 < profile.shape[0]:
            t2 += 1
        else:
            break
    return t1, t2


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def realization_to_dict(r: Realization) -> dict:
    doc = {
        "version": 1,
        "d_a": int(r.d_a),
        "m": int(r.m),
        "kappa": np.asarray(r.kappa, dtype=float).tolist(),
        "e": np.asarray(r.e, dtype=float).tolist(),
        "rho": np.asarray(r.rho, dtype=float).tolist(),
    }
    if r.diagnostics:
        doc["diagnostics"] = r.diagnostics
    return doc


def realization_from_dict(doc: dict, validate: bool = True) -> Realization:
    if doc.get("version") != 1:
        raise ValueError(f"unsupported realization document version {doc.get('version')!r}")
    d_a = int(doc["d_a"])
    m = int(doc["m"])
    kappa = np.asarray(doc["kappa"], dtype=float)
    if kappa.shape != (d_a ** 2, m, m):
        raise ValueError(f"kappa has shape {kappa.shape}, expected ({d_a ** 2}, {m}, {m})")
    r = Realization(
        d_a=d_a,
        kappa=kappa,
        e=np.asarray(doc["e"], dtype=float),
        rho=np.asarray(doc["rho"], dtype=float),
        diagnostics=dict(doc.get("diagnostics", {})),
    )
    return r.validate() if validate else r


def write_json(path, doc: dict):
    """Write a JSON artifact: UTF-8, sorted keys, one-space indent, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_realization(r: Realization, path):
    write_json(path, realization_to_dict(r))


def load_realization(path, validate: bool = True) -> Realization:
    """Read a realization document; ``validate=False`` admits an estimate
    that is not exactly stationary or normalized, such as one learned from
    noisy marginals."""
    with open(path, encoding="utf-8") as fh:
        return realization_from_dict(json.load(fh), validate=validate)
