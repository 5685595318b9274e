"""Distances, spectral diagnostics, error budgets and perturbation checkers.

The error-propagation bound for a t-site reconstruction is

    ||reconstructed - true||_1 <= (1 + delta_1)(1 + delta_inf)(1 + Delta)^t - 1.

The abstract parameters delta_1, delta_inf, Delta involve order norms that
have no computable form here; everywhere they are needed this module
substitutes their explicit 2-norm upper-bound surrogates

    delta_1   <= 4 (||dOmega||_2 / sigma_m^2 + ||dTau||_2 / (3 sigma_m))
    delta_inf <= 2 ||dOmega(1)||_2 / (sqrt(3) sigma_m)            [general]
    Delta     <= 8 m sqrt(d_a) / (sqrt(3) sigma_m)
                   (||dOmega||_2 / sigma_m^2 + ||dOmegaDot||_2 / (3 sigma_m))

with m replaced by the memory dimension d_b (and delta_inf gaining a
sqrt(d_b) factor) in the quantum-channel variant.  Columns and report
fields derived from these carry a `_surrogate` suffix.

The perturbation checkers evaluate both sides of each inequality of the
corresponding matrix-perturbation statement and report them; a violated
precondition raises :class:`PreconditionError` so property sweeps never
mistake vacuous cases for passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PINV_RTOL,
    RANK_RTOL,
    frobenius_norm,
    numerical_rank,
    operator_norm_2to2,
    pseudoinverse,
    singular_values,
    svd,
    trace_norm_hermitian,
)
from .spectral import ChainOmegaData, OmegaData, SvdTruncation, _realize, truncate

__all__ = [
    "VARIANTS",
    "GOLDEN_PINV_CONSTANT",
    "GUARANTEE_CONSTANT",
    "SLACK",
    "PreconditionError",
    "ErrorParameters",
    "PrecisionBudget",
    "InequalityCheck",
    "CheckReport",
    "trace_distance",
    "hs_distance",
    "difference_distances",
    "error_propagation_bound",
    "surrogate_parameters",
    "chain_bound",
    "precision_budget",
    "sigma_m",
    "check_singular_value_perturbation",
    "check_pseudoinverse_perturbation",
    "check_singular_subspace_stability",
    "check_projected_sigma_stability",
    "check_realization_estimate_bounds",
]

# (1 + sqrt(5)) / 2: constant in the pseudoinverse perturbation bound.
GOLDEN_PINV_CONSTANT = (1.0 + math.sqrt(5.0)) / 2.0

# Final constant of the reconstruction guarantee.
GUARANTEE_CONSTANT = 145.0 / 9.0

# The bound's two variants: the general one scales with the rank m, the
# quantum-channel one ("cstar") with the memory dimension d_b.
VARIANTS = ("general", "cstar")


class PreconditionError(ValueError):
    """A checker's hypothesis is not met; the statement is vacuous, not false."""


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _pair(a, b):
    ma = np.asarray(a.matrix if hasattr(a, "matrix") else a)
    mb = np.asarray(b.matrix if hasattr(b, "matrix") else b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return ma, mb


def trace_distance(a, b, herm_tol=1e-8) -> float:
    """Half the Schatten-1 norm of the difference of two Hermitian matrices."""
    ma, mb = _pair(a, b)
    return 0.5 * trace_norm_hermitian(ma - mb, herm_tol)


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt (Frobenius) distance."""
    ma, mb = _pair(a, b)
    return frobenius_norm(ma - mb)


def difference_distances(diff) -> tuple[float, float]:
    """Trace and Hilbert-Schmidt distance of two states from the dense
    difference of their matrices: half its Schatten-1 norm, and its
    Frobenius norm.

    It takes ``diff`` over: the Frobenius norm is taken first, and the
    eigensolve may then overwrite the matrix (see ``trace_norm_hermitian``),
    so the dense difference is never copied.
    """
    hs = frobenius_norm(diff)
    return 0.5 * trace_norm_hermitian(diff), hs


# ---------------------------------------------------------------------------
# error propagation and precision budget
# ---------------------------------------------------------------------------

@dataclass
class ErrorParameters:
    """Parameters of the multiplicative error-propagation bound."""

    delta_1: float
    delta_inf: float
    delta_cap: float

    def __post_init__(self):
        if min(self.delta_1, self.delta_inf, self.delta_cap) < 0:
            raise ValueError("error parameters must be nonnegative")


def error_propagation_bound(ep: ErrorParameters, t: int) -> float:
    """(1 + delta_1)(1 + delta_inf)(1 + Delta)^t - 1 for a t-site marginal;
    inf where (1 + Delta)^t is past the float range."""
    if t < 0:
        raise ValueError("t must be >= 0")
    try:
        growth = (1.0 + ep.delta_cap) ** t
    except OverflowError:
        return math.inf
    return (1.0 + ep.delta_1) * (1.0 + ep.delta_inf) * growth - 1.0


def surrogate_parameters(od_exact: OmegaData, od_noisy: OmegaData, sigma: float,
                         scale: int, variant: str = "general") -> ErrorParameters:
    """Computable 2-norm surrogates for the error parameters.

    ``sigma`` is the smallest retained singular value of the exact Omega,
    ``scale`` the rank m (variant "general") or the memory dimension d_b
    (variant "cstar").
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    d_omega = frobenius_norm(od_noisy.omega - od_exact.omega)
    d_dot = frobenius_norm(od_noisy.omega_dot - od_exact.omega_dot)
    d_one = frobenius_norm(od_noisy.omega_one - od_exact.omega_one)
    d_tau = frobenius_norm(od_noisy.tau_omega - od_exact.tau_omega)
    delta_1 = 4.0 * (d_omega / sigma ** 2 + d_tau / (3.0 * sigma))
    delta_inf = 2.0 * d_one / (math.sqrt(3.0) * sigma)
    if variant == "cstar":
        delta_inf *= math.sqrt(scale)
    delta_cap = _delta_surrogate(od_exact.d_a, scale, sigma, sigma, d_omega, d_dot)
    return ErrorParameters(delta_1=delta_1, delta_inf=delta_inf, delta_cap=delta_cap)


def _delta_surrogate(d_a, scale, sigma_in, sigma, d_omega, d_dot) -> float:
    """The module docstring's Delta surrogate, for maps learned in a frame of
    width ``scale`` and sigma_m ``sigma_in`` from a form of sigma_m ``sigma``."""
    return (8.0 * scale * math.sqrt(d_a) / (math.sqrt(3.0) * sigma_in)) * (
        d_omega / sigma ** 2 + d_dot / (3.0 * sigma)
    )


def chain_bound(cod: ChainOmegaData, cod_hat: ChainOmegaData, ranks: list[int],
                sigmas: list[float]) -> float:
    """(1 + Delta')^N - 1 with the per-site surrogate for Delta', from the
    exact ranks and sigma_m of the window forms at sites 1..N-1.  Site j's
    frame is window j - 1's (m = sigma = 1 at site 1) and its form window
    j's; site N has none, and keeps window N - 1's sigma without dOmega."""
    n = cod.n_sites
    m_in, sig_in, sig = [1, *ranks], [1.0, *sigmas], [*sigmas, sigmas[-1]]
    delta = max(_delta_surrogate(
        cod.d_a, m_in[j - 1], sig_in[j - 1], sig[j - 1],
        frobenius_norm(cod_hat.omegas[j] - cod.omegas[j]) if j < n else 0.0,
        frobenius_norm(cod_hat.omega_dots[j] - cod.omega_dots[j])) for j in range(1, n + 1))
    return error_propagation_bound(ErrorParameters(0.0, 0.0, delta), n)


@dataclass
class PrecisionBudget:
    """Per-quantity estimation tolerances guaranteeing a target error.

    If every Omega-data deviation stays below its tolerance, the t-site
    reconstruction error in Schatten-1 norm is at most
    GUARANTEE_CONSTANT * target_epsilon.
    """

    target_epsilon: float
    sigma: float
    scale: int            # rank m, or memory dimension d_b in the cstar variant
    d_a: int
    t: int
    variant: str
    tol_tau_omega: float
    tol_omega_one: float
    tol_omega: float
    tol_omega_dot: float
    epsilon_hs: float     # single aggregate marginal-estimation precision
    guarantee_constant: float
    guaranteed_error: float


def precision_budget(target_epsilon: float, sigma: float, scale: int, d_a: int,
                     t: int, variant: str = "general") -> PrecisionBudget:
    """Evaluate the four tolerance formulas and the aggregate precision.

    tol_tau   = (3 sigma / 4) eps
    tol_one   = (sqrt(3) sigma / 2) eps            [/ sqrt(d_b) in cstar]
    tol_omega = (1/3) min(sigma^2 eps / 4,
                          sqrt(3) sigma^3 eps / (8 t scale sqrt(d_a)))
    tol_dot   = 3 sqrt(3) sigma^2 eps / (8 t scale sqrt(d_a))
    eps_hs    = eps sigma^3 / (20 t scale sqrt(d_a))
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    if not 0 < target_epsilon < 1:
        raise ValueError("target epsilon must lie in (0, 1)")
    if scale < 1 or d_a < 1 or t < 1:
        raise ValueError("scale, d_a and t must be >= 1")
    eps = target_epsilon
    sqrt_da = math.sqrt(d_a)
    tol_tau = 0.75 * sigma * eps
    tol_one = (math.sqrt(3.0) * sigma / 2.0) * eps
    if variant == "cstar":
        tol_one /= math.sqrt(scale)
    denom = 8.0 * t * scale * sqrt_da
    tol_omega = (1.0 / 3.0) * min(sigma ** 2 * eps / 4.0,
                                  math.sqrt(3.0) * sigma ** 3 * eps / denom)
    tol_dot = 3.0 * math.sqrt(3.0) * sigma ** 2 * eps / denom
    eps_hs = eps * sigma ** 3 / (20.0 * t * scale * sqrt_da)
    return PrecisionBudget(
        target_epsilon=eps, sigma=sigma, scale=scale, d_a=d_a, t=t, variant=variant,
        tol_tau_omega=tol_tau, tol_omega_one=tol_one, tol_omega=tol_omega,
        tol_omega_dot=tol_dot, epsilon_hs=eps_hs,
        guarantee_constant=GUARANTEE_CONSTANT,
        guaranteed_error=GUARANTEE_CONSTANT * eps,
    )


def sigma_m(omega, m: int) -> float:
    """m-th singular value of an Omega matrix."""
    s = singular_values(np.asarray(omega, dtype=float))
    if not 1 <= m <= s.size:
        raise ValueError(f"m = {m} out of range [1, {s.size}]")
    return float(s[m - 1])


# ---------------------------------------------------------------------------
# checker reports
# ---------------------------------------------------------------------------

# slack of every checked inequality: lhs <= rhs + SLACK
SLACK = 1e-9


@dataclass
class InequalityCheck:
    name: str
    lhs: float
    rhs: float

    def __post_init__(self):
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)

    @property
    def margin(self) -> float:
        return self.rhs + SLACK - self.lhs

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + SLACK

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "ok": self.ok}


@dataclass
class CheckReport:
    """Outcome of one perturbation-statement check."""

    name: str
    precondition: dict = field(default_factory=dict)
    inequalities: list[InequalityCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.inequalities)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "name": self.name,
            "passed": self.passed,
            "precondition": self.precondition,
            "inequalities": [c.to_dict() for c in self.inequalities],
        }


# ---------------------------------------------------------------------------
# perturbation checkers
# ---------------------------------------------------------------------------


def check_singular_value_perturbation(a, e) -> CheckReport:
    """Singular values move by at most the spectral norm of the perturbation."""
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    if a.shape != e.shape:
        raise PreconditionError(f"shape mismatch {a.shape} vs {e.shape}")
    s = singular_values(a)
    s_t = singular_values(a + e)
    bound = operator_norm_2to2(e)
    report = CheckReport(name="singular_value_perturbation",
                         precondition={"shape": list(a.shape)})
    for i, (x, y) in enumerate(zip(s, s_t), start=1):
        report.inequalities.append(
            InequalityCheck(name=f"|sigma_{i} - sigma_{i}'| <= ||E||", lhs=abs(x - y), rhs=bound))
    return report


def check_pseudoinverse_perturbation(a, a_tilde) -> CheckReport:
    """Pseudoinverse perturbation bound with the (1+sqrt(5))/2 constant."""
    a = np.asarray(a, dtype=float)
    a_tilde = np.asarray(a_tilde, dtype=float)
    if a.shape != a_tilde.shape:
        raise PreconditionError(f"shape mismatch {a.shape} vs {a_tilde.shape}")
    pa = pseudoinverse(a)
    pt = pseudoinverse(a_tilde)
    lhs = operator_norm_2to2(pt - pa)
    rhs = GOLDEN_PINV_CONSTANT * max(operator_norm_2to2(pt), operator_norm_2to2(pa)) ** 2 \
        * operator_norm_2to2(a_tilde - a)
    report = CheckReport(name="pseudoinverse_perturbation",
                         precondition={"shape": list(a.shape)})
    report.inequalities.append(
        InequalityCheck(name="||A~+ - A+|| <= phi max(||A~+||, ||A+||)^2 ||A~ - A||",
                        lhs=lhs, rhs=rhs)
    )
    return report


def check_singular_subspace_stability(a, e, epsilon: float) -> CheckReport:
    """Left-singular-subspace stability under a bounded perturbation.

    Requires a tall a of full column rank (by the inversion cutoff) and
    ||E|| <= epsilon * sigma_n(a) with epsilon < 1.  Checks sigma_n' >=
    (1 - eps) sigma_n and ||U_perp'^T U|| <= ||E|| / sigma_n'.
    """
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    rows, cols = a.shape
    if rows < cols:
        raise PreconditionError(f"need rows >= cols, got {a.shape}")
    if not 0 <= epsilon < 1:
        raise PreconditionError(f"epsilon must be in [0, 1), got {epsilon}")
    u, s, _ = svd(a)
    if numerical_rank(s, PINV_RTOL) < cols:
        raise PreconditionError("matrix is not full column rank")
    e_norm = operator_norm_2to2(e)
    if e_norm > epsilon * s[-1] * (1 + 1e-12):
        raise PreconditionError(
            f"||E|| = {e_norm:.3e} exceeds epsilon * sigma_n = {epsilon * s[-1]:.3e}"
        )
    u_t, s_t, _ = svd(a + e)
    report = CheckReport(
        name="singular_subspace_stability",
        precondition={"shape": list(a.shape), "epsilon": epsilon,
                      "sigma_n": float(s[-1]), "e_norm": e_norm},
    )
    report.inequalities.append(
        InequalityCheck(name="sigma_n' >= (1 - eps) sigma_n",
                        lhs=(1 - epsilon) * float(s[-1]), rhs=float(s_t[cols - 1]))
    )
    if rows > cols:
        # ||U_perp'^T U|| = ||(I - U' U'^T) U|| with the thin left frame U'
        lhs2 = operator_norm_2to2(u - u_t @ (u_t.T @ u))
        rhs2 = e_norm / float(s_t[cols - 1])
        report.inequalities.append(
            InequalityCheck(name="||U_perp'^T U|| <= ||E|| / sigma_n'", lhs=lhs2, rhs=rhs2))
    return report


def check_projected_sigma_stability(omega, omega_hat, epsilon: float,
                                    m: int | None = None) -> CheckReport:
    """Projected singular value bounds for a rank-m Omega under perturbation.

    Requires ||Omega - Omega_hat|| <= epsilon * sigma_m(Omega), epsilon < 1/2,
    and sigma_m above the inversion cutoff; m defaults to the exact rank.
    With eps0 = ||dOmega||^2 / ((1 - eps) sigma_m)^2 it checks
        sigma_m(U^T Omega_hat) >= (1 - eps) sigma_m(Omega),
        sigma_m(U_hat^T U)     >= sqrt(1 - eps0),
        sigma_m(U_hat^T Omega) >= sqrt(1 - eps0) sigma_m(Omega).
    """
    omega = np.asarray(omega, dtype=float)
    omega_hat = np.asarray(omega_hat, dtype=float)
    if omega.shape != omega_hat.shape:
        raise PreconditionError(f"shape mismatch {omega.shape} vs {omega_hat.shape}")
    if not 0 <= epsilon < 0.5:
        raise PreconditionError(f"epsilon must be in [0, 1/2), got {epsilon}")
    u, s, _ = svd(omega)
    if m is None:
        m = numerical_rank(s, RANK_RTOL)
    if not 1 <= m <= numerical_rank(s, PINV_RTOL):
        raise PreconditionError(f"invalid rank m = {m}")
    d_norm = operator_norm_2to2(omega_hat - omega)
    sig = float(s[m - 1])
    if d_norm > epsilon * sig * (1 + 1e-12):
        raise PreconditionError(
            f"||dOmega|| = {d_norm:.3e} exceeds epsilon * sigma_m = {epsilon * sig:.3e}"
        )
    eps0 = d_norm ** 2 / ((1 - epsilon) * sig) ** 2
    u_hat = svd(omega_hat).u[:, :m]
    u_m = u[:, :m]
    s_hat_m = float(singular_values(u_hat.T @ omega_hat)[m - 1])
    s_overlap = float(singular_values(u_hat.T @ u_m)[m - 1])
    s_cross = float(singular_values(u_hat.T @ omega)[m - 1])
    report = CheckReport(
        name="projected_sigma_stability",
        precondition={"m": m, "epsilon": epsilon, "eps0": eps0,
                      "sigma_m": sig, "d_norm": d_norm},
    )
    report.inequalities.append(InequalityCheck(
        name="sigma_m(U'^T Omega') >= (1 - eps) sigma_m",
        lhs=(1 - epsilon) * sig, rhs=s_hat_m))
    report.inequalities.append(InequalityCheck(
        name="sigma_m(U'^T U) >= sqrt(1 - eps0)",
        lhs=math.sqrt(max(1 - eps0, 0.0)), rhs=s_overlap))
    report.inequalities.append(InequalityCheck(
        name="sigma_m(U'^T Omega) >= sqrt(1 - eps0) sigma_m",
        lhs=math.sqrt(max(1 - eps0, 0.0)) * sig, rhs=s_cross))
    return report


def _flattened_k_norm(k_a: np.ndarray, k_b: np.ndarray) -> float:
    """2->2 norm of the difference of two transition-map stacks, computed as
    the top singular value of the (m, d^2 * m) flattening."""
    diff = k_a - k_b
    return operator_norm_2to2(diff.transpose(1, 0, 2).reshape(diff.shape[1], -1))


def check_realization_estimate_bounds(od_exact: OmegaData, od_noisy: OmegaData,
                                      exact: SvdTruncation) -> CheckReport:
    """Estimate-vs-empirical realization bounds at fixed truncation rank.

    ``exact`` is the exact Omega's frame at the rank m checked,
    ``truncate(od_exact.omega, rank=m)``, so a sweep over noisy estimates of
    one model decomposes the exact Omega once.

    Hypothesis: ||Omega - Omega_hat||_{2->2} <= sigma_m(Omega) / 3.  Builds
    the estimated triple from the noisy data and the empirical triple from
    exact data in the noisy frame, then checks

        ||K~ - K^||_{2->2} <= phi ||dOmega||_{2->2} / min(sigma_m(Omega'),
                               sigma_m(U'^T Omega))^2
                             + ||dOmegaDot||_{2->2} / sigma_m(U'^T Omega')
        ||e^ - e~||_2      <= ||dOmega(1)||_2
        ||rho^ - rho~||_2  <= phi ||dOmega||_2 / min(...)^2
                             + ||dTauOmega||_2 / sigma_m(U'^T Omega')
        ||(U'^T U)^{-1}||_{2->2} <= 2 / sqrt(3)
    """
    # Omega', U'^T Omega and U'^T Omega' are each decomposed once
    rank = exact.rank
    sig = float(exact.retained[-1])
    d_op = operator_norm_2to2(od_noisy.omega - od_exact.omega)
    if d_op > sig / 3.0:
        raise PreconditionError(
            f"||dOmega||_{{2->2}} = {d_op:.3e} exceeds sigma_m / 3 = {sig / 3:.3e}"
        )
    tr = truncate(od_noisy.omega, rank=rank)
    hat, proj_hat_svd = _realize(od_noisy, tr.u_hat)
    # the empirical realization: exact data in the noisy frame
    tilde, cross_svd = _realize(od_exact, tr.u_hat)
    u_exact = exact.u_hat

    sigma_hat = float(tr.retained[rank - 1])
    sigma_cross = float(cross_svd.s[rank - 1])
    sigma_proj_hat = float(proj_hat_svd.s[rank - 1])
    denom = min(sigma_hat, sigma_cross) ** 2

    d_dot_op = _flattened_k_norm(od_noisy.omega_dot, od_exact.omega_dot)
    lhs_k = _flattened_k_norm(tilde.kappa, hat.kappa)
    rhs_k = GOLDEN_PINV_CONSTANT * d_op / denom + d_dot_op / sigma_proj_hat

    lhs_e = frobenius_norm(hat.e - tilde.e)
    rhs_e = frobenius_norm(od_noisy.omega_one - od_exact.omega_one)

    lhs_rho = frobenius_norm(hat.rho - tilde.rho)
    rhs_rho = GOLDEN_PINV_CONSTANT * frobenius_norm(od_noisy.omega - od_exact.omega) / denom \
        + frobenius_norm(od_noisy.tau_omega - od_exact.tau_omega) / sigma_proj_hat

    # ||(U'^T U)^{-1}|| = 1 / sigma_min(U'^T U) for the square overlap
    lhs_u = 1.0 / float(singular_values(tr.u_hat.T @ u_exact)[-1])

    report = CheckReport(
        name="realization_estimate_bounds",
        precondition={"rank": rank, "sigma_m": sig, "d_omega_2to2": d_op},
    )
    report.inequalities.append(InequalityCheck(
        name="||K~ - K^||_2->2 bound", lhs=lhs_k, rhs=rhs_k))
    report.inequalities.append(InequalityCheck(
        name="||e^ - e~||_2 <= ||dOmega(1)||_2", lhs=lhs_e, rhs=rhs_e))
    report.inequalities.append(InequalityCheck(
        name="||rho^ - rho~||_2 bound", lhs=lhs_rho, rhs=rhs_rho))
    report.inequalities.append(InequalityCheck(
        name="||(U'^T U)^{-1}||_2->2 <= 2/sqrt(3)",
        lhs=lhs_u, rhs=2.0 / math.sqrt(3.0)))
    return report
