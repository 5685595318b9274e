"""Batch experiment runner and persistence layer.

Subcommands (all driven by a single JSON config file):

    fcs-spectral aklt        --config cfg.json --out DIR   noise sweep on a
                             translation-invariant model (Figure-style runs)
    fcs-spectral rank-scan   --config cfg.json --out DIR   block-rank profile
    fcs-spectral nonhomog    --config cfg.json --out DIR   finite-chain sweep
    fcs-spectral lemma-check --config cfg.json --out DIR   perturbation suites
    fcs-spectral robustness  --config cfg.json --out DIR   mixed-state sweep
    fcs-spectral reconstruct --config cfg.json --out DIR   marginals JSON in,
                             realization JSON out

Artifacts are deterministic per (config, seed): CSV files are UTF-8 with LF
endings, a fixed header, and %.12e numeric formatting; JSON artifacts carry
"version": 1.  Logging goes to stderr, data only to files.

The wall_time_ms column is 0 unless the config sets "timing": true; real
timings would break byte-identical reruns, which take precedence.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis, fcs, noise, spectral
from .linalg import numerical_rank
from .opbasis import gellmann

log = logging.getLogger("fcs_spectral")

CSV_COLUMNS = (
    "model", "sites", "epsilon", "seed", "trial", "trace_distance",
    "hs_distance", "sigma_m", "rank_used", "bound_surrogate",
    "wall_time_ms", "td_per_site",
)

RANK_CSV_COLUMNS = ("model", "left_block", "right_block", "rank")


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _check_keys(cfg: dict, required: set[str], optional: set[str], command: str):
    keys = set(cfg)
    missing = required - keys
    if missing:
        raise ValueError(f"{command}: missing config keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ValueError(f"{command}: unknown config keys {sorted(unknown)}")


def _build_model(spec: dict):
    """Returns (model_id, Realization, info) for a TI model spec."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("model spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "aklt":
        theta = float(spec.get("theta", fcs.AKLT_THETA))
        extra = set(spec) - {"kind", "theta"}
        if extra:
            raise ValueError(f"aklt model: unknown keys {sorted(extra)}")
        cstar = fcs.aklt(theta)
        r = fcs.from_cstar(cstar)
        return f"aklt(theta={theta:.6g})", r, {"d_a": 3, "d_b": 2}
    if kind == "random":
        extra = set(spec) - {"kind", "d_a", "d_b", "seed"}
        if extra:
            raise ValueError(f"random model: unknown keys {sorted(extra)}")
        d_a, d_b, seed = int(spec["d_a"]), int(spec["d_b"]), int(spec["seed"])
        cstar = fcs.random_cstar(d_a, d_b, seed)
        r = fcs.from_cstar(cstar)
        return f"random(d_a={d_a};d_b={d_b};seed={seed})", r, {"d_a": d_a, "d_b": d_b}
    if kind == "product":
        extra = set(spec) - {"kind", "state"}
        if extra:
            raise ValueError(f"product model: unknown keys {sorted(extra)}")
        vec = np.array([complex(re, im) for re, im in spec["state"]])
        vec = vec / np.linalg.norm(vec)
        d = vec.size
        r = fcs.product_realization(np.outer(vec, vec.conj()), gellmann(d))
        return f"product(d={d})", r, {"d_a": d, "d_b": 1}
    raise ValueError(f"unknown model kind {kind!r}")


def _truncation_from_config(spec: dict):
    if not isinstance(spec, dict) or spec.get("mode") not in ("rank", "threshold"):
        raise ValueError("truncation must be {'mode': 'rank'|'threshold', 'value': ...}")
    extra = set(spec) - {"mode", "value"}
    if extra:
        raise ValueError(f"truncation: unknown keys {sorted(extra)}")
    if spec["mode"] == "rank":
        return {"rank": int(spec["value"])}
    return {"threshold": float(spec["value"])}


def _noise_from_config(spec: dict | None) -> noise.NoiseSpec:
    if spec is None:
        return noise.NoiseSpec()
    extra = set(spec) - {"mode", "epsilon_prime"}
    if extra:
        # shot counts come from the top-level "shots_sweep" list
        raise ValueError(f"noise: unknown keys {sorted(extra)}")
    return noise.NoiseSpec(
        mode=spec.get("mode", "gaussian_matrix"),
        epsilon_prime=spec.get("epsilon_prime"),
    )


# ---------------------------------------------------------------------------
# CSV formatting
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12e" % float(value)


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    log.info("wrote %d rows to %s", len(rows), path)


def _write_json(path: Path, doc: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", path)


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _write_svg_scatter(path: Path, rows):
    """Minimal self-contained scatter of trace distance vs block size on a
    log axis, one color per noise level.  Quick-look only; real plotting is
    expected to happen outside, from the CSV."""
    points = [(int(r[1]), float(r[2]), max(float(r[5]), 1e-16)) for r in rows]
    eps_levels = sorted({e for _, e, _ in points})
    ts = sorted({t for t, _, _ in points})
    w, h, ml, mb, mt, mr = 640, 440, 70, 50, 20, 20
    y_vals = [math.log10(td) for _, _, td in points]
    y_lo, y_hi = math.floor(min(y_vals)), math.ceil(max(y_vals) + 1e-9)
    if y_hi == y_lo:
        y_hi += 1
    x_lo, x_hi = min(ts), max(ts)

    def px(t):
        span = max(x_hi - x_lo, 1)
        return ml + (t - x_lo) / span * (w - ml - mr)

    def py(logv):
        return h - mb - (logv - y_lo) / (y_hi - y_lo) * (h - mb - mt)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="black"/>',
    ]
    for t in ts:
        parts.append(f'<text x="{px(t):.1f}" y="{h - mb + 18}" font-size="12" '
                     f'text-anchor="middle">{t}</text>')
    for dec in range(y_lo, y_hi + 1):
        parts.append(f'<text x="{ml - 8}" y="{py(dec):.1f}" font-size="12" '
                     f'text-anchor="end">1e{dec}</text>')
        parts.append(f'<line x1="{ml - 4}" y1="{py(dec):.1f}" x2="{ml}" '
                     f'y2="{py(dec):.1f}" stroke="black"/>')
    parts.append(f'<text x="{(ml + w - mr) / 2:.1f}" y="{h - 12}" font-size="13" '
                 f'text-anchor="middle">sites</text>')
    parts.append(f'<text x="16" y="{(mt + h - mb) / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(mt + h - mb) / 2:.1f})">trace distance</text>')
    for idx, eps in enumerate(eps_levels):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        for t, e, td in points:
            if e == eps:
                parts.append(f'<circle cx="{px(t):.1f}" cy="{py(math.log10(td)):.1f}" '
                             f'r="3" fill="{color}" fill-opacity="0.6"/>')
        parts.append(f'<circle cx="{w - 150}" cy="{mt + 14 + 16 * idx}" r="4" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{w - 140}" y="{mt + 18 + 16 * idx}" '
                     f'font-size="12">eps = {eps:g}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# translation-invariant sweep (aklt, robustness)
# ---------------------------------------------------------------------------

_TI_REQUIRED = {"model", "truncation", "sites", "trials", "seed"}
_TI_OPTIONAL = {"version", "block_size", "noise", "epsilons", "shots_sweep", "output",
                "dense_cap", "timing", "workers", "bound_variant", "xis", "svg"}

_WORKER_CTX: dict = {}


def _init_ti_worker(ctx: dict):
    _WORKER_CTX.clear()
    _WORKER_CTX.update(ctx)


def _prepare_ti_context(cfg: dict, command: str) -> dict:
    _check_keys(cfg, _TI_REQUIRED, _TI_OPTIONAL, command)
    model_id, r, info = _build_model(cfg["model"])
    s = int(cfg.get("block_size", 1))
    cap = int(cfg.get("dense_cap", fcs.DEFAULT_DENSE_CAP))
    basis = gellmann(r.d_a)
    od = spectral.build_omega(r, basis, s_left=s, s_right=s, cap=cap)
    trunc = _truncation_from_config(cfg["truncation"])
    nspec = _noise_from_config(cfg.get("noise"))
    if nspec.mode == "gaussian_matrix":
        if "epsilons" not in cfg:
            raise ValueError(f"{command}: gaussian noise requires 'epsilons'")
        sweep = [float(x) for x in cfg["epsilons"]]
    else:
        if command == "robustness":
            raise ValueError("robustness: only gaussian_matrix noise is supported")
        if "shots_sweep" not in cfg:
            raise ValueError(f"{command}: shot noise requires 'shots_sweep'")
        sweep = [int(x) for x in cfg["shots_sweep"]]
    sites = [int(t) for t in cfg["sites"]]
    if any(r.d_a ** t > cap for t in sites):
        raise ValueError(f"{command}: a requested size exceeds the dense cap {cap}")
    # resolve the truncation rank on exact data (threshold mode varies per
    # trial; the exact rank still fixes the surrogate scale)
    tr_exact = spectral.truncate(od.omega, **trunc)
    exact_rank = tr_exact.rank
    sigma_exact = analysis.sigma_m(od.omega, exact_rank)
    variant = cfg.get("bound_variant", "general")
    scale = info.get("d_b", exact_rank) if variant == "cstar" else exact_rank
    exact_coeffs = {t: fcs.word_coefficient_tensor(r.rho, r.kappa, r.e, t) for t in sites}
    xis = [float(x) for x in cfg.get("xis", [0.0])]
    if command == "aklt" and "xis" in cfg:
        raise ValueError("aklt: 'xis' is only valid for the robustness command")
    # mixing target: the maximally mixed state, via Omega-data linearity
    od_mm = _maximally_mixed_omega(r.d_a, s, basis) if command == "robustness" else None
    return {
        "command": command,
        "model_id": model_id,
        "d_a": r.d_a,
        "basis": basis,
        "od": od,
        "od_mm": od_mm,
        "marginals": {
            k: fcs.marginal(r, k, basis, cap=cap)
            for k in ((s, 2 * s, 2 * s + 1) if nspec.mode != "gaussian_matrix" else ())
        },
        "block_size": s,
        "trunc": trunc,
        "noise": nspec,
        "sweep": sweep,
        "sites": sites,
        "trials": int(cfg["trials"]),
        "seed": int(cfg["seed"]),
        "sigma_exact": sigma_exact,
        "scale": scale,
        "variant": variant,
        "exact_coeffs": exact_coeffs,
        "timing": bool(cfg.get("timing", False)),
        "xis": xis,
    }


def _maximally_mixed_omega(d: int, s: int, basis) -> spectral.OmegaData:
    def mm(k: int) -> fcs.DensityMatrix:
        n = d ** k
        return fcs.DensityMatrix(matrix=np.eye(n, dtype=complex) / n, dim=d, sites=k)

    return spectral.build_omega_from_marginals(mm(s), mm(2 * s), mm(2 * s + 1), basis)


def _mix_omega(od, od_mm, xi: float) -> spectral.OmegaData:
    out = od.copy()
    out.omega = (1 - xi) * od.omega + xi * od_mm.omega
    out.omega_dot = (1 - xi) * od.omega_dot + xi * od_mm.omega_dot
    out.omega_one = (1 - xi) * od.omega_one + xi * od_mm.omega_one
    out.tau_omega = (1 - xi) * od.tau_omega + xi * od_mm.tau_omega
    return out


def _run_ti_trial(task):
    """One (xi, sweep value, trial): perturb once, reconstruct all sizes."""
    xi_idx, sweep_idx, trial = task
    ctx = _WORKER_CTX
    t0 = time.perf_counter()
    nspec: noise.NoiseSpec = ctx["noise"]
    value = ctx["sweep"][sweep_idx]
    xi = ctx["xis"][xi_idx]
    od = ctx["od"] if xi == 0.0 else _mix_omega(ctx["od"], ctx["od_mm"], xi)
    rng = noise.spawn_rng(ctx["seed"], sweep_idx, trial)
    eps_col = float(value)
    if nspec.mode == "gaussian_matrix":
        eps_p = nspec.epsilon_prime if nspec.epsilon_prime is not None else eps_col
        od_hat = noise.perturb_omega_data(od, eps_col, eps_p, rng)
    else:
        basis = ctx["basis"]
        s = ctx["block_size"]
        ests = [
            noise.simulate_tomography(ctx["marginals"][k], basis, int(value), rng, mode=nspec.mode)
            for k in (s, 2 * s, 2 * s + 1)
        ]
        od_hat = spectral.omega_data_from_coefficients(*ests, d_a=ctx["d_a"], s=s)
    tr = spectral.truncate(od_hat.omega, **ctx["trunc"])
    sr = spectral.spectral_realization(od_hat, tr)
    # deviations are measured from the underlying exact model, so in the
    # robustness command they include the mixing contribution
    params = {
        t: analysis.surrogate_parameters(ctx["od"], od_hat, ctx["sigma_exact"],
                                         ctx["scale"], t, variant=ctx["variant"])
        for t in ctx["sites"]
    }
    model_id = ctx["model_id"]
    if ctx["command"] == "robustness":
        model_id = f"{model_id}+mix(xi={xi:g})"
    rows = []
    for t_idx, t in enumerate(ctx["sites"]):
        rec = fcs.word_coefficient_tensor(sr.rho, sr.kappa, sr.e, t)
        exact = ctx["exact_coeffs"][t]
        td = analysis.trace_distance_from_coefficients(rec, exact, ctx["basis"], t)
        hs = float(np.linalg.norm(rec - exact))
        bound = analysis.error_propagation_bound(params[t])
        if 2.0 * td > bound + 1e-12:
            log.warning(
                "monitored bound exceeded: model=%s t=%d eps=%s trial=%d "
                "2*TD=%.3e > surrogate bound=%.3e",
                model_id, t, _fmt(eps_col), trial, 2.0 * td, bound,
            )
        wall = (time.perf_counter() - t0) * 1e3 if ctx["timing"] else 0.0
        rows.append((
            (xi_idx, sweep_idx, t_idx, trial),
            [model_id, t, eps_col, ctx["seed"], trial, td, hs,
             sr.diagnostics["sigma_m_hat"], tr.rank, bound, wall, td / t],
        ))
    return rows


def _run_ti_sweep(cfg: dict, out_dir: Path, command: str) -> Path:
    ctx = _prepare_ti_context(cfg, command)
    workers = int(cfg.get("workers", 1))
    tasks = [
        (xi_idx, sweep_idx, trial)
        for xi_idx in range(len(ctx["xis"]))
        for sweep_idx in range(len(ctx["sweep"]))
        for trial in range(ctx["trials"])
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_ti_worker,
                                 initargs=(ctx,)) as pool:
            chunks = list(pool.map(_run_ti_trial, tasks))
    else:
        _init_ti_worker(ctx)
        chunks = [_run_ti_trial(t) for t in tasks]
    keyed = [row for chunk in chunks for row in chunk]
    keyed.sort(key=lambda kr: kr[0])
    rows = [r for _, r in keyed]
    out = out_dir / cfg.get("output", f"{command}.csv")
    _write_csv(out, CSV_COLUMNS, rows)
    if cfg.get("svg"):
        _write_svg_scatter(out_dir / str(cfg["svg"]), rows)
    return out


def cmd_aklt(cfg: dict, out_dir: Path) -> Path:
    """Noise sweep on a translation-invariant model; one perturbation per
    trial shared across all reconstruction sizes."""
    return _run_ti_sweep(cfg, out_dir, "aklt")


def cmd_robustness(cfg: dict, out_dir: Path) -> Path:
    """Same sweep on the state mixed with the maximally mixed state at
    weights xi; xi = 0 reproduces the aklt command's numbers."""
    if "xis" not in cfg:
        raise ValueError("robustness: config must list 'xis'")
    return _run_ti_sweep(cfg, out_dir, "robustness")


# ---------------------------------------------------------------------------
# rank scan
# ---------------------------------------------------------------------------

def cmd_rank_scan(cfg: dict, out_dir: Path) -> Path:
    _check_keys(cfg, {"model", "max_block"},
                {"version", "tol", "output", "dense_cap"}, "rank-scan")
    model_id, r, _ = _build_model(cfg["model"])
    basis = gellmann(r.d_a)
    cap = int(cfg.get("dense_cap", fcs.DEFAULT_DENSE_CAP))
    profile = fcs.rank_profile(r, basis, int(cfg["max_block"]),
                               tol=float(cfg.get("tol", 1e-9)), cap=cap)
    t1, t2 = fcs.t_star(profile)
    log.info("rank profile stabilizes at rank %d; t* = (left %d, right %d)",
             profile[-1, -1], t1, t2)
    rows = []
    for i in range(profile.shape[0]):
        for j in range(profile.shape[1]):
            rows.append([model_id, j + 1, i + 1, int(profile[i, j])])
    out = out_dir / cfg.get("output", "rank_scan.csv")
    _write_csv(out, RANK_CSV_COLUMNS, rows)
    return out


# ---------------------------------------------------------------------------
# non-homogeneous sweep
# ---------------------------------------------------------------------------

def cmd_nonhomog(cfg: dict, out_dir: Path) -> Path:
    _check_keys(
        cfg,
        {"chain", "left_width", "right_width", "epsilons", "trials", "seed"},
        {"version", "rank_tol", "output", "dense_cap", "timing"},
        "nonhomog",
    )
    chain_spec = cfg["chain"]
    extra = set(chain_spec) - {"n_sites", "d_a", "d_b", "seed", "stationary"}
    if extra:
        raise ValueError(f"chain spec: unknown keys {sorted(extra)}")
    n = int(chain_spec["n_sites"])
    chain = fcs.random_chain(n, int(chain_spec["d_a"]), int(chain_spec["d_b"]),
                             int(chain_spec["seed"]),
                             stationary=bool(chain_spec.get("stationary", False)))
    model_id = (f"chain(n={n};d_a={chain.d_a};d_b={chain.d_b};"
                f"seed={int(chain_spec['seed'])})")
    cap = int(cfg.get("dense_cap", fcs.DEFAULT_DENSE_CAP))
    basis = gellmann(chain.d_a)
    state = fcs.chain_state(chain, cap=cap)
    exact_coeffs = state.coefficients(basis)
    lw, rw = int(cfg["left_width"]), int(cfg["right_width"])
    cod = spectral.build_chain_omega(state, basis, lw, rw)
    rank_tol = float(cfg.get("rank_tol", 1e-9))
    # ranks[j-1] and sigmas[j-1]: numerical rank and smallest retained
    # singular value of the exact window form at site j
    ranks, sigmas = [], []
    for j in range(1, n):
        sv = np.linalg.svd(cod.omegas[j], compute_uv=False)
        ranks.append(numerical_rank(sv, rank_tol))
        if ranks[-1] == 0:
            raise ValueError(f"nonhomog: no singular value of the exact window form at "
                             f"site {j} exceeds rank_tol * sigma_1")
        sigmas.append(float(sv[ranks[-1] - 1]))
    log.info("exact window ranks: %s", ranks)
    sigma_min = min(sigmas)
    timing = bool(cfg.get("timing", False))
    seed = int(cfg["seed"])
    rows = []
    for eps_idx, eps in enumerate(float(x) for x in cfg["epsilons"]):
        for trial in range(int(cfg["trials"])):
            t0 = time.perf_counter()
            rng = noise.spawn_rng(seed, eps_idx, trial)
            cod_hat = noise.perturb_chain_omega(cod, eps, eps, rng) if eps else cod
            recon = spectral.nonhomog_reconstruct(cod_hat, ranks=ranks)
            rec_coeffs = recon.coefficients()
            td = analysis.trace_distance_from_coefficients(rec_coeffs, exact_coeffs, basis, n)
            hs = float(np.linalg.norm(rec_coeffs - exact_coeffs))
            bound = _nonhomog_bound(cod, cod_hat, ranks, sigmas, chain.d_a, n)
            wall = (time.perf_counter() - t0) * 1e3 if timing else 0.0
            rows.append([model_id, n, eps, seed, trial, td, hs, sigma_min,
                         max(ranks), bound, wall, td / n])
    out = out_dir / cfg.get("output", "nonhomog.csv")
    _write_csv(out, CSV_COLUMNS, rows)
    return out


def _nonhomog_bound(cod, cod_hat, ranks, sigmas, d_a: int, n: int) -> float:
    """(1 + Delta')^N - 1 with the per-site 2-norm surrogate for Delta'.

    ``ranks`` and ``sigmas`` are the exact per-site ranks and sigma_m of the
    window forms at sites 1..N-1.  Interior sites use the printed surrogate;
    at the ends, where a window form is missing, the nearest defined
    window's constants stand in.
    """
    sq3 = math.sqrt(3.0)
    sqd = math.sqrt(d_a)
    terms = []
    for j in range(1, n + 1):
        d_dot = float(np.linalg.norm(cod_hat.omega_dots[j] - cod.omega_dots[j]))
        if j < n:
            sig_j = sigmas[j - 1]
            d_om = float(np.linalg.norm(cod_hat.omegas[j] - cod.omegas[j]))
            inner = d_om / sig_j ** 2 + d_dot / (3.0 * sig_j)
        else:
            inner = d_dot / (3.0 * sigmas[n - 2])
        if j == 1:
            m_prev, sig_prev = 1, 1.0
        else:
            m_prev, sig_prev = ranks[j - 2], sigmas[j - 2]
        terms.append((8.0 * m_prev * sqd / (sq3 * sig_prev)) * inner)
    delta = max(terms)
    return (1.0 + delta) ** n - 1.0


# ---------------------------------------------------------------------------
# lemma suites
# ---------------------------------------------------------------------------

def cmd_lemma_check(cfg: dict, out_dir: Path) -> Path:
    _check_keys(
        cfg,
        {"seed"},
        {"version", "count", "max_dim", "slack", "output", "models_seeds",
         "noise_factors"},
        "lemma-check",
    )
    seed = int(cfg["seed"])
    count = int(cfg.get("count", 1000))
    max_dim = int(cfg.get("max_dim", 30))
    slack = float(cfg.get("slack", 1e-9))
    rng = noise.make_rng(seed)
    suites = {
        "singular_value_perturbation": _sweep_sv_perturbation(rng, count, max_dim, slack),
        "pseudoinverse_perturbation": _sweep_pinv_perturbation(rng, count, max_dim, slack),
        "singular_subspace_stability": _sweep_subspace_stability(rng, count, max_dim, slack),
        "projected_sigma_stability": _sweep_projected_sigma(rng, count, max_dim, slack),
        "realization_estimate_bounds": _sweep_estimate_bounds(
            seed,
            int(cfg.get("models_seeds", 20)),
            [float(x) for x in cfg.get("noise_factors", [0.01, 0.1, 0.9])],
            slack,
        ),
    }
    doc = {"version": 1, "seed": seed, "count": count, "max_dim": max_dim,
           "slack": slack, "suites": suites}
    out = out_dir / cfg.get("output", "lemma_report.json")
    _write_json(out, doc)
    return out


def _suite_summary(reports) -> dict:
    worst = None
    failures = []
    for rep in reports:
        for ineq in rep.inequalities:
            if worst is None or ineq.margin < worst["margin"]:
                worst = ineq.to_dict()
            if not ineq.ok:
                failures.append(rep.to_dict())
                break
    return {"count": len(reports), "violations": len(failures),
            "worst": worst, "failures": failures[:10]}


def _rand_shape(rng, max_dim):
    return int(rng.integers(2, max_dim + 1)), int(rng.integers(2, max_dim + 1))


def _sweep_sv_perturbation(rng, count, max_dim, slack) -> dict:
    reports = []
    for _ in range(count):
        rows, cols = _rand_shape(rng, max_dim)
        a = rng.standard_normal((rows, cols)) * float(rng.uniform(0.1, 10.0))
        e = rng.standard_normal((rows, cols)) * float(rng.uniform(1e-4, 10.0))
        reports.append(analysis.check_singular_value_perturbation(a, e, slack=slack))
    return _suite_summary(reports)


def _sweep_pinv_perturbation(rng, count, max_dim, slack) -> dict:
    reports = []
    for _ in range(count):
        rows, cols = _rand_shape(rng, max_dim)
        a = rng.standard_normal((rows, cols))
        a_t = a + rng.standard_normal((rows, cols)) * float(rng.uniform(1e-6, 1.0))
        reports.append(analysis.check_pseudoinverse_perturbation(a, a_t, slack=slack))
    return _suite_summary(reports)


def _sweep_subspace_stability(rng, count, max_dim, slack) -> dict:
    reports = []
    for _ in range(count):
        cols = int(rng.integers(2, max_dim + 1))
        rows = int(rng.integers(cols, max_dim + 1))
        a = rng.standard_normal((rows, cols))
        eps = float(rng.uniform(0.05, 0.95))
        sig_n = float(np.linalg.svd(a, compute_uv=False)[-1])
        e = rng.standard_normal((rows, cols))
        e *= eps * sig_n * float(rng.uniform(0.1, 1.0)) / float(
            np.linalg.svd(e, compute_uv=False)[0])
        reports.append(analysis.check_singular_subspace_stability(a, e, eps, slack=slack))
    return _suite_summary(reports)


def _sweep_projected_sigma(rng, count, max_dim, slack) -> dict:
    reports = []
    for _ in range(count):
        rows, cols = _rand_shape(rng, max_dim)
        m = int(rng.integers(1, min(rows, cols) + 1))
        u = np.linalg.qr(rng.standard_normal((rows, m)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, m)))[0]
        s = np.sort(rng.uniform(0.1, 1.0, size=m))[::-1]
        omega = (u * s) @ v.T
        eps = float(rng.uniform(0.01, 0.49))
        e = rng.standard_normal((rows, cols))
        e *= eps * s[-1] * float(rng.uniform(0.1, 1.0)) / float(
            np.linalg.svd(e, compute_uv=False)[0])
        reports.append(analysis.check_projected_sigma_stability(omega, omega + e, eps, m=m, slack=slack))
    return _suite_summary(reports)


def _sweep_estimate_bounds(seed, model_seeds, noise_factors, slack) -> dict:
    reports = []
    basis3 = gellmann(3)
    models = [("aklt", fcs.from_cstar(fcs.aklt()), basis3)]
    for k in range(model_seeds):
        r = fcs.from_cstar(fcs.random_cstar(2, 2, seed=seed + 1000 + k))
        models.append((f"random-{k}", r, gellmann(2)))
    for idx, (name, r, basis) in enumerate(models):
        od = spectral.build_omega(r, basis)
        sv = np.linalg.svd(od.omega, compute_uv=False)
        rank = numerical_rank(sv, 1e-9)
        sigma = float(sv[rank - 1])
        for f_idx, factor in enumerate(noise_factors):
            eps = factor * sigma / 3.0
            rng = noise.spawn_rng(seed, idx, f_idx)
            od_hat = noise.perturb_omega_data(od, eps, eps, rng)
            reports.append(analysis.check_realization_estimate_bounds(od, od_hat, rank, slack=slack))
    return _suite_summary(reports)


# ---------------------------------------------------------------------------
# reconstruct from a marginals file
# ---------------------------------------------------------------------------

def _complex_matrix_from_json(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError("matrix must be a square grid of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_matrix_to_json(m: np.ndarray):
    return np.stack([m.real, m.imag], axis=-1).tolist()


def load_marginals(path) -> tuple[int, dict[int, fcs.DensityMatrix]]:
    """Documented marginal exchange format:

    {"version": 1, "d": 3,
     "marginals": [{"sites": k, "matrix": [[[re, im], ...], ...]}, ...]}
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported marginals document version {doc.get('version')!r}")
    d = int(doc["d"])
    out = {}
    for entry in doc["marginals"]:
        k = int(entry["sites"])
        m = _complex_matrix_from_json(entry["matrix"])
        if m.shape != (d ** k, d ** k):
            raise ValueError(f"marginal for {k} sites has shape {m.shape}")
        out[k] = fcs.DensityMatrix(matrix=m, dim=d, sites=k)
    return d, out


def save_marginals(path, d: int, marginals: dict[int, fcs.DensityMatrix]):
    doc = {
        "version": 1,
        "d": d,
        "marginals": [
            {"sites": k, "matrix": _complex_matrix_to_json(dm.matrix)}
            for k, dm in sorted(marginals.items())
        ],
    }
    _write_json(Path(path), doc)


def cmd_reconstruct(cfg: dict, out_dir: Path) -> Path:
    _check_keys(
        cfg,
        {"input", "block_size", "truncation"},
        {"version", "sites", "output", "marginals_output", "dense_cap", "pinv_tol"},
        "reconstruct",
    )
    d, marginals = load_marginals(cfg["input"])
    s = int(cfg["block_size"])
    for k in (s, 2 * s, 2 * s + 1):
        if k not in marginals:
            raise ValueError(f"reconstruct: input lacks the {k}-site marginal")
    basis = gellmann(d)
    od = spectral.build_omega_from_marginals(
        marginals[s], marginals[2 * s], marginals[2 * s + 1], basis
    )
    tr = spectral.truncate(od.omega, **_truncation_from_config(cfg["truncation"]))
    sr = spectral.spectral_realization(od, tr, pinv_tol=float(cfg.get("pinv_tol", 1e-12)))
    out = out_dir / cfg.get("output", "realization.json")
    _write_json(out, fcs.realization_to_dict(sr))
    sites = [int(t) for t in cfg.get("sites", [])]
    if sites:
        cap = int(cfg.get("dense_cap", fcs.DEFAULT_DENSE_CAP))
        recon = {t: fcs.marginal(sr, t, basis, cap=cap) for t in sites}
        save_marginals(out_dir / cfg.get("marginals_output", "reconstructed_marginals.json"),
                       d, recon)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "aklt": cmd_aklt,
    "rank-scan": cmd_rank_scan,
    "nonhomog": cmd_nonhomog,
    "lemma-check": cmd_lemma_check,
    "robustness": cmd_robustness,
    "reconstruct": cmd_reconstruct,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fcs-spectral",
        description="Spectral learning experiments for finitely correlated states",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    args = parser.parse_args(argv)
    level = getattr(logging, args.log_level.upper())
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    # basicConfig does nothing once the root logger has a handler, so a
    # later in-process call sets its level on the package logger
    log.setLevel(level)
    log.debug("%s: config %s, output directory %s", args.command, args.config, args.out)
    out_dir = Path(args.out)
    try:
        cfg = _load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out_dir)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # OSError: unreadable config or output; ValueError includes a config
        # that is not JSON; TypeError: a config value of the wrong JSON type,
        # e.g. a number where a list is expected
        log.error("%s: %s", type(exc).__name__, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
