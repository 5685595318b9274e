"""Batch experiment runner and persistence layer.

Subcommands (all driven by a single JSON config file):

    fcs-spectral aklt        --config cfg.json --out DIR   noise sweep on a
                             translation-invariant model (Figure-style runs)
    fcs-spectral rank-scan   --config cfg.json --out DIR   block-rank profile
    fcs-spectral nonhomog    --config cfg.json --out DIR   finite-chain sweep
    fcs-spectral lemma-check --config cfg.json --out DIR   realization-estimate
                             bounds of the learner on model sweeps
    fcs-spectral reconstruct --config cfg.json --out DIR   marginals JSON in,
                             realization JSON out

Artifacts are deterministic per (config, seed): CSV files are UTF-8 with LF
endings, a fixed header, and %.12e numeric formatting; JSON artifacts carry
"version": 1.  Logging goes to stderr, data only to files.

aklt and nonhomog share one sweep engine.  A prepare step builds the
context, whose "sweep" values and "trials" make the tasks (sweep index,
trial).  _run_sweep runs the tasks, on a thread pool of up to "workers"
threads (aklt's key; the core count by default and for nonhomog), and
_run_task owns each one: its RNG stream, its timer and its keyed CSV rows.
A trial function (ctx, value, rng) only learns and yields one dense
difference per size.  A trial that draws nothing from its stream, as at a
noiseless sweep point, runs at most once per sweep value and thread: its
measured distances and wall times make the rows of every other trial at
that value.  No sweep state outlives a call.  The wall_time_ms column is 0 unless the config sets
"timing": true; real timings would break byte-identical reruns, which take
precedence.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple


# OpenBLAS takes its idle timeout from the environment when numpy loads it,
# so where numpy is not loaded yet it loads here with the CLI's timeout; the
# thread count stays the environment's, which linalg.blas_threads_for gives
# the large solves while main runs everything else at one thread.  After a
# threaded call OpenBLAS's worker spins for 2^timeout cycles before it
# sleeps, 2^28 (about 0.1 s) by default: through the one-thread stages after
# each large product and solve, all counted as CPU time.  2^20 is under a
# millisecond, yet longer than the gaps between the BLAS-2 calls of one
# solve; at 2^4 the worker slept between them and each call had to wake it.
# A timeout the caller's environment sets is OpenBLAS's own setting and
# wins; one the CLI sets is taken out of the environment after the load.
_BLAS_THREAD_TIMEOUT = "20"
_TIMEOUT_UNSET = "OPENBLAS_THREAD_TIMEOUT" not in os.environ
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _BLAS_THREAD_TIMEOUT)
try:
    import numpy as np
finally:
    if _TIMEOUT_UNSET:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]

from . import analysis, fcs, noise, spectral
from .linalg import (RANK_RTOL, blas_info, blas_threads, keep_heap, numerical_rank,
                     singular_values)

log = logging.getLogger("fcs_spectral")
_LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"

CSV_COLUMNS = (
    "model", "sites", "epsilon", "seed", "trial", "trace_distance",
    "hs_distance", "sigma_m", "rank_used", "bound_surrogate",
    "wall_time_ms", "td_per_site",
)

RANK_CSV_COLUMNS = ("model", "left_block", "right_block", "rank")


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

REQUIRED = object()  # table default of a key that has no default
# default size of a sweep's thread pool
_CORES = os.cpu_count() or 1


class Ints(NamedTuple):
    """Type of an integer key with bounds ``low <= value <= high``."""

    low: int
    high: float = math.inf


class Floats(NamedTuple):
    """Type of a finite number key with ``low <= value <= high``, or
    ``low < value <= high`` if ``strict``."""

    low: float
    high: float = math.inf
    strict: bool = False


class OneOf(NamedTuple):
    """Type of a key whose value is one of the listed ``choices``."""

    choices: tuple


class Tagged(NamedTuple):
    """Type of an object whose ``tag`` key picks the table of its other keys."""

    tag: str
    tables: dict


def _read(value, kind, where: str):
    """JSON ``value`` checked against the type ``kind`` and converted.

    A type is ``int``, ``float``, ``bool``, ``str``, :class:`Ints`,
    :class:`Floats`, :class:`OneOf`, ``[type]`` (a list), a table
    ``{key: (type, default)}`` or :class:`Tagged`.  ``int`` accepts integral
    numbers such as ``1e4``, ``float`` and :class:`Floats` accept integers
    but not ``NaN`` or ``Infinity``, and neither accepts booleans.  A table
    rejects unknown keys and requires the keys whose default is
    ``REQUIRED``; other absent keys take their default as is.  Errors name
    the path ``where``: a wrong JSON type raises ``TypeError``; a missing or
    unknown key, a value not among a :class:`OneOf`'s choices, a non-finite
    float or a value out of range raises ``ValueError``.
    """
    if isinstance(kind, OneOf):
        if value not in kind.choices:
            raise ValueError(f"{where}: expected one of {list(kind.choices)}, "
                             f"got {json.dumps(value)[:60]}")
        return value
    integer = kind is int or isinstance(kind, Ints)
    if isinstance(kind, (dict, Tagged)):
        want, ok = "an object", isinstance(value, dict)
    elif isinstance(kind, list):
        want, ok = "a list", isinstance(value, list)
    elif integer:
        want, ok = "an integer", isinstance(value, int) or (isinstance(value, float)
                                                            and value.is_integer())
    elif kind is float or isinstance(kind, Floats):
        want, ok = "a number", isinstance(value, (int, float))
    else:
        want, ok = f"a {kind.__name__}", isinstance(value, kind)
    if not ok or isinstance(value, bool) and kind is not bool:
        raise TypeError(f"{where}: expected {want}, got {json.dumps(value)[:60]}")
    if isinstance(kind, Tagged):
        tag = _read(value.get(kind.tag), OneOf(tuple(sorted(kind.tables))), f"{where}.{kind.tag}")
        kind, where = {kind.tag: (str, REQUIRED), **kind.tables[tag]}, f"{where}({tag})"
    if isinstance(kind, dict):
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ValueError(f"{where}: unknown keys {unknown}")
        out = {}
        for key, (sub, default) in kind.items():
            if key in value:
                out[key] = _read(value[key], sub, f"{where}.{key}")
            elif default is REQUIRED:
                raise ValueError(f"{where}.{key}: required key is missing")
            else:
                out[key] = default
        return out
    if isinstance(kind, list):
        return [_read(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if kind is float or isinstance(kind, Floats):
        if not math.isfinite(value):
            raise ValueError(f"{where}: expected a finite number, got {value}")
        if isinstance(kind, Floats) and (value < kind.low or value > kind.high
                                         or kind.strict and value == kind.low):
            raise ValueError(f"{where}: {value} is outside "
                             f"{'(' if kind.strict else '['}{kind.low:g}, {kind.high:g}]")
        return float(value)
    if isinstance(kind, Ints) and not kind.low <= value <= kind.high:
        raise ValueError(f"{where}: {value} is outside [{kind.low}, {kind.high}]")
    return int(value) if integer else value


_VERSION = (Ints(1, 1), 1)
_SEED = (Ints(0), REQUIRED)
_BASE_MODELS = {
    "aklt": {"theta": (float, fcs.AKLT_THETA)},
    "random": {"d_a": (Ints(2), REQUIRED), "d_b": (Ints(1), REQUIRED), "seed": _SEED},
    "product": {"state": ([[float]], REQUIRED)},
}
# a mixture's base is one of the other kinds, so mixtures do not nest
_MODEL = (Tagged("kind", {**_BASE_MODELS, "mixture": {
    "base": (Tagged("kind", _BASE_MODELS), REQUIRED), "xi": (Floats(0.0, 1.0), REQUIRED)}}),
    REQUIRED)
_TRUNCATION = (Tagged("mode", {
    "rank": {"value": (Ints(1), REQUIRED)},
    "threshold": {"value": (Floats(0.0, strict=True), REQUIRED)},
}), REQUIRED)
_TI = {
    "version": _VERSION, "model": _MODEL, "truncation": _TRUNCATION,
    "sites": ([Ints(1)], REQUIRED), "trials": (Ints(0), REQUIRED), "seed": _SEED,
    "block_size": (Ints(1), 1),
    # shot counts come from the top-level "shots_sweep" list; epsilon_prime
    # None perturbs Omega_dot at each sweep epsilon
    "noise": ({"mode": (OneOf(noise.NOISE_MODES), "gaussian_matrix"),
               "epsilon_prime": (Floats(0.0), None)},
              {"mode": "gaussian_matrix", "epsilon_prime": None}),
    "epsilons": ([Floats(0.0)], None), "shots_sweep": ([Ints(1)], None),
    "timing": (bool, False), "workers": (Ints(1), _CORES),
    "bound_variant": (OneOf(analysis.VARIANTS), "general"),
}

# The config schema of every command: key -> (type, default); see _read.
TABLES = {
    "aklt": {**_TI, "output": (str, "aklt.csv")},
    "rank-scan": {
        "version": _VERSION, "model": _MODEL, "max_block": (Ints(1), REQUIRED),
        "output": (str, "rank_scan.csv"),
    },
    "nonhomog": {
        "version": _VERSION,
        "chain": ({"n_sites": (Ints(2), REQUIRED), "d_a": (Ints(2), REQUIRED),
                   "d_b": (Ints(1), REQUIRED), "seed": _SEED}, REQUIRED),
        "left_width": (Ints(1), REQUIRED), "right_width": (Ints(1), REQUIRED),
        "epsilons": ([Floats(0.0)], REQUIRED), "trials": (Ints(0), REQUIRED), "seed": _SEED,
        "output": (str, "nonhomog.csv"), "timing": (bool, False),
    },
    "lemma-check": {
        "version": _VERSION, "seed": _SEED, "output": (str, "lemma_report.json"),
        "models_seeds": (Ints(0), 20), "noise_factors": ([Floats(0.0, 1.0)], [0.01, 0.1, 0.9]),
    },
    "reconstruct": {
        "version": _VERSION, "input": (str, REQUIRED), "block_size": (Ints(1), REQUIRED),
        "truncation": _TRUNCATION, "sites": ([Ints(1)], []), "output": (str, "realization.json"),
        "marginals_output": (str, "reconstructed_marginals.json"),
    },
}

_MARGINALS = {
    "version": (Ints(1, 1), REQUIRED),
    "d": (Ints(2), REQUIRED),
    "marginals": ([{"sites": (Ints(1), REQUIRED), "matrix": ([[[float]]], REQUIRED)}], REQUIRED),
}


def _build_model(spec: dict, where: str):
    """Returns (model_id, Realization, d_b) for the read model spec at the
    config path ``where``; d_b is the memory dimension of the cstar bound
    scale."""
    kind = spec["kind"]
    if kind == "aklt":
        theta = spec["theta"]
        return f"aklt(theta={theta:.6g})", fcs.from_cstar(fcs.aklt(theta)), 2
    if kind == "random":
        d_a, d_b, seed = spec["d_a"], spec["d_b"], spec["seed"]
        r = fcs.from_cstar(fcs.random_cstar(d_a, d_b, seed))
        return f"random(d_a={d_a};d_b={d_b};seed={seed})", r, d_b
    if kind == "mixture":
        # (1 - xi) omega + xi (1/d)^(x infinity); the memory algebra M_{d_b}
        # + C sits in M_{d_b + 1}
        base_id, base, d_b = _build_model(spec["base"], f"{where}(mixture).base")
        xi, d = spec["xi"], base.d_a
        maximally_mixed = fcs.product_realization(np.eye(d) / d)
        r = fcs.direct_sum([base, maximally_mixed], [1 - xi, xi]).validate()
        return f"{base_id}+mix(xi={xi:g})", r, d_b + 1
    for i, pair in enumerate(spec["state"]):
        if len(pair) != 2:
            raise ValueError(f"{where}(product).state[{i}]: expected a [re, im] pair, "
                             f"got {len(pair)} numbers")
    if len(spec["state"]) < 2:
        raise ValueError(f"{where}(product).state: the local dimension must be >= 2, "
                         f"got {len(spec['state'])}")
    vec = np.array([complex(re, im) for re, im in spec["state"]])
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError(f"{where}(product).state: the state vector is zero")
    vec = vec / norm
    return f"product(d={vec.size})", fcs.product_realization(np.outer(vec, vec.conj())), 1


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
    fcs.write_json(path, doc)
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# sweep engine (aklt, nonhomog)
# ---------------------------------------------------------------------------

def _run_sweep(ctx: dict, trial, workers: int, out: Path) -> Path:
    """Runs ``trial`` on every task (sweep index, trial number) of the
    context's ``sweep`` and ``trials``, serially or on a thread pool, and
    writes the rows to ``out`` in key order.

    The trials overlap where LAPACK releases the GIL, in the eigensolves
    that take most of a trial.  Each pool thread runs at one BLAS thread,
    which ``linalg.blas_threads_for`` leaves as it is, so the pool does not
    oversubscribe the cores; a serial sweep runs on the calling thread,
    whose large solves take the inherited BLAS threads.
    """
    tasks = list(itertools.product(range(len(ctx["sweep"])), range(ctx["trials"])))
    # no more threads than tasks or cores: the CSV is the same for any count
    workers = max(1, min(workers, len(tasks), os.cpu_count() or 1))
    log.debug("sweep: %d tasks on %d threads", len(tasks), workers)
    # the memo of noiseless sweep points (see _run_task), shared by the threads
    run = functools.partial(_run_task, ctx, trial, {})
    if workers > 1:
        # only a pooled sweep pays for this import
        from concurrent.futures import ThreadPoolExecutor

        with blas_threads(1), ThreadPoolExecutor(workers) as pool:
            task_rows = list(pool.map(run, tasks))
    else:
        task_rows = map(run, tasks)
    # keys are unique, so the sort never compares two rows
    _write_csv(out, CSV_COLUMNS, [row for _, row in sorted(itertools.chain(*task_rows))])
    return out


def _measure(sizes, t0: float, timing: bool):
    """``(t, td, hs, sigma_m, rank, bound, wall_ms)`` per ``(t, diff,
    sigma_m, rank, bound)`` that a trial yields, each difference freed once
    measured; ``wall_ms`` counts from ``t0`` under ``timing`` and is 0
    otherwise."""
    # no enumerate: its cached result tuple would keep the last difference
    # alive while the next one is built
    for t, diff, sigma, rank, bound in sizes:
        td, hs = analysis.difference_distances(diff)
        del diff
        yield t, td, hs, sigma, rank, bound, (time.perf_counter() - t0) * 1e3 if timing else 0.0


def _run_task(ctx: dict, trial, memo: dict, task) -> list:
    """Keyed CSV rows of one task (sweep index, trial number).

    The task's stream is ``noise.spawn_rng(seed, sweep index, trial)``, so a
    row depends on these three alone, on any thread.  ``trial(ctx, value,
    rng)`` yields ``(t, diff, sigma_m, rank, bound)`` per size, ``diff``
    being the dense difference to the exact t-site state, which the row
    takes over; a row warns when 2*TD exceeds ``bound``, and times from the
    task's start under ``timing``.

    A trial that leaves its stream's state as it found it drew nothing, so
    its measured tuples are a function of the sweep value alone: they go
    into ``memo`` under the sweep index, and every later task at that index
    makes its rows from them without running ``trial``, its wall times
    included, so a reused row times the trial that solved the point.  This
    holds because whether a trial draws depends only on ``(ctx, value)``,
    never on the trial number, as for eps = 0 under Gaussian noise with no
    positive ``epsilon_prime``.  Pool threads share ``memo``: a task that
    starts before the point is stored solves it again, with the same bits.
    """
    idx, n = task
    t0 = time.perf_counter()
    value = ctx["sweep"][idx]
    measured = memo.get(idx)
    if measured is None:
        rng = noise.spawn_rng(ctx["seed"], idx, n)
        start = rng.bit_generator.state
        measured = _measure(trial(ctx, value, rng), t0, ctx["timing"])
    rows, results = [], []
    for result in measured:
        results.append(result)
        t, td, hs, sigma, rank, bound, wall = result
        if 2.0 * td > bound + 1e-12:
            log.warning("monitored bound exceeded: model=%s t=%d eps=%s trial=%d 2*TD=%.3e > "
                        "surrogate bound=%.3e", ctx["model_id"], t, _fmt(float(value)), n,
                        2.0 * td, bound)
        rows.append(((idx, len(rows), n), [ctx["model_id"], t, float(value), ctx["seed"], n,
                                           td, hs, sigma, rank, bound, wall, td / t]))
    if idx not in memo and rng.bit_generator.state == start:
        memo[idx] = results
    return rows


# ---------------------------------------------------------------------------
# translation-invariant sweep (aklt)
# ---------------------------------------------------------------------------

def _prepare_ti_context(cfg: dict) -> dict:
    """The read config plus the model, its exact data and the resolved
    sweep."""
    model_id, r, d_b = _build_model(cfg["model"], "aklt.model")
    s = cfg["block_size"]
    mode = cfg["noise"]["mode"]
    sweep_key = "epsilons" if mode == "gaussian_matrix" else "shots_sweep"
    if cfg[sweep_key] is None:
        raise ValueError(f"aklt.{sweep_key}: required by {mode} noise")
    # exact Omega spans 2s sites; shot noise estimates the (2s+1)-site marginal
    k = 2 * s if mode == "gaussian_matrix" else 2 * s + 1
    fcs.check_dense_cap(r.d_a, k, "aklt.block_size")
    for i, t in enumerate(cfg["sites"]):
        fcs.check_dense_cap(r.d_a, t, f"aklt.sites[{i}]")
    od = spectral.build_omega(r, s_left=s, s_right=s)
    trunc = {cfg["truncation"]["mode"]: cfg["truncation"]["value"]}
    # resolve the truncation rank on exact data (threshold mode varies per
    # trial; the exact rank still fixes the surrogate scale)
    exact_rank = spectral.truncate(od.omega, **trunc).rank
    return {
        **cfg,
        "model_id": model_id,
        "od": od,
        # the one marginal that shot noise estimates
        "marginal": fcs.marginal(r, k) if mode != "gaussian_matrix" else None,
        "trunc": trunc,
        "sweep": cfg[sweep_key],
        "sigma_exact": analysis.sigma_m(od.omega, exact_rank),
        "scale": d_b if cfg["bound_variant"] == "cstar" else exact_rank,
        "exact": r,
    }


def _ti_trial(ctx: dict, value, rng):
    """Perturbs once (epsilon or shot count ``value``) and reconstructs all
    sizes."""
    if ctx["noise"]["mode"] == "gaussian_matrix":
        od_hat = noise.perturb_omega_data(ctx["od"], value, ctx["noise"]["epsilon_prime"], rng)
    else:  # one estimate of the (2s+1)-site marginal gives every field
        est = noise.simulate_tomography(ctx["marginal"], value, rng)
        od_hat = spectral.omega_data_from_coefficients(est, d_a=ctx["exact"].d_a,
                                                       s=ctx["block_size"])
    tr = spectral.truncate(od_hat.omega, **ctx["trunc"])
    sr = spectral.spectral_realization(od_hat, tr)
    params = analysis.surrogate_parameters(ctx["od"], od_hat, ctx["sigma_exact"], ctx["scale"],
                                           variant=ctx["bound_variant"])
    diffs = fcs.marginal_difference(sr, ctx["exact"], ctx["sites"])
    for t in ctx["sites"]:
        yield (t, next(diffs), sr.diagnostics["sigma_m_hat"], tr.rank,
               analysis.error_propagation_bound(params, t))


def cmd_aklt(cfg: dict, out_dir: Path) -> Path:
    """Noise sweep on a translation-invariant model; one perturbation per
    trial shared across all reconstruction sizes."""
    cfg = _read(cfg, TABLES["aklt"], "aklt")
    return _run_sweep(_prepare_ti_context(cfg), _ti_trial, cfg["workers"], out_dir / cfg["output"])


# ---------------------------------------------------------------------------
# rank scan
# ---------------------------------------------------------------------------

def cmd_rank_scan(cfg: dict, out_dir: Path) -> Path:
    cfg = _read(cfg, TABLES["rank-scan"], "rank-scan")
    model_id, r, _ = _build_model(cfg["model"], "rank-scan.model")
    # the largest form spans 2 * max_block sites
    fcs.check_dense_cap(r.d_a, 2 * cfg["max_block"], "rank-scan.max_block")
    profile = fcs.rank_profile(r, cfg["max_block"])
    t1, t2 = fcs.t_star(profile)
    log.info("rank profile stabilizes at rank %d; t* = (left %d, right %d)",
             profile[-1, -1], t1, t2)
    rows = []
    for i in range(profile.shape[0]):
        for j in range(profile.shape[1]):
            rows.append([model_id, j + 1, i + 1, int(profile[i, j])])
    out = out_dir / cfg["output"]
    _write_csv(out, RANK_CSV_COLUMNS, rows)
    return out


# ---------------------------------------------------------------------------
# non-homogeneous sweep
# ---------------------------------------------------------------------------

def _prepare_chain_context(cfg: dict) -> dict:
    """The read config plus the chain's exact state, window forms, ranks and
    sigmas."""
    spec = cfg["chain"]
    n, d_a = spec["n_sites"], spec["d_a"]
    fcs.check_dense_cap(d_a, n, "nonhomog.chain.n_sites")
    chain = fcs.random_chain(n, d_a, spec["d_b"], spec["seed"])
    state = chain.state()
    cod = spectral.build_chain_omega(state, cfg["left_width"], cfg["right_width"])
    # ranks[j-1] and sigmas[j-1]: numerical rank and smallest retained
    # singular value of the exact window form at site j
    svs = [singular_values(cod.omegas[j]) for j in range(1, n)]
    ranks = [numerical_rank(sv, RANK_RTOL) for sv in svs]
    if 0 in ranks:
        raise ValueError(f"nonhomog: the exact window form at site {ranks.index(0) + 1} is zero")
    sigmas = [float(sv[m - 1]) for sv, m in zip(svs, ranks)]
    log.info("exact window ranks: %s", ranks)
    return {
        **cfg,
        "model_id": f"chain(n={n};d_a={d_a};d_b={spec['d_b']};seed={spec['seed']})",
        "exact": state.matrix, "cod": cod, "ranks": ranks, "sigmas": sigmas,
        "sweep": cfg["epsilons"],
    }


def _chain_trial(ctx: dict, eps: float, rng):
    """Perturbs every window form at ``eps`` and reconstructs the chain."""
    cod, ranks = ctx["cod"], ctx["ranks"]
    cod_hat = noise.perturb_chain_omega(cod, eps, rng) if eps else cod
    recon = spectral.nonhomog_reconstruct(cod_hat, ranks=ranks)
    diff = recon.state().matrix
    diff -= ctx["exact"]
    yield (cod.n_sites, diff, min(ctx["sigmas"]), max(ranks),
           analysis.chain_bound(cod, cod_hat, ranks, ctx["sigmas"]))


def cmd_nonhomog(cfg: dict, out_dir: Path) -> Path:
    cfg = _read(cfg, TABLES["nonhomog"], "nonhomog")
    return _run_sweep(_prepare_chain_context(cfg), _chain_trial, _CORES, out_dir / cfg["output"])


# ---------------------------------------------------------------------------
# lemma suites
# ---------------------------------------------------------------------------

def cmd_lemma_check(cfg: dict, out_dir: Path) -> Path:
    cfg = _read(cfg, TABLES["lemma-check"], "lemma-check")
    seed = cfg["seed"]
    suites = {"realization_estimate_bounds": _sweep_estimate_bounds(
        seed, cfg["models_seeds"], cfg["noise_factors"])}
    doc = {"version": 1, "seed": seed, "slack": analysis.SLACK, "suites": suites}
    out = out_dir / cfg["output"]
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


def _sweep_estimate_bounds(seed, model_seeds, noise_factors) -> dict:
    reports = []
    models = [fcs.from_cstar(fcs.aklt())]
    for k in range(model_seeds):
        models.append(fcs.from_cstar(fcs.random_cstar(2, 2, seed=seed + 1000 + k)))
    for idx, r in enumerate(models):
        od = spectral.build_omega(r)
        sv = singular_values(od.omega)
        rank = numerical_rank(sv, RANK_RTOL)
        sigma = float(sv[rank - 1])
        exact = spectral.truncate(od.omega, rank=rank)
        for f_idx, factor in enumerate(noise_factors):
            eps = factor * sigma / 3.0
            rng = noise.spawn_rng(seed, idx, f_idx)
            od_hat = noise.perturb_omega_data(od, eps, eps, rng)
            reports.append(analysis.check_realization_estimate_bounds(od, od_hat, exact))
    return _suite_summary(reports)


# ---------------------------------------------------------------------------
# reconstruct from a marginals file
# ---------------------------------------------------------------------------

def load_marginals(path) -> tuple[int, dict[int, fcs.DensityMatrix]]:
    """Documented marginal exchange format:

    {"version": 1, "d": 3,
     "marginals": [{"sites": k, "matrix": [[[re, im], ...], ...]}, ...]}
    """
    with open(path, encoding="utf-8") as fh:
        doc = _read(json.load(fh), _MARGINALS, "marginals")
    d = doc["d"]
    out = {}
    for i, entry in enumerate(doc["marginals"]):
        k = entry["sites"]
        if k in out:
            j = [e["sites"] for e in doc["marginals"]].index(k)
            raise ValueError(f"marginals.marginals[{i}].sites: the {k}-site marginal is "
                             f"already given by marginals.marginals[{j}]")
        try:
            arr = np.asarray(entry["matrix"], dtype=float)
        except ValueError:  # a ragged grid
            arr = np.empty(0)
        if arr.shape != (d ** k, d ** k, 2):
            raise ValueError(f"marginals.marginals[{i}].matrix: a {k}-site marginal must be "
                             f"a {d ** k} x {d ** k} grid of [re, im] pairs")
        out[k] = fcs.DensityMatrix(matrix=arr[..., 0] + 1j * arr[..., 1], dim=d, sites=k)
    return d, out


def save_marginals(path, d: int, marginals: dict[int, fcs.DensityMatrix]):
    doc = {
        "version": 1,
        "d": d,
        "marginals": [
            {"sites": k, "matrix": np.stack([dm.matrix.real, dm.matrix.imag], -1).tolist()}
            for k, dm in sorted(marginals.items())
        ],
    }
    _write_json(Path(path), doc)


def cmd_reconstruct(cfg: dict, out_dir: Path) -> Path:
    cfg = _read(cfg, TABLES["reconstruct"], "reconstruct")
    d, marginals = load_marginals(cfg["input"])
    s = cfg["block_size"]
    # checked before anything is written
    for i, t in enumerate(cfg["sites"]):
        fcs.check_dense_cap(d, t, f"reconstruct.sites[{i}]")
    if 2 * s + 1 not in marginals:
        raise ValueError(f"reconstruct: input lacks the {2 * s + 1}-site marginal "
                         f"that block_size {s} needs")
    od = spectral.build_omega_from_marginal(marginals[2 * s + 1])
    tr = spectral.truncate(od.omega, **{cfg["truncation"]["mode"]: cfg["truncation"]["value"]})
    sr = spectral.spectral_realization(od, tr)
    out = out_dir / cfg["output"]
    fcs.save_realization(sr, out)
    log.info("wrote %s", out)
    if cfg["sites"]:
        recon = {t: fcs.marginal(sr, t) for t in cfg["sites"]}
        save_marginals(out_dir / cfg["marginals_output"], d, recon)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "aklt": cmd_aklt,
    "rank-scan": cmd_rank_scan,
    "nonhomog": cmd_nonhomog,
    "lemma-check": cmd_lemma_check,
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
    logging.basicConfig(stream=sys.stderr, level=level, format=_LOG_FORMAT)
    # basicConfig does nothing once the root logger has a handler, so a
    # later in-process call sets its level on the package logger
    log.setLevel(level)
    log.debug("%s: config %s, output directory %s", args.command, args.config, args.out)
    # freed trial workspaces stay in the heap for the next trial
    heap = keep_heap()
    info = blas_info()
    log.debug("start-up: nproc=%s threads=%s numpy=%s heap=%s thread_timeout=%s blas=%s",
              os.cpu_count(), info["threads"], np.__version__,
              "default" if heap is None else ",".join(f"{k}:{v}" for k, v in heap.items()),
              info["thread_timeout"], info["blas"])
    out_dir = Path(args.out)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        out_dir.mkdir(parents=True, exist_ok=True)
        # a command's matrices are small: a second BLAS thread would only
        # spin, and the large solves and products take the inherited count
        with blas_threads(1):
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
