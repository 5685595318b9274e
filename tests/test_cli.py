import concurrent.futures
import csv
import functools
import json
import logging
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from fcs_spectral import analysis, cli, fcs, linalg, spectral
from fcs_spectral.fcs import load_realization, marginal, realization_from_dict
from fcs_spectral.opbasis import gellmann
from oracles import assemble_from_coefficients, evaluate_word


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_cli(tmp_path, command, cfg, out="out"):
    cfg_path = write_config(tmp_path, f"{command}.json", cfg)
    out_dir = tmp_path / out
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(out_dir),
                   "--log-level", "warning"])
    assert rc == 0, f"{command} failed"
    return out_dir


def run_cli_process(tmp_path, command, cfg, out="out", level="warning"):
    """Run the CLI in a fresh interpreter, which reads the BLAS thread
    variables of the current environment when it loads numpy."""
    cfg_path = write_config(tmp_path, f"{command}-{out}.json", cfg)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "fcs_spectral.cli", command, "--config", str(cfg_path),
         "--out", str(tmp_path / out), "--log-level", level],
        env=env, capture_output=True, text=True, timeout=300)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


AKLT_CFG = {
    "model": {"kind": "aklt"},
    "truncation": {"mode": "rank", "value": 4},
    "epsilons": [0.0, 1e-3],
    "sites": [2, 3],
    "trials": 2,
    "seed": 7,
    "output": "aklt.csv",
}


NONHOMOG_CFG = {
    "chain": {"n_sites": 4, "d_a": 2, "d_b": 2, "seed": 3},
    "left_width": 2,
    "right_width": 2,
    "epsilons": [0.0, 1e-4],
    "trials": 2,
    "seed": 11,
    "output": "chain.csv",
}


def test_cmd_aklt_zero_noise_row(tmp_path):
    out = run_cli(tmp_path, "aklt", AKLT_CFG)
    rows = read_rows(out / "aklt.csv")
    assert len(rows) == 8
    zero_rows = [r for r in rows if float(r["epsilon"]) == 0.0]
    assert zero_rows and all(float(r["trace_distance"]) <= 1e-9 for r in zero_rows)
    for r in rows:
        t = int(r["sites"])
        assert float(r["td_per_site"]) == pytest.approx(float(r["trace_distance"]) / t)
        assert int(r["rank_used"]) == 4


def test_cmd_huge_epsilon_keeps_finite_distances(tmp_path):
    # squares of the deviations overflow, the distances do not; the bound
    # is past the float range
    out = run_cli(tmp_path, "aklt", dict(AKLT_CFG, epsilons=[1e200], sites=[2], trials=1))
    (row,) = read_rows(out / "aklt.csv")
    assert 1e199 < float(row["hs_distance"]) < 1e201
    assert 1e199 < float(row["trace_distance"]) < 1e201
    assert float(row["bound_surrogate"]) == np.inf
    cfg = dict(NONHOMOG_CFG, epsilons=[1e200], trials=1)
    (row,) = read_rows(run_cli(tmp_path, "nonhomog", cfg, out="chain") / "chain.csv")
    assert 1e199 < float(row["hs_distance"]) < 1e201
    assert float(row["bound_surrogate"]) == np.inf


def test_cmd_aklt_header_golden(tmp_path):
    out = run_cli(tmp_path, "aklt", AKLT_CFG)
    header = (out / "aklt.csv").read_text().splitlines()[0]
    assert header == ("model,sites,epsilon,seed,trial,trace_distance,hs_distance,"
                      "sigma_m,rank_used,bound_surrogate,wall_time_ms,td_per_site")


SHOT_CFG = {**{k: v for k, v in AKLT_CFG.items() if k != "epsilons"},
            "noise": {"mode": "shot_multinomial"}, "shots_sweep": [1000, 100000],
            "output": "shots.csv"}


def mixture(xi, base=None):
    return {"kind": "mixture", "base": base or {"kind": "aklt"}, "xi": xi}


MIXTURE_CFG = dict(AKLT_CFG, model=mixture(0.1), output="mixture.csv")


def sweep_config(name):
    """(command, config) of a small sweep of each command the sweep engine
    runs, of aklt's shot-noise path and of aklt on a mixture."""
    return {"aklt": ("aklt", AKLT_CFG),
            "mixture": ("aklt", MIXTURE_CFG),
            "nonhomog": ("nonhomog", NONHOMOG_CFG),
            "shot_multinomial": ("aklt", SHOT_CFG)}[name]


@pytest.mark.parametrize("name", ["aklt", "mixture", "nonhomog", "shot_multinomial"])
def test_sweep_rerun_byte_identical(tmp_path, name):
    command, cfg = sweep_config(name)
    out1 = run_cli(tmp_path, command, cfg, out="run1")
    out2 = run_cli(tmp_path, command, cfg, out="run2")
    assert (out1 / cfg["output"]).read_bytes() == (out2 / cfg["output"]).read_bytes()


def rows_of(path):
    return path.read_text().splitlines()[1:]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["aklt", "shot_multinomial", "nonhomog"])
def test_rows_depend_only_on_seed_index_and_trial(tmp_path, monkeypatch, name, workers):
    # a task's rows come from spawn_rng(seed, sweep index, trial) alone: a
    # run with fewer trials, a prefix of the sweep and fewer sizes gives a
    # subset of a larger run's rows, at any worker count (9 tasks on 2
    # workers: the chunks differ in size)
    command, cfg = sweep_config(name)
    sweep_key = "shots_sweep" if name == "shot_multinomial" else "epsilons"
    sweep = {"aklt": [0.0, 1e-3, 1e-2], "shot_multinomial": [1000, 10000, 100000],
             "nonhomog": [0.0, 1e-4, 1e-3]}[name]
    small = dict(cfg, **{sweep_key: sweep[:2]}, trials=2)
    large = dict(cfg, **{sweep_key: sweep}, trials=3)
    if command == "aklt":
        small["sites"], large["sites"] = [3], [2, 3, 4]
    # nonhomog has one row per task, of the whole chain
    sizes, n_sizes = ([3], 3) if command == "aklt" else ([cfg["chain"]["n_sites"]], 1)
    small_rows = rows_of(run_cli(tmp_path, command, small, out="small") / cfg["output"])
    # the engine runs at the given worker count whatever the command's key
    run_sweep = cli._run_sweep
    monkeypatch.setattr(cli, "_run_sweep",
                        lambda ctx, trial, _, out: run_sweep(ctx, trial, workers, out))
    large_rows = rows_of(run_cli(tmp_path, command, large, out="large") / cfg["output"])
    assert len(large_rows) == 9 * n_sizes
    # (sites, epsilon, trial) of the small run's rows
    keep = {(t, float(v), n) for t in sizes for v in sweep[:2] for n in range(2)}

    def key(row):
        f = row.split(",")
        return int(f[1]), float(f[2]), int(f[4])

    expected = [row for row in large_rows if key(row) in keep]
    assert small_rows == expected and len(expected) == len(keep)


def test_shot_sweep_workers_byte_identical(tmp_path):
    seq = run_cli(tmp_path, "aklt", SHOT_CFG, out="seq")
    par = run_cli(tmp_path, "aklt", dict(SHOT_CFG, workers=2), out="par")
    assert (seq / "shots.csv").read_bytes() == (par / "shots.csv").read_bytes()


def test_mixture_sweep_workers_byte_identical(tmp_path):
    seq = run_cli(tmp_path, "aklt", MIXTURE_CFG, out="seq")
    par = run_cli(tmp_path, "aklt", dict(MIXTURE_CFG, workers=2), out="par")
    assert (seq / "mixture.csv").read_bytes() == (par / "mixture.csv").read_bytes()


@pytest.mark.parametrize("command, cfg, runs", [
    ("aklt", dict(AKLT_CFG, epsilons=[0.0, 1e-3], trials=4), [0.0] + [1e-3] * 4),
    ("nonhomog", dict(NONHOMOG_CFG, trials=4), [0.0] + [1e-4] * 4),
    # epsilon_prime > 0 perturbs Omega_dot at eps = 0, so every trial draws
    ("aklt", dict(AKLT_CFG, epsilons=[0.0], trials=4,
                  noise={"mode": "gaussian_matrix", "epsilon_prime": 1e-3}), [0.0] * 4),
], ids=["aklt", "nonhomog", "aklt-epsilon-prime"])
def test_a_trial_that_draws_nothing_runs_once_per_sweep_value(tmp_path, monkeypatch, command,
                                                              cfg, runs):
    # the other trials at that value take its rows, but for the trial column
    values = []

    def spy(trial):
        def counted(ctx, value, rng):
            values.append(value)
            return trial(ctx, value, rng)
        return counted

    run_sweep = cli._run_sweep
    monkeypatch.setattr(cli, "_run_sweep",
                        lambda ctx, trial, workers, out: run_sweep(ctx, spy(trial), workers, out))
    rows = read_rows(run_cli(tmp_path, command, cfg) / cfg["output"])
    assert values == runs
    for value in cfg["epsilons"]:
        for t in {r["sites"] for r in rows}:
            same = [r for r in rows if float(r["epsilon"]) == value and r["sites"] == t]
            assert len(same) == cfg["trials"]
            if runs.count(value) == 1:
                assert all(dict(r, trial="") == dict(same[0], trial="") for r in same)
            else:
                assert len({r["trace_distance"] for r in same}) == cfg["trials"]


def test_reused_rows_warn_per_row(tmp_path, caplog):
    # rank 2 < 4 on exact data: zero deviations, a zero bound and 2*TD > 0
    cfg = dict(AKLT_CFG, truncation={"mode": "rank", "value": 2}, epsilons=[0.0], sites=[2],
               trials=3)
    run_cli(tmp_path, "aklt", cfg)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert [re.search(r"trial=(\d+)", m).group(1) for m in warnings] == ["0", "1", "2"]


def test_reused_rows_time_the_trial_that_solved_the_point(tmp_path):
    cfg = dict(AKLT_CFG, epsilons=[0.0], trials=3, timing=True)
    rows = read_rows(run_cli(tmp_path, "aklt", cfg) / cfg["output"])
    for t in {r["sites"] for r in rows}:
        walls = {r["wall_time_ms"] for r in rows if r["sites"] == t}
        assert len(walls) == 1 and float(walls.pop()) > 0.0


def test_noiseless_sweep_workers_byte_identical(tmp_path):
    # 9 tasks in chunks of 5 and 4: the noiseless point's trials are split
    # between the two workers, and each chunk solves it once
    cfg = dict(AKLT_CFG, epsilons=[1e-4, 0.0, 1e-3], trials=3)
    seq = run_cli(tmp_path, "aklt", cfg, out="seq")
    par = run_cli(tmp_path, "aklt", dict(cfg, workers=2), out="par")
    assert (seq / cfg["output"]).read_bytes() == (par / cfg["output"]).read_bytes()


def test_shot_trial_estimates_one_marginal(tmp_path, monkeypatch):
    # one tomography call per trial, on the (2s+1)-site marginal
    sizes = []

    def counting(dm, *args, **kwargs):
        sizes.append(dm.sites)
        return simulate(dm, *args, **kwargs)

    simulate = cli.noise.simulate_tomography
    monkeypatch.setattr(cli.noise, "simulate_tomography", counting)
    rows = read_rows(run_cli(tmp_path, "aklt", SHOT_CFG) / "shots.csv")
    trials = len(SHOT_CFG["shots_sweep"]) * SHOT_CFG["trials"]
    assert len(rows) == trials * len(SHOT_CFG["sites"])
    assert sizes == [3] * trials


def test_cmd_aklt_row_order_and_format(tmp_path):
    out = run_cli(tmp_path, "aklt", AKLT_CFG)
    rows = read_rows(out / "aklt.csv")
    keys = [(float(r["epsilon"]), int(r["sites"]), int(r["trial"])) for r in rows]
    assert keys == sorted(keys)
    # golden zero-noise row fields: %.12e floats, exact sigma_4 = 2/9,
    # integer columns plain
    raw = (out / "aklt.csv").read_text().splitlines()[1].split(",")
    assert raw[0] == "aklt(theta=0.61548)"
    assert raw[1] == "2" and raw[3] == "7" and raw[4] == "0" and raw[8] == "4"
    assert raw[2] == "0.000000000000e+00"
    assert raw[7] == "2.222222222222e-01"
    assert raw[10] == "0.000000000000e+00"
    assert "e" in raw[5] and len(raw[5].split("e")[0].split(".")[1]) == 12


def test_cmd_aklt_unknown_key_rejected(tmp_path):
    cfg = dict(AKLT_CFG, bogus=1)
    cfg_path = write_config(tmp_path, "bad.json", cfg)
    rc = cli.main(["aklt", "--config", str(cfg_path), "--out", str(tmp_path),
                   "--log-level", "error"])
    assert rc == 2


def test_cmd_aklt_missing_key_rejected(tmp_path):
    cfg = {k: v for k, v in AKLT_CFG.items() if k != "trials"}
    cfg_path = write_config(tmp_path, "bad.json", cfg)
    rc = cli.main(["aklt", "--config", str(cfg_path), "--out", str(tmp_path),
                   "--log-level", "error"])
    assert rc == 2


def test_cmd_aklt_worker_pool_matches_sequential(tmp_path):
    seq = run_cli(tmp_path, "aklt", AKLT_CFG, out="seq")
    par = run_cli(tmp_path, "aklt", dict(AKLT_CFG, workers=2), out="par")
    assert (seq / "aklt.csv").read_bytes() == (par / "aklt.csv").read_bytes()


def test_cmd_aklt_workers_byte_identical_at_t7(tmp_path):
    # the eigensolve's last bits follow the BLAS thread count, so the
    # sequential run gets the single BLAS thread each worker has
    cfg = dict(AKLT_CFG, epsilons=[1e-4, 1e-2], sites=[2, 7], trials=1, seed=11)
    env = dict(os.environ)
    with cli._single_thread_blas_env():
        seq = run_cli_process(tmp_path, "aklt", cfg, out="seq")
    assert seq.returncode == 0, seq.stderr
    par = run_cli(tmp_path, "aklt", dict(cfg, workers=2), out="par")
    assert (tmp_path / "seq" / "aklt.csv").read_bytes() == (par / "aklt.csv").read_bytes()
    assert dict(os.environ) == env


class RecordingPool:
    """In-process stand-in for the worker pool that records its size."""

    sizes: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize):
        return map(fn, tasks)


@pytest.mark.parametrize("cores", [None, 64])
def test_worker_pool_is_no_larger_than_cores_or_tasks(tmp_path, monkeypatch, cores):
    # 2 x trials tasks: the pool gets os.cpu_count() workers when a task is
    # left over for each, and one worker per task when cores are left over
    if cores is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
    n = os.cpu_count()
    trials = n + 1 if cores is None else 2
    cfg = dict(AKLT_CFG, sites=[2], trials=trials)
    seq = run_cli(tmp_path, "aklt", cfg, out="seq")
    # the pooled branch imports the pool when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    par = run_cli(tmp_path, "aklt", dict(cfg, workers=n + 1), out="par")
    size = min(n, 2 * trials)
    assert RecordingPool.sizes == ([size] if size > 1 else [])
    assert (seq / "aklt.csv").read_bytes() == (par / "aklt.csv").read_bytes()


def test_worker_log_messages_follow_log_level(tmp_path):
    # rank 2 < 4 on exact data: zero deviations, a zero bound and 2*TD > 0
    cfg = dict(AKLT_CFG, truncation={"mode": "rank", "value": 2}, epsilons=[0.0],
               sites=[2], trials=2, workers=2)
    quiet = run_cli_process(tmp_path, "aklt", cfg, out="quiet", level="error")
    loud = run_cli_process(tmp_path, "aklt", cfg, out="loud", level="warning")
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    lines = loud.stderr.splitlines()
    assert len(lines) == 2
    assert all(ln.startswith("WARNING fcs_spectral: monitored bound exceeded") for ln in lines)


def test_cmd_aklt_without_sizes_writes_header_only(tmp_path):
    out = run_cli(tmp_path, "aklt", dict(AKLT_CFG, sites=[]))
    assert (out / "aklt.csv").read_text().splitlines() == [",".join(cli.CSV_COLUMNS)]


@pytest.mark.parametrize("exc", [None, ValueError("bad value"), RuntimeError("bug")])
def test_main_runs_command_at_one_blas_thread(tmp_path, monkeypatch, fake_blas_threads, exc):
    seen = []

    def command(cfg, out_dir):
        seen.append(fake_blas_threads.count)
        if exc is not None:
            raise exc

    monkeypatch.setitem(cli._COMMANDS, "aklt", command)
    argv = ["aklt", "--config", str(write_config(tmp_path, "cfg.json", {})),
            "--out", str(tmp_path), "--log-level", "error"]
    if isinstance(exc, RuntimeError):
        with pytest.raises(RuntimeError):
            cli.main(argv)
    else:
        assert cli.main(argv) == (0 if exc is None else 2)
    assert seen == [1]
    assert fake_blas_threads.calls == [1, 2] and fake_blas_threads.count == 2


@pytest.mark.skipif(linalg._INHERITED is None, reason="numpy's BLAS has no thread control")
def test_main_restores_process_blas_threads(tmp_path):
    before = linalg._GET_THREADS()
    run_cli(tmp_path, "aklt", dict(AKLT_CFG, sites=[2]))
    assert linalg._GET_THREADS() == before
    cfg_path = write_config(tmp_path, "bad.json", dict(AKLT_CFG, trials=-1))
    assert cli.main(["aklt", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--log-level", "error"]) == 2
    assert linalg._GET_THREADS() == before


_LOAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "OPENBLAS_THREAD_TIMEOUT")


@pytest.mark.skipif(linalg._INHERITED is None, reason="numpy's BLAS has no thread control")
@pytest.mark.skipif(linalg._GET_TIMEOUT is None, reason="numpy's BLAS exports no thread timeout")
@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                                 {"OMP_NUM_THREADS": "1"}, {"GOTO_NUM_THREADS": "1"},
                                 {"OPENBLAS_THREAD_TIMEOUT": "12"}],
                         ids=["unset", "openblas-1", "openblas-2", "omp-1", "goto-1", "timeout-12"])
def test_cli_process_loads_blas_at_environment_count(tmp_path, monkeypatch, env):
    # the CLI loads numpy's BLAS at the count a plain numpy import gets from
    # the same environment; the idle timeout is the CLI's unless the
    # environment sets one
    for var in _LOAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cfg = {"models_seeds": 0, "noise_factors": [], "seed": 0}
    proc = run_cli_process(tmp_path, "lemma-check", cfg, level="debug")
    assert proc.returncode == 0, proc.stderr
    [line] = [ln for ln in proc.stderr.splitlines() if "start-up:" in ln]
    fields = dict(f.split("=", 1) for f in line.split("start-up: ")[1].split()[:6])
    src = str(Path(cli.__file__).resolve().parents[1])
    plain = subprocess.run(
        [sys.executable, "-c", "import numpy; from fcs_spectral import linalg; "
                               "print(linalg._GET_THREADS())"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert plain.returncode == 0, plain.stderr
    assert fields["threads"] == plain.stdout.strip()
    assert fields["nproc"] == str(os.cpu_count()) and fields["numpy"] == np.__version__
    assert fields["heap"] == ("default" if linalg._MALLOPT is None
                              else "mmap:4194304,trim:8388608")
    assert fields["thread_timeout"] == env.get("OPENBLAS_THREAD_TIMEOUT",
                                               cli._BLAS_THREAD_TIMEOUT)


@pytest.mark.skipif(linalg._GET_TIMEOUT is None, reason="numpy's BLAS exports no thread timeout")
def test_blas_thread_timeout_keeps_outputs_at_t6(tmp_path, monkeypatch):
    # 729 rows is the first size whose solve and product run at the
    # inherited thread count; how long an idle thread spins changes no bit
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    cfg = dict(AKLT_CFG, epsilons=[1e-3], sites=[6], trials=1, seed=11)
    for out, timeout in (("cli", None), ("caller", "28")):
        if timeout is not None:
            monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", timeout)
        proc = run_cli_process(tmp_path, "aklt", cfg, out=out)
        assert proc.returncode == 0, proc.stderr
    name = cfg["output"]
    assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "caller" / name).read_bytes()


def test_blas_thread_env_reaches_spawned_workers_only():
    env = dict(os.environ)
    spawn = multiprocessing.get_context("spawn")
    with cli._single_thread_blas_env(), ProcessPoolExecutor(1, mp_context=spawn) as pool:
        seen = list(pool.map(os.getenv, cli._BLAS_THREAD_VARS, timeout=60))
    assert seen == ["1"] * len(cli._BLAS_THREAD_VARS)
    assert dict(os.environ) == env


def test_cmd_aklt_shot_noise_block_size_two(tmp_path):
    # block size 2 estimates only the 5-site marginal by shot tomography
    cfg = {
        "model": {"kind": "aklt"},
        "block_size": 2,
        "truncation": {"mode": "rank", "value": 4},
        "noise": {"mode": "shot_multinomial"},
        "shots_sweep": [1000000],
        "sites": [2, 4],
        "trials": 1,
        "seed": 3,
        "output": "shots.csv",
    }
    out = run_cli(tmp_path, "aklt", cfg)
    rows = read_rows(out / "shots.csv")
    assert [int(r["sites"]) for r in rows] == [2, 4]
    assert all(int(r["rank_used"]) == 4 for r in rows)
    assert all(0.0 < float(r["trace_distance"]) < 0.02 for r in rows)


def test_dense_cap_counts_the_sites_each_noise_mode_reads(tmp_path):
    # a d_a = 5 model at block size 2: gaussian noise reads the 4-site Omega
    # (5^4 = 625 fits the cap 2187); shot noise would read the 5-site
    # marginal, which the malformed-config table shows is rejected
    cfg = dict(AKLT_CFG, model={"kind": "random", "d_a": 5, "d_b": 2, "seed": 0},
               block_size=2, sites=[2], trials=0)
    out = run_cli(tmp_path, "aklt", cfg)
    assert (out / "aklt.csv").read_text() == ",".join(cli.CSV_COLUMNS) + "\n"


def test_cmd_aklt_shot_noise_mode(tmp_path):
    cfg = {
        "model": {"kind": "aklt"},
        "truncation": {"mode": "rank", "value": 4},
        "noise": {"mode": "shot_multinomial"},
        "shots_sweep": [1000000],
        "sites": [2],
        "trials": 2,
        "seed": 3,
        "output": "shots.csv",
    }
    out = run_cli(tmp_path, "aklt", cfg)
    rows = read_rows(out / "shots.csv")
    assert len(rows) == 2
    assert all(float(r["trace_distance"]) < 0.02 for r in rows)
    assert all(float(r["epsilon"]) == 1000000.0 for r in rows)


def test_cmd_rank_scan_aklt(tmp_path):
    cfg = {"model": {"kind": "aklt"}, "max_block": 2, "output": "ranks.csv"}
    out = run_cli(tmp_path, "rank-scan", cfg)
    rows = read_rows(out / "ranks.csv")
    assert {(int(r["left_block"]), int(r["right_block"])): int(r["rank"]) for r in rows} == {
        (1, 1): 4, (1, 2): 4, (2, 1): 4, (2, 2): 4,
    }


def test_cmd_aklt_threshold_truncation(tmp_path):
    # eta between sigma_5 (noise scale) and sigma_4 = 2/9 selects rank 4
    cfg = dict(AKLT_CFG, truncation={"mode": "threshold", "value": 0.11},
               epsilons=[0.0, 1e-3], output="thr.csv")
    out = run_cli(tmp_path, "aklt", cfg)
    rows = read_rows(out / "thr.csv")
    assert all(int(r["rank_used"]) == 4 for r in rows)
    zero = [r for r in rows if float(r["epsilon"]) == 0.0]
    assert all(float(r["trace_distance"]) <= 1e-9 for r in zero)


def test_cmd_nonhomog_exact_and_noisy(tmp_path):
    out = run_cli(tmp_path, "nonhomog", NONHOMOG_CFG)
    rows = read_rows(out / "chain.csv")
    assert len(rows) == 4
    exact = [r for r in rows if float(r["epsilon"]) == 0.0]
    noisy = [r for r in rows if float(r["epsilon"]) > 0.0]
    assert all(float(r["trace_distance"]) <= 1e-8 for r in exact)
    assert all(1e-8 < float(r["trace_distance"]) < 1e-2 for r in noisy)
    assert all(int(r["sites"]) == 4 for r in rows)
    keys = [(float(r["epsilon"]), int(r["trial"])) for r in rows]
    assert keys == sorted(keys)


def test_cmd_nonhomog_bound_bits(tmp_path):
    # recorded before the chain bound moved into analysis; every trial
    # perturbs at the same Frobenius distance, so the bound repeats
    rows = read_rows(run_cli(tmp_path, "nonhomog", NONHOMOG_CFG) / "chain.csv")
    assert [r["bound_surrogate"] for r in rows] == (
        ["0.000000000000e+00"] * 2 + ["4.103454257728e+00"] * 2)


def test_cmd_nonhomog_warns_once_per_row_over_bound(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(analysis, "chain_bound", lambda *args: 0.0)
    out = run_cli(tmp_path, "nonhomog", dict(NONHOMOG_CFG, epsilons=[1e-4]))
    assert len(read_rows(out / "chain.csv")) == 2
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 2
    assert all(m.startswith("monitored bound exceeded: model=chain(n=4;") for m in warnings)


@pytest.mark.parametrize("command, cfg", [
    ("nonhomog", dict(NONHOMOG_CFG, chain=dict(NONHOMOG_CFG["chain"], n_sites=8),
                      epsilons=[1e-4], trials=2)),
    ("aklt", dict(AKLT_CFG, epsilons=[1e-3], sites=[2, 6, 7], trials=1, seed=11)),
    ("lemma-check", {"seed": 3, "models_seeds": 1, "noise_factors": [0.1],
                     "output": "lemma_report.json"}),
], ids=["chain", "aklt-t7", "lemma"])
def test_outputs_byte_identical_across_blas_threads(tmp_path, monkeypatch, command, cfg):
    # small work runs at one thread either way; the t = 6 and 7 solves and
    # products take the 1 or 2 threads the process starts with
    for threads in ("1", "2"):
        for var in cli._BLAS_THREAD_VARS:
            monkeypatch.setenv(var, threads)
        proc = run_cli_process(tmp_path, command, cfg, out=f"threads{threads}")
        assert proc.returncode == 0, proc.stderr
    name = cfg["output"]
    assert (tmp_path / "threads1" / name).read_bytes() == (tmp_path / "threads2" / name).read_bytes()


def test_cmd_lemma_check_report(tmp_path):
    # the one suite runs the learner: the AKLT model and 2 random models at
    # the 3 default noise factors
    cfg = {"seed": 1, "models_seeds": 2, "output": "report.json"}
    out = run_cli(tmp_path, "lemma-check", cfg)
    doc = json.loads((out / "report.json").read_text())
    assert set(doc) == {"version", "seed", "slack", "suites"}
    assert (doc["version"], doc["seed"], doc["slack"]) == (1, 1, 1e-9)
    [(name, suite)] = doc["suites"].items()
    assert name == "realization_estimate_bounds"
    assert suite["count"] == 9 and suite["violations"] == 0
    assert suite["worst"]["margin"] >= -1e-9


def test_suite_summary_counts_violations_and_keeps_the_first_ten():
    # a report fails on its first failing inequality; the worst margin is
    # the least over every inequality of every report
    def report(k, lhs):
        return analysis.CheckReport(name=f"r{k}", inequalities=[
            analysis.InequalityCheck("a", lhs, 1.0),
            analysis.InequalityCheck("b", 2.0, 1.0)])

    reports = [report(k, 0.5 if k == 3 else 1.0 + k) for k in range(13)]
    summary = cli._suite_summary(reports)
    assert summary["count"] == 13
    assert summary["violations"] == 13
    assert summary["failures"] == [r.to_dict() for r in reports[:10]]
    assert summary["worst"] == reports[12].inequalities[0].to_dict()
    assert summary["worst"]["margin"] == 1.0 + analysis.SLACK - 13.0
    assert cli._suite_summary([]) == {"count": 0, "violations": 0, "worst": None,
                                      "failures": []}


@pytest.mark.parametrize("d, s", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_maximally_mixed_omega_closed_form(d, s):
    # the maximally mixed state's Omega data has one coefficient, 1/d^k on
    # k = 2s+1 sites at the identity word; a mixture's Omega data is the
    # mixture of its parts' data
    k = 2 * s + 1
    c = np.zeros(d ** (2 * k))
    c[0] = d ** (-k / 2)
    mm = spectral.omega_data_from_coefficients(c, d_a=d, s=s)
    base = {"kind": "random", "d_a": d, "d_b": 2, "seed": 3}
    _, r, _ = cli._build_model(base, "aklt.model")
    od = spectral.build_omega(r, s, s)
    for xi in (0.01, 0.1):
        _, mix, _ = cli._build_model(mixture(xi, base), "aklt.model")
        got = spectral.build_omega(mix, s, s)
        for field in ("omega", "omega_dot", "omega_one", "tau_omega"):
            x, y, z = getattr(got, field), getattr(od, field), getattr(mm, field)
            assert x.shape == y.shape == z.shape, field
            assert np.abs(x - ((1 - xi) * y + xi * z)).max() <= 1e-15, field


def test_cmd_aklt_on_mixture(tmp_path):
    # at xi = 0 the base model's numbers
    cfg = dict(AKLT_CFG, epsilons=[1e-3])
    rows_a = read_rows(run_cli(tmp_path, "aklt", cfg, out="a") / "aklt.csv")
    rows_0 = read_rows(run_cli(tmp_path, "aklt", dict(cfg, model=mixture(0.0)), out="m0")
                       / "aklt.csv")
    assert [r["model"] for r in rows_0] == ["aklt(theta=0.61548)+mix(xi=0)"] * len(rows_a)
    for ra, r0 in zip(rows_a, rows_0):
        assert float(r0["trace_distance"]) == pytest.approx(float(ra["trace_distance"]),
                                                            rel=1e-10)
    # TD is measured to the mixture: at block size 2 its fifth direction is
    # visible, rank 5 learns the mixture and rank 4 misses it by about sigma_5
    cfg = dict(cfg, model=mixture(0.1), block_size=2, epsilons=[1e-4], sites=[2, 3])
    for rank, ok in ((5, lambda td: td < 1e-3), (4, lambda td: td > 1e-2)):
        trunc = {"mode": "rank", "value": rank}
        out = run_cli(tmp_path, "aklt", dict(cfg, truncation=trunc), out=f"rank{rank}")
        rows = read_rows(out / "aklt.csv")
        assert len(rows) == 4 and all(ok(float(r["trace_distance"])) for r in rows), rank
    # shot noise samples the mixture's marginal
    rows = read_rows(run_cli(tmp_path, "aklt", dict(SHOT_CFG, model=mixture(0.1)), out="shot")
                     / "shots.csv")
    assert len(rows) == 8 and {r["model"] for r in rows} == {"aklt(theta=0.61548)+mix(xi=0.1)"}
    rows = read_rows(run_cli(tmp_path, "rank-scan", {"model": mixture(0.1), "max_block": 2},
                             out="scan") / "rank_scan.csv")
    ranks = {(int(r["left_block"]), int(r["right_block"])): int(r["rank"]) for r in rows}
    assert ranks == {(1, 1): 4, (1, 2): 4, (2, 1): 4, (2, 2): 5}


def test_cmd_aklt_on_product_state_is_exact_at_rank_one(tmp_path):
    # the qubit state (|0> + i|1>)/sqrt(2) at every site
    cfg = dict(AKLT_CFG, model={"kind": "product", "state": [[1, 0], [0, 1]]},
               truncation={"mode": "rank", "value": 1}, epsilons=[0.0], output="product.csv")
    rows = read_rows(run_cli(tmp_path, "aklt", cfg) / "product.csv")
    assert [(r["model"], int(r["sites"])) for r in rows] == [("product(d=2)", t)
                                                              for t in (2, 2, 3, 3)]
    assert all(float(r["trace_distance"]) <= 1e-12 and int(r["rank_used"]) == 1 for r in rows)


def aklt_with(**changes):
    return "aklt", json.dumps(dict(AKLT_CFG, **changes))


def random_model_with(**changes):
    return aklt_with(model=dict({"kind": "random", "d_a": 2, "d_b": 2, "seed": 1}, **changes))


def nonhomog_with(**changes):
    return "nonhomog", json.dumps(dict(NONHOMOG_CFG, **changes))


def chain_with(**changes):
    return nonhomog_with(chain=dict(NONHOMOG_CFG["chain"], **changes))


def lemma_with(**changes):
    return "lemma-check", json.dumps(dict({"seed": 0}, **changes))


# TMP in a config stands for the test's directory, which holds these
# marginals files: a JSON list, a qubit marginal with a NaN entry, one whose
# second row is short, one of local dimension 1, an empty qutrit file, one
# of a -1-site marginal and one that gives the 1-site marginal twice
MARGINALS_FILES = {
    "list.json": [],
    "dim1.json": {"version": 1, "d": 1, "marginals": []},
    "empty3.json": {"version": 1, "d": 3, "marginals": []},
    "nan.json": {"version": 1, "d": 2, "marginals": [
        {"sites": 1, "matrix": [[[math.nan, 0], [0, 0]], [[0, 0], [0.5, 0]]]}]},
    "ragged.json": {"version": 1, "d": 2, "marginals": [
        {"sites": 1, "matrix": [[[0.5, 0], [0, 0]], [[0.5, 0]]]}]},
    "negative-sites.json": {"version": 1, "d": 3, "marginals": [{"sites": -1, "matrix": []}]},
    "repeat.json": {"version": 1, "d": 2, "marginals": [
        {"sites": 1, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        {"sites": 1, "matrix": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}]},
}


def reconstruct_with(marginals, **changes):
    return "reconstruct", json.dumps(dict(
        {"input": f"TMP/{marginals}", "block_size": 1,
         "truncation": {"mode": "rank", "value": 4}}, **changes))


@pytest.mark.parametrize("command, content, message", [
    (*aklt_with(epsilons=1e-3), "TypeError"),
    ("aklt", json.dumps(AKLT_CFG)[:40], "JSONDecodeError"),
    ("aklt", None, "FileNotFoundError"),
    (*aklt_with(sites="23"), "TypeError: aklt.sites: expected a list"),
    (*aklt_with(trials=2.9), "TypeError: aklt.trials: expected an integer"),
    (*aklt_with(trials=True), "TypeError: aklt.trials: expected an integer"),
    (*aklt_with(timing="false"), "TypeError: aklt.timing: expected a bool"),
    (*aklt_with(version=99), "ValueError: aklt.version: 99 is outside [1, 1]"),
    (*aklt_with(model={"kind": "aklt", "theta": "0.5"}),
     "TypeError: aklt.model(aklt).theta: expected a number"),
    (*aklt_with(truncation={"mode": "rank", "value": [4]}),
     "TypeError: aklt.truncation(rank).value: expected an integer"),
    (*aklt_with(noise=["shot_multinomial"]), "TypeError: aklt.noise: expected an object"),
    (*aklt_with(sites=[0]), "ValueError: aklt.sites[0]: 0 is outside [1, inf]"),
    (*aklt_with(trials=-1), "ValueError: aklt.trials: -1 is outside [0, inf]"),
    (*aklt_with(block_size=0), "ValueError: aklt.block_size: 0 is outside [1, inf]"),
    (*reconstruct_with("list.json"), "TypeError: marginals: expected an object"),
    ("rank-scan", json.dumps({"model": {"kind": "aklt"}, "max_block": 1, "tol": math.nan}),
     "ValueError: rank-scan: unknown keys ['tol']"),
    (*lemma_with(slack=1e-9), "ValueError: lemma-check: unknown keys ['slack']"),
    (*reconstruct_with("list.json", pinv_tol=math.nan),
     "ValueError: reconstruct: unknown keys ['pinv_tol']"),
    (*reconstruct_with("nan.json"),
     "ValueError: marginals.marginals[0].matrix[0][0][0]: expected a finite number, got nan"),
    (*aklt_with(noise={"epsilon_prime": math.inf}),
     "ValueError: aklt.noise.epsilon_prime: expected a finite number, got inf"),
    (*aklt_with(noise={"mode": "bogus"}),
     "ValueError: aklt.noise.mode: expected one of ['gaussian_matrix', 'shot_multinomial'], "
     "got \"bogus\""),
    (*aklt_with(noise={"mode": "shot_gaussian"}),
     "ValueError: aklt.noise.mode: expected one of ['gaussian_matrix', 'shot_multinomial'], "
     "got \"shot_gaussian\""),
    (*reconstruct_with("ragged.json"),
     "ValueError: marginals.marginals[0].matrix: a 1-site marginal must be a 2 x 2 grid"),
    (*aklt_with(svg="sweep.svg"), "ValueError: aklt: unknown keys ['svg']"),
    (*aklt_with(bound_variant="cstr"),
     "ValueError: aklt.bound_variant: expected one of ['general', 'cstar'], got \"cstr\""),
    (*chain_with(n_sites=1), "ValueError: nonhomog.chain.n_sites: 1 is outside [2, inf]"),
    (*chain_with(d_a=1), "ValueError: nonhomog.chain.d_a: 1 is outside [2, inf]"),
    (*chain_with(d_b=0), "ValueError: nonhomog.chain.d_b: 0 is outside [1, inf]"),
    (*chain_with(seed=-1), "ValueError: nonhomog.chain.seed: -1 is outside [0, inf]"),
    (*chain_with(stationary=True), "ValueError: nonhomog.chain: unknown keys ['stationary']"),
    (*nonhomog_with(seed=-1), "ValueError: nonhomog.seed: -1 is outside [0, inf]"),
    (*random_model_with(d_a=1), "ValueError: aklt.model(random).d_a: 1 is outside [2, inf]"),
    (*random_model_with(d_b=0), "ValueError: aklt.model(random).d_b: 0 is outside [1, inf]"),
    (*random_model_with(seed=-1),
     "ValueError: aklt.model(random).seed: -1 is outside [0, inf]"),
    (*aklt_with(seed=-1), "ValueError: aklt.seed: -1 is outside [0, inf]"),
    (*aklt_with(noise={"mode": "shot_multinomial"}, shots_sweep=[1000, 0]),
     "ValueError: aklt.shots_sweep[1]: 0 is outside [1, inf]"),
    (*aklt_with(workers=0), "ValueError: aklt.workers: 0 is outside [1, inf]"),
    (*lemma_with(seed=-1), "ValueError: lemma-check.seed: -1 is outside [0, inf]"),
    (*lemma_with(max_dim=30), "ValueError: lemma-check: unknown keys ['max_dim']"),
    (*lemma_with(count=1000), "ValueError: lemma-check: unknown keys ['count']"),
    (*lemma_with(models_seeds=-1),
     "ValueError: lemma-check.models_seeds: -1 is outside [0, inf]"),
    (*reconstruct_with("list.json", sites=[2, 0]),
     "ValueError: reconstruct.sites[1]: 0 is outside [1, inf]"),
    (*reconstruct_with("dim1.json"), "ValueError: marginals.d: 1 is outside [2, inf]"),
    (*aklt_with(epsilons=[0.0, -1e-3]),
     "ValueError: aklt.epsilons[1]: -0.001 is outside [0, inf]"),
    (*aklt_with(noise={"epsilon_prime": -1e-3}),
     "ValueError: aklt.noise.epsilon_prime: -0.001 is outside [0, inf]"),
    (*nonhomog_with(epsilons=[-1e-4]),
     "ValueError: nonhomog.epsilons[0]: -0.0001 is outside [0, inf]"),
    (*aklt_with(truncation={"mode": "rank", "value": 0}),
     "ValueError: aklt.truncation(rank).value: 0 is outside [1, inf]"),
    (*aklt_with(truncation={"mode": "threshold", "value": 0}),
     "ValueError: aklt.truncation(threshold).value: 0 is outside (0, inf]"),
    (*aklt_with(truncation={"mode": "threshold", "value": -1e-6}),
     "ValueError: aklt.truncation(threshold).value: -1e-06 is outside (0, inf]"),
    (*nonhomog_with(rank_tol=-1), "ValueError: nonhomog: unknown keys ['rank_tol']"),
    ("rank-scan", json.dumps({"model": {"kind": "aklt"}, "max_block": 1, "tol": -1e-9}),
     "ValueError: rank-scan: unknown keys ['tol']"),
    (*aklt_with(model=mixture(1.5)), "ValueError: aklt.model(mixture).xi: 1.5 is outside [0, 1]"),
    (*aklt_with(model=mixture(-0.5)),
     "ValueError: aklt.model(mixture).xi: -0.5 is outside [0, 1]"),
    (*aklt_with(model={"kind": "mixture", "xi": 0.1}),
     "ValueError: aklt.model(mixture).base: required key is missing"),
    (*aklt_with(model=mixture(0.1, base=mixture(0.1))),
     "ValueError: aklt.model(mixture).base.kind: expected one of ['aklt', 'product', 'random'], "
     "got \"mixture\""),
    (*lemma_with(noise_factors=[5.0]),
     "ValueError: lemma-check.noise_factors[0]: 5.0 is outside [0, 1]"),
    (*lemma_with(noise_factors=[-0.1]),
     "ValueError: lemma-check.noise_factors[0]: -0.1 is outside [0, 1]"),
    (*chain_with(n_sites=12),
     "ValueError: nonhomog.chain.n_sites: 2^12 exceeds the dense cap 2187"),
    ("rank-scan", json.dumps({"model": {"kind": "aklt"}, "max_block": 4}),
     "ValueError: rank-scan.max_block: 3^8 exceeds the dense cap 2187"),
    (*reconstruct_with("empty3.json", sites=[2, 8]),
     "ValueError: reconstruct.sites[1]: 3^8 exceeds the dense cap 2187"),
    (*aklt_with(sites=[2, 8]), "ValueError: aklt.sites[1]: 3^8 exceeds the dense cap 2187"),
    # shot noise estimates the 2s+1 = 5-site marginal: 5^5 exceeds the cap
    # where the 4-site Omega of gaussian noise (5^4) fits it
    (*aklt_with(model={"kind": "random", "d_a": 5, "d_b": 2, "seed": 0},
                noise={"mode": "shot_multinomial"}, shots_sweep=[100], block_size=2, sites=[2]),
     "ValueError: aklt.block_size: 5^5 exceeds the dense cap 2187"),
    (*aklt_with(block_size=4, sites=[2]),
     "ValueError: aklt.block_size: 3^8 exceeds the dense cap 2187"),
    (*reconstruct_with("list.json", pinv_tol=-1),
     "ValueError: reconstruct: unknown keys ['pinv_tol']"),
    (*aklt_with(dense_cap=100), "ValueError: aklt: unknown keys ['dense_cap']"),
    ("rank-scan", json.dumps({"model": {"kind": "aklt"}, "max_block": 1, "dense_cap": 100}),
     "ValueError: rank-scan: unknown keys ['dense_cap']"),
    (*nonhomog_with(dense_cap=100), "ValueError: nonhomog: unknown keys ['dense_cap']"),
    (*reconstruct_with("list.json", dense_cap=100),
     "ValueError: reconstruct: unknown keys ['dense_cap']"),
    (*aklt_with(model={"kind": "product", "state": [[0, 0], [0, 0]]}),
     "ValueError: aklt.model(product).state: the state vector is zero"),
    (*aklt_with(model={"kind": "product", "state": [[1, 0, 0], [0, 0, 0]]}),
     "ValueError: aklt.model(product).state[0]: expected a [re, im] pair, got 3 numbers"),
    (*aklt_with(model={"kind": "product", "state": [[1, 0]]}),
     "ValueError: aklt.model(product).state: the local dimension must be >= 2, got 1"),
    (*reconstruct_with("negative-sites.json"),
     "ValueError: marginals.marginals[0].sites: -1 is outside [1, inf]"),
    (*reconstruct_with("repeat.json"),
     "ValueError: marginals.marginals[1].sites: the 1-site marginal is already given by "
     "marginals.marginals[0]"),
    ("aklt", json.dumps({k: v for k, v in AKLT_CFG.items() if k != "epsilons"}),
     "ValueError: aklt.epsilons: required by gaussian_matrix noise"),
    (*aklt_with(noise={"mode": "shot_multinomial"}),
     "ValueError: aklt.shots_sweep: required by shot_multinomial noise"),
], ids=["number-for-list", "truncated-json", "missing-file", "string-for-sites",
        "fractional-trials", "bool-trials", "string-timing", "unknown-version",
        "string-theta", "list-truncation-value", "list-noise", "zero-site",
        "negative-trials", "zero-block-size", "list-marginals-file", "nan-tol",
        "lemma-slack-key", "nan-pinv-tol", "nan-marginal-entry", "infinite-epsilon-prime",
        "unknown-noise-mode", "shot-gaussian-noise-mode", "ragged-marginal-matrix",
        "unknown-svg-key", "unknown-bound-variant", "one-site-chain",
        "chain-site-dim-1", "chain-memory-dim-0", "negative-chain-seed",
        "chain-stationary-key",
        "negative-nonhomog-seed", "random-site-dim-1", "random-memory-dim-0",
        "negative-random-seed", "negative-seed", "zero-shots", "zero-workers",
        "negative-lemma-seed", "lemma-max-dim-key", "lemma-count-key",
        "negative-models-seeds", "zero-reconstruct-site", "marginals-dim-1",
        "negative-epsilon", "negative-epsilon-prime", "negative-nonhomog-epsilon",
        "zero-truncation-rank", "zero-threshold", "negative-threshold",
        "negative-rank-tol", "negative-rank-scan-tol", "xi-above-one", "negative-xi",
        "mixture-missing-base", "nested-mixture",
        "noise-factor-above-one", "negative-noise-factor", "chain-over-dense-cap",
        "rank-scan-over-dense-cap", "reconstruct-sites-over-dense-cap",
        "aklt-sites-over-dense-cap",
        "shot-marginal-over-dense-cap", "block-size-over-dense-cap", "negative-pinv-tol",
        "aklt-dense-cap-key", "rank-scan-dense-cap-key",
        "nonhomog-dense-cap-key", "reconstruct-dense-cap-key", "zero-product-state",
        "product-state-entry-not-a-pair", "one-dimensional-product-state",
        "negative-marginal-sites", "repeated-marginal-size", "gaussian-noise-without-epsilons",
        "shot-noise-without-shots-sweep"])
def test_malformed_config_exits_2_with_named_error(tmp_path, caplog, command, content,
                                                   message):
    # an exception escaping main would fail the test with its traceback
    for name, doc in MARGINALS_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    if content is not None:
        cfg_path.write_text(content.replace("TMP", str(tmp_path)))
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--log-level", "error"])
    assert rc == 2
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    assert message in caplog.records[0].getMessage()
    # a rejected config writes nothing
    assert not list((tmp_path / "out").glob("*"))


def test_zero_trials_writes_header_only(tmp_path):
    out = run_cli(tmp_path, "aklt", dict(AKLT_CFG, trials=0))
    assert (out / "aklt.csv").read_text() == ",".join(cli.CSV_COLUMNS) + "\n"


def table_keys(kind):
    """Every key of a config type, nested tables included."""
    if isinstance(kind, cli.Tagged):
        yield kind.tag
        for table in kind.tables.values():
            yield from table_keys(table)
    elif isinstance(kind, dict):
        for key, (sub, _) in kind.items():
            yield key
            yield from table_keys(sub)
    elif isinstance(kind, list):
        yield from table_keys(kind[0])


@pytest.mark.parametrize("command", sorted(cli.TABLES))
def test_readme_documents_every_config_key(command):
    # both ways: every key of the table is in README.md, and the command's
    # bullet of the key list names (as `key`: type) only keys of its table
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    keys = set(table_keys(cli.TABLES[command]))
    missing = sorted(key for key in keys if f"`{key}`" not in readme)
    assert not missing, f"README.md does not document {command} keys {missing}"
    key_list = readme.split("Keys per command.", 1)[1].split("Nested objects", 1)[0]
    (bullet,) = [line for line in key_list.splitlines() if line.startswith(f"* `{command}`: ")]
    named = re.findall(r"`([^`]+)`:", bullet.split(": ", 1)[1])
    assert named, f"README.md lists no keys for {command}"
    stale = sorted(set(named) - keys)
    assert not stale, f"README.md lists {command} keys {stale} that its table lacks"


def test_stationary_state_failure_exits_2(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(fcs, "stationary_state",
                        functools.partial(fcs.stationary_state, max_iter=1))
    cfg = dict(AKLT_CFG, model={"kind": "random", "d_a": 2, "d_b": 2, "seed": 1})
    cfg_path = write_config(tmp_path, "random.json", cfg)
    rc = cli.main(["aklt", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--log-level", "error"])
    assert rc == 2
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    assert "LinAlgError: stationary state iteration" in caplog.records[0].getMessage()


def test_log_level_applies_on_every_call(tmp_path, caplog):
    cfg_path = write_config(tmp_path, "aklt.json", dict(AKLT_CFG, trials=1))
    try:
        for level in ("info", "debug"):
            caplog.clear()
            rc = cli.main(["aklt", "--config", str(cfg_path), "--out", str(tmp_path / level),
                           "--log-level", level])
            assert rc == 0
            levels = {r.levelname for r in caplog.records if r.name == "fcs_spectral"}
            assert ("DEBUG" in levels) == (level == "debug")
            assert "INFO" in levels
    finally:
        logging.getLogger("fcs_spectral").setLevel(logging.NOTSET)


def test_cmd_reconstruct_roundtrip(tmp_path, aklt_realization):
    marginals = {k: marginal(aklt_realization, k) for k in (1, 2, 3)}
    cli.save_marginals(tmp_path / "marginals.json", 3, marginals)
    cfg = {
        "input": str(tmp_path / "marginals.json"),
        "block_size": 1,
        "truncation": {"mode": "rank", "value": 4},
        "sites": [2],
        "output": "realization.json",
        "marginals_output": "rec_marginals.json",
    }
    out = run_cli(tmp_path, "reconstruct", cfg)
    doc = json.loads((out / "realization.json").read_text())
    assert doc["version"] == 1 and doc["m"] == 4 and doc["d_a"] == 3
    sr = realization_from_dict(doc, validate=False)
    assert sr.diagnostics["rank"] == 4
    c = np.zeros(9)
    c[0] = np.sqrt(3.0)
    assert evaluate_word(sr, [c, c]) == pytest.approx(1.0, abs=1e-8)
    d, recs = cli.load_marginals(out / "rec_marginals.json")
    assert d == 3
    assert np.abs(recs[2].matrix - marginals[2].matrix).max() <= 1e-8


def test_save_realization_writes_the_cli_bytes(tmp_path, aklt_realization):
    # the library writer and the reconstruct command give one file format
    marginals = {3: marginal(aklt_realization, 3)}
    cli.save_marginals(tmp_path / "marginals.json", 3, marginals)
    cfg = {"input": str(tmp_path / "marginals.json"), "block_size": 1,
           "truncation": {"mode": "rank", "value": 4}}
    out = run_cli(tmp_path, "reconstruct", cfg)
    od = spectral.build_omega_from_marginal(marginals[3])
    sr = spectral.spectral_realization(od, spectral.truncate(od.omega, rank=4))
    fcs.save_realization(sr, tmp_path / "library.json")
    got = (tmp_path / "library.json").read_bytes()
    assert got == (out / "realization.json").read_bytes()
    assert b"\r" not in got and got.startswith(b'{\n "d_a": 3,')


def reconstruct_from_shots(tmp_path, aklt_realization):
    """Simulate measurement statistics of the 1-3 site AKLT marginals, write
    the marginals document and reconstruct from it via the CLI."""
    from fcs_spectral.fcs import DensityMatrix
    from fcs_spectral.noise import make_rng, simulate_tomography

    rng = make_rng(12)
    marginals = {}
    for k in (1, 2, 3):
        exact = marginal(aklt_realization, k)
        est = simulate_tomography(exact, shots=10 ** 6, rng=rng)
        marginals[k] = DensityMatrix(
            matrix=assemble_from_coefficients(est, gellmann(3), k), dim=3, sites=k)
    cli.save_marginals(tmp_path / "estimated.json", 3, marginals)
    cfg = {
        "input": str(tmp_path / "estimated.json"),
        "block_size": 1,
        "truncation": {"mode": "rank", "value": 4},
        "sites": [3],
        "marginals_output": "rec.json",
    }
    return run_cli(tmp_path, "reconstruct", cfg)


def test_cmd_reconstruct_from_shot_tomography(tmp_path, aklt_realization):
    # full estimation path through the file interface
    out = reconstruct_from_shots(tmp_path, aklt_realization)
    assert (out / "realization.json").exists()
    _, recs = cli.load_marginals(out / "rec.json")
    exact3 = marginal(aklt_realization, 3)
    from fcs_spectral.analysis import trace_distance

    assert trace_distance(recs[3].matrix, exact3.matrix, herm_tol=1e-6) < 0.05


def test_load_realization_learned_from_shots(tmp_path, aklt_realization):
    out = reconstruct_from_shots(tmp_path, aklt_realization)
    loaded = load_realization(out / "realization.json", validate=False)
    doc = json.loads((out / "realization.json").read_text())
    assert np.array_equal(loaded.kappa, np.asarray(doc["kappa"]))
    assert loaded.diagnostics["rank"] == 4
    # an estimate from noisy marginals is not exactly stationary
    with pytest.raises(ValueError, match="stationarity violated"):
        load_realization(out / "realization.json")


def test_cmd_reconstruct_missing_marginal(tmp_path, caplog, aklt_realization):
    marginals = {k: marginal(aklt_realization, k) for k in (1, 2)}
    cli.save_marginals(tmp_path / "marginals.json", 3, marginals)
    cfg_path = write_config(tmp_path, "cfg.json", {
        "input": str(tmp_path / "marginals.json"),
        "block_size": 1,
        "truncation": {"mode": "rank", "value": 4},
    })
    rc = cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path),
                   "--log-level", "error"])
    assert rc == 2
    assert "input lacks the 3-site marginal" in caplog.records[0].getMessage()


@pytest.mark.parametrize("command", ["aklt", "reconstruct"])
def test_rank_deficient_projected_omega_exits_2(tmp_path, caplog, aklt_realization,
                                                command):
    # threshold 1e-20 keeps 8 directions of the exact rank-4 Omega; both
    # learners refuse the four that the inversion would drop
    truncation = {"mode": "threshold", "value": 1e-20}
    if command == "aklt":
        cfg = dict(AKLT_CFG, truncation=truncation, epsilons=[0.0])
    else:
        cli.save_marginals(tmp_path / "marginals.json", 3,
                           {3: marginal(aklt_realization, 3)})
        cfg = {"input": str(tmp_path / "marginals.json"), "block_size": 1,
               "truncation": truncation}
    rc = cli.main([command, "--config", str(write_config(tmp_path, "cfg.json", cfg)),
                   "--out", str(tmp_path / "out"), "--log-level", "error"])
    assert rc == 2
    assert [r.getMessage() for r in caplog.records] == [
        "ValueError: rank-deficient projected Omega"]
    assert all(r.exc_info is None for r in caplog.records)
    assert not list((tmp_path / "out").glob("*"))


def test_cmd_reconstruct_reads_only_the_odd_marginal(tmp_path, aklt_realization):
    full = {k: marginal(aklt_realization, k) for k in (1, 2, 3)}
    cli.save_marginals(tmp_path / "full.json", 3, full)
    cli.save_marginals(tmp_path / "one.json", 3, {3: full[3]})
    cfg = {"block_size": 1, "truncation": {"mode": "rank", "value": 4}, "sites": [2]}
    out_full = run_cli(tmp_path, "reconstruct", dict(cfg, input=str(tmp_path / "full.json")),
                       out="full")
    out_one = run_cli(tmp_path, "reconstruct", dict(cfg, input=str(tmp_path / "one.json")),
                      out="one")
    for name in ("realization.json", "reconstructed_marginals.json"):
        assert (out_full / name).read_bytes() == (out_one / name).read_bytes()


@pytest.mark.parametrize("command", ["aklt", "nonhomog"])
def test_timing_column_zero_by_default(tmp_path, command):
    command, cfg = sweep_config(command)
    rows = read_rows(run_cli(tmp_path, command, cfg) / cfg["output"])
    assert all(float(r["wall_time_ms"]) == 0.0 for r in rows)


@pytest.mark.parametrize("command", ["aklt", "nonhomog"])
def test_timing_flag_records_positive(tmp_path, command):
    command, cfg = sweep_config(command)
    cfg = dict(cfg, timing=True)
    rows = read_rows(run_cli(tmp_path, command, cfg) / cfg["output"])
    assert all(float(r["wall_time_ms"]) > 0.0 for r in rows)
