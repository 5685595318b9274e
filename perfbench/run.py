#!/usr/bin/env python3
"""Benchmark of the fcs-spectral CLI, run from the repository root:

    python3 perfbench/run.py --workload ti-dense --seed 1 --seconds 25 --trace 0

Each command is one fresh ``python3 -m fcs_spectral.cli`` process on the
package in ``src/``, as a user runs it, on a config made from the seed (see
workloads.py).  Every output CSV is checked against the committed references
(see checks.py).

``--trace 0`` alternates full commands with zero-trial set-up commands for
``--seconds`` and reports end-to-end medians:

    wall_s        wall time of one command, process start to exit
    setup_s       wall time of the same command with "trials": 0
    trials_per_s  trials per command / (wall_s - setup_s)
    cpu_s         user + sys time of the command's process tree
    peak_rss_mb   largest ru_maxrss of any process of the command

``--trace 1`` runs untraced commands for half of ``--seconds``, then one
command in-process under tracer.py, and reports per-function call counts and
self times, per-module self times and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it show every metric with its
unit, ``failed_frac`` and the run manifest.  Run artefacts go to
``.bench_build/perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402

# Zero-trial commands run after each full command; set-up is ~0.2 s and
# mostly interpreter start and numpy import, so it needs many samples.
SETUPS_PER_FULL = 3
# Every process is killed once the benchmark has run this long, so the
# benchmark always ends within its 180 s limit.
DEADLINE_S = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

# Per-layer metrics: each name is a function (every call of it, whichever
# module namespace it was called through) or a call site such as
# ``spectral.svd``, the calls that went through spectral's binding of
# ``linalg.svd``.
TRACED = (
    "cli.main",
    "analysis.trace_distance_from_coefficients",
    "opbasis.assemble_from_coefficients",
    "fcs.word_coefficient_tensor",
    "spectral.reconstruct_coefficients",
    "spectral.build_omega",
    "noise.perturb_omega_data",
    "spectral.truncate",
    "spectral.spectral_realization",
    "analysis.surrogate_parameters",
    "spectral.svd",
    "spectral.pseudoinverse",
    "noise.simulate_tomography",
    "fcs.marginal",
    "spectral.nonhomog_reconstruct",
    "spectral.NonhomogReconstruction.coefficients",
    "noise.perturb_chain_omega",
    "analysis.sigma_m",
    "fcs.chain_state",
    "spectral.build_chain_omega",
    "opbasis.expand_in_basis",
)
LAYERS = ("cli", "fcs", "spectral", "noise", "analysis", "opbasis", "linalg")


PER_LAYER = {
    **{f"{name}.{stat}": unit for name in TRACED
       for stat, unit in (("calls", "count"), ("self_ms", "ms"))},
    **{f"layer.{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
}


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


class Runner:
    """Starts the processes of one benchmark run and waits for each."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["TMPDIR"] = str(run_dir)

    def start(self, argv: list[str], log_name: str) -> Process:
        limit = max(self.deadline - time.monotonic(), 1.0)
        with open(self.run_dir / log_name, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=log)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            # wait4 reports the rusage of the child and of every descendant
            # it waited for, so cpu_s and peak_rss_mb cover the process tree.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Process(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       proc.returncode)

    def cli(self, command: str, cfg_path: Path, out_dir: Path) -> Process:
        return self.start([sys.executable, "-m", "fcs_spectral.cli", command,
                           "--config", str(cfg_path), "--out", str(out_dir)],
                          f"{cfg_path.stem}.stderr")

    def traced_cli(self, command: str, cfg_path: Path, out_dir: Path, spans: Path) -> Process:
        return self.start([sys.executable, str(HERE / "tracer.py"), str(SRC), str(spans), "--",
                           command, "--config", str(cfg_path), "--out", str(out_dir)],
                          "traced.stderr")

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


class Workload:
    """One workload's configs, references and operation counts in a run."""

    def __init__(self, name: str, seed: int, runner: Runner, tiny: bool):
        self.name, self.runner = name, runner
        self.command = workloads.WORKLOADS[name]["command"]
        self.cfg = workloads.config(name, seed, tiny=tiny)
        self.ref = checks.load_reference(name)
        self.cfg_path = runner.run_dir / "full.json"
        self.setup_path = runner.run_dir / "setup.json"
        self.cfg_path.write_text(json.dumps(self.cfg))
        self.setup_path.write_text(json.dumps(workloads.setup_config(self.cfg)))
        self.attempted = self.failed = 0

    def full(self, out_dir: Path, spans: Path | None = None) -> Process:
        """One full command, traced into ``spans`` if given, and checked;
        every trial fails on a non-zero exit."""
        out = out_dir / self.cfg["output"]
        out.unlink(missing_ok=True)
        if spans is None:
            proc = self.runner.cli(self.command, self.cfg_path, out_dir)
        else:
            proc = self.runner.traced_cli(self.command, self.cfg_path, out_dir, spans)
        attempted, failed = checks.check_command(self.name, self.cfg, out, self.ref)
        self.attempted += attempted
        self.failed += attempted if proc.code != 0 else failed
        return proc

    def setup(self, out_dir: Path) -> Process:
        """One zero-trial command; it counts as one operation."""
        out = out_dir / self.cfg["output"]
        out.unlink(missing_ok=True)
        proc = self.runner.cli(self.command, self.setup_path, out_dir)
        self.attempted += 1
        self.failed += int(proc.code != 0 or not checks.check_setup(out))
        return proc


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    run_dir = BUILD / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    runner = Runner(run_dir)
    wl = Workload(name, seed, runner, tiny)
    out_dir = run_dir / "out"
    wl.setup(out_dir)   # warm-up: bytecode cache and file cache, not measured
    manifest = run_manifest(name, seed, wl.cfg)
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    print("manifest: " + json.dumps(manifest, sort_keys=True), flush=True)
    if trace:
        metrics, ok = traced_run(wl, seconds, out_dir)
    else:
        metrics, ok = untraced_run(wl, seconds, out_dir)
    failed_frac = wl.failed / max(wl.attempted, 1)
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac = {failed_frac:.6g} fraction "
          f"({wl.failed} of {wl.attempted} operations)", flush=True)
    return {"correct": ok and wl.failed == 0, "attempted": wl.attempted,
            "failed": wl.failed, "metrics": metrics}


def untraced_run(wl: Workload, seconds: float, out_dir: Path) -> tuple[dict, bool]:
    fulls, setups = [], []
    t0 = time.perf_counter()
    while not wl.runner.out_of_time():
        fulls.append(wl.full(out_dir))
        setups.extend(wl.setup(out_dir) for _ in range(SETUPS_PER_FULL))
        if time.perf_counter() - t0 >= seconds:
            break
    samples = {"full": [vars(p) for p in fulls], "setup": [vars(p) for p in setups]}
    (wl.runner.run_dir / "samples.json").write_text(json.dumps(samples, indent=1))
    wall = statistics.median(p.wall_s for p in fulls)
    setup = statistics.median(p.wall_s for p in setups)
    values = {
        "wall_s": wall,
        "setup_s": setup,
        "trials_per_s": workloads.trials_per_command(wl.cfg) / max(wall - setup, 1e-9),
        "cpu_s": statistics.median(p.cpu_s for p in fulls),
        "peak_rss_mb": statistics.median(p.rss_mb for p in fulls),
    }
    print(f"{wl.name}: {len(fulls)} full and {len(setups)} set-up commands in "
          f"{time.perf_counter() - t0:.1f} s")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, True


def traced_run(wl: Workload, seconds: float, out_dir: Path) -> tuple[dict, bool]:
    walls = []
    t0 = time.perf_counter()
    while not wl.runner.out_of_time():
        walls.append(wl.full(out_dir).wall_s)
        if time.perf_counter() - t0 >= seconds / 2:
            break
    spans_path = wl.runner.run_dir / "spans.json"
    proc = wl.full(out_dir, spans=spans_path)
    try:
        spans = json.loads(spans_path.read_text())["spans"]
    except (OSError, ValueError, KeyError):
        spans = []
    values, nested = summarize_spans(spans)
    values["trace.overhead_ms"] = (proc.wall_s - statistics.median(walls)) * 1e3
    if nested:
        main_ms = sum(values[f"layer.{x}.self_ms"] for x in LAYERS)
        share = (values["layer.analysis.self_ms"] + values["layer.opbasis.self_ms"]) / main_ms
        print(f"{wl.name}: analysis + opbasis self time is {share:.1%} of cli.main "
              f"({main_ms:.0f} ms); traced command {proc.wall_s:.3f} s, untraced median "
              f"{statistics.median(walls):.3f} s over {len(walls)}")
    else:
        print(f"{wl.name}: spans do not all nest under one cli.main span", file=sys.stderr)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, nested


def summarize_spans(spans: list) -> tuple[dict, bool]:
    """Per-name calls and self times; self time is a span's duration minus
    the time its child spans cover (children of one span never overlap)."""
    child_ns = [0] * len(spans)
    for name, site, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ms, layer_ms = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (name, site, start, end, parent) in enumerate(spans):
        own = (end - start - child_ns[i]) / 1e6
        layer_ms[name.split(".")[0]] += own
        for key in {name, site}:
            calls[key] += 1
            self_ms[key] += own
    roots = [s for s in spans if s[4] < 0]
    nested = len(roots) == 1 and roots[0][0] == "cli.main"
    values = {"trace.spans": len(spans)}
    for name in TRACED:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_ms"] = self_ms[name]
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms"] = layer_ms[layer]
    return values, nested


def run_manifest(name: str, seed: int, cfg: dict) -> dict:
    """What the result depends on besides the code: machine and libraries."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fcs_spectral").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "config_seed": cfg["seed"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k, "unset")
                     for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fcs_spectral" / "cli.py").is_file():
        print(f"perfbench: no fcs_spectral package under {SRC}; run from a repository "
              f"checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
