#!/usr/bin/env python3
"""Regenerate the committed references in perfbench/refs/ from src/:

    python3 perfbench/make_refs.py [workload ...]

Runs each workload's full config once for every pooled input set.  Gaussian
workloads store every row (values to 10 significant digits, well inside the
1e-6 tolerance of checks.py).  Shot tomography stores the mean trace distance
of each (shots, t) cell over all input sets and trials, and the worst ratio of
one input set's cell mean to it, the margin that SHOT_FACTOR must cover.
Only regenerate on purpose: the references define correct output.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import shutil
import sys
from collections import defaultdict

import checks
import run
import workloads


def outputs(name: str) -> list[dict]:
    """Parsed rows of every pooled input set; fails on any error."""
    run_dir = run.BUILD / f"refs-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    runner = run.Runner(run_dir)
    rows = []
    for k in range(workloads.POOL):
        cfg = workloads.config(name, k)
        cfg_path = run_dir / f"seed{k}.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = runner.cli(workloads.WORKLOADS[name]["command"], cfg_path, run_dir / "out")
        got = checks.read_rows(run_dir / "out" / cfg["output"])
        want = workloads.trials_per_command(cfg) * len(workloads.sites(cfg))
        if proc.code != 0 or got is None or len(got) != want:
            sys.exit(f"{name} seed {k}: exit {proc.code}, expected {want} rows")
        rows += got
        print(f"{name} seed {k}: {len(got)} rows in {proc.wall_s:.2f} s", flush=True)
    return rows


def write_exact(name: str, rows: list[dict]):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(checks.REF_COLUMNS)
    for r in rows:
        if float(r["epsilon"]) == 0.0 and float(r["trace_distance"]) > checks.EXACT_TD:
            sys.exit(f"{name}: exact round trip failed: {r}")
        writer.writerow([r[c] if c not in checks.VALUE_COLUMNS else "%.9e" % float(r[c])
                         for c in checks.REF_COLUMNS])
    with open(checks.REFS / f"{name}.csv.gz", "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(buf.getvalue().encode("utf-8"))


def write_shots(name: str, rows: list[dict]):
    cells, per_seed = defaultdict(list), defaultdict(list)
    for r in rows:
        cell = (f"{float(r['epsilon']):g}", r["sites"])
        cells[cell].append(float(r["trace_distance"]))
        per_seed[cell + (r["seed"],)].append(float(r["trace_distance"]))
    mean = {cell: sum(v) / len(v) for cell, v in cells.items()}
    worst = max(max(m, 1 / m) for key, v in per_seed.items()
                for m in [sum(v) / len(v) / mean[key[:2]]])
    doc = {
        "model": rows[0]["model"],
        "rank_used": int(rows[0]["rank_used"]),
        "mean_td": {shots: {t: mean[(shots, t)] for (s, t) in mean if s == shots}
                    for shots in sorted({s for s, _ in mean}, key=float)},
        "samples_per_cell": len(next(iter(cells.values()))),
        "worst_input_set_ratio": worst,
    }
    if worst * 1.25 > checks.SHOT_FACTOR:
        sys.exit(f"{name}: cell means vary by {worst:.3f}x, too close to SHOT_FACTOR")
    with open(checks.REFS / f"{name}.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(names: list[str]) -> int:
    checks.REFS.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        rows = outputs(name)
        if workloads.WORKLOADS[name]["check"] == "shots":
            write_shots(name, rows)
        else:
            write_exact(name, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
