"""Output checks: every CLI output CSV is compared with the committed
references, and each trial counts as failed when any of its rows is
missing, non-finite or off the reference.

Tolerances, fixed before any optimisation of the program:

* gaussian workloads ("exact"): every column except ``wall_time_ms`` within
  ``REL_TOL`` relative (``ABS_TOL`` absolute floor) of the reference, so a
  reordered floating-point sum still passes; eps = 0 rows must reconstruct
  exactly (trace distance <= ``EXACT_TD``);
* shot tomography ("shots"): the mean trace distance of each (shots, t) cell
  within a factor ``SHOT_FACTOR`` of the reference mean over all pooled input
  sets, so a new draw order of the same statistical model still passes;
* everywhere: exact row counts and keys, the seed, model and rank columns
  exact, every value finite and ``td_per_site`` equal to ``td / t``.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from collections import defaultdict
from pathlib import Path

import workloads

COLUMNS = ("model", "sites", "epsilon", "seed", "trial", "trace_distance",
           "hs_distance", "sigma_m", "rank_used", "bound_surrogate",
           "wall_time_ms", "td_per_site")
REF_COLUMNS = COLUMNS[:10]
VALUE_COLUMNS = ("trace_distance", "hs_distance", "sigma_m", "bound_surrogate")

REL_TOL = 1e-6
ABS_TOL = 1e-12
EXACT_TD = 1e-12
SHOT_FACTOR = 2.0

REFS = Path(__file__).resolve().parent / "refs"


def _close(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def read_rows(path: Path) -> list[dict] | None:
    """Rows of a CLI CSV as dicts; None when missing or not of the CLI's shape."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
    except OSError:
        return None
    if not table or tuple(table[0]) != COLUMNS or any(len(r) != len(COLUMNS) for r in table[1:]):
        return None
    return [dict(zip(COLUMNS, r)) for r in table[1:]]


def _parse(row: dict) -> dict | None:
    """Typed row; None when a value does not parse or is not finite."""
    try:
        out = {"model": row["model"]}
        for c in ("sites", "seed", "trial", "rank_used"):
            out[c] = int(row[c])
        for c in ("epsilon", "wall_time_ms", "td_per_site") + VALUE_COLUMNS:
            out[c] = float(row[c])
    except ValueError:
        return None
    if not all(math.isfinite(v) for v in out.values() if isinstance(v, float)):
        return None
    return out


def load_reference(name: str):
    """Committed reference of a workload (see make_refs.py)."""
    if workloads.WORKLOADS[name]["check"] == "shots":
        with open(REFS / f"{name}.json", encoding="utf-8") as fh:
            return json.load(fh)
    ref = {}
    with gzip.open(REFS / f"{name}.csv.gz", "rt", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != REF_COLUMNS:
            raise ValueError(f"reference of {name} has an unexpected header")
        for row in reader:
            r = dict(zip(REF_COLUMNS, row))
            key = (int(r["seed"]), float(r["epsilon"]), int(r["trial"]), int(r["sites"]))
            ref[key] = r
    return ref


def _row_matches(got: dict, ref: dict) -> bool:
    return (got["model"] == ref["model"]
            and got["rank_used"] == int(ref["rank_used"])
            and all(_close(got[c], float(ref[c])) for c in VALUE_COLUMNS))


def check_command(name: str, cfg: dict, csv_path: Path, ref) -> tuple[int, int]:
    """(attempted, failed) trials of one command's output."""
    expected = {(eps, trial) for eps in workloads.sweep(cfg) for trial in range(int(cfg["trials"]))}
    want_sites = sorted(workloads.sites(cfg))
    attempted = len(expected)
    rows = read_rows(csv_path)
    if rows is None:
        return attempted, attempted
    by_trial = defaultdict(list)
    for raw in rows:
        try:
            key = (float(raw["epsilon"]), int(raw["trial"]))
        except ValueError:
            key = None
        if key not in expected:
            return attempted, attempted
        by_trial[key].append(_parse(raw))
    bad = set()
    seed = int(cfg["seed"])
    kind = workloads.WORKLOADS[name]["check"]
    for key in expected:
        got = by_trial.get(key, [])
        if (any(r is None for r in got) or sorted(r["sites"] for r in got) != want_sites
                or not all(_row_ok(r, seed, kind, ref) for r in got)):
            bad.add(key)
    if kind == "shots":
        bad |= _off_mean_cells(by_trial, expected, ref)
    return attempted, len(bad)


def _row_ok(row: dict, seed: int, kind: str, ref) -> bool:
    if row["seed"] != seed or not _close(row["td_per_site"], row["trace_distance"] / row["sites"],
                                         rel=1e-9, abs_=0.0):
        return False
    if kind == "shots":
        return (row["model"] == ref["model"] and row["rank_used"] == ref["rank_used"]
                and row["trace_distance"] > 0.0)
    r = ref.get((seed, row["epsilon"], row["trial"], row["sites"]))
    if r is None or not _row_matches(row, r):
        return False
    return row["epsilon"] != 0.0 or row["trace_distance"] <= EXACT_TD


def _off_mean_cells(by_trial, expected, ref) -> set:
    """Trials of every (shots, t) cell whose mean trace distance is off."""
    cells = defaultdict(list)
    for (shots, trial), got in by_trial.items():
        for r in got:
            if r is not None:
                cells[(shots, r["sites"])].append(r["trace_distance"])
    bad = set()
    for (shots, t), tds in cells.items():
        want = ref["mean_td"].get(f"{shots:g}", {}).get(str(t))
        mean = sum(tds) / len(tds)
        if want is None or not want / SHOT_FACTOR <= mean <= want * SHOT_FACTOR:
            bad |= {key for key in expected if key[0] == shots}
    return bad


def check_setup(csv_path: Path) -> bool:
    """A zero-trial command writes the header and no rows."""
    return read_rows(csv_path) == []
