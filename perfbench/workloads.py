"""Workload definitions: one fcs-spectral CLI config per (workload, seed).

The workload seed picks one of ``POOL`` input sets.  References for every
input set are committed under ``refs/``, so each input the benchmark can
run has been checked at the commit that made the references.
"""

from __future__ import annotations

POOL = 8

# Per workload: the CLI subcommand and the output check: "exact" compares
# every row with the reference, "shots" compares per-(shots, t) mean trace
# distances, because the draw order of the shot simulator may change.  Why
# each workload is in the benchmark is stated in BENCHMARK.json.
WORKLOADS = {
    "ti-dense": {"command": "aklt", "check": "exact"},
    "ti-learn": {"command": "aklt", "check": "exact"},
    "shot-tomo": {"command": "aklt", "check": "shots"},
    "chain": {"command": "nonhomog", "check": "exact"},
}

_AKLT = {"kind": "aklt"}
_RANK4 = {"mode": "rank", "value": 4}


def config(name: str, seed: int, tiny: bool = False) -> dict:
    """CLI config of a workload for a benchmark seed.

    ``tiny`` keeps the inputs but runs one trial per sweep value (and, for
    ti-dense, only t <= 4); its rows are a subset of the full run's rows.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    k = seed % POOL
    if name == "ti-dense":
        cfg = {"model": _AKLT, "truncation": _RANK4, "epsilons": [1e-4, 1e-3, 1e-2],
               "sites": [2, 3, 4, 5, 6, 7], "trials": 1, "workers": 1}
        if tiny:
            cfg["sites"] = [2, 3, 4]
    elif name == "ti-learn":
        cfg = {"model": _AKLT, "block_size": 2, "truncation": _RANK4,
               "epsilons": [0.0, 1e-4, 1e-3, 1e-2], "sites": [2, 3, 4],
               "trials": 100, "workers": 1}
    elif name == "shot-tomo":
        cfg = {"model": _AKLT, "truncation": _RANK4, "noise": {"mode": "shot_multinomial"},
               "shots_sweep": [1000, 10000, 100000], "sites": [2, 3, 4, 5],
               "trials": 4, "workers": 1}
    else:
        cfg = {"chain": {"n_sites": 8, "d_a": 2, "d_b": 2, "seed": 7},
               "left_width": 2, "right_width": 2, "epsilons": [1e-5, 1e-4, 1e-3],
               "trials": 30}
    cfg["seed"] = k
    if tiny:
        cfg["trials"] = 1
    cfg["output"] = "out.csv"
    return cfg


def setup_config(cfg: dict) -> dict:
    """The same command with no trials: import, model, exact data only."""
    return {**cfg, "trials": 0}


def sweep(cfg: dict) -> list[float]:
    """Values of the CSV ``epsilon`` column, one per sweep point."""
    return [float(v) for v in cfg.get("epsilons", cfg.get("shots_sweep", []))]


def sites(cfg: dict) -> list[int]:
    return [int(t) for t in cfg["sites"]] if "sites" in cfg else [int(cfg["chain"]["n_sites"])]


def trials_per_command(cfg: dict) -> int:
    """Trials one command runs: one perturbation reconstructed at every size."""
    return len(sweep(cfg)) * int(cfg["trials"])

