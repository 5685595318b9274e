"""Self-test of the benchmark, run from the repository root:

    python3 -m pytest perfbench/tests -q

Runs every workload at minimal size, traced and untraced, checks that every
metric of BENCHMARK.json is reported, and that corrupted output counts as
failed trials.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _assert_metrics(result: dict, declared: list[dict]):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_contract_lists_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(run.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics(name):
    result = run.measure(name, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_metrics(name):
    result = run.measure(name, seed=3, seconds=0, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, BENCHMARK["per_layer"])
    metrics = result["metrics"]
    assert metrics["cli.main.calls"]["value"] == 1
    layer_ms = sum(metrics[f"layer.{x}.self_ms"]["value"] for x in run.LAYERS)
    assert layer_ms > 0 and metrics["trace.spans"]["value"] > 1


def test_spans_nest_under_cli_main():
    spans = [["cli.main", "cli.main", 0, 100, -1],
             ["linalg.svd", "spectral.svd", 10, 40, 0],
             ["linalg.pseudoinverse", "spectral.pseudoinverse", 50, 90, 0],
             ["linalg.svd", "linalg.svd", 60, 80, 2]]
    values, nested = run.summarize_spans(spans)
    assert nested
    assert values["spectral.svd.calls"] == 1
    assert values["spectral.pseudoinverse.self_ms"] == pytest.approx(20e-6)
    assert values["layer.linalg.self_ms"] == pytest.approx(70e-6)
    assert values["cli.main.self_ms"] == pytest.approx(30e-6)
    assert not run.summarize_spans(spans + [["fcs.marginal", "fcs.marginal", 0, 1, -1]])[1]


@pytest.fixture(scope="module")
def clean_output():
    """A tiny ti-learn command's CSV (it has eps = 0 rows) and its config."""
    run_dir = run.BUILD / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = workloads.config("ti-learn", 5, tiny=True)
    cfg_path = run_dir / "full.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run.Runner(run_dir).cli("aklt", cfg_path, run_dir)
    assert proc.code == 0
    return cfg, (run_dir / cfg["output"]).read_text().splitlines(keepends=True)


def _check(cfg, lines, tmp_path) -> tuple[int, int]:
    path = tmp_path / "out.csv"
    path.write_text("".join(lines))
    return checks.check_command("ti-learn", cfg, path, checks.load_reference("ti-learn"))


def _with_value(line: str, column: str, value: str) -> str:
    fields = line.rstrip("\n").split(",")
    fields[checks.COLUMNS.index(column)] = value
    return ",".join(fields) + "\n"


def test_clean_output_passes(clean_output, tmp_path):
    cfg, lines = clean_output
    assert _check(cfg, lines, tmp_path) == (4, 0)


@pytest.mark.parametrize("corrupt", [
    lambda ls: ls[:1] + [_with_value(ls[1], "trace_distance", "nan")] + ls[2:],
    lambda ls: ls[:5] + [_with_value(ls[5], "hs_distance", "%.12e" % (
        float(ls[5].split(",")[checks.COLUMNS.index("hs_distance")]) * (1 + 1e-4)))] + ls[6:],
    lambda ls: ls[:-1],
    lambda ls: ls + ls[-1:],
    lambda ls: ls[:1] + [_with_value(ls[1], "rank_used", "3")] + ls[2:],
], ids=["non-finite", "off-reference", "missing-row", "extra-row", "wrong-rank"])
def test_corrupted_output_raises_failed(clean_output, tmp_path, corrupt):
    cfg, lines = clean_output
    attempted, failed = _check(cfg, corrupt(list(lines)), tmp_path)
    assert attempted == 4 and failed >= 1


def test_fails_without_program():
    bare = run.BUILD / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
