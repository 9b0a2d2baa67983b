"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every end-to-end metric the run prints, with its unit.
PRINTED = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "run_s": "s",
    "run_ref": "ref",
    "peak_rss_mb": "MiB",
    "peak_rss_workers_mb": "MiB",
    "fail_frac": "ratio",
    "repair_cost": "cost",
    "cells_changed": "count",
}
TINY = ["--seed", "3", "--seconds", "0.2"]
#: Generated tuples per workload in the tests.
TINY_ROWS = {"tableau_clean": 20, "fd_clean": 400, "fd_clean_sharded": 200, "detect_stream": 100}


@pytest.fixture
def tiny(monkeypatch):
    """Tiny workloads, and none of the variables the benchmark refuses."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    for name, rows in TINY_ROWS.items():
        workload = dataclasses.replace(workloads.WORKLOADS[name], rows=rows)
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)


def bench_in_process(capsys, *args: str) -> str:
    """Standard output of a run in this process; the run must exit with 0."""
    assert bench_run.main(list(args)) == 0
    return capsys.readouterr().out


def clean_env() -> dict:
    return {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}


def bench(*args: str, cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


def printed_metrics(stdout: str) -> dict:
    """``name -> (value, unit)`` of the ``name value unit`` lines."""
    metrics = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split(" ")
        if len(parts) == 3:
            try:
                metrics[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return metrics


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert end_to_end == {name: PRINTED[name] for name in end_to_end}
    assert end_to_end["setup_s"] == "s"
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_runs_and_prints_every_metric(workload, tiny, capsys):
    out = bench_in_process(capsys, "--workload", workload, "--trace", "0", *TINY)
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = printed_metrics(out)
    assert {name: printed[name][1] for name in PRINTED} == PRINTED
    assert printed["fail_frac"][0] == 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload, tiny, capsys):
    out = bench_in_process(capsys, "--workload", workload, "--trace", "1", *TINY)
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == tracing.PER_LAYER
    # The root span is covered by the layer spans below it.
    assert metrics["trace.accounted_frac"]["value"] > 0.9
    if workload == "fd_clean_sharded":
        # Tiny inputs may need no repair; detection always runs.
        assert metrics["parallel.detect.shards"]["value"] >= 1
        assert metrics["parallel.detect.mode"]["value"] in (1, 2)


def test_tableau_repair_reevaluates_every_pattern_per_change(tiny, monkeypatch, capsys):
    workload = dataclasses.replace(workloads.WORKLOADS["tableau_clean"], rows=100)
    monkeypatch.setitem(workloads.WORKLOADS, "tableau_clean", workload)
    out = bench_in_process(
        capsys, "--workload", "tableau_clean", "--trace", "1", "--seed", "0", "--seconds", "0.2"
    )
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    assert metrics["result.cells_changed"]["value"] > 0
    assert metrics["repair.patterns_per_change"]["value"] == 2700


@pytest.mark.parametrize("workload", ["tableau_clean", "detect_stream"])
def test_output_mismatch_counts_as_failure(workload, tiny, monkeypatch, capsys):
    counter = iter(range(10**6))
    digest = lambda output: f"digest-{next(counter)}"  # noqa: E731
    monkeypatch.setattr(workloads, "output_digest", lambda workload, output: digest(output))
    monkeypatch.setattr(workloads, "report_digest", digest)
    out = bench_in_process(capsys, "--workload", workload, "--trace", "0", *TINY)
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert printed_metrics(out)["fail_frac"] == (1.0, "ratio")


def test_refuses_when_code_path_variables_are_set():
    env = {**clean_env(), "REPRO_KERNEL": "python"}
    done = bench("--workload", "fd_clean", "--trace", "0", *TINY, cwd=ROOT, env=env)
    assert done.returncode != 0
    assert "REPRO_KERNEL" in done.stderr
    assert '"correct"' not in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fd_clean", "--trace", "0", *TINY, cwd=tmp_path, env=clean_env())
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench_run.tail_percentile([1.0] * 19) is None
    assert bench_run.tail_percentile(list(map(float, range(20))))[0] == 50
    assert bench_run.tail_percentile(list(map(float, range(100))))[0] == 90


def test_inputs_match_the_pinned_hashes(tmp_path):
    workload = workloads.WORKLOADS["tableau_clean"]
    hashes = workloads.build_inputs(workload, 0, tmp_path).hashes
    assert bench_run.pinned_status(workload.name, workload.rows, 0, hashes) == "match"
    assert bench_run.pinned_status(workload.name, 20, 0, hashes) == "unpinned"
