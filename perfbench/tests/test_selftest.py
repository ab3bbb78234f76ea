"""Self-test of the benchmark command on tiny worlds.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from probes import LAYER_UNITS  # noqa: E402
from run import END_TO_END, WORKLOAD_ONLY  # noqa: E402

#: Workload-specific end-to-end metrics each workload must print.
EXTRA = {
    "paper_reads": ("error_rate",),
    "point_ops": ("write_p50_ms", "write_p95_ms", "error_rate", "disk_mb", "recovery_s"),
    "policy_churn": ("write_p50_ms", "write_p95_ms", "policy_p50_ms", "error_rate", "disk_mb"),
}


def bench(*args: str, cwd: Path = ROOT, env: "dict | None" = None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def tiny(workload: str, *extra: str):
    return bench("--workload", workload, "--seed", "3", "--seconds", "2",
                 "--size", "tiny", *extra)


def printed(stdout: str) -> dict[str, str]:
    """``name -> unit`` of every ``name value unit`` line."""
    lines = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            lines[parts[0]] = parts[2]
    return lines


@pytest.mark.parametrize("workload", sorted(EXTRA))
def test_prints_every_end_to_end_metric(workload):
    proc = tiny(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == END_TO_END[name] and entry["value"] > 0
    units = {**END_TO_END, **WORKLOAD_ONLY}
    lines = printed(proc.stdout)
    for name in (*END_TO_END, *EXTRA[workload]):
        assert lines.get(name) == units[name], name


@pytest.mark.parametrize("workload", sorted(EXTRA))
def test_traced_run_prints_every_layer_metric(workload):
    proc = tiny(workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == LAYER_UNITS
    assert printed(proc.stdout) == LAYER_UNITS
    spans = ROOT / ".perfbench" / "traces" / f"{workload}-seed3"
    assert any(path.stat().st_size for path in spans.glob("*spans.jsonl"))


def test_paper_reads_check_catches_a_dropped_conjunct():
    proc = tiny("paper_reads", "--inject-bug", "drop-conjunct")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_refuses_an_inherited_mode_variable():
    proc = bench("--workload", "policy_churn", "--seed", "1", "--seconds", "1",
                 "--size", "tiny", env={**os.environ, "REPRO_EXECUTOR": "row"})
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "paper_reads", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
