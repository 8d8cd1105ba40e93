"""Self-test of the benchmark; run from the repository root with

    PYTHONPATH=src python -m pytest -q perfbench/tests

It runs one short pass of every workload, traced and untraced (about a
minute, most of it the n=6 ladder).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH = REPO / "perfbench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(REPO, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in lines[:-1]), f"{metric['name']} missing from the table"


def test_wrong_expected_verdict_counts_as_failure():
    modules, check_proof_document = worker.load_program(REPO)
    problems = workloads.generate("corpus_n3", seed=3)
    flipped = {workloads.PROVEN: workloads.NOT_PROVABLE, workloads.NOT_PROVABLE: workloads.PROVEN}
    wrong = dataclasses.replace(problems[0], verdict=flipped[problems[0].verdict])
    calls = [(p, p.argv()) for p in [wrong] + problems[1:]]
    tally = worker.Tally(worker.Checker(check_proof_document))
    _, records = worker.run_pass(modules["cli"].main, calls)
    tally.add(records)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0
    assert tally.failures[0].startswith(f"{wrong.id}: exit code")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "corpus_n3", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
