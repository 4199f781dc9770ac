"""Smoke-scale self-test of the benchmark.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))
from repro.obs.export import validate_chrome_trace_file  # noqa: E402
from run import judge  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def _expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    code, result = _run(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    record = json.loads(
        (ROOT / ".perfbench" / f"run-{workload}-seed5-trace1.json").read_text()
    )
    trace_file = ROOT / record["repetitions"][1]["trace_file"]
    summary = validate_chrome_trace_file(str(trace_file))
    assert summary["spans"] > 0
    tracks = {
        e["args"]["name"]
        for e in json.loads(trace_file.read_text())["traceEvents"]
        if e["ph"] == "M"
    }
    assert {"main", "worker0", "worker3"} <= tracks


def _rep(fingerprint: dict) -> dict:
    return {"fingerprint": fingerprint, "checks": {"mrr_in_unit_interval": True}}


def test_corrupted_fingerprint_is_a_failed_repetition():
    good = {"final_loss": "0x1.0p-1", "mrr": "0x1.0p-3"}
    bad = dict(good, mrr="0x1.0000000000001p-3")
    verdicts = judge([_rep(good), _rep(bad), _rep(good)])
    assert [bool(v) for v in verdicts] == [False, True, False]
    assert "fingerprint" in verdicts[1]


def test_failed_check_and_crash_are_failed_repetitions():
    fp = {"mrr": "0x1.0p-3"}
    broken = {"fingerprint": fp, "checks": {"tier_resident_within_budget": False}}
    verdicts = judge([_rep(fp), broken, {"error": "exit 1: boom"}])
    assert verdicts[0] == ""
    assert "tier_resident_within_budget" in verdicts[1]
    assert verdicts[2] == "exit 1: boom"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    code, result = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0
    assert result is None
