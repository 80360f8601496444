"""The benchmark's own tests: smoke runs on tiny inputs and fault injection.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _metric_units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("env ") for line in lines)


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_divided_by_the_host_slowdown_they_ran_under():
    result, _ = run.run_benchmark("spectral", 3, 0.0, False, small=True)
    record = json.loads((run.OUT / "spectral" / "result.json").read_text())
    measured, slowdown = record["measured"], record["slowdown"]
    assert len(record["wall_s"]) == len(slowdown["pass"]) == run.MIN_PASSES
    assert len(record["setup_s"]) == len(slowdown["setup"]) == (run.MIN_PASSES + 1) // 2
    assert all(f > 0 for f in slowdown["pass"] + slowdown["setup"])
    for raw, norm, f in zip(measured["wall"], record["wall_s"], slowdown["pass"]):
        assert raw / norm == pytest.approx(f)
    for raw, norm, f in zip(measured["setup"], record["setup_s"], slowdown["setup"]):
        assert raw / norm == pytest.approx(f)
    assert result["metrics"]["wall_s"]["value"] == statistics.median(record["wall_s"])


def test_wrong_verdict_counts_as_failure(monkeypatch):
    import nhlab.cli

    real = nhlab.cli.winding_number

    def wrong_winding(tracked, **kwargs):
        res = real(tracked, **kwargs)
        return type(res)(winding=res.winding + 1.0, closure_period=res.closure_period,
                         trajectory=res.trajectory, eps_enclosed=res.eps_enclosed)

    monkeypatch.setattr(nhlab.cli, "winding_number", wrong_winding)
    result, lines = run.run_benchmark("figures", 3, 0.0, False, small=True)
    assert not result["correct"]
    # The winding item fails in every pass, including the warm-up.
    assert result["failed"] == run.MIN_PASSES + 1
    assert any("winding" in line and "failed" in line for line in lines)


def test_altered_artifact_counts_as_failure(monkeypatch):
    import nhlab.cli

    real = nhlab.cli.write_json
    calls = []

    def drifting_json(path, obj):
        calls.append(path)
        real(path, obj | {"call": len(calls)} if Path(path).name == "disorder_summary.json"
             else obj)

    monkeypatch.setattr(nhlab.cli, "write_json", drifting_json)
    result, lines = run.run_benchmark("disorder", 3, 0.0, False, small=True)
    assert not result["correct"]
    # Every pass after the first writes summaries that differ from it, one
    # per disorder target.
    assert result["failed"] == 3 * run.MIN_PASSES
    assert any("artifacts differ" in line for line in lines)
