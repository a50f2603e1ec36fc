"""`python bench/run.py --smoke`: all five workloads, all checks, under 30 s."""

import json
import subprocess
import sys
import time
from pathlib import Path

from bench import metrics

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_runs_every_workload_and_every_check():
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0
    summary = json.loads(done.stdout.strip().splitlines()[-1].removeprefix("summary "))
    assert summary == {"failed_operations": 0, "claim": None}
    result = json.loads((ROOT / "bench" / "out" / "smoke.json").read_text())
    assert list(result["workloads"]) == list(metrics.ALL)
    for row in result["workloads"].values():
        assert row["failed_share"] == 0.0 and row["digest"]
        assert set(row["metrics"]) == {m.name for m in metrics.END_TO_END}
        assert all(entry["value"] > 0 for entry in row["metrics"].values())
    assert result["provenance"]["crypto_backend"] == "pure"


def test_one_traced_workload_reports_every_layer_metric():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "program_mix",
         "--seed", "7", "--smoke", "--trace", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in metrics.PER_LAYER}
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["bench.trace_coverage"] >= 0.95
    assert values["bench.trace_targets_missing"] == 0
    assert values["mpc.engine.mul_calls"] == values["mpc.engine.multiplications"] > 0
    assert values["runtime.journal.records"] == 0  # no journal in this workload
