"""Self-test of the benchmark: every workload at a tiny size.

    python -m pytest perfbench/test_selftest.py -q

Asserts that each run exits 0 and that its last line names exactly the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``), with finite values and their units; and that
the benchmark refuses to run where the program's source is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "3",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "general-cold", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_ledger_self_time_and_unattributed():
    # parent [0, 4) with children [1, 2) and [2, 3.5); wall 5.
    spans = [["a", 0.0, 4.0, -1], ["b", 1.0, 2.0, 0], ["b", 2.0, 3.5, 0]]
    rows = {r["layer"]: r for r in ledger(spans, 5.0)}
    assert rows["a"]["self_s"] == pytest.approx(1.5)
    assert rows["a"]["inclusive_s"] == pytest.approx(4.0)
    assert rows["b"]["self_s"] == pytest.approx(2.5)
    assert rows["b"]["calls"] == 2
    assert rows["unattributed"]["self_s"] == pytest.approx(1.0)
    assert rows["a"]["pct_wall"] == pytest.approx(80.0)
