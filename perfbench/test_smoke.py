"""Smoke test of the benchmark at tiny sizes (a few seconds per run).

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced, through the same
command line the benchmark is driven with plus ``--tiny``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, tiny=True):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]
    if tiny:
        cmd.append("--tiny")
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_checks_pass(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout + out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == wanted
    for name, unit in wanted.items():
        printed = [ln.split() for ln in lines if ln.split()[:1] == [name]]
        assert len(printed) == 1 and printed[0][2] == unit, name

    assert "threads after warm GEMM: 1" in lines[0]
    assert any(ln.startswith("phase check: ") and ln.endswith(" 0 failed") for ln in lines)
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
        assert any(ln.startswith("training (informational") for ln in lines)
        assert any(ln.startswith("headline") for ln in lines) == (workload == "eta")
        return
    values = {n: m["value"] for n, m in metrics.items()}
    assert values["fingerprint.serve_hash_rows"] == 0  # serving reads the table
    assert values["trace.absent_hooks"] == 0
    retrieval = [v for n, v in values.items() if n.startswith("retrieval.")]
    if workload == "eta":
        assert all(v > 0 for v in retrieval)
        assert values["fingerprint.train_hash_rows"] > 0
    else:
        assert all(v == 0 for v in retrieval)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, WORKLOADS[0], 0, tiny=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
