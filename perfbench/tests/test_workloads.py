"""A tiny pass of every workload emits every named metric, answers checked."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small enough for a second or two per pass; p90 needs only 100 queries.
TINY = {
    "hotspot-delta64": dict(elements=4000, side=10.0, queries=40, warmup=10,
                            setups=2, pool_share=0.2, tail_percentile=90.0),
    "sessions-prefetch": dict(elements=4000, side=10.0, sessions=2,
                              session_length=12, setups=2, tail_percentile=90.0),
    "churn": dict(elements=3000, side=8.0, queries=30, batch=50,
                  delta_threshold=200, batches_per_episode=6, queries_per_batch=4,
                  setups=2, tail_percentile=90.0),
}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = {layer.name for layer in layers.LAYERS}
    for metric in SPEC["per_layer"]:
        assert any(metric["name"].startswith(f"{name}.") for name in names), metric


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_pass_emits_every_metric_with_its_unit(name, trace, tmp_path):
    lines = []
    result = run.run(name, 3, 0.3, trace, tmp_path, TINY[name], out=lines.append)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0
        assert any("modelled storage.diskmodel.modeled_io_ms_per_query" in line
                   for line in lines)


def test_without_program_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
