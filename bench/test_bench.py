"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# named end-to-end metrics printed on the report lines, per workload
NAMED = {
    "train-dense": ["train_steps_per_s.mlp", "train_steps_per_s.bimodal",
                    "train_steps_per_s.physics", "eval_rows_per_s"],
    "train-cnn": ["train_steps_per_s.cnn", "eval_rows_per_s"],
    "sweep": ["sweep_cells_per_s"],
    "analyze": ["save_records_per_s", "analyze_records_per_s", "replay_samples_per_s"],
}
COMMON = ["setup_s", "failed_ops_ratio", "peak_rss_mb"]


def _arch_layers(*archs):
    return [f"{m}.{a}" for a in archs for m in
            ("tensor.backward_ms", "tensor.adam_ms", "tensor.graph_nodes",
             "models.forward_ms", "objective.energy_ms", "training.eval_share")]


_TRAINING = ["tensor.softmax_ce_ms", "models.build_ms", "objective.dataset_energy_ms",
             "training.eval_ms", "training.self_share", "training.steps",
             "records.save_ms", "records.bytes_per_record", "datasets.synth_ms"]
# per-layer metrics each workload exercises, so they must be positive
EXERCISED = {
    "train-dense": _arch_layers("mlp", "bimodal", "physics") + _TRAINING,
    "train-cnn": _arch_layers("cnn") + _TRAINING + ["tensor.conv2d_ms",
                                                    "tensor.max_pool2_ms"],
    "sweep": _arch_layers("bimodal") + _TRAINING + ["sweep.cell_ms", "sweep.self_ms",
                                                    "records.load_ms"],
    "analyze": ["records.save_ms", "records.load_ms", "records.bytes_per_record",
                "records.loaded_ratio", "stats.tukey_ms", "stats.anova_ms",
                "stats.bootstrap_ms", "stats.calls", "analysis.analyze_ms",
                "analysis.self_ms", "power.replay_ms", "power.integrate_ms",
                "power.phase_excess_j", "datasets.synth_ms"],
}


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def report(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for ln in stdout.splitlines():
        parts = ln.split()
        if parts and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_passes_checks(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = LAYERS if trace else E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    for name in EXERCISED[workload] if trace else []:
        assert result["metrics"][name]["value"] > 0, name
    lines = report(proc.stdout)
    for name in NAMED[workload] + COMMON:
        assert name in lines, name
    assert all(lines[n][1] == "1/s" and lines[n][0] > 0 for n in NAMED[workload])
    assert lines["failed_ops_ratio"] == (0.0, "ratio")


def test_known_defects_stay_visible():
    """The sweep reads none of its own records back; phases overcount joules."""
    sweep = json.loads(run("--workload", "sweep", "--seed", "4", "--seconds", "1",
                           "--trace", "1", "--tiny").stdout.splitlines()[-1])
    assert sweep["metrics"]["records.loaded_ratio"]["value"] == 0.0
    analyze = json.loads(run("--workload", "analyze", "--seed", "4", "--seconds", "1",
                             "--trace", "1", "--tiny").stdout.splitlines()[-1])
    assert analyze["metrics"]["power.phase_excess_j"]["value"] > 0.0


def test_all_prints_every_named_metric():
    proc = run("--workload", "all", "--seed", "5", "--seconds", "1", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for workload, names in NAMED.items():
        for name in names + COMMON:
            assert f"{workload}/{name}" in metrics
    assert len({k.split("/")[1] for k in metrics}) == 12


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
