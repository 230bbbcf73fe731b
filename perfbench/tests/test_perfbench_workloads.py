import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Budget(n=60, epochs=1, setup_epochs=1, setups=1, latency_batch=40)
# per-layer metrics each workload exists to exercise; they must not read 0
EXERCISED = {
    "two_stage_mcar": ["trainer.phase1_item_us", "encoder.phase1_forward_calls",
                       "hypernet.generate_weights_calls", "optim.adam_scalars_per_step"],
    "stage2_sweep_bags": ["trainer.train_phase1_s", "trainer.phase2_set_us",
                          "encoder.pool_instances_calls", "encoder.phi_forward_repeat_share"],
    "joint_and_baselines": ["trainer.joint_set_us", "baselines.fill_count",
                            "baselines.run_baseline_s.late_fusion_average",
                            "compare.critical_task_s"],
}


def test_spec_lists_the_metrics_the_benchmark_emits():
    from perfbench.layers import PER_LAYER

    assert [m["name"] for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke_emits_every_metric(name):
    result = workloads.measure(name, seed=0, seconds=0, budget=TINY)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["notes"]["golden"] is False  # golden digests are for the default budget only
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = workloads.measure_traced(name, seed=0, budget=TINY)
    assert (traced["correct"], traced["failed"]) == (True, 0)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(traced["metrics"][m]["value"] > 0 for m in EXERCISED[name])
    assert traced["notes"]["digest"] == result["notes"]["digest"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two_stage_mcar",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_balanced_probe_times_every_shape_equally():
    from types import SimpleNamespace as NS

    a, b = NS(index=0), NS(index=1)
    bag = [0.0, 0.0]
    shapes = [[(1.0, a)]] * 5 + [[(1.0, a), (bag, b)]] * 3 + [[(bag, b)]] * 2
    sets = [NS(elements=e, i=i) for i, e in enumerate(shapes)]
    probe = workloads.balanced_probe(sets)
    assert [s.i for s in probe] == [0, 5, 8, 1, 6, 9]
