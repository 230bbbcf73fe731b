"""Golden determinism fixtures.

`tests/golden/run_full_small.json` pins `TrainReport.to_dict()` of two
small runs; `tests/golden/compare_small.json` pins the
`scenario_compare(...).table_rows()` of every model kind, baselines
included, over a plain and a bag scenario and two seeds.

A refactor or speed-up that leaves the arithmetic alone must reproduce
both files byte for byte: JSON writes each float as its shortest
round-trip repr, so equal bytes mean bitwise-equal losses and metrics.
A change that alters the numbers on purpose regenerates them
(`PYTHONPATH=src python tests/test_golden.py`) and says why in
CHANGES.md.
"""

import json
from pathlib import Path

from setfusion.compare import Scenario, scenario_compare
from setfusion.data import DatasetSchema, apply_missingness, generate
from setfusion.trainer import TrainConfig, run_full

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "run_full_small.json"
GOLDEN_COMPARE = GOLDEN_DIR / "compare_small.json"

ALL_MODELS = ("setfusion", "setfusion_joint", "zero_fill", "mean_impute", "late_fusion",
              "unimodal_0", "unimodal_1")


def small_config(**overrides) -> TrainConfig:
    fields = dict(
        lr=1e-2, max_epochs_phase1=6, max_epochs_phase2=6, patience=2, seed=23,
        d_z=8, d_l=6, backbone_hidden=12, decoder_hidden=8,
        embed_dim=4, hyper_hidden=8, rho_hidden=(8, 6),
    )
    fields.update(overrides)
    return TrainConfig(**fields)


def small_run(two_steps: bool) -> dict:
    """MCAR data with a bag modality, small widths and a few epochs; the
    stage-1 and joint runs stop one epoch past their best, so the
    best-weight restore is part of what the fixture pins."""
    schema = DatasetSchema(2, ["m0", "m1"], 8, 2, bag_modalities=(1,))
    samples = generate(schema, n=60, seed=21, class_sep=3.0, noise_sigma=1.0)
    masked = apply_missingness(samples, rate=0.4, mechanism="mcar", seed=22)
    report, _, _ = run_full(small_config(two_steps=two_steps), schema, masked)
    return report.to_dict()


def golden_text() -> str:
    record = {"two_stage": small_run(True), "joint": small_run(False)}
    return json.dumps(record, sort_keys=True, indent=1, allow_nan=False) + "\n"


def compare_text() -> str:
    """Table rows of a plain and a bag MCAR scenario over every model kind."""
    common = dict(n=40, payload_width=8, class_sep=3.0, noise_sigma=1.0,
                  missing_rate=0.4, models=ALL_MODELS)
    scenarios = [
        Scenario(name="plain", **common),
        Scenario(name="bags", bag_modalities=(1,), bag_size_range=(1, 3), **common),
    ]
    cfg = small_config(max_epochs_phase1=3, max_epochs_phase2=3)
    rows = scenario_compare(scenarios, seeds=[3, 4], base_cfg=cfg).table_rows()
    lines = [json.dumps(list(row), allow_nan=False) for row in rows]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_run_full_reports_match_golden_bytes():
    assert golden_text() == GOLDEN.read_text()


def test_scenario_compare_rows_match_golden_bytes():
    assert compare_text() == GOLDEN_COMPARE.read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
    GOLDEN_COMPARE.write_text(compare_text())
