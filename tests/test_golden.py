"""Golden determinism fixture: `TrainReport.to_dict()` of two small runs.

A refactor or speed-up that leaves the arithmetic alone must reproduce
`tests/golden/run_full_small.json` byte for byte: JSON writes each float
as its shortest round-trip repr, so equal bytes mean bitwise-equal
losses and metrics. A change that alters the numbers on purpose
regenerates the file (`PYTHONPATH=src python tests/test_golden.py`) and
says why in CHANGES.md.
"""

import json
from pathlib import Path

from setfusion.data import DatasetSchema, apply_missingness, generate
from setfusion.trainer import TrainConfig, run_full

GOLDEN = Path(__file__).parent / "golden" / "run_full_small.json"


def small_run(two_steps: bool) -> dict:
    """MCAR data with a bag modality, small widths and a few epochs; the
    stage-1 and joint runs stop one epoch past their best, so the
    best-weight restore is part of what the fixture pins."""
    schema = DatasetSchema(2, ["m0", "m1"], 8, 2, bag_modalities=(1,))
    samples = generate(schema, n=60, seed=21, class_sep=3.0, noise_sigma=1.0)
    masked = apply_missingness(samples, rate=0.4, mechanism="mcar", seed=22)
    cfg = TrainConfig(
        lr=1e-2, max_epochs_phase1=6, max_epochs_phase2=6, patience=2, seed=23,
        two_steps=two_steps, d_z=8, d_l=6, backbone_hidden=12, decoder_hidden=8,
        embed_dim=4, hyper_hidden=8, rho_hidden=(8, 6),
    )
    report, _, _ = run_full(cfg, schema, masked)
    return report.to_dict()


def golden_text() -> str:
    record = {"two_stage": small_run(True), "joint": small_run(False)}
    return json.dumps(record, sort_keys=True, indent=1, allow_nan=False) + "\n"


def test_run_full_reports_match_golden_bytes():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
