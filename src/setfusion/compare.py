"""Multi-seed scenario comparisons between the set model and baselines.

A scenario fixes the data generation and missingness configuration; a
run is one (scenario, model, seed) training. Results aggregate to
mean and std per metric and feed ordering assertions of the form
"model A at least matches model B on accuracy", which pass with a
margin, tie inside the margin, or fail.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import BaselineKind, run_baseline
from .data import DatasetSchema, apply_missingness, generate, split
from .metrics import METRIC_NAMES, MetricSet
from .trainer import TrainConfig, run_full

KNOWN_MODELS = (
    "setfusion",
    "setfusion_joint",
    "zero_fill",
    "mean_impute",
    "late_fusion",
)  # plus "unimodal_<k>"


@dataclass
class Scenario:
    name: str
    n: int = 600
    num_modalities: int = 2
    payload_width: int = 32
    num_classes: int = 2
    class_sep: float = 10.0
    noise_sigma: object = 0.5  # float or per-modality list
    missing_rate: float = 0.0
    mechanism: str = "mcar"
    k: int | None = None
    bag_modalities: tuple[int, ...] = ()
    bag_size_range: tuple[int, int] = (2, 5)
    models: tuple[str, ...] = ("setfusion",)

    def schema(self) -> DatasetSchema:
        return DatasetSchema(
            num_modalities=self.num_modalities,
            modality_names=[f"m{i}" for i in range(self.num_modalities)],
            payload_width=self.payload_width,
            num_classes=self.num_classes,
            bag_modalities=self.bag_modalities,
        )

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"scenario {d.get('name', '?')!r}: unknown keys {sorted(unknown)}")
        out = cls(**d)
        out.models = tuple(out.models)
        out.bag_modalities = tuple(out.bag_modalities)
        out.bag_size_range = tuple(out.bag_size_range)
        return out


@dataclass
class OrderingAssertion:
    """`lhs` should reach at least `rhs` on `metric`, up to `margin`."""

    scenario: str
    lhs: str
    rhs: str  # model name or "best_unimodal"
    metric: str = "accuracy"
    margin: float = 0.02

    def __post_init__(self):
        if self.metric not in METRIC_NAMES:
            raise ValueError(f"assertion metric must be one of {METRIC_NAMES}, got {self.metric!r}")
        # a negative margin passes near-ties, a NaN one ties everything
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError(f"assertion margin must be finite and >= 0, got {self.margin!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "OrderingAssertion":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"assertion on {d.get('scenario', '?')!r}: unknown keys {sorted(unknown)}")
        return cls(**d)


@dataclass
class AssertionResult:
    assertion: OrderingAssertion
    lhs_mean: float
    rhs_mean: float
    verdict: str  # PASS, TIE or FAIL

    def line(self) -> str:
        a = self.assertion
        return (
            f"ASSERTION [{a.scenario}] {a.lhs} >= {a.rhs} on {a.metric}: "
            f"{self.lhs_mean:.4f} vs {self.rhs_mean:.4f} (margin {a.margin}) -> {self.verdict}"
        )


@dataclass
class ComparisonResult:
    runs: dict = field(default_factory=dict)  # (scenario, model, seed) -> MetricSet
    scenarios: list = field(default_factory=list)
    seeds: list = field(default_factory=list)

    def mean(self, scenario: str, model: str, metric: str) -> float:
        values = [self.runs[(scenario, model, s)].value(metric) for s in self.seeds]
        return float(np.mean(values))

    def std(self, scenario: str, model: str, metric: str) -> float:
        values = [self.runs[(scenario, model, s)].value(metric) for s in self.seeds]
        return float(np.std(values))

    def table_rows(self) -> list[tuple]:
        seeds_text = ";".join(str(s) for s in self.seeds)
        rows = []
        for sc in self.scenarios:
            for model in sc.models:
                for metric in METRIC_NAMES:
                    rows.append((
                        sc.name, model, metric,
                        self.mean(sc.name, model, metric),
                        self.std(sc.name, model, metric),
                        seeds_text,
                    ))
        return rows

    def check(self, assertion: OrderingAssertion) -> AssertionResult:
        scenario = next((sc for sc in self.scenarios if sc.name == assertion.scenario), None)
        if scenario is None:
            raise ValueError(f"assertion names unknown scenario {assertion.scenario!r}")
        for model in (assertion.lhs, assertion.rhs):
            if model != "best_unimodal" and model not in scenario.models:
                raise ValueError(f"scenario {assertion.scenario!r} does not run model {model!r}")
        lhs_mean = self.mean(assertion.scenario, assertion.lhs, assertion.metric)
        if assertion.rhs == "best_unimodal":
            candidates = [m for m in scenario.models if m.startswith("unimodal_")]
            if not candidates:
                raise ValueError(f"no unimodal models in scenario {assertion.scenario!r}")
            rhs_mean = max(self.mean(assertion.scenario, m, assertion.metric) for m in candidates)
        else:
            rhs_mean = self.mean(assertion.scenario, assertion.rhs, assertion.metric)
        diff = lhs_mean - rhs_mean
        if diff >= assertion.margin:
            verdict = "PASS"
        elif diff <= -assertion.margin:
            verdict = "FAIL"
        else:
            verdict = "TIE"
        return AssertionResult(assertion, lhs_mean, rhs_mean, verdict)


def _model_kind(model: str, scenario: Scenario) -> BaselineKind | None:
    if model in ("setfusion", "setfusion_joint"):
        return None
    if model.startswith("unimodal_"):
        k = int(model.split("_", 1)[1])
        if not 0 <= k < scenario.num_modalities:
            raise ValueError(f"{model}: modality index out of range for {scenario.name}")
        return BaselineKind("unimodal", k=k)
    if model == "zero_fill":
        return BaselineKind("zero_fill_multimodal")
    if model == "mean_impute":
        return BaselineKind("mean_impute_multimodal")
    if model == "late_fusion":
        return BaselineKind("late_fusion_average")
    raise ValueError(f"unknown model {model!r}; expected one of {KNOWN_MODELS} or unimodal_<k>")


def run_scenario_model(scenario: Scenario, model: str, seed: int, base_cfg: TrainConfig) -> MetricSet:
    """One full training run; pure in (scenario, model, seed, base_cfg)."""
    kind = _model_kind(model, scenario)  # validates before any heavy work
    cfg = replace(base_cfg, seed=seed, two_steps=(model != "setfusion_joint"))
    schema = scenario.schema()
    samples = generate(
        schema, scenario.n, seed=(seed, "data"),
        class_sep=scenario.class_sep, noise_sigma=scenario.noise_sigma,
        bag_size_range=scenario.bag_size_range,
    )
    masked = apply_missingness(
        samples, rate=scenario.missing_rate, mechanism=scenario.mechanism,
        seed=(seed, "mask"), k=scenario.k,
    )
    if kind is None:
        report, _, _ = run_full(cfg, schema, masked)
        return report.metrics
    train, val, test = split(masked, cfg.split_ratios, seed=(cfg.seed, "split"))
    return run_baseline(kind, schema, train, val, test, cfg)


def _job(args):
    scenario, model, seed, cfg = args
    return (scenario.name, model, seed), run_scenario_model(scenario, model, seed, cfg)


def scenario_compare(
    scenarios: list[Scenario],
    seeds: list[int],
    base_cfg: TrainConfig | None = None,
    jobs: int = 1,
    progress=None,
) -> ComparisonResult:
    """Run every (scenario, model, seed) combination and aggregate."""
    if not seeds:
        raise ValueError("scenario_compare: need at least one seed")
    names = [sc.name for sc in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names: {names}")
    for sc in scenarios:  # an unknown model fails here, not after the runs before it
        for model in sc.models:
            _model_kind(model, sc)
    base_cfg = base_cfg or TrainConfig()
    tasks = [
        (scenario, model, seed, base_cfg)
        for scenario in scenarios
        for model in scenario.models
        for seed in seeds
    ]
    result = ComparisonResult(scenarios=list(scenarios), seeds=sorted(seeds))
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext()) as pool:
        for key, metrics in (pool.map if pool else map)(_job, tasks):
            result.runs[key] = metrics
            if progress:
                progress(key)
    return result


def write_table(path, result: ComparisonResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "model", "metric", "mean", "std", "seeds"])
        for row in result.table_rows():
            scenario, model, metric, mean, std, seeds_text = row
            writer.writerow([scenario, model, metric, repr(mean), repr(std), seeds_text])
