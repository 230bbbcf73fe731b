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
from .data import (
    DatasetSchema,
    apply_missingness,
    check_generate_args,
    check_missingness_args,
    generate,
    split,
)
from .errors import ConfigError
from .metrics import METRIC_NAMES, MetricSet
from .tensor import is_int
from .trainer import TrainConfig, run_full

# baseline model name -> its BaselineKind name
_BASELINE_KINDS = {
    "zero_fill": "zero_fill_multimodal",
    "mean_impute": "mean_impute_multimodal",
    "late_fusion": "late_fusion_average",
}
KNOWN_MODELS = ("setfusion", "setfusion_joint", *_BASELINE_KINDS)  # plus "unimodal_<k>"


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

    def __post_init__(self):
        """Reject, naming this scenario, any value that would fail one of its runs."""
        try:
            check_generate_args(self.schema(), self.n, self.class_sep, self.noise_sigma,
                                self.bag_size_range)
            check_missingness_args(self.missing_rate, self.mechanism, self.k, self.num_modalities)
        except ValueError as exc:
            raise ConfigError(f"scenario {self.name!r}: {exc}") from exc
        for model in self.models:
            _model_kind(model, self)

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
        """A scenario from its JSON object; every key is type-checked."""
        if "name" not in d:
            raise ConfigError("scenario without a 'name' key")
        _check_keys(d, _SCENARIO_TYPES, (), f"scenario {d['name']!r}")
        lists = {key: tuple(d[key]) for key in ("models", "bag_modalities", "bag_size_range") if key in d}
        return cls(**{**d, **lists})


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)  # JSON true is no number


def _list_of(fits, v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(fits, v))


def _check_keys(d: dict, types: dict, required: tuple[str, ...], what: str) -> None:
    """Reject, naming `what`, an unknown, missing or mistyped key of a JSON object."""
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ConfigError(f"{what}: missing keys {missing}")
    for key, value in d.items():
        fits, expected = types[key]
        if not fits(value):
            raise ConfigError(f"{what}: {key} must be {expected}, got {value!r}")


_INT = (lambda v: _number(v) and isinstance(v, int), "an integer")
_NUMBER = (_number, "a number")
_STR = (lambda v: isinstance(v, str), "a string")
# Scenario field -> (check of its JSON value, what the check expects)
_SCENARIO_TYPES = {
    "name": _STR, "n": _INT, "num_modalities": _INT, "payload_width": _INT, "num_classes": _INT,
    "class_sep": _NUMBER, "missing_rate": _NUMBER, "mechanism": _STR,
    "noise_sigma": (lambda v: _number(v) or _list_of(_number, v), "a number or a list of numbers"),
    "k": (lambda v: v is None or _INT[0](v), "an integer or null"),
    "bag_modalities": (lambda v: _list_of(_INT[0], v), "a list of integers"),
    "bag_size_range": (lambda v: _list_of(_INT[0], v) and len(v) == 2, "a list of two integers"),
    "models": (lambda v: _list_of(_STR[0], v), "a list of model names"),
}


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
        """An assertion from its JSON object; every key is type-checked."""
        what = f"assertion on {d.get('scenario', '?')!r}"
        _check_keys(d, _ASSERTION_TYPES, ("scenario", "lhs", "rhs"), what)
        try:
            return cls(**d)
        except ValueError as exc:  # a metric it does not report, a negative margin
            raise ConfigError(f"{what}: {exc}") from exc


# OrderingAssertion field -> (check of its JSON value, what the check expects)
_ASSERTION_TYPES = {"scenario": _STR, "lhs": _STR, "rhs": _STR, "metric": _STR, "margin": _NUMBER}


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
        index = model.split("_", 1)[1]
        if not index.isdecimal():
            raise ConfigError(f"scenario {scenario.name!r}: model {model!r} does not end "
                              f"in a modality index")
        k = int(index)
        if not k < scenario.num_modalities:
            raise ConfigError(f"scenario {scenario.name!r}: model {model!r} names modality {k} "
                              f"of a {scenario.num_modalities}-modality scenario")
        kind = BaselineKind("unimodal", k=k)
    elif model in _BASELINE_KINDS:
        kind = BaselineKind(_BASELINE_KINDS[model])
    else:
        raise ConfigError(f"scenario {scenario.name!r}: unknown model {model!r}; "
                          f"expected one of {KNOWN_MODELS} or unimodal_<k>")
    if scenario.num_classes != 2:  # run_baseline's own check, made before any run
        raise ConfigError(f"scenario {scenario.name!r}: baseline {model!r} needs a two-class "
                          f"schema, got num_classes {scenario.num_classes}")
    return kind


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
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"scenario_compare: jobs must be an integer >= 1, got {jobs!r}")
    for i, seed in enumerate(seeds):
        if not is_int(seed) or seed < 0:
            raise ValueError(f"scenario_compare: seed {seed!r} is not an integer >= 0")
        if seed in seeds[:i]:
            raise ValueError(f"scenario_compare: seed {seed!r} is repeated")
    names = [sc.name for sc in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names: {names}")
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
