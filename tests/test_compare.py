import csv
import dataclasses
import json
from pathlib import Path

import pytest

from setfusion import compare
from setfusion.compare import (
    ComparisonResult,
    OrderingAssertion,
    Scenario,
    run_scenario_model,
    scenario_compare,
    write_table,
)
from setfusion.errors import ConfigError
from setfusion.metrics import METRIC_NAMES, MetricSet
from setfusion.trainer import TrainConfig

TINY = TrainConfig(lr=1e-2, max_epochs_phase1=1, max_epochs_phase2=1, patience=1,
                   d_z=4, d_l=4, backbone_hidden=4, decoder_hidden=4, embed_dim=2,
                   hyper_hidden=4, rho_hidden=(4, 4))


def tiny_scenario(**overrides) -> Scenario:
    fields = dict(name="tiny", n=20, payload_width=4, class_sep=3.0, missing_rate=0.3,
                  models=("unimodal_0",))
    fields.update(overrides)
    return Scenario(**fields)


@pytest.mark.parametrize("scenario, lhs, rhs, unknown", [
    ("elsewhere", "unimodal_0", "unimodal_0", "'elsewhere'"),
    ("tiny", "zero_fill", "unimodal_0", "'zero_fill'"),
    ("tiny", "unimodal_0", "late_fusion", "'late_fusion'"),
])
def test_check_names_what_the_result_does_not_hold(scenario, lhs, rhs, unknown):
    result = scenario_compare([tiny_scenario()], seeds=[0], base_cfg=TINY)
    with pytest.raises(ValueError, match=unknown):
        result.check(OrderingAssertion(scenario=scenario, lhs=lhs, rhs=rhs))


def test_check_gives_a_verdict_for_a_known_scenario():
    result = scenario_compare([tiny_scenario()], seeds=[0, 1], base_cfg=TINY)
    verdict = result.check(OrderingAssertion(scenario="tiny", lhs="unimodal_0",
                                             rhs="best_unimodal"))
    assert verdict.verdict == "TIE" and verdict.lhs_mean == verdict.rhs_mean


@pytest.mark.parametrize("metric", ["acc", "n_eval"])
def test_assertion_on_an_unreported_metric_rejected(metric):
    with pytest.raises(ValueError, match=repr(metric)):
        OrderingAssertion.from_dict({"scenario": "tiny", "lhs": "a", "rhs": "b", "metric": metric})


def test_assertion_with_an_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"'tiny': unknown keys \['metrc'\]"):
        OrderingAssertion.from_dict({"scenario": "tiny", "lhs": "a", "rhs": "b", "metrc": "auc"})


@pytest.mark.parametrize("d, message", [
    ({"scenario": "tiny", "lhs": "a"}, "missing keys ['rhs']"),
    ({"lhs": "a", "rhs": "b"}, "missing keys ['scenario']"),
    ({"scenario": "tiny", "lhs": "a", "rhs": "b", "margin": "0.02"}, "margin must be a number, got '0.02'"),
    ({"scenario": "tiny", "lhs": "a", "rhs": "b", "margin": True}, "margin must be a number, got True"),
    ({"scenario": "tiny", "lhs": 1, "rhs": "b"}, "lhs must be a string, got 1"),
    ({"scenario": "tiny", "lhs": "a", "rhs": None}, "rhs must be a string, got None"),
    ({"scenario": "tiny", "lhs": "a", "rhs": "b", "metric": ["auc"]},
     "metric must be a string, got ['auc']"),
    ({"scenario": "tiny", "lhs": "a", "rhs": "b", "metric": "acc"},
     "assertion metric must be one of"),
    ({"scenario": "tiny", "lhs": "a", "rhs": "b", "margin": -1},
     "assertion margin must be finite and >= 0, got -1"),
])
def test_assertion_from_dict_checks_each_key(d, message):
    with pytest.raises(ConfigError) as err:
        OrderingAssertion.from_dict(d)
    assert str(err.value).startswith(f"assertion on {d.get('scenario', '?')!r}: {message}")


def test_assertion_from_dict_reads_the_shipped_assertions():
    path = Path(compare.__file__).parent / "configs" / "scenarios.json"
    for d in json.loads(path.read_text())["assertions"]:
        assert OrderingAssertion.from_dict(d) == OrderingAssertion(**d)


@pytest.mark.parametrize("margin", [-0.02, float("nan"), float("inf")])
def test_assertion_margin_must_be_finite_and_non_negative(margin):
    with pytest.raises(ValueError, match="margin must be finite and >= 0"):
        OrderingAssertion(scenario="tiny", lhs="a", rhs="b", margin=margin)


def test_run_scenario_model_resolves_the_model_once(monkeypatch):
    calls = []
    original = compare._model_kind
    scenario = tiny_scenario()  # building it resolves its models once

    def counting(model, scenario):
        calls.append(model)
        return original(model, scenario)

    monkeypatch.setattr(compare, "_model_kind", counting)
    run_scenario_model(scenario, "unimodal_0", 0, TINY)
    assert calls == ["unimodal_0"]


@pytest.mark.parametrize("run", [
    lambda: run_scenario_model(tiny_scenario(), "nope", 0, TINY),
    lambda: scenario_compare([tiny_scenario(models=("unimodal_0", "nope"))], [0], TINY),
], ids=["run_scenario_model", "scenario_compare"])
def test_unknown_model_rejected_before_data_is_generated(monkeypatch, run):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated for an unknown model")

    monkeypatch.setattr(compare, "generate", no_data)
    with pytest.raises(ValueError, match="unknown model 'nope'"):
        run()


@pytest.mark.parametrize("key, value, expected", [
    ("n", "600", "an integer"),
    ("models", "setfusion", "a list of model names"),
    ("bag_size_range", 5, "a list of two integers"),
    ("missing_rate", "0.5", "a number"),
])
def test_scenario_from_dict_checks_each_key_type(key, value, expected):
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict({"name": "typed", key: value})
    assert str(err.value) == f"scenario 'typed': {key} must be {expected}, got {value!r}"


def test_scenario_from_dict_checks_every_field():
    assert set(compare._SCENARIO_TYPES) == {f.name for f in dataclasses.fields(Scenario)}
    d = {"name": "bags", "n": 40, "noise_sigma": [0.5, 1], "k": None, "bag_modalities": [1],
         "bag_size_range": [1, 3], "models": ["setfusion", "unimodal_0"]}
    assert Scenario.from_dict(d) == Scenario(
        name="bags", n=40, noise_sigma=[0.5, 1], bag_modalities=(1,), bag_size_range=(1, 3),
        models=("setfusion", "unimodal_0"))
    with pytest.raises(ConfigError, match=r"'bags': unknown keys \['seeds'\]"):
        Scenario.from_dict({**d, "seeds": [0]})
    with pytest.raises(ConfigError, match="without a 'name' key"):
        Scenario.from_dict({"n": 40})


def test_baseline_in_a_three_class_scenario_rejected_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("setfusion trained before the baseline was checked")

    monkeypatch.setattr(compare, "run_full", no_run)
    with pytest.raises(ConfigError, match="'zero_fill' needs a two-class schema"):
        tiny_scenario(num_classes=3, models=("setfusion", "zero_fill"))


@pytest.mark.parametrize("model, expected", [
    ("unimodal_x", "model 'unimodal_x' does not end in a modality index"),
    ("unimodal_-1", "model 'unimodal_-1' does not end in a modality index"),
    ("unimodal_2", "model 'unimodal_2' names modality 2 of a 2-modality scenario"),
])
def test_unimodal_model_needs_a_modality_index_of_the_scenario(model, expected):
    with pytest.raises(ConfigError) as err:
        scenario_compare([tiny_scenario(name="uni", models=(model,))], [0], TINY)
    assert str(err.value) == f"scenario 'uni': {expected}"


@pytest.mark.parametrize("overrides, expected", [
    ({"missing_rate": 2.0}, "missing rate must be in [0, 1), got 2.0"),
    ({"mechanism": "mnar"}, "unknown mechanism 'mnar'"),
    ({"mechanism": "modality_k_only"}, "mechanism 'modality_k_only' requires k"),
    ({"mechanism": "modality_k_only", "k": 2}, "k=2 out of range for 2 modalities"),
    ({"bag_size_range": (5, 2)}, "invalid bag size range (5, 2)"),
    ({"n": 0}, "n must be >= 1, got 0"),
    ({"class_sep": 0.0}, "class_sep must be finite and positive"),
    ({"noise_sigma": [0.5]}, "1 noise sigmas for 2 modalities"),
    ({"num_classes": 1, "models": ("setfusion",)}, "num_classes must be >= 2, got 1"),
    ({"payload_width": 2.5}, "payload_width must be an integer, got 2.5"),
], ids=["rate", "mechanism", "no_k", "k", "bags", "n", "class_sep", "sigmas", "classes",
        "width"])
def test_bad_scenario_value_rejected_before_the_first_run(overrides, expected):
    tiny_scenario(name="good")
    with pytest.raises(ConfigError) as err:
        tiny_scenario(name="bad", **overrides)
    assert str(err.value).startswith(f"scenario 'bad': {expected}")


@pytest.mark.parametrize("build", [
    lambda: Scenario.from_dict({"name": "bad", "missing_rate": 0.9, "k": 1, "mechanism": "x"}),
    lambda: dataclasses.replace(tiny_scenario(name="bad"), mechanism="x"),
], ids=["from_dict", "replace"])
def test_every_way_of_building_a_scenario_checks_its_values(build):
    with pytest.raises(ConfigError, match="scenario 'bad': unknown mechanism 'x'"):
        build()


def test_run_scenario_model_checks_the_scenario_values_before_data_is_generated(monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated for a bad scenario")

    monkeypatch.setattr(compare, "generate", no_data)
    with pytest.raises(ConfigError) as err:
        run_scenario_model(Scenario(name="bad", n=20, payload_width=4, missing_rate=2.0),
                           "unimodal_0", 0, TINY)
    assert str(err.value) == "scenario 'bad': missing rate must be in [0, 1), got 2.0"


@pytest.mark.parametrize("jobs", [0, -1, 2.5, True, "2", None])
def test_scenario_compare_rejects_a_jobs_that_is_not_a_positive_int(monkeypatch, jobs):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(compare, "run_scenario_model", no_run)
    with pytest.raises(ValueError) as err:
        scenario_compare([tiny_scenario()], [0], TINY, jobs=jobs)
    assert str(err.value) == f"scenario_compare: jobs must be an integer >= 1, got {jobs!r}"


@pytest.mark.parametrize("seeds, expected", [
    ([0, -1], "seed -1 is not an integer >= 0"),
    ([0, True], "seed True is not an integer >= 0"),
    ([0, 1.0], "seed 1.0 is not an integer >= 0"),
    ([0, "1"], "seed '1' is not an integer >= 0"),
    ([0, 1, 0], "seed 0 is repeated"),
])
def test_scenario_compare_rejects_a_bad_seed_before_any_run(monkeypatch, seeds, expected):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    calls = []
    monkeypatch.setattr(compare, "run_scenario_model", no_run)
    with pytest.raises(ValueError) as err:
        scenario_compare([tiny_scenario()], seeds, TINY, progress=calls.append)
    assert str(err.value) == f"scenario_compare: {expected}"
    assert calls == []


def test_write_table_writes_header_and_rows_with_repr_floats(tmp_path):
    scenario = tiny_scenario(models=("unimodal_0", "zero_fill"))
    result = ComparisonResult(scenarios=[scenario], seeds=[0, 1])
    for i, model in enumerate(scenario.models):
        for seed in (0, 1):
            value = 0.1 * (1 + i) + 0.3 * seed
            result.runs[("tiny", model, seed)] = MetricSet(value, value, value, value, value,
                                                           n_eval=10, positive_class=1)
    path = tmp_path / "table.csv"
    write_table(path, result)
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["scenario", "model", "metric", "mean", "std", "seeds"]
    rows = result.table_rows()
    assert len(rows) == 2 * len(METRIC_NAMES)
    assert lines[1:] == [[sc, model, metric, repr(mean), repr(std), seeds]
                         for sc, model, metric, mean, std, seeds in rows]
    # the std of 0.1 and 0.4 keeps every digit, not a rounded form
    assert lines[1][3:] == ["0.25", "0.15000000000000002", "0;1"]
