import pytest

from setfusion import compare
from setfusion.compare import (
    OrderingAssertion,
    Scenario,
    run_scenario_model,
    scenario_compare,
)
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
    with pytest.raises(ValueError, match=r"'tiny': unknown keys \['metrc'\]"):
        OrderingAssertion.from_dict({"scenario": "tiny", "lhs": "a", "rhs": "b", "metrc": "auc"})


@pytest.mark.parametrize("margin", [-0.02, float("nan"), float("inf")])
def test_assertion_margin_must_be_finite_and_non_negative(margin):
    with pytest.raises(ValueError, match="margin must be finite and >= 0"):
        OrderingAssertion(scenario="tiny", lhs="a", rhs="b", margin=margin)


def test_run_scenario_model_resolves_the_model_once(monkeypatch):
    calls = []
    original = compare._model_kind

    def counting(model, scenario):
        calls.append(model)
        return original(model, scenario)

    monkeypatch.setattr(compare, "_model_kind", counting)
    run_scenario_model(tiny_scenario(), "unimodal_0", 0, TINY)
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
