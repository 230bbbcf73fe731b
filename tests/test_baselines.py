import numpy as np
import pytest

from setfusion import baselines
from setfusion.baselines import BaselineKind, fill_count, reset_fill_count, run_baseline
from setfusion.data import DatasetSchema, apply_missingness, generate
from setfusion.trainer import TrainConfig


def small_cfg():
    return TrainConfig(lr=1e-3, max_epochs_phase1=2, max_epochs_phase2=2, patience=2,
                       d_z=8, d_l=6, backbone_hidden=12, decoder_hidden=8,
                       embed_dim=4, hyper_hidden=8, rho_hidden=(8, 6))


@pytest.fixture
def splits():
    """Two modalities, m1 a bag of 2-5 instances, about a third of slots missing."""
    schema = DatasetSchema(2, ["m0", "m1"], 5, 2, bag_modalities=(1,))
    masked = apply_missingness(generate(schema, n=48, seed=3), rate=0.5, seed=4)
    return schema, masked[:24], masked[24:32], masked[32:]


@pytest.fixture
def no_training(monkeypatch):
    """What these tests check does not depend on the trained weights."""
    monkeypatch.setattr(baselines, "train_loop", lambda *args, **kwargs: None)


@pytest.mark.parametrize("k", [0, 1])
def test_unimodal_scores_only_samples_where_k_is_observed(splits, no_training, k):
    schema, train, val, test = splits
    metrics = run_baseline(BaselineKind("unimodal", k=k), schema, train, val, test, small_cfg())
    observed = sum(not s.mask[k] for s in test)
    assert 0 < observed < len(test)
    assert metrics.n_eval == observed


@pytest.mark.parametrize("name", ["zero_fill_multimodal", "mean_impute_multimodal"])
def test_concat_baselines_fill_each_missing_slot_once(splits, no_training, name):
    schema, train, val, test = splits
    reset_fill_count()
    metrics = run_baseline(BaselineKind(name), schema, train, val, test, small_cfg())
    assert fill_count() == sum(int(s.mask.sum()) for s in train + val + test) > 0
    assert metrics.n_eval == len(test)


def test_mean_impute_fills_with_the_training_means_of_observed_payloads(
        splits, no_training, monkeypatch):
    schema, train, val, test = splits
    seen = []
    concat_input = baselines._concat_input

    def recording_concat_input(sample, schema_, fillers):
        seen.append(fillers)
        return concat_input(sample, schema_, fillers)

    monkeypatch.setattr(baselines, "_concat_input", recording_concat_input)
    run_baseline(BaselineKind("mean_impute_multimodal"), schema, train, val, test, small_cfg())
    fillers = seen[0]
    assert all(f is fillers for f in seen)
    for i in range(2):
        # a bag counts once, as the mean of its instances
        vecs = [np.mean(s.slots[i], axis=0) if i == 1 else s.slots[i]
                for s in train if not s.mask[i]]
        np.testing.assert_allclose(fillers[i], sum(vecs) / len(vecs), rtol=1e-12, atol=1e-12)
    bag_sizes = {len(s.slots[1]) for s in train if not s.mask[1]}
    assert len(bag_sizes) > 1  # unequal bags: an instance-level mean would differ


def test_late_fusion_averages_the_probabilities_of_every_instance(
        splits, no_training, monkeypatch):
    schema, train, val, test = splits

    def proba(net, item, positive_class):
        return float(0.5 + 0.5 * np.tanh(np.sum(item)))

    scores = []
    monkeypatch.setattr(baselines._BaselineNet, "proba", proba)
    monkeypatch.setattr(baselines, "compute_metrics",
                        lambda pairs, positive_class: scores.extend(pairs))
    run_baseline(BaselineKind("late_fusion_average"), schema, train, val, test, small_cfg())
    expected = []
    for s in test:
        items = ([] if s.mask[0] else [s.slots[0]]) + ([] if s.mask[1] else list(s.slots[1]))
        expected.append((np.mean([proba(None, x, 1) for x in items]), s.label))
    assert scores == expected
    assert any(not s.mask[1] and len(s.slots[1]) > 1 for s in test)
