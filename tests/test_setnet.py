import numpy as np
import pytest

from setfusion.encoder import Encoder, EncoderConfig, parameter_checksum
from setfusion.errors import ContractError, NumericError, ShapeError
from setfusion.hypernet import ModalityId
from setfusion.optim import Adam
from setfusion.rng import SeededRng
from setfusion.setnet import (
    SetClassifier,
    SetObservation,
    aggregate,
    f_forward,
    phase2_loss,
    pool_set,
    pool_sets,
    predict_proba,
)
from setfusion.nn import Dense
from setfusion.tensor import Tensor, no_grad, softmax

from reference_ops import relu


def make_models(seed=0, d=3, r=6, d_l=4, num_classes=2, aggregator="mean"):
    cfg = EncoderConfig(
        input_width=r, num_classes=num_classes, num_modalities=d,
        d_z=5, d_l=d_l, backbone_hidden=8, decoder_hidden=8,
        embed_dim=4, hyper_hidden=8,
    )
    enc = Encoder(cfg, SeededRng((seed, "enc")))
    model = SetClassifier(d_l, num_classes, SeededRng((seed, "rho")),
                          hidden=(8, 6), aggregator=aggregator)
    return enc, model


def random_obs(rng, d=3, r=6, q=None, bag_prob=0.0, max_bag=4, label=0):
    d_obs = q if q is not None else int(rng.integers(1, d + 1))
    modalities = sorted(rng.permutation(d)[:d_obs].tolist())
    elements = []
    for m in modalities:
        if bag_prob and rng.uniform(0.0, 1.0) < bag_prob:
            size = int(rng.integers(1, max_bag + 1))
            elements.append(([rng.normal(r) for _ in range(size)], ModalityId(m)))
        else:
            elements.append((rng.normal(r), ModalityId(m)))
    return SetObservation(elements=elements, label=label, sample_id="t")


class TestAggregate:
    @pytest.mark.parametrize("kind", ["sum", "mean", "max"])
    def test_singleton_returns_element(self, kind):
        v = Tensor([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(aggregate([v], kind).data, v.data)

    def test_mean_of_duplicates(self):
        v = Tensor([1.0, 2.0])
        np.testing.assert_array_equal(aggregate([v, Tensor(v.data.copy())], "mean").data, v.data)

    def test_sum_permutation_stability(self):
        rng = SeededRng(0)
        feats = [Tensor(rng.normal(4)) for _ in range(6)]
        base = aggregate(feats, "sum").data
        for _ in range(100):
            order = rng.permutation(6)
            shuffled = [feats[i] for i in order]
            assert np.max(np.abs(aggregate(shuffled, "sum").data - base)) < 1e-9

    def test_sum_equals_size_times_mean(self):
        rng = SeededRng(1)
        feats = [Tensor(rng.normal(4)) for _ in range(5)]
        total = aggregate(feats, "sum").data
        mean = aggregate(feats, "mean").data
        np.testing.assert_allclose(total, 5 * mean, rtol=0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], "mean")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            aggregate([Tensor([1.0])], "median")


class TestSetClassifier:
    @pytest.mark.parametrize("hidden", [(8,), (8, 6), (8, 4, 3)])
    def test_builds_exactly_the_given_layers(self, hidden):
        model = SetClassifier(5, 3, SeededRng(0), hidden=hidden)
        widths = [5, *hidden, 3]
        assert [layer.weight.shape for layer in model.layers] == [
            (widths[i + 1], widths[i]) for i in range(len(widths) - 1)
        ]
        assert model.rho(Tensor(np.ones(5))).shape == (3,)

    def test_matches_a_hand_built_three_layer_head(self):
        """Same names, init draws and relu placement as Dense layers built in order."""
        model = SetClassifier(4, 2, SeededRng(3), hidden=(8, 6))
        rng = SeededRng(3)
        layers = [Dense(4, 8, rng, "rho/0"), Dense(8, 6, rng, "rho/1"), Dense(6, 2, rng, "rho/2")]
        params = model.named_parameters()
        assert list(params) == ["rho/0/w", "rho/0/b", "rho/1/w", "rho/1/b", "rho/2/w", "rho/2/b"]
        for layer in layers:
            assert params[layer.weight.name].data.tobytes() == layer.weight.data.tobytes()
        x = Tensor(SeededRng(4).normal(4))
        expected = layers[2](relu(layers[1](relu(layers[0](x)))))
        assert model.rho(x).data.tobytes() == expected.data.tobytes()


class TestSetObservation:
    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            SetObservation(elements=[], label=0, sample_id="x")

    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_bag_rejected_naming_sample_and_modality(self, empty):
        elements = [(np.ones(6), ModalityId(0)), (empty, ModalityId(2, "wsi"))]
        with pytest.raises(ValueError, match="'p7' has an empty bag for modality 2"):
            SetObservation(elements=elements, label=0, sample_id="p7")

    def test_duplicate_modalities_allowed(self):
        rng = SeededRng(2)
        obs = SetObservation(
            elements=[(rng.normal(6), ModalityId(1)), (rng.normal(6), ModalityId(1))],
            label=1, sample_id="dup",
        )
        assert obs.q == 2
        enc, model = make_models()
        assert f_forward(model, enc, obs).shape == (2,)


class TestFForward:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_output_shape_for_all_set_sizes(self, q):
        enc, model = make_models()
        obs = random_obs(SeededRng((3, q)), q=q)
        assert f_forward(model, enc, obs).shape == (2,)

    def test_singleton_set_reduces_to_unimodal_pipeline(self):
        enc, model = make_models()
        rng = SeededRng(4)
        x = rng.normal(6)
        obs = SetObservation(elements=[(x, ModalityId(2))], label=0, sample_id="s")
        direct = model.rho(enc.phi_forward(x, 2))
        np.testing.assert_array_equal(f_forward(model, enc, obs).data, direct.data)

    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max"])
    def test_permutation_invariance(self, aggregator):
        enc, model = make_models(aggregator=aggregator)
        rng = SeededRng(5)
        for case in range(20):
            obs = random_obs(rng, q=3, bag_prob=0.3)
            base = f_forward(model, enc, obs).data
            for _ in range(10):
                order = rng.permutation(3)
                shuffled = SetObservation(
                    elements=[obs.elements[i] for i in order],
                    label=obs.label, sample_id=obs.sample_id,
                )
                assert np.max(np.abs(f_forward(model, enc, shuffled).data - base)) < 1e-9

    def test_every_nonempty_pattern_of_three_modalities(self):
        enc, model = make_models()
        rng = SeededRng(6)
        patterns = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1) if a + b + c]
        assert len(patterns) == 7
        for pattern in patterns:
            elements = [(rng.normal(6), ModalityId(m)) for m, keep in enumerate(pattern) if keep]
            obs = SetObservation(elements=elements, label=0, sample_id=str(pattern))
            assert f_forward(model, enc, obs).shape == (2,)

    def test_modality_outside_schema(self):
        enc, model = make_models(d=2)
        obs = SetObservation(elements=[(np.ones(6), ModalityId(2))], label=0, sample_id="bad")
        with pytest.raises(ValueError):
            f_forward(model, enc, obs)

    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max"])
    def test_frozen_predict_proba_bitwise_equal_to_one_pass_per_instance(self, aggregator):
        enc, model = make_models(seed=8, aggregator=aggregator)
        enc.freeze()
        rng = SeededRng((8, aggregator))

        def reference(obs):
            feats = [aggregate([enc.phi_forward(x, m) for x in payload], "max")
                     if isinstance(payload, list) else enc.phi_forward(payload, m)
                     for payload, m in obs.elements]
            return softmax(model.rho(aggregate(feats, aggregator)).data).tobytes()

        for case in range(40):
            obs = random_obs(rng, bag_prob=0.7, max_bag=8)
            assert predict_proba(model, enc, obs).tobytes() == reference(obs)

    def test_predict_proba_sums_to_one(self):
        enc, model = make_models()
        probs = predict_proba(model, enc, random_obs(SeededRng(7)))
        assert probs.shape == (2,)
        assert probs.sum() == pytest.approx(1.0)


class TestPhase2Loss:
    def test_saturated_correct_logits_near_zero(self):
        enc, model = make_models()
        for layer in model.layers:
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        model.layers[2].bias.data[:] = [60.0, -60.0]
        obs = random_obs(SeededRng(8), label=0)
        assert phase2_loss(model, enc, obs).item() < 1e-9

    def test_unlabeled_observation_rejected(self):
        enc, model = make_models()
        obs = random_obs(SeededRng(10), label=None)
        with pytest.raises(ContractError, match="unlabeled observation 't'"):
            phase2_loss(model, enc, obs)

    def test_frozen_encoder_untouched_by_training_step(self):
        enc, model = make_models(seed=11)
        enc.freeze()
        checksum = parameter_checksum(enc.named_parameters())
        opt = Adam(model.named_parameters(), lr=1e-2)
        rng = SeededRng(12)
        for step in range(10):
            loss = phase2_loss(model, enc, random_obs(rng, label=step % 2))
            loss.backward()
            opt.step()
        assert parameter_checksum(enc.named_parameters()) == checksum

    def test_gradients_reach_rho_parameters(self):
        enc, model = make_models(seed=13)
        enc.freeze()
        loss = phase2_loss(model, enc, random_obs(SeededRng(14), label=1))
        loss.backward()
        for name, p in model.named_parameters().items():
            assert p.grad is not None, name

    def test_joint_mode_gradients_reach_encoder_when_not_frozen(self):
        enc, model = make_models(seed=15)
        loss = phase2_loss(model, enc, random_obs(SeededRng(16), label=0))
        loss.backward()
        grads = [p.grad for p in enc.backbone.named_parameters().values()]
        assert any(g is not None and np.any(g != 0) for g in grads)


def mixed_sets(rng, count=60, d=3, r=6):
    """Sets of 1–3 elements: plain payloads and bags of 1–8, arrays and
    `Tensor`s, and some sets that repeat a modality."""
    def payload():
        x = rng.normal(r)
        return Tensor(x) if rng.uniform(0.0, 1.0) < 0.3 else x

    sets = []
    for i in range(count):
        elements = []
        for _ in range(int(rng.integers(1, 4))):
            m = ModalityId(int(rng.integers(0, d)))
            if rng.uniform(0.0, 1.0) < 0.5:
                elements.append(([payload() for _ in range(int(rng.integers(1, 9)))], m))
            else:
                elements.append((payload(), m))
        sets.append(SetObservation(elements=elements, label=i % 2, sample_id=f"s{i}"))
    return sets


class TestPoolSets:
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max"])
    def test_bitwise_equal_to_pool_set_of_each(self, frozen, aggregator):
        enc, _ = make_models(seed=30)
        if frozen:
            enc.freeze()
        sets = mixed_sets(SeededRng((30, aggregator)))
        assert any(len({m.index for _, m in obs.elements}) < obs.q for obs in sets)
        with no_grad():
            expected = [pool_set(enc, obs, aggregator).data.tobytes() for obs in sets]
        pooled = pool_sets(enc, sets, aggregator)
        assert [p.data.tobytes() for p in pooled] == expected
        assert not any(p.requires_grad for p in pooled)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_no_sets_no_latents(self, frozen):
        enc, _ = make_models()
        assert pool_sets(enc.freeze() if frozen else enc, [], "mean") == []

    def test_one_phi_pass_per_plain_modality_and_one_pool_per_bag_modality(self, monkeypatch):
        enc, _ = make_models(seed=31)
        enc.freeze()
        rng = SeededRng(31)
        sets = [
            SetObservation(elements=[(rng.normal(6), ModalityId(0)),
                                     ([rng.normal(6) for _ in range(k)], ModalityId(1)),
                                     (rng.normal(6), ModalityId(2))], label=0, sample_id=str(k))
            for k in range(1, 9)
        ]
        phi, pools = [], []
        phi_forward, pool_instances = enc.phi_forward, enc.pool_instances
        monkeypatch.setattr(enc, "phi_forward",
                            lambda x, m: phi.append((m, np.shape(x))) or phi_forward(x, m))
        monkeypatch.setattr(enc, "pool_instances",
                            lambda bags, m: pools.append((m, len(bags))) or pool_instances(bags, m))
        pool_sets(enc, sets, "mean")
        assert sorted(phi) == [(0, (8, 6)), (1, (36, 6)), (2, (8, 6))]
        assert pools == [(0, 8), (1, 8), (2, 8)]

    def test_a_trainable_encoder_is_one_phi_pass_per_modality_too(self, monkeypatch):
        enc, _ = make_models(seed=33)
        rng = SeededRng(33)
        sets = [
            SetObservation(elements=[(rng.normal(6), ModalityId(0)),
                                     ([rng.normal(6) for _ in range(k)], ModalityId(1))],
                           label=0, sample_id=str(k))
            for k in range(1, 9)
        ]
        with no_grad():
            expected = [pool_set(enc, obs, "max").data.tobytes() for obs in sets]
        phi = []
        phi_forward = enc.phi_forward
        monkeypatch.setattr(enc, "phi_forward",
                            lambda x, m: phi.append((m, np.shape(x))) or phi_forward(x, m))
        assert [p.data.tobytes() for p in pool_sets(enc, sets, "max")] == expected
        assert sorted(phi) == [(0, (8, 6)), (1, (36, 6))]

    BAD = {
        "width": ((np.ones(7), 0), ShapeError),
        "bag_width": (([np.ones(6), np.ones(5)], 1), ShapeError),
        "nan": ((np.full(6, np.nan), 0), NumericError),
        "bag_inf": (([np.ones(6), np.full(6, np.inf)], 1), NumericError),
        "modality": ((np.ones(6), 5), ValueError),
        "bag_modality": (([np.ones(6)], 5), ValueError),
        "empty_bag": (([], 1), ValueError),
    }

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("case", list(BAD))
    def test_a_bad_element_fails_as_in_pool_set(self, frozen, case):
        enc, _ = make_models(seed=32)
        if frozen:
            enc.freeze()
        element, error = self.BAD[case]
        rng = SeededRng(32)
        good = [random_obs(rng, bag_prob=0.5) for _ in range(4)]
        bad = random_obs(rng, q=1)
        bad.elements.append(element)  # after construction, which rejects an empty bag
        with pytest.raises(error) as alone:
            pool_set(enc, bad, "mean")
        with pytest.raises(error) as batched:
            pool_sets(enc, [*good, bad, *good], "mean")
        assert str(batched.value) == str(alone.value)
