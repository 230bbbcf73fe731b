from collections import Counter

import numpy as np
import pytest

from setfusion import baselines, trainer
from setfusion.data import DatasetSchema, apply_missingness, generate, split, to_set
from setfusion.encoder import Encoder, parameter_checksum, phase1_loss
from setfusion.errors import ContractError
from setfusion.hypernet import HyperNetwork
from setfusion.rng import SeededRng
from setfusion.setnet import SetClassifier, SetObservation, phase2_loss, predict_proba
from setfusion.tensor import Tensor, softmax_cross_entropy
from setfusion.trainer import (
    EarlyStopper,
    TrainConfig,
    collect_phase1_items,
    run_full,
    train_joint,
    train_loop,
    train_phase1,
    train_phase2,
)


def small_cfg(**overrides):
    base = dict(
        lr=1e-3, max_epochs_phase1=20, max_epochs_phase2=20, patience=5,
        d_z=8, d_l=6, backbone_hidden=12, decoder_hidden=8,
        embed_dim=4, hyper_hidden=8, rho_hidden=(8, 6),
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_dataset(n=60, r=8, noise=0.5, seed=0, rate=0.0, bags=()):
    schema = DatasetSchema(2, ["m0", "m1"], r, 2, bag_modalities=bags)
    samples = generate(schema, n=n, seed=seed, class_sep=10.0, noise_sigma=noise)
    return schema, apply_missingness(samples, rate=rate, mechanism="mcar", seed=seed + 1)


class TestEarlyStopper:
    def test_patience_rule_on_plateau(self):
        # losses 5, then eleven 4s: epoch 2 is the last improvement,
        # epoch 12 exhausts a patience of 10
        stopper = EarlyStopper(patience=10)
        losses = [5.0] + [4.0] * 11
        stopped_at = None
        for epoch, v in enumerate(losses, start=1):
            stopper.update(epoch, v)
            if stopper.should_stop:
                stopped_at = epoch
                break
        assert stopped_at == 12
        assert stopper.best_epoch == 2

    def test_strict_decrease_required(self):
        stopper = EarlyStopper(patience=2)
        assert stopper.update(1, 1.0)
        assert not stopper.update(2, 1.0)
        assert stopper.update(3, 0.999)

    def test_never_exceeds_best_plus_patience(self):
        rng = SeededRng(0)
        stopper = EarlyStopper(patience=3)
        for epoch in range(1, 100):
            stopper.update(epoch, float(rng.uniform(0, 1)))
            if stopper.should_stop:
                break
        assert epoch <= stopper.best_epoch + 3

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopper(patience=0)


class TestTrainLoop:
    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_empty_stream_rejected_before_any_step(self, empty):
        w = Tensor(np.zeros(2), requires_grad=True, name="w")
        calls = []

        def item_loss(item):
            calls.append(item)
            return softmax_cross_entropy(w, item)

        train, val = ([], [0]) if empty == "training" else ([0, 1], [])
        with pytest.raises(ValueError, match=f"empty {empty} stream"):
            train_loop({"w": w}, item_loss, train, val, small_cfg(), 3, SeededRng(0), "probe")
        assert calls == []


class TestCollectItems:
    def test_only_observed_slots_enumerated(self):
        schema, masked = tiny_dataset(n=40, rate=0.4, seed=3)
        items = collect_phase1_items(masked, schema)
        expected = sum(int(2 - m.mask.sum()) for m in masked)
        assert len(items) == expected
        assert all(0 <= m < 2 for _, m, _ in items)

    def test_bag_instances_flattened(self):
        schema, masked = tiny_dataset(n=10, bags=(1,))
        items = collect_phase1_items(masked, schema)
        expected = sum(1 + len(m.slots[1]) for m in masked)
        assert len(items) == expected


class TestPhase1:
    def test_deterministic_given_seed(self):
        def run():
            schema, masked = tiny_dataset(n=40)
            cfg = small_cfg(max_epochs_phase1=5, seed=11)
            enc = Encoder(cfg.encoder_config(schema), SeededRng(11))
            items = collect_phase1_items(masked, schema)
            report = train_phase1(enc, items[:60], items[60:80], cfg)
            return report.train_losses, report.val_losses

        assert run() == run()

    def test_empty_stream_rejected(self):
        schema, masked = tiny_dataset(n=10)
        cfg = small_cfg()
        enc = Encoder(cfg.encoder_config(schema), SeededRng(0))
        with pytest.raises(ValueError):
            train_phase1(enc, [], collect_phase1_items(masked, schema), cfg)

    def test_restores_best_validation_weights(self):
        schema, masked = tiny_dataset(n=60, seed=5)
        cfg = small_cfg(seed=5, max_epochs_phase1=12, patience=3)
        enc = Encoder(cfg.encoder_config(schema), SeededRng(5))
        items = collect_phase1_items(masked, schema)
        train_items, val_items = items[:80], items[80:]
        report = train_phase1(enc, train_items, val_items, cfg)

        from setfusion.encoder import phase1_loss
        from setfusion.tensor import no_grad

        with no_grad():
            val_now = float(np.mean([
                phase1_loss(enc.phase1_forward(x, m), y).item() for x, m, y in val_items
            ]))
        assert val_now == pytest.approx(min(report.val_losses), abs=1e-12)
        assert report.best_epoch == int(np.argmin(report.val_losses)) + 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unimodal_head_learns_separable_data(self, seed):
        schema, masked = tiny_dataset(n=80, seed=seed)
        cfg = small_cfg(seed=seed, lr=3e-3, max_epochs_phase1=30)
        enc = Encoder(cfg.encoder_config(schema), SeededRng((seed, "enc")))
        items = collect_phase1_items(masked, schema)
        train_items, val_items = items[:120], items[120:]
        train_phase1(enc, train_items, val_items, cfg)

        from setfusion.tensor import no_grad, softmax

        with no_grad():
            hits = [
                int(np.argmax(softmax(enc.phase1_forward(x, m).y_pred.data)) == y)
                for x, m, y in val_items
            ]
        assert np.mean(hits) >= 0.9


class TestPhase2:
    def test_requires_frozen_encoder(self):
        schema, masked = tiny_dataset(n=20)
        cfg = small_cfg()
        enc = Encoder(cfg.encoder_config(schema), SeededRng(0))
        model = SetClassifier(cfg.d_l, 2, SeededRng(1), hidden=cfg.rho_hidden)
        sets = [to_set(s, schema) for s in masked]
        with pytest.raises(ContractError):
            train_phase2(model, enc, sets[:10], sets[10:], cfg)

    def test_optimizer_after_freeze_holds_no_encoder_params(self):
        from setfusion.optim import Adam

        schema, _ = tiny_dataset(n=10)
        cfg = small_cfg()
        enc = Encoder(cfg.encoder_config(schema), SeededRng(0)).freeze()
        model = SetClassifier(cfg.d_l, 2, SeededRng(1), hidden=cfg.rho_hidden)
        opt = Adam(model.named_parameters(), lr=cfg.lr)
        encoder_tensors = {id(p) for p in enc.named_parameters().values()}
        assert all(id(p) not in encoder_tensors for p in opt.params)
        with pytest.raises(ContractError):
            Adam(enc.named_parameters(), lr=cfg.lr)

    def test_encoder_checksum_stable_across_phase2(self):
        schema, masked = tiny_dataset(n=50, rate=0.5, seed=7)
        cfg = small_cfg(seed=7, max_epochs_phase2=8)
        enc = Encoder(cfg.encoder_config(schema), SeededRng(7))
        enc.freeze()
        before = parameter_checksum(enc.named_parameters())
        model = SetClassifier(cfg.d_l, 2, SeededRng(8), hidden=cfg.rho_hidden)
        sets = [to_set(s, schema) for s in masked]
        train_phase2(model, enc, sets[:35], sets[35:], cfg)
        assert parameter_checksum(enc.named_parameters()) == before

    def test_high_missingness_trains_without_imputation(self):
        from setfusion.baselines import fill_count, reset_fill_count

        reset_fill_count()
        schema, masked = tiny_dataset(n=50, rate=0.5, seed=9)
        cfg = small_cfg(seed=9, max_epochs_phase1=3, max_epochs_phase2=3)
        report, _, _ = run_full(cfg, schema, masked)
        assert fill_count() == 0
        assert report.metrics.n_eval > 0


def _reference_phase2(model, enc, train_sets, val_sets, cfg):
    """Stage 2 as it ran before latents were cached: every item re-encodes its set."""
    def item_loss(obs):
        return phase2_loss(model, enc, [(obs, obs.label)])

    return train_loop(
        model.named_parameters(), item_loss, train_sets, val_sets, cfg,
        cfg.max_epochs_phase2, SeededRng((cfg.seed, "shuffle_phase2")), "phase2",
    )


def _frozen_bag_sets(seed=12):
    schema, masked = tiny_dataset(n=30, rate=0.5, seed=seed, bags=(1,))
    cfg = small_cfg(seed=seed, max_epochs_phase1=2)
    enc = Encoder(cfg.encoder_config(schema), SeededRng(seed))
    items = collect_phase1_items(masked, schema)
    train_phase1(enc, items[:40], items[40:], cfg)
    enc.freeze()
    sets = [to_set(s, schema) for s in masked]
    return enc, sets[:20], sets[20:]


class TestCachedPhase2:
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_matches_per_epoch_encoding_bitwise(self, aggregator, batch_size):
        enc, train_sets, val_sets = _frozen_bag_sets()
        cfg = small_cfg(seed=12, max_epochs_phase2=6, patience=2, batch_size=batch_size,
                        aggregator=aggregator)

        def fit(train):
            model = SetClassifier(cfg.d_l, 2, SeededRng(13), hidden=cfg.rho_hidden,
                                  aggregator=aggregator)
            report = train(model, enc, train_sets, val_sets, cfg)
            return report, {k: p.data.tobytes() for k, p in model.named_parameters().items()}

        cached, cached_params = fit(train_phase2)
        reference, reference_params = fit(_reference_phase2)
        assert cached.to_dict() == reference.to_dict()
        assert cached_params == reference_params

    def test_each_payload_is_encoded_once_per_call(self):
        enc, train_sets, val_sets = _frozen_bag_sets()
        cfg = small_cfg(seed=12, max_epochs_phase2=4)
        model = SetClassifier(cfg.d_l, 2, SeededRng(13), hidden=cfg.rho_hidden)
        calls = Counter()
        phi_forward = enc.phi_forward

        def counting_phi_forward(x, m):
            calls[(getattr(m, "index", m), np.asarray(x).tobytes())] += 1
            return phi_forward(x, m)

        enc.phi_forward = counting_phi_forward
        payloads = sum(
            len(payload) if isinstance(payload, list) else 1
            for obs in train_sets + val_sets for payload, _ in obs.elements
        )
        for _ in range(2):
            calls.clear()
            train_phase2(model, enc, train_sets, val_sets, cfg)
            assert sum(calls.values()) == payloads
            assert set(calls.values()) == {1}

    @pytest.mark.parametrize("part", ["train", "val"])
    def test_unlabeled_set_rejected_before_any_step(self, part, monkeypatch):
        from setfusion.optim import Adam

        enc, train_sets, val_sets = _frozen_bag_sets()
        unlabeled = SetObservation(train_sets[0].elements, label=None, sample_id="nolabel")
        if part == "train":
            train_sets = train_sets + [unlabeled]
        else:
            val_sets = val_sets + [unlabeled]
        steps = []
        monkeypatch.setattr(Adam, "step", lambda opt: steps.append(opt))
        cfg = small_cfg(seed=12)
        model = SetClassifier(cfg.d_l, 2, SeededRng(13), hidden=cfg.rho_hidden)
        with pytest.raises(ContractError, match="nolabel"):
            train_phase2(model, enc, train_sets, val_sets, cfg)
        assert steps == []


class TestJointLabels:
    @pytest.mark.parametrize("stream", ["training", "validation"])
    def test_unlabeled_set_rejected_before_any_step(self, stream):
        schema, masked = tiny_dataset(n=30, seed=15)
        cfg = small_cfg(seed=15, max_epochs_phase2=2)
        enc = Encoder(cfg.encoder_config(schema), SeededRng(15))
        model = SetClassifier(cfg.d_l, 2, SeededRng(16), hidden=cfg.rho_hidden)
        sets = [to_set(s, schema) for s in masked]
        train_sets, val_sets = sets[:20], sets[20:]
        unlabeled = SetObservation(sets[0].elements, label=None, sample_id="nolabel")
        if stream == "training":
            train_sets = train_sets + [unlabeled]
        else:
            val_sets = val_sets + [unlabeled]

        def checksum():
            return parameter_checksum({**enc.named_parameters(), **model.named_parameters()})

        before = checksum()
        with pytest.raises(ContractError) as err:
            train_joint(model, enc, train_sets, val_sets, cfg)
        assert str(err.value) == f"joint: unlabeled observation 'nolabel' in the {stream} stream"
        assert checksum() == before


class TestRunFull:
    def test_checksums_equal_and_metrics_present(self):
        schema, masked = tiny_dataset(n=60, seed=10)
        cfg = small_cfg(seed=10, max_epochs_phase1=5, max_epochs_phase2=5)
        report, enc, model = run_full(cfg, schema, masked)
        assert report.checksum_before_phase2 == report.checksum_after_phase2
        assert enc.frozen
        assert 0.0 <= report.metrics.accuracy <= 1.0

    def test_rerun_reproduces_metrics_exactly(self):
        schema, masked = tiny_dataset(n=60, seed=11)
        cfg = small_cfg(seed=11, max_epochs_phase1=4, max_epochs_phase2=4)
        r1, _, _ = run_full(cfg, schema, masked)
        r2, _, _ = run_full(cfg, schema, masked)
        assert r1.to_dict() == r2.to_dict()

    def test_joint_mode_trains_encoder(self):
        schema, masked = tiny_dataset(n=60, seed=12)
        cfg = small_cfg(seed=12, two_steps=False, max_epochs_phase2=4)
        report, enc, _ = run_full(cfg, schema, masked)
        assert report.phase1 is None
        assert enc.frozen
        assert report.checksum_before_phase2 != report.checksum_after_phase2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_learns_complete_separable_task(self, seed):
        schema, masked = tiny_dataset(n=120, seed=seed)
        cfg = small_cfg(seed=seed, lr=3e-3, max_epochs_phase1=25, max_epochs_phase2=25)
        report, _, _ = run_full(cfg, schema, masked)
        assert report.metrics.accuracy >= 0.95


class TestJointFrozen:
    """The joint `run_full` freezes its encoder once training is done."""

    @staticmethod
    def joint_run(aggregator):
        schema, masked = tiny_dataset(n=40, rate=0.4, seed=15, bags=(1,))
        cfg = small_cfg(seed=15, two_steps=False, max_epochs_phase2=3, aggregator=aggregator)
        report, enc, model = run_full(cfg, schema, masked)
        live = Encoder(cfg.encoder_config(schema), SeededRng(0))  # unfrozen copy
        for name, p in live.named_parameters().items():
            p.data[...] = enc.named_parameters()[name].data
        _, _, test = split(masked, cfg.split_ratios, seed=(cfg.seed, "split"))
        sets = [to_set(s, schema) for s in masked]
        return report, enc, live, model, sets, [to_set(s, schema) for s in test]

    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max"])
    def test_predictions_and_metrics_equal_the_live_path_bitwise(self, aggregator):
        report, enc, live, model, sets, test_sets = self.joint_run(aggregator)
        assert any(isinstance(p, list) for obs in sets for p, _ in obs.elements)  # bags
        for obs in sets:
            frozen = predict_proba(model, enc, obs)
            assert frozen.tobytes() == predict_proba(model, live, obs).tobytes()
        assert report.metrics == trainer.evaluate_sets(model, live, test_sets)

    def test_prediction_generates_no_conditional_layer(self, monkeypatch):
        _, enc, live, model, sets, test_sets = self.joint_run("max")
        calls = []
        generate_weights = HyperNetwork.generate_weights
        monkeypatch.setattr(HyperNetwork, "generate_weights",
                            lambda self, m: calls.append(m) or generate_weights(self, m))
        trainer.evaluate_sets(model, enc, test_sets)
        for obs in sets:
            predict_proba(model, enc, obs)
        assert calls == []
        predict_proba(model, live, sets[0])  # the live path still generates per element
        assert len(calls) > 0


class TestEvaluateSetsLabels:
    """A set or class `evaluate_sets` cannot score is rejected before any prediction."""

    @staticmethod
    def evaluate(num_classes, bad_label, monkeypatch, positive_class=1):
        schema = DatasetSchema(2, ["m0", "m1"], 8, num_classes)
        masked = apply_missingness(generate(schema, n=6, seed=16), rate=0.0)
        sets = [to_set(s, schema) for s in masked]
        sets[-1].label = bad_label
        cfg = small_cfg()
        enc = Encoder(cfg.encoder_config(schema), SeededRng(0)).freeze()
        model = SetClassifier(cfg.d_l, num_classes, SeededRng(1), hidden=cfg.rho_hidden)
        predictions = []
        monkeypatch.setattr(trainer, "predict_proba",
                            lambda *args: predictions.append(args) or predict_proba(*args))
        with pytest.raises(ContractError) as err:
            trainer.evaluate_sets(model, enc, sets, positive_class=positive_class)
        assert predictions == []
        return str(err.value)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_unlabeled_set_rejected(self, num_classes, monkeypatch):
        message = self.evaluate(num_classes, None, monkeypatch)
        assert message == "unlabeled observation 's000005' in evaluation"

    @pytest.mark.parametrize("num_classes, label", [(2, 7), (2, -1), (3, 3)])
    def test_label_outside_the_model_rejected(self, num_classes, label, monkeypatch):
        message = self.evaluate(num_classes, label, monkeypatch)
        assert message == (
            f"label {label} of 's000005' is not a class of a {num_classes}-class model"
        )

    @pytest.mark.parametrize("num_classes, positive_class", [(2, 5), (2, -1), (3, 3)])
    def test_positive_class_outside_the_model_rejected(self, num_classes, positive_class,
                                                       monkeypatch):
        message = self.evaluate(num_classes, 0, monkeypatch, positive_class=positive_class)
        assert message == (
            f"positive_class {positive_class} is not a class of a {num_classes}-class model"
        )


class TestPositiveClass:
    @pytest.mark.parametrize("field", ["seed", "positive_class"])
    def test_negative_value_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            small_cfg(**{field: -1})

    @pytest.fixture
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(trainer, "train_loop", refuse)
        monkeypatch.setattr(baselines, "train_loop", refuse)

    @pytest.mark.parametrize("two_steps", [True, False])
    def test_run_full_rejects_a_class_outside_the_schema(self, no_training, two_steps):
        schema, masked = tiny_dataset(n=30, seed=13)
        cfg = small_cfg(positive_class=2, two_steps=two_steps)
        with pytest.raises(ValueError, match="positive_class 2 is not a class of a 2-class schema"):
            run_full(cfg, schema, masked)

    @pytest.mark.parametrize("kind", [baselines.BaselineKind("unimodal", k=0),
                                      baselines.BaselineKind("zero_fill_multimodal"),
                                      baselines.BaselineKind("late_fusion_average")])
    def test_run_baseline_rejects_a_class_outside_the_schema(self, no_training, kind):
        schema, masked = tiny_dataset(n=30, seed=14)
        with pytest.raises(ValueError, match="positive_class 2 is not a class"):
            baselines.run_baseline(kind, schema, masked[:10], masked[10:20], masked[20:],
                                   small_cfg(positive_class=2))


def graph_nodes(loss):
    """Recorded op nodes reachable from `loss` through `_parents`."""
    seen, todo = set(), [loss]
    while todo:
        t = todo.pop()
        if t not in seen:
            seen.add(t)
            todo.extend(t._parents)
    return sum(t._bwd is not None for t in seen)


class TestGraphSize:
    """Each dense stack is one node; a change that grows the graph back fails here."""

    def setup_method(self):
        self.cfg = small_cfg()
        schema, _ = tiny_dataset(n=6)
        self.enc = Encoder(self.cfg.encoder_config(schema), SeededRng(1))
        self.x = Tensor(SeededRng(2).normal(schema.payload_width))

    def test_stage1_item_is_11_nodes(self):
        # backbone, row, generator, 2 head segments, conditional linear,
        # decoder, unimodal classifier, mse, cross-entropy, add
        loss = phase1_loss(self.enc.phase1_forward(self.x, 1), 0)
        assert graph_nodes(loss) == 11

    def test_rho_step_is_2_nodes(self):
        model = SetClassifier(self.cfg.d_l, 2, SeededRng(3), hidden=self.cfg.rho_hidden)
        latent = Tensor(SeededRng(4).normal(self.cfg.d_l))  # a pooled latent is a constant
        assert graph_nodes(softmax_cross_entropy(model.rho(latent), 1)) == 2

    def test_frozen_phi_is_1_node(self):
        self.enc.freeze()
        payload = Tensor(self.x.data, requires_grad=True)
        assert graph_nodes(self.enc.phi_forward(payload, 1)) == 1
