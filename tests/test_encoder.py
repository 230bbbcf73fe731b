from contextlib import nullcontext

import numpy as np
import pytest

from setfusion.encoder import Encoder, EncoderConfig, parameter_checksum, phase1_loss
from setfusion.errors import ContractError, NumericError, ShapeError
from setfusion.hypernet import ModalityId
from setfusion.nn import aggregate
from setfusion.optim import Adam
from setfusion.rng import SeededRng
from setfusion.setnet import SetClassifier, SetObservation, pool_set, pool_sets, predict_proba
from setfusion.tensor import Tensor, dense_stack, no_grad, reduce, softmax_cross_entropy

from conftest import central_difference, rel_err
from reference_ops import add, mse, phase1_graph, phase1_graph_loss


def _spot_check_params(model, eval_loss, rng, picks_per_param=3, h=1e-5):
    """Worst relative error over random parameter coordinates.

    Assumes gradients were already populated by a backward pass whose
    forward agrees with `eval_loss` at the current parameters.
    """
    worst = 0.0
    for name, param in model.named_parameters().items():
        flat = param.data.reshape(-1)
        grad = None if param.grad is None else param.grad.reshape(-1)
        for idx in rng.permutation(flat.size)[:picks_per_param]:
            orig = flat[idx]
            flat[idx] = orig + h
            hi = eval_loss()
            flat[idx] = orig - h
            lo = eval_loss()
            flat[idx] = orig
            numeric = (hi - lo) / (2 * h)
            analytic = 0.0 if grad is None else grad[idx]
            worst = max(worst, rel_err(np.array([analytic]), np.array([numeric])))
    return worst


def small_config(**overrides):
    base = dict(
        input_width=6, num_classes=2, num_modalities=3,
        d_z=5, d_l=4, backbone_hidden=8, decoder_hidden=8,
        embed_dim=4, hyper_hidden=8,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def make_encoder(seed=0, **overrides):
    return Encoder(small_config(**overrides), SeededRng(seed))


class TestEncoderConfig:
    FIELDS = ["input_width", "num_classes", "num_modalities", "d_z", "d_l", "backbone_hidden",
              "decoder_hidden", "embed_dim", "hyper_hidden"]

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", FIELDS)
    def test_a_value_that_is_no_integer_rejected(self, field, value):
        with pytest.raises(ValueError) as err:
            small_config(**{field: value})
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("field, low", [("num_classes", 2), ("num_modalities", 1),
                                            ("input_width", 1), ("d_z", 1)])
    def test_a_value_below_the_least_rejected(self, field, low):
        with pytest.raises(ValueError) as err:
            small_config(**{field: low - 1})
        assert str(err.value) == f"{field} must be >= {low}, got {low - 1}"

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_numpy_integer_accepted(self, field):
        assert getattr(small_config(**{field: np.int64(3)}), field) == 3


class TestPhiForward:
    def test_output_width_is_latent_dim_for_every_modality(self):
        enc = make_encoder()
        x = SeededRng(1).normal(6)
        for m in range(3):
            assert enc.phi_forward(x, m).shape == (4,)

    @pytest.mark.parametrize("seed", range(20))
    def test_same_payload_different_modality_different_latents(self, seed):
        enc = make_encoder(seed=seed)
        x = SeededRng((seed, 9)).normal(6)
        e0 = enc.phi_forward(x, 0)
        e1 = enc.phi_forward(x, 1)
        assert np.any(e0.data != e1.data)

    def test_width_mismatch(self):
        enc = make_encoder()
        with pytest.raises(ShapeError):
            enc.phi_forward(np.ones(7), 0)

    def test_invalid_modality(self):
        enc = make_encoder()
        with pytest.raises(ValueError):
            enc.phi_forward(np.ones(6), 3)

    def test_frozen_encoder_parameters_survive_many_forwards(self):
        enc = make_encoder().freeze()
        before = parameter_checksum(enc.named_parameters())
        x = SeededRng(2).normal(6)
        for i in range(1000):
            enc.phi_forward(x, i % 3)
        assert parameter_checksum(enc.named_parameters()) == before


class TestPhase1Forward:
    def test_output_shapes(self):
        enc = make_encoder()
        out = enc.phase1_forward(SeededRng(3).normal(6), 1)
        assert out.z.shape == (5,)
        assert out.e.shape == (4,)
        assert out.z_rec.shape == (5,)
        assert out.y_pred.shape == (2,)

    def test_forced_inverse_decoder_reconstructs_exactly(self):
        # linear toy config with d_l == d_z: generator emits identity,
        # decoder computes relu([I;-I]e) then [I,-I]. => z_rec == e == z
        enc = make_encoder(d_z=4, d_l=4, decoder_hidden=8)
        h = enc.hypernet
        h.head.weight.data[:] = 0.0
        h.head.bias.data[:] = 0.0
        h.head.bias.data[:16] = np.eye(4).reshape(-1)
        dec0, dec1 = enc.decoder.layers
        dec0.weight.data[:] = np.vstack([np.eye(4), -np.eye(4)])
        dec0.bias.data[:] = 0.0
        dec1.weight.data[:] = np.hstack([np.eye(4), -np.eye(4)])
        dec1.bias.data[:] = 0.0
        out = enc.phase1_forward(SeededRng(4).normal(6), 2)
        assert mse(out.z, out.z_rec).item() == 0.0

    def test_loss_gradient_reaches_backbone_input_layer(self):
        enc = make_encoder(seed=5)
        out = enc.phase1_forward(SeededRng(6).normal(6), 0)
        phase1_loss(out, 1).backward()
        first = enc.backbone.layers[0].weight
        assert first.grad is not None and np.any(first.grad != 0.0)


class TestPhase1Loss:
    def test_nonnegative_and_near_zero_when_perfect(self):
        enc = make_encoder(d_z=4, d_l=4)
        # reuse the exact-inverse setup, then saturate the right logit
        h = enc.hypernet
        h.head.weight.data[:] = 0.0
        h.head.bias.data[:] = 0.0
        h.head.bias.data[:16] = np.eye(4).reshape(-1)
        dec0, dec1 = enc.decoder.layers
        dec0.weight.data[:] = np.vstack([np.eye(4), -np.eye(4)])
        dec0.bias.data[:] = 0.0
        dec1.weight.data[:] = np.hstack([np.eye(4), -np.eye(4)])
        dec1.bias.data[:] = 0.0
        enc.uniclassifier.weight.data[:] = 0.0
        enc.uniclassifier.bias.data[:] = [50.0, -50.0]
        out = enc.phase1_forward(SeededRng(7).normal(6), 0)
        assert 0.0 <= phase1_loss(out, 0).item() < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_is_nonnegative(self, seed):
        enc = make_encoder(seed=seed)
        out = enc.phase1_forward(SeededRng((seed, 1)).normal(6), 0)
        assert phase1_loss(out, 1).item() >= 0.0

    def test_total_equals_sum_of_parts(self):
        enc = make_encoder(seed=8)
        x = SeededRng(9).normal(6)
        out = enc.phase1_forward(x, 1)
        total = phase1_loss(out, 1).item()
        with no_grad():
            rec = mse(out.z.detach(), out.z_rec).item()
            ce = softmax_cross_entropy(out.y_pred, 1).item()
        assert abs(total - (rec + ce)) < 1e-12

    def test_invalid_class(self):
        enc = make_encoder()
        out = enc.phase1_forward(np.ones(6), 0)
        with pytest.raises(ValueError):
            phase1_loss(out, 2)

    @staticmethod
    def _attached_loss(enc, x, m, y):
        # phase1_loss over the node-by-node reference graph, with z left
        # live on the target side of the mse
        out = phase1_graph(enc, x, m)
        return add(mse(out.z, out.z_rec), softmax_cross_entropy(out.y_pred, y))

    def test_detached_target_blocks_gradient_on_target_side(self):
        enc = make_encoder(seed=10)
        x = SeededRng(11).normal(6)

        phase1_loss(enc.phase1_forward(x, 0), 0).backward()
        detached = {n: p.grad.copy() for n, p in enc.named_parameters().items()}
        for p in enc.named_parameters().values():
            p.zero_grad()

        self._attached_loss(enc, x, 0, 0).backward()
        attached = {n: p.grad for n, p in enc.named_parameters().items()}
        first = "encoder/backbone/0/w"
        assert attached[first] is not None
        assert np.any(detached[first] != attached[first])

    @pytest.mark.parametrize("seed", range(20))
    def test_full_loss_gradient_matches_finite_differences(self, seed):
        # the phase-1 graph is differentiable end to end: with the target
        # side live, plain finite differences of the loss are the oracle
        enc = make_encoder(seed=seed)
        x = SeededRng((seed, 2)).normal(6)
        y = seed % 2
        m = seed % 3

        def eval_loss():
            with no_grad():
                return self._attached_loss(enc, x, m, y).item()

        self._attached_loss(enc, x, m, y).backward()
        assert _spot_check_params(enc, eval_loss, SeededRng((seed, 3))) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_detached_loss_gradient_matches_fixed_target_oracle(self, seed):
        # with a detached target the oracle must hold the target at its
        # unperturbed value, otherwise it measures a different function
        enc = make_encoder(seed=seed)
        x = SeededRng((seed, 4)).normal(6)
        y = seed % 2
        m = seed % 3
        with no_grad():
            target = Tensor(enc.phase1_forward(x, m).z.data.copy())

        def eval_loss():
            with no_grad():
                out = enc.phase1_forward(x, m)
                return mse(target, out.z_rec).item() + softmax_cross_entropy(out.y_pred, y).item()

        loss = phase1_loss(enc.phase1_forward(x, m), y)
        loss.backward()
        assert _spot_check_params(enc, eval_loss, SeededRng((seed, 5))) < 1e-4


class TestPhase1Node:
    """A stage-1 item is one node, bitwise the node-by-node reference graph."""

    @staticmethod
    def twins(seed=7, **overrides):
        cfg = small_config(num_classes=3, **overrides)
        return Encoder(cfg, SeededRng(seed)), Encoder(cfg, SeededRng(seed))

    def test_an_item_is_one_node_over_the_payload_and_every_parameter(self):
        enc = make_encoder()
        x = Tensor(SeededRng(1).normal(6))
        loss = phase1_loss(enc.phase1_forward(x, 1), 0)
        assert loss._bwd is not None
        assert all(p._bwd is None for p in loss._parents)
        assert set(map(id, loss._parents)) == {id(x), *map(id, enc.named_parameters().values())}

    @pytest.mark.parametrize("m", range(3))
    def test_loss_gradients_and_300_adam_steps_bitwise_the_reference(self, m):
        fused, ref = self.twins()
        opts = [Adam(e.named_parameters(), lr=1e-2) for e in (fused, ref)]
        rng = SeededRng((m, "items"))
        for step in range(300):
            x, y = Tensor(rng.normal(6) * 3.0), int(rng.integers(0, 3))
            a = phase1_loss(fused.phase1_forward(x, m), y)
            b = phase1_graph_loss(phase1_graph(ref, x, m), y)
            a.backward()
            b.backward()
            assert np.asarray(a.data).tobytes() == np.asarray(b.data).tobytes()
            if step < 20:  # each parameter's gradient, not only the buffers they fill
                for (name, p), q in zip(fused.named_parameters().items(),
                                        ref.named_parameters().values()):
                    assert p.grad.tobytes() == q.grad.tobytes(), name
            assert opts[0]._grad.tobytes() == opts[1]._grad.tobytes()
            for opt in opts:
                opt.step()
        assert opts[0].flat.tobytes() == opts[1].flat.tobytes()

    @pytest.mark.parametrize("frozen", [False, True])
    def test_payload_gradient_bitwise_the_reference(self, frozen):
        fused, ref = self.twins(seed=3)
        if frozen:
            fused.freeze()
            ref.freeze()
        grads = []
        for enc, loss_of in ((fused, lambda x: phase1_loss(fused.phase1_forward(x, 2), 1)),
                             (ref, lambda x: phase1_graph_loss(phase1_graph(ref, x, 2), 1))):
            x = Tensor(SeededRng(4).normal(6), requires_grad=True)
            loss_of(x).backward()
            grads.append([x.grad.tobytes()] + [None if p.grad is None else p.grad.tobytes()
                                               for p in enc.named_parameters().values()])
        assert grads[0] == grads[1]
        assert all(g is None for g in grads[0][1:]) == frozen

    def test_a_second_backward_without_clearing_is_an_error(self):
        enc = make_encoder()
        x = SeededRng(5).normal(6)
        phase1_loss(enc.phase1_forward(x, 0), 1).backward()
        with pytest.raises(ContractError, match="already has a gradient"):
            phase1_loss(enc.phase1_forward(x, 0), 1).backward()

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_each_row_of_a_stack_bitwise_its_payload_alone(self, k):
        enc, _ = self.twins(seed=k)
        rng = SeededRng((k, "rows"))
        xs = [rng.normal(6) for _ in range(k)]
        ys = [int(rng.integers(0, 3)) for _ in range(k)]
        with no_grad():
            out = enc.phase1_forward(np.stack(xs), 1)
            losses = phase1_loss(out, ys)
            assert losses.shape == (k,) and out.backward is None
            for i, (x, y) in enumerate(zip(xs, ys)):
                one = enc.phase1_forward(x, 1)
                for field in ("z", "e", "z_rec", "y_pred"):
                    assert getattr(out, field).data[i].tobytes() == getattr(one, field).data.tobytes()
                assert losses.data[i].tobytes() == np.asarray(phase1_loss(one, y).data).tobytes()

    def test_a_stack_that_would_record_is_rejected(self):
        enc = make_encoder()
        with pytest.raises(ContractError, match="only one payload is recorded"):
            enc.phase1_forward(np.ones((2, 6)), 0)

    @pytest.mark.parametrize("shape", [(7,), (2, 7), (2, 2, 6)])
    def test_a_payload_of_the_wrong_shape_rejected(self, shape):
        enc = make_encoder()
        with no_grad(), pytest.raises(ShapeError) as err:
            enc.phase1_forward(np.ones(shape), 0)
        assert str(err.value) == f"encoder expects payload width 6, got shape {shape}"

    # parameter -> (index, value) writes; the error the first probe to see them raises
    CORRUPTIONS = {
        "backbone relu input -inf": ({"encoder/backbone/0/b": (0, -np.inf)}, "linear"),
        "backbone final relu input -inf": ({"encoder/backbone/1/b": (0, -np.inf)}, "linear"),
        "embedding row nan": ({"hypernet/embedding": ((1, 0), np.nan)}, "row"),
        "generator relu input -inf": ({"hypernet/trunk/b": (0, -np.inf)}, "linear"),
        "generated layer inf": ({"hypernet/head/b": (0, np.inf)}, "linear"),
        "decoder relu input -inf": ({"encoder/decoder/0/b": (0, -np.inf)}, "linear"),
        "decoder output inf": ({"encoder/decoder/1/b": (0, np.inf)}, "linear"),
        "classifier output inf": ({"encoder/uniclassifier/b": (0, np.inf)}, "linear"),
        "reconstruction overflows": ({"encoder/decoder/1/b": (slice(None), 1e200)}, "mse"),
        "cross-entropy overflows": ({"encoder/uniclassifier/b": (slice(None), [1e308, -1e308, 0.0])},
                                    "softmax_cross_entropy"),
        "sum overflows": ({"encoder/decoder/1/b": (0, 1.2e154),
                           "encoder/uniclassifier/b": (slice(None), [1.7e308, 0.0, 0.0])}, "add"),
    }

    @pytest.mark.parametrize("recording", [True, False], ids=["recording", "no_grad"])
    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_every_probe_raises_as_in_the_reference(self, case, recording):
        writes, op = self.CORRUPTIONS[case]
        fused, ref = self.twins(seed=8)
        for enc in (fused, ref):
            params = enc.named_parameters()
            for name, (index, value) in writes.items():
                params[name].data[index] = value
        x = SeededRng(9).normal(6)
        errors = []
        with np.errstate(over="ignore", invalid="ignore"), nullcontext() if recording else no_grad():
            for loss_of in (lambda: phase1_loss(fused.phase1_forward(x, 1), 1),
                            lambda: phase1_graph_loss(phase1_graph(ref, x, 1), 1)):
                with pytest.raises(NumericError) as err:
                    loss_of()
                errors.append(str(err.value))
        assert errors == [f"{op} produced non-finite values"] * 2

    @pytest.mark.parametrize("label", [3, -1, 1.5, True, None])
    def test_a_label_that_is_no_class_rejected_as_in_the_reference(self, label):
        fused, ref = self.twins()
        x = SeededRng(10).normal(6)
        messages = []
        for loss_of in (lambda: phase1_loss(fused.phase1_forward(x, 0), label),
                        lambda: phase1_graph_loss(phase1_graph(ref, x, 0), label)):
            with pytest.raises(ValueError) as err:
                loss_of()
            messages.append(str(err.value))
        assert messages == [f"softmax_cross_entropy: class {label!r} is not an integer in [0, 3)"] * 2


class TestPoolInstances:
    def test_singleton_bag_equals_plain_forward(self):
        enc = make_encoder()
        x = SeededRng(12).normal(6)
        pooled = enc.pool_instances([[x]], 1)[0]
        np.testing.assert_array_equal(pooled.data, enc.phi_forward(x, 1).data)

    def test_duplicated_element_is_idempotent(self):
        enc = make_encoder()
        x = SeededRng(13).normal(6)
        np.testing.assert_array_equal(
            enc.pool_instances([[x, x.copy()]], 0)[0].data,
            enc.pool_instances([[x]], 0)[0].data,
        )

    def test_permutation_invariance_bitwise(self):
        enc = make_encoder()
        rng = SeededRng(14)
        bag = [rng.normal(6) for _ in range(5)]
        reference = enc.pool_instances([bag], 2)[0].data.tobytes()
        for _ in range(100):
            order = rng.permutation(5)
            shuffled = [bag[i] for i in order]
            assert enc.pool_instances([shuffled], 2)[0].data.tobytes() == reference

    @pytest.mark.parametrize("frozen", [False, True])
    def test_no_bags_no_latents(self, frozen):
        enc = make_encoder().freeze() if frozen else make_encoder()
        assert enc.pool_instances([], 0) == []

    @pytest.mark.parametrize("frozen", [False, True])
    def test_empty_bag_rejected(self, frozen):
        enc = make_encoder().freeze() if frozen else make_encoder()
        with pytest.raises(ValueError):
            enc.pool_instances([[]], 0)

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("bad", [np.ones(7), np.ones(5), np.ones((2, 6)), np.float64(1.0)])
    def test_mixed_widths_rejected_naming_the_bad_instance(self, frozen, bad):
        enc = make_encoder().freeze() if frozen else make_encoder()
        bag = [np.ones(6), bad, np.ones(6)]
        with pytest.raises(ShapeError) as err:
            enc.pool_instances([bag], 0)
        assert str(err.value) == f"encoder expects payload width 6, got shape {np.shape(bad)}"

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_instance_rejected(self, frozen, value):
        enc = make_encoder().freeze() if frozen else make_encoder()
        bad = np.ones(6)
        bad[3] = value
        with pytest.raises(NumericError):
            enc.pool_instances([[np.ones(6), bad]], 1)


class TestFrozenBagStack:
    """A frozen encoder encodes a bag as one (k, r) stack."""

    @staticmethod
    def per_instance(enc, xs, m):
        """The pooled latent as k separate φ passes compute it."""
        return aggregate([enc.phi_forward(x, m) for x in xs], "max").data.tobytes()

    @pytest.mark.parametrize("integer", [False, True], ids=["normal", "integer"])
    def test_bitwise_equal_to_one_pass_per_instance(self, integer):
        enc = make_encoder(seed=21)
        rng = SeededRng((21, integer))
        if integer:  # integer weights and payloads put many pre-activations at exactly 0
            for p in enc.named_parameters().values():
                p.data[:] = np.round(p.data * 2.0)

        def payload():
            return rng.integers(-2, 3, 6).astype(np.float64) if integer else rng.normal(6)

        bags = [(m, [payload() for _ in range(k)]) for m in range(3) for k in range(1, 9)]
        live = [self.per_instance(enc, xs, m) for m, xs in bags]
        enc.freeze()
        for (m, xs), expected in zip(bags, live):
            assert self.per_instance(enc, xs, m) == expected
            assert enc.pool_instances([xs], m)[0].data.tobytes() == expected
            assert enc.pool_instances([xs], ModalityId(m))[0].data.tobytes() == expected

    def test_tensor_payloads_keep_their_gradient(self):
        enc = make_encoder(seed=24).freeze()
        rng = SeededRng(24)
        xs = [Tensor(rng.normal(6), requires_grad=True) for _ in range(3)]
        arrays = [x.data.copy() for x in xs]
        pooled = enc.pool_instances([xs], 1)[0]
        assert pooled.data.tobytes() == enc.pool_instances([arrays], 1)[0].data.tobytes()
        reduce(pooled, 0, "sum").backward()
        assert any(np.any(x.grad != 0.0) for x in xs)

    def test_one_dense_stack_call_per_bag(self, monkeypatch):
        from setfusion import encoder

        enc = make_encoder(seed=22).freeze()
        calls = []

        def counting_dense_stack(x, layers, final_relu=False):
            calls.append(x.shape)
            return dense_stack(x, layers, final_relu)

        monkeypatch.setattr(encoder, "dense_stack", counting_dense_stack)
        rng = SeededRng(22)
        enc.pool_instances([[rng.normal(6) for _ in range(5)]], 2)
        assert calls == [(5, 6)]


class TestPayloadForms:
    """φ takes one (r,) payload or a list of payloads, frozen or trainable."""

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("entry", ["phi_forward", "pool_set", "predict_proba", "pool_sets"])
    def test_a_2d_array_is_one_malformed_payload(self, frozen, entry):
        enc = make_encoder(seed=23)
        if frozen:
            enc.freeze()
        model = SetClassifier(4, 2, SeededRng(23), hidden=(3, 3))
        obs = SetObservation(elements=[(np.ones((2, 6)), ModalityId(0))])
        calls = {
            "phi_forward": lambda: enc.phi_forward(np.ones((2, 6)), 0),
            "pool_set": lambda: pool_set(enc, obs, "mean"),
            "predict_proba": lambda: predict_proba(model, enc, obs),
            "pool_sets": lambda: pool_sets(enc, [obs], "mean"),
        }
        with pytest.raises(ShapeError) as err:
            calls[entry]()
        assert str(err.value) == "encoder expects payload width 6, got shape (2, 6)"

    @pytest.mark.parametrize("frozen", [False, True])
    def test_a_list_is_bitwise_the_rows_of_single_payloads(self, frozen):
        enc = make_encoder(seed=25)
        if frozen:
            enc.freeze()
        rng = SeededRng(25)
        xs = [rng.normal(6) for _ in range(5)]
        xs[0] = np.zeros(6)  # every backbone pre-activation at its bias
        with no_grad():
            stacked = enc.phi_forward([xs[0], *(Tensor(x) for x in xs[1:])], 2)
            rows = [enc.phi_forward(x, 2).data.tobytes() for x in xs]
        assert stacked.shape == (5, 4) and not stacked.requires_grad
        assert [r.tobytes() for r in stacked.data] == rows

    def test_a_list_under_grad_on_a_trainable_encoder_is_rejected(self):
        enc = make_encoder(seed=26)
        xs = [np.ones(6), np.zeros(6)]
        with pytest.raises(ContractError, match="stack takes gradient"):
            enc.phi_forward(xs, 0)
        assert enc.freeze().phi_forward(xs, 0).shape == (2, 4)
        with pytest.raises(ContractError, match="stack takes gradient"):
            enc.phi_forward([Tensor(np.ones(6), requires_grad=True)], 0)

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("bad", [np.ones(7), np.ones((2, 6)), np.float64(1.0)])
    def test_a_list_names_its_malformed_payload(self, frozen, bad):
        enc = make_encoder(seed=27).freeze() if frozen else make_encoder(seed=27)
        with pytest.raises(ShapeError) as err, no_grad():
            enc.phi_forward([np.ones(6), Tensor(bad)], 1)
        assert str(err.value) == f"encoder expects payload width 6, got shape {np.shape(bad)}"

    @pytest.mark.parametrize("frozen", [False, True])
    def test_an_empty_list_is_rejected(self, frozen):
        enc = make_encoder(seed=28).freeze() if frozen else make_encoder(seed=28)
        with pytest.raises(ShapeError) as err, no_grad():
            enc.phi_forward([], 1)
        assert str(err.value) == "encoder expects at least one payload, got an empty list"


class TestFreezeContract:
    def test_checksum_unchanged_by_training_steps_of_other_params(self):
        enc = make_encoder(seed=15).freeze()
        checksum = parameter_checksum(enc.named_parameters())
        other = Tensor(np.ones(3), requires_grad=True, name="other")
        opt = Adam({"other": other}, lr=0.1)
        for _ in range(5):
            from setfusion.tensor import reduce

            feats = enc.phi_forward(SeededRng(16).normal(6), 0)
            loss = mse(other, Tensor(feats.data[:3]))
            loss.backward()
            opt.step()
        assert parameter_checksum(enc.named_parameters()) == checksum

    def test_frozen_parameters_rejected_by_optimizer(self):
        enc = make_encoder().freeze()
        with pytest.raises(ContractError):
            Adam(enc.named_parameters())


class TestFrozenHeadCache:
    """`freeze` generates every modality's conditional layer once."""

    def test_frozen_output_equals_unfrozen_output_bitwise(self):
        enc = make_encoder(seed=3)
        xs = [SeededRng((3, i)).normal(6) for i in range(4)]
        live = {(i, m): enc.phi_forward(x, m).data.tobytes()
                for i, x in enumerate(xs) for m in range(3)}
        enc.freeze()
        for (i, m), expected in live.items():
            assert enc.phi_forward(xs[i], m).data.tobytes() == expected

    def test_freeze_clears_the_head_cache(self):
        enc = make_encoder(seed=4).freeze()
        x = SeededRng(5).normal(6)
        stale = enc.phi_forward(x, 1).data.copy()
        enc.hypernet.head.bias.data[:] += 1.0  # e.g. weights restored after freezing
        enc.freeze()
        fresh = enc.phi_forward(x, 1).data
        assert np.any(fresh != stale)
        live = enc.hypernet.conditional_linear(enc.backbone(Tensor(x)), 1)
        assert fresh.tobytes() == live.data.tobytes()

    @pytest.mark.parametrize("m", [-1, 3])
    def test_out_of_range_modality_rejected_as_when_unfrozen(self, m):
        enc = make_encoder(seed=5)
        x = SeededRng(6).normal(6)
        with pytest.raises(ValueError) as live:
            enc.phi_forward(x, m)
        enc.freeze()
        with pytest.raises(ValueError) as frozen:
            enc.phi_forward(x, m)
        assert str(frozen.value) == str(live.value) == f"modality index {m} out of range [0, 3)"


class TestTrainability:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase1_loss_drops_on_separable_unimodal_task(self, seed):
        # lr sized for the 200-step horizon of this property
        rng = SeededRng((seed, "task"))
        enc = make_encoder(seed=seed, input_width=8, num_modalities=1)
        centroids = {0: rng.normal(8) * 4, 1: rng.normal(8) * 4}
        items = [(centroids[i % 2] + 0.1 * rng.normal(8), i % 2) for i in range(32)]
        opt = Adam(enc.named_parameters(), lr=1e-2)

        def epoch_loss():
            with no_grad():
                return float(np.mean([
                    phase1_loss(enc.phase1_forward(x, 0), y).item() for x, y in items
                ]))

        initial = epoch_loss()
        for step in range(200):
            x, y = items[step % len(items)]
            loss = phase1_loss(enc.phase1_forward(x, 0), y)
            loss.backward()
            opt.step()
        assert epoch_loss() < 0.3 * initial
