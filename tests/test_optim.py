import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from setfusion.encoder import Encoder, EncoderConfig, phase1_loss
from setfusion.errors import ContractError
from setfusion.optim import BETA1, BETA2, EPSILON, Adam
from setfusion.rng import SeededRng
from setfusion.tensor import Tensor, linear, reduce

from reference_ops import add, mse


def make_param(values, name="w"):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True, name=name)


class TestAdamStep:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        w = make_param([1.0, -2.0])
        opt = Adam({"w": w}, lr=0.1)
        w.grad = np.zeros(2)
        before = w.data.tobytes()
        opt.step()
        assert w.data.tobytes() == before
        assert w.grad is None

    def test_constant_gradient_moves_against_its_sign(self):
        w = make_param([1.0, -1.0])
        opt = Adam({"w": w}, lr=0.1)
        for _ in range(50):
            w.grad = np.array([1.0, -1.0])
            opt.step()
        assert w.data[0] < 1.0 - 40 * 0.1 * 0.9
        assert w.data[1] > -1.0 + 40 * 0.1 * 0.9

    def test_first_step_matches_hand_computed_value(self):
        # m_hat = g, v_hat = g^2 after bias correction, so the first
        # update is exactly lr * g / (|g| + eps)
        w = make_param([1.0])
        opt = Adam({"w": w}, lr=0.1)
        w.grad = np.array([1.0])
        opt.step()
        expected = 1.0 - 0.1 * 1.0 / (1.0 + EPSILON)
        assert w.data[0] == pytest.approx(expected, abs=1e-15)
        assert w.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_missing_grad_names_parameter(self):
        w = make_param([1.0], name="w")
        b = make_param([2.0], name="head/bias")
        opt = Adam({"w": w, "head/bias": b})
        w.grad = np.array([1.0])
        with pytest.raises(ContractError, match="head/bias"):
            opt.step()

    def test_step_counter_increases_by_one(self):
        w = make_param([1.0])
        opt = Adam({"w": w}, lr=0.1)
        for expected_t in (1, 2, 3):
            w.grad = np.array([0.5])
            opt.step()
            assert opt.t == expected_t

    def test_frozen_parameter_rejected_at_construction(self):
        w = make_param([1.0])
        w.requires_grad = False
        with pytest.raises(ContractError, match="frozen"):
            Adam({"w": w})

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam({"w": make_param([1.0])}, lr=0.0)

    @pytest.mark.parametrize("lr, message", [
        (float("nan"), "lr must be finite and positive, got nan"),
        (float("inf"), "lr must be finite and positive, got inf"),
        (True, "lr must be a real number, got True"),
        (0, "lr must be finite and positive, got 0"),
        (-1, "lr must be finite and positive, got -1"),
    ], ids=["nan", "inf", "True", "0", "-1"])
    def test_an_lr_that_is_no_finite_positive_number_rejected(self, lr, message):
        with pytest.raises(ValueError) as err:
            Adam({"w": make_param([1.0])}, lr=lr)
        assert str(err.value) == message


def reference_adam(values, grad_steps, lr):
    """The per-tensor Adam loop the flat update must reproduce bitwise."""
    values = {k: v.copy() for k, v in values.items()}
    m = {k: np.zeros_like(v) for k, v in values.items()}
    v_ = {k: np.zeros_like(v) for k, v in values.items()}
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        step_size = lr * math.sqrt(bc2) / bc1
        denom_eps = EPSILON * math.sqrt(bc2)
        for k, g in grads.items():
            m[k] *= BETA1
            m[k] += (1.0 - BETA1) * g
            v_[k] *= BETA2
            v_[k] += (1.0 - BETA2) * (g * g)
            denom = np.sqrt(v_[k])
            denom += denom_eps
            values[k] -= step_size * (m[k] / denom)
    return values


SHAPES = st.lists(hnp.array_shapes(min_dims=1, max_dims=2, max_side=5), min_size=1, max_size=4)
FLOATS = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


class TestFlatStorage:
    @settings(max_examples=40, deadline=None)
    @given(shapes=SHAPES, steps=st.integers(1, 4), lr=st.sampled_from([1e-4, 1e-2, 0.3]),
           data=st.data())
    def test_steps_match_per_tensor_reference_bitwise(self, shapes, steps, lr, data):
        values = {f"p{i}": data.draw(hnp.arrays(np.float64, s, elements=FLOATS))
                  for i, s in enumerate(shapes)}
        grad_steps = [
            {k: data.draw(hnp.arrays(np.float64, v.shape, elements=FLOATS)) for k, v in values.items()}
            for _ in range(steps)
        ]
        params = {k: make_param(v, name=k) for k, v in values.items()}
        opt = Adam(params, lr=lr)
        for grads in grad_steps:
            for k, g in grads.items():
                params[k].grad = g.copy()
            opt.step()
        expected = reference_adam(values, grad_steps, lr)
        for k, p in params.items():
            assert p.data.tobytes() == expected[k].tobytes()

    def test_parameters_become_views_of_the_buffer(self):
        w = make_param(np.arange(6.0).reshape(2, 3), name="w")
        b = make_param([7.0, 8.0], name="b")
        opt = Adam({"w": w, "b": b})
        assert w.shape == (2, 3) and b.shape == (2,)
        np.testing.assert_array_equal(w.data, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(opt.flat, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
        assert np.shares_memory(w.data, opt.flat) and np.shares_memory(b.data, opt.flat)
        w.data[1, 2] = -1.0
        b.data[...] = 0.5
        np.testing.assert_array_equal(opt.flat, [0.0, 1.0, 2.0, 3.0, 4.0, -1.0, 0.5, 0.5])

    def test_second_optimizer_takes_the_storage_over(self):
        w = make_param([1.0, 2.0])
        first = Adam({"w": w}, lr=0.1)
        second = Adam({"w": w}, lr=0.1)
        assert np.shares_memory(w.data, second.flat)
        assert not np.shares_memory(w.data, first.flat)
        w.grad = np.ones(2)
        second.step()
        np.testing.assert_array_equal(first.flat, [1.0, 2.0])
        assert w.data[0] < 1.0

    @pytest.mark.parametrize("fault", ["missing_grad", "frozen"])
    def test_failed_precondition_updates_nothing(self, fault):
        w = make_param([[1.0, -2.0], [0.5, 3.0]], name="w")
        b = make_param([0.25], name="b")
        opt = Adam({"w": w, "b": b}, lr=0.1)
        w.grad, b.grad = np.ones((2, 2)), np.ones(1)
        opt.step()
        state = [a.tobytes() for a in (opt.flat, opt._m, opt._v)]
        w.grad = np.full((2, 2), 2.0)
        if fault == "missing_grad":
            b.grad = None
        else:
            b.grad = np.ones(1)
            b.requires_grad = False
        with pytest.raises(ContractError, match="'b'"):
            opt.step()
        assert [a.tobytes() for a in (opt.flat, opt._m, opt._v)] == state
        assert opt.t == 1

    def test_zero_grad_clears_every_gradient(self):
        params = {k: make_param(np.ones(s), name=k) for k, s in (("a", 3), ("b", (2, 2)))}
        opt = Adam(params)
        for p in params.values():
            p.grad = np.ones(p.shape)
        opt.zero_grad()
        assert all(p.grad is None for p in params.values())


class TestAdamOnRealLoss:
    def test_descends_a_least_squares_objective(self):
        rng = SeededRng(3)
        w = Tensor(rng.normal((3, 4)), requires_grad=True, name="w")
        x = Tensor(rng.normal(4))
        y = Tensor(rng.normal(3))
        no_bias = Tensor(np.zeros(3))
        opt = Adam({"w": w}, lr=1e-2)
        first = mse(linear(w, x, no_bias), y).item()
        for _ in range(200):
            loss = mse(linear(w, x, no_bias), y)
            loss.backward()
            opt.step()
        assert mse(linear(w, x, no_bias), y).item() < 0.05 * first

    def test_grads_cleared_after_step_allows_next_backward(self):
        w = Tensor(np.ones(3), requires_grad=True, name="w")
        opt = Adam({"w": w}, lr=0.1)
        for _ in range(3):
            reduce(w, 0, "sum").backward()
            opt.step()
        assert w.grad is None


class TestGradientsInTheBuffer:
    """`backward` writes an owned parameter's gradient into the optimizer's buffer."""

    def test_batch_of_three_matches_reference_fed_allocated_sums(self):
        # w and b each get three contributions per step, one per item
        rng = SeededRng(11)
        values = {"w": rng.normal((3, 4)), "b": rng.normal(3)}
        xs = [rng.normal(4) for _ in range(3)]
        ys = [rng.normal(3) for _ in range(3)]
        w, b = make_param(values["w"], "w"), make_param(values["b"], "b")
        opt = Adam({"w": w, "b": b}, lr=1e-2)
        grad_steps = []
        for _ in range(5):
            current = reference_adam(values, grad_steps, 1e-2)
            # the allocating engine: every contribution a fresh array,
            # summed with `+` in reverse creation order
            contrib = []
            for x, y in zip(xs, ys):
                g = (2.0 / 3) * (current["w"] @ x + current["b"] - y)
                contrib.append((g[:, None] * x[None, :], g))
            grad_steps.append({
                "w": contrib[2][0] + contrib[1][0] + contrib[0][0],
                "b": contrib[2][1] + contrib[1][1] + contrib[0][1],
            })

            losses = [mse(linear(w, Tensor(x), b), Tensor(y)) for x, y in zip(xs, ys)]
            loss = add(add(losses[0], losses[1]), losses[2])
            loss.backward()
            assert np.shares_memory(w.grad, opt._grad) and np.shares_memory(b.grad, opt._grad)
            assert w.grad.tobytes() == grad_steps[-1]["w"].tobytes()
            assert b.grad.tobytes() == grad_steps[-1]["b"].tobytes()
            opt.step()
        expected = reference_adam(values, grad_steps, 1e-2)
        assert w.data.tobytes() == expected["w"].tobytes()
        assert b.data.tobytes() == expected["b"].tobytes()

    def test_double_backward_without_step_raises_and_keeps_the_gradient(self):
        w = make_param([1.0, -2.0, 3.0], "w")
        opt = Adam({"w": w})
        reduce(w, 0, "sum").backward()
        with pytest.raises(ContractError, match="'w' already has a gradient"):
            reduce(w, 0, "mean").backward()
        np.testing.assert_array_equal(w.grad, np.ones(3))
        opt.step()
        reduce(w, 0, "mean").backward()  # fine after the step cleared it
        np.testing.assert_array_equal(w.grad, np.full(3, 1.0 / 3))

    def test_hand_assigned_gradient_is_copied_in(self):
        a, b = make_param([1.0, 2.0], "a"), make_param([3.0], "b")
        opt = Adam({"a": a, "b": b}, lr=0.1)
        reduce(a, 0, "sum").backward()  # a's gradient lands in the buffer
        b.grad = np.array([-4.0])  # b's is assigned by hand
        opt.step()
        expected = reference_adam({"a": np.array([1.0, 2.0]), "b": np.array([3.0])},
                                  [{"a": np.ones(2), "b": np.array([-4.0])}], 0.1)
        assert a.data.tobytes() == expected["a"].tobytes()
        assert b.data.tobytes() == expected["b"].tobytes()

    def test_second_optimizer_takes_the_gradient_views_over(self):
        w = make_param([1.0, 2.0])
        first = Adam({"w": w}, lr=0.1)
        second = Adam({"w": w}, lr=0.1)
        first._grad[...] = 7.0
        reduce(w, 0, "sum").backward()
        assert np.shares_memory(w.grad, second._grad)
        np.testing.assert_array_equal(first._grad, [7.0, 7.0])
        second.step()
        assert w.data[0] < 1.0 and w.grad is None

    def test_released_optimizer_no_longer_receives_gradients(self):
        w, b = make_param([1.0, 2.0], "w"), make_param([3.0], "b")
        first = Adam({"w": w, "b": b})
        second = Adam({"b": b})
        reduce(w, 0, "sum").backward()
        first.release_gradients()
        assert w.grad is None and b.grad is None
        reduce(add(w, w), 0, "sum").backward()
        assert not np.shares_memory(w.grad, first._grad)
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])
        reduce(b, 0, "sum").backward()
        assert np.shares_memory(b.grad, second._grad)  # second's view is kept

    def test_backward_through_frozen_encoder_leaves_stale_buffer_alone(self):
        cfg = EncoderConfig(input_width=6, num_classes=2, num_modalities=2, d_z=5, d_l=4,
                            backbone_hidden=8, decoder_hidden=8, embed_dim=4, hyper_hidden=8)
        enc = Encoder(cfg, SeededRng(4))
        opt = Adam(enc.named_parameters(), lr=1e-2)
        x = SeededRng(5).normal(6)
        phase1_loss(enc.phase1_forward(x, 1), 0).backward()
        opt.step()
        enc.freeze()
        stale = opt._grad.tobytes()
        payload = Tensor(x, requires_grad=True)  # gives the frozen graph something to train
        loss = add(reduce(enc.phi_forward(payload, 0), 0, "sum"),
                   phase1_loss(enc.phase1_forward(payload, 1), 1))
        loss.backward()
        assert payload.grad is not None
        assert all(p.grad is None for p in enc.named_parameters().values())
        assert opt._grad.tobytes() == stale

