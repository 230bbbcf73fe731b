import numpy as np
import pytest

from setfusion.hypernet import HyperNetwork, ModalityId
from setfusion.optim import Adam
from setfusion.rng import SeededRng
from setfusion.tensor import Tensor, no_grad, reduce

from conftest import central_difference, rel_err
from reference_ops import add, relu


def make_hyper(seed=0, d=3, d_z=5, d_l=4):
    return HyperNetwork(d, d_z, d_l, SeededRng(seed), embed_dim=4, hidden=8)


class TestGenerateWeights:
    def test_emitted_shapes(self):
        h = make_hyper()
        w, b = h.generate_weights(ModalityId(1, "pet"))
        assert w.shape == (4, 5)
        assert b.shape == (4,)

    def test_purity_same_modality_bitwise_identical(self):
        h = make_hyper()
        w1, b1 = h.generate_weights(0)
        w2, b2 = h.generate_weights(0)
        assert w1.data.tobytes() == w2.data.tobytes()
        assert b1.data.tobytes() == b2.data.tobytes()

    def test_out_of_range_modality(self):
        h = make_hyper(d=2)
        with pytest.raises(ValueError):
            h.generate_weights(2)
        with pytest.raises(ValueError):
            ModalityId(-1)

    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True, None], ids=repr)
    def test_non_integer_index_rejected(self, bad):
        h = make_hyper()
        with pytest.raises(ValueError, match="modality index must be an integer"):
            h.index(bad)
        with pytest.raises(ValueError, match="modality index must be an integer"):
            ModalityId(bad)

    @pytest.mark.parametrize("good", [1, np.int64(1), np.int32(1), np.uint8(1)], ids=repr)
    def test_python_and_numpy_integers_accepted(self, good):
        h = make_hyper()
        assert h.index(good) == h.index(ModalityId(good)) == 1
        w, _ = h.generate_weights(ModalityId(good))
        assert w.data.tobytes() == h.generate_weights(1)[0].data.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_distinct_modalities_emit_distinct_weights(self, seed):
        h = make_hyper(seed=seed)
        w0, _ = h.generate_weights(0)
        w1, _ = h.generate_weights(1)
        assert np.any(w0.data != w1.data)

    def test_update_on_one_modality_keeps_other_embedding_row(self):
        h = make_hyper(seed=1)
        row1_before = h.embedding.data[1].copy()
        w0_before, _ = (t.detach() for t in h.generate_weights(0))
        opt = Adam(h.named_parameters(), lr=1e-2)

        w, b = h.generate_weights(0)
        loss = add(reduce(reduce(w, 1, "sum"), 0, "sum"), reduce(b, 0, "sum"))
        loss.backward()
        assert np.all(h.embedding.grad[1] == 0.0)
        assert np.any(h.embedding.grad[0] != 0.0)
        opt.step()

        w0_after, _ = h.generate_weights(0)
        assert np.any(w0_after.data != w0_before.data)
        np.testing.assert_array_equal(h.embedding.data[1], row1_before)

    def test_generator_trunk_moves_after_single_modality_step(self):
        # shared trunk coupling: a step on modality 0 must shift the
        # weights emitted for modality 1 as well
        h = make_hyper(seed=2)
        trunk_before = h.trunk.weight.data.copy()
        w1_before, _ = (t.detach() for t in h.generate_weights(1))
        opt = Adam(h.named_parameters(), lr=1e-2)
        w, _ = h.generate_weights(0)
        reduce(reduce(w, 1, "sum"), 0, "sum").backward()
        opt.step()
        assert np.any(h.trunk.weight.data != trunk_before)
        w1_after, _ = h.generate_weights(1)
        assert np.any(w1_after.data != w1_before.data)


def numpy_conditional_linear(h, z, m):
    """W_m z + b_m and the gradients of sum(relu(.)) in numpy, in the engine's
    order: the bias segment's gradient goes into a zeroed head gradient
    before the weight segment's, so -0.0 entries come out as the engine's."""
    e = h.embedding.data[m]
    wt, bt, wh, bh = (p.data for p in (h.trunk.weight, h.trunk.bias, h.head.weight, h.head.bias))
    pre = wt @ e + bt
    hidden = np.maximum(pre, 0.0)
    flat = wh @ hidden + bh
    split = h.d_l * h.d_z
    weight, bias = flat[:split].reshape(h.d_l, h.d_z), flat[split:]
    out = weight @ z + bias
    g = np.ones(h.d_l) * (out > 0)
    g_flat = np.zeros_like(flat)
    g_flat[split:] += g
    g_flat[:split] += (g[:, None] * z[None, :]).reshape(-1)
    g_pre = (wh.T @ g_flat) * (pre > 0)
    g_embedding = np.zeros_like(h.embedding.data)
    g_embedding[m] = wt.T @ g_pre
    grads = [g_embedding, g_pre[:, None] * e[None, :], g_pre,
             g_flat[:, None] * hidden[None, :], g_flat]
    return [weight, bias, out, weight.T @ g] + grads


class TestHeadSplit:
    def test_weights_are_views_of_the_head_output(self):
        h = make_hyper()
        w, b = h.generate_weights(2)
        assert w.data.base is not None and w.data.base is b.data.base
        assert w.data.base.shape == (4 * 5 + 4,)

    @pytest.mark.parametrize("owned", [False, True], ids=["allocated", "adam_buffer"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_old_composition_bitwise(self, seed, owned):
        h = make_hyper(seed=seed)
        params = h.named_parameters()
        if owned:
            Adam(params)
        z0 = SeededRng((seed, 9)).normal(5)
        z = Tensor(z0, requires_grad=True)
        weight, bias = h.generate_weights(1)
        out = h.conditional_linear(z, 1)
        reduce(relu(out), 0, "sum").backward()
        assert all(np.shares_memory(p.grad, p._grad_buf) == owned for p in params.values())
        got = [weight.data, bias.data, out.data, z.grad] + [p.grad for p in params.values()]
        expected = numpy_conditional_linear(h, z0, 1)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


class TestConditionalLinear:
    def test_identity_head(self):
        # force the generator to emit (I, 0); requires d_l == d_z
        h = HyperNetwork(2, 3, 3, SeededRng(0), embed_dim=4, hidden=8)
        h.head.weight.data[:] = 0.0
        h.head.bias.data[:] = 0.0
        h.head.bias.data[:9] = np.eye(3).reshape(-1)
        z = Tensor([1.5, -2.0, 0.25])
        out = h.conditional_linear(z, 1)
        np.testing.assert_array_equal(out.data, z.data)

    def test_zeroed_generator_emits_zero_output(self):
        h = make_hyper()
        for t in h.named_parameters().values():
            t.data[:] = 0.0
        for m in range(3):
            out = h.conditional_linear(Tensor(np.ones(5)), m)
            np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_width_mismatch(self):
        from setfusion.errors import ShapeError

        h = make_hyper(d_z=5)
        with pytest.raises(ShapeError):
            h.conditional_linear(Tensor(np.ones(6)), 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_end_to_end_gradient_through_generator(self, seed):
        h = make_hyper(seed=seed)
        z = Tensor(SeededRng((seed, 77)).normal(5))

        def loss_from(name):
            param = h.named_parameters()[name]

            def f(values):
                with no_grad():
                    saved = param.data.copy()
                    param.data[:] = values.reshape(param.data.shape)
                    out = reduce(h.conditional_linear(z, 1), 0, "sum").item()
                    param.data[:] = saved
                return out

            return f

        loss = reduce(h.conditional_linear(z, 1), 0, "sum")
        loss.backward()
        for name, param in h.named_parameters().items():
            numeric = central_difference(loss_from(name), param.data.copy().reshape(-1))
            grad = np.zeros_like(param.data) if param.grad is None else param.grad
            assert rel_err(grad.reshape(-1), numeric) < 1e-4, name

    def test_gradient_reaches_input_z(self):
        h = make_hyper()
        z = Tensor(SeededRng(5).normal(5), requires_grad=True)
        reduce(h.conditional_linear(z, 0), 0, "sum").backward()
        numeric = central_difference(
            lambda v: reduce(h.conditional_linear(Tensor(v), 0), 0, "sum").item(),
            z.data.copy(),
        )
        assert rel_err(z.grad, numeric) < 1e-4
