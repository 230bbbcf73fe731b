import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setfusion
from setfusion.errors import ContractError, NumericError, ShapeError
from setfusion.optim import Adam
from setfusion.rng import SeededRng
from setfusion.tensor import (
    Tensor,
    add,
    dense_stack,
    linear,
    mean_of_scalars,
    mse,
    no_grad,
    reduce,
    relu,
    row,
    scale,
    segment,
    softmax_cross_entropy,
    stack,
)

from conftest import central_difference, chained, check_gradient, rel_err


class TestElementwise:
    def test_relu_basic(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_derivative_at_zero_is_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        reduce(relu(x), 0, "sum").backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_add_zeros_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(add(x, Tensor(np.zeros(3))).data, x.data)

    def test_binary_shape_mismatch(self):
        # no broadcasting, not even matrix + row vector
        for a, b in [(np.zeros(3), np.zeros(4)), (np.zeros((2, 3)), np.zeros(3))]:
            with pytest.raises(ShapeError):
                add(Tensor(a), Tensor(b))

    @pytest.mark.parametrize("seed", range(20))
    def test_add_scale_relu_gradients(self, seed):
        rng = SeededRng(seed)
        other = Tensor(rng.normal(6))
        x0 = rng.normal(6)
        # keep relu inputs away from the kink so the oracle is valid
        x0 = np.where(np.abs(x0) < 0.05, 0.2, x0)
        assert check_gradient(lambda x: reduce(add(x, other), 0, "sum"), x0) < 1e-4
        assert check_gradient(lambda x: reduce(scale(x, -2.5), 0, "sum"), x0) < 1e-4
        assert check_gradient(lambda x: reduce(relu(x), 0, "sum"), x0) < 1e-4


class TestReduce:
    def test_sum_singleton_axis_keeps_values(self):
        x = Tensor([[3.0, 1.0, 4.0]])
        np.testing.assert_array_equal(reduce(x, 0, "sum").data, [3.0, 1.0, 4.0])

    def test_mean_axis0(self):
        x = Tensor([[2.0, 4.0], [6.0, 8.0]])
        np.testing.assert_array_equal(reduce(x, 0, "mean").data, [4.0, 6.0])

    def test_max_backward_first_tie(self):
        x = Tensor([3.0, 7.0, 7.0], requires_grad=True)
        reduce(x, 0, "max").backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            reduce(Tensor(np.zeros(3)), 1, "sum")

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            reduce(Tensor(np.zeros(3)), 0, "median")

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("kind", ["sum", "mean", "max"])
    def test_gradients(self, seed, kind):
        rng = SeededRng((seed, hash(kind) % 1000))
        x0 = rng.normal((4, 3))
        assert check_gradient(lambda x: reduce(reduce(x, 0, kind), 0, "sum"), x0) < 1e-4

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    def test_sum_equals_mean_times_length(self, values):
        x = Tensor(np.asarray(values))
        total = reduce(x, 0, "sum").item()
        mean = reduce(x, 0, "mean").item()
        assert abs(total - mean * len(values)) < 1e-9 * max(1.0, abs(total))



class TestMeanOfScalars:
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient(self, seed):
        rng = SeededRng((seed, "mean_of_scalars"))
        x0 = rng.normal(4)
        other = Tensor(rng.normal(4))

        def loss(x):
            return mean_of_scalars(
                [mse(x, Tensor(np.zeros(4))), mse(x, other), reduce(x, 0, "max")]
            )

        assert check_gradient(loss, x0) < 1e-4

class TestSoftmaxCrossEntropy:
    def test_saturated_logits_are_stable(self):
        loss = softmax_cross_entropy(Tensor([1000.0, 0.0]), 0)
        assert 0.0 <= loss.item() < 1e-9

    def test_uniform_logits(self):
        assert softmax_cross_entropy(Tensor([0.0, 0.0]), 1).item() == pytest.approx(math.log(2))

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor([0.0, 0.0]), 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient(self, seed):
        rng = SeededRng(seed)
        x0 = rng.normal(4)
        target = seed % 4
        err = check_gradient(lambda x: softmax_cross_entropy(x, target), x0)
        assert err < 1e-5

    def test_backward_is_softmax_minus_onehot(self):
        x = Tensor([1.0, 2.0, 0.5], requires_grad=True)
        softmax_cross_entropy(x, 1).backward()
        e = np.exp(x.data - x.data.max())
        expected = e / e.sum()
        expected[1] -= 1.0
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12)

    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    @settings(max_examples=50)
    def test_shift_invariance(self, logits, shift):
        logits = np.asarray(logits)
        a = softmax_cross_entropy(Tensor(logits), 0).item()
        b = softmax_cross_entropy(Tensor(logits + shift), 0).item()
        assert abs(a - b) < 1e-9


class TestMse:
    def test_zero_iff_equal(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert mse(x, Tensor(x.data.copy())).item() == 0.0

    def test_hand_value(self):
        assert mse(Tensor([0.0, 0.0]), Tensor([3.0, 4.0])).item() == pytest.approx(12.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_is_two_diff_over_n(self, seed):
        rng = SeededRng(seed)
        a0 = rng.normal(6)
        b = Tensor(rng.normal(6))
        assert check_gradient(lambda a: mse(a, b), a0) < 1e-4
        leaf = Tensor(a0, requires_grad=True)
        mse(leaf, b).backward()
        np.testing.assert_allclose(leaf.grad, 2 * (a0 - b.data) / 6, rtol=1e-12)


class TestShapeOps:
    @pytest.mark.parametrize("seed", range(5))
    def test_stack_row_segment_gradients(self, seed):
        rng = SeededRng(seed)
        x0 = rng.normal(6)
        other = Tensor(rng.normal(6))

        def through_stack(x):
            return reduce(reduce(stack([x, other]), 0, "sum"), 0, "sum")

        def through_leaf_segment(x):  # a copy of part of a leaf, as a matrix
            return reduce(reduce(segment(x, 0, 6, (2, 3)), 1, "sum"), 0, "max")

        def through_segment_views(x):  # two views of one op output
            y = add(x, other)
            return add(reduce(reduce(segment(y, 0, 4, (2, 2)), 1, "sum"), 0, "sum"),
                       reduce(segment(y, 3, 6, (3,)), 0, "max"))

        for fn in (through_stack, through_leaf_segment, through_segment_views):
            assert check_gradient(fn, x0) < 1e-4

        m0 = rng.normal((4, 3))
        assert check_gradient(lambda m: reduce(row(m, 2), 0, "sum"), m0) < 1e-4

    def test_segment_views_op_outputs_and_copies_leaves(self):
        leaf = Tensor(np.arange(6.0), requires_grad=True)
        doubled = scale(leaf, 2.0)
        view = segment(doubled, 1, 5, (2, 2))
        np.testing.assert_array_equal(view.data, [[2.0, 4.0], [6.0, 8.0]])
        assert np.shares_memory(view.data, doubled.data)
        assert not np.shares_memory(segment(leaf, 1, 5, (2, 2)).data, leaf.data)
        with no_grad():  # an unrecorded output cannot be told from a leaf
            unrecorded = scale(leaf, 2.0)
            assert not np.shares_memory(segment(unrecorded, 0, 2, (2,)).data, unrecorded.data)
        with pytest.raises(ShapeError):
            segment(doubled, 0, 4, (3,))

    def test_row_gradient_touches_single_row(self):
        m = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        reduce(row(m, 1), 0, "sum").backward()
        expected = np.zeros((4, 3))
        expected[1] = 1.0
        np.testing.assert_array_equal(m.grad, expected)


class TestLinear:
    @pytest.mark.parametrize("seed", range(5))
    def test_constant_input_gets_no_gradient_and_changes_nothing_else(self, seed):
        rng = SeededRng((seed, "linear"))
        w0, b0, x0 = rng.normal((3, 4)), rng.normal(3), rng.normal(4)
        g = np.ones(3) * (w0 @ x0 + b0 > 0)  # through relu and the sum
        expected = ((g[:, None] * x0[None, :]).tobytes(), g.tobytes())
        for x_takes_grad in (False, True):
            w = Tensor(w0, requires_grad=True)
            b = Tensor(b0, requires_grad=True)
            x = Tensor(x0, requires_grad=x_takes_grad)
            reduce(relu(linear(w, x, b)), 0, "sum").backward()
            assert (w.grad.tobytes(), b.grad.tobytes()) == expected
            if not x_takes_grad:
                assert x.grad is None

    @pytest.mark.parametrize("seed", range(5))
    def test_forward_and_input_gradient_match_numpy_bitwise(self, seed):
        rng = SeededRng((seed, "linear_numpy"))
        w0, x0, b0, y0 = rng.normal((3, 4)), rng.normal(4), rng.normal(3), rng.normal(3)
        x = Tensor(x0, requires_grad=True)
        out = linear(Tensor(w0), x, Tensor(b0))
        assert out.data.tobytes() == (w0 @ x0 + b0).tobytes()
        mse(out, Tensor(y0)).backward()  # feeds g = (2 / 3)(out - y) into linear
        g = (2.0 / 3) * (w0 @ x0 + b0 - y0)
        assert x.grad.tobytes() == (w0.T @ g).tobytes()

    def test_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(linear(Tensor(np.eye(3)), x, Tensor(np.zeros(3))).data, x.data)

    def test_projector(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        out = linear(p, Tensor([5.0, 7.0]), Tensor([0.5, 0.0]))
        np.testing.assert_array_equal(out.data, [5.5, 0.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(2,\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match=r"bias shape \(3,\) does not match output 2"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), Tensor(np.zeros(3)))

    def test_input_grad_of_sum_is_column_sums(self):
        # d(sum(W x + b))/dx is W's column sums
        rng = SeededRng(7)
        w = Tensor(rng.normal((3, 4)))
        x = Tensor(rng.normal(4), requires_grad=True)
        reduce(linear(w, x, Tensor(rng.normal(3))), 0, "sum").backward()
        np.testing.assert_allclose(x.grad, w.data.sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_each_argument(self, seed):
        rng = SeededRng((seed, "linear_args"))
        w0, x0, b0, y = rng.normal((3, 4)), rng.normal(4), rng.normal(3), Tensor(rng.normal(3))
        w, x, b = Tensor(w0), Tensor(x0), Tensor(b0)
        assert check_gradient(lambda t: mse(linear(t, x, b), y), w0) < 1e-4
        assert check_gradient(lambda t: mse(linear(w, t, b), y), x0) < 1e-4
        # an op output as input takes the same path as a leaf that takes gradient
        assert check_gradient(lambda t: mse(linear(w, scale(t, -1.5), b), y), x0) < 1e-4
        assert check_gradient(lambda t: mse(linear(w, x, t), y), b0) < 1e-4


class TestDenseStack:
    @staticmethod
    def weights(widths, rng, integer):
        """Leaves for a stack; integer values put exact zeros at the relu kinks."""
        def draw(shape):
            return np.round(rng.normal(shape) * 1.5) if integer else rng.normal(shape)

        return [(draw((o, i)), draw(o)) for i, o in zip(widths[:-1], widths[1:])]

    @pytest.mark.parametrize("integer", [False, True], ids=["normal", "integer"])
    @pytest.mark.parametrize("owned", [False, True], ids=["allocated", "adam_buffer"])
    @pytest.mark.parametrize("x_takes_grad", [False, True])
    @pytest.mark.parametrize("final_relu", [False, True])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_bitwise_equal_to_linear_relu_chain(self, depth, final_relu, x_takes_grad, owned,
                                                integer):
        rng = SeededRng((depth, final_relu, x_takes_grad, owned, integer))
        widths = [5, 7, 6, 4, 3][: depth + 1]
        raw = self.weights(widths, rng, integer)
        xs0 = [self.weights([1, widths[0]], rng, integer)[0][1] for _ in range(3)]

        def run(op):
            layers = [(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
                      for w, b in raw]
            leaves = [t for pair in layers for t in pair]
            xs = [Tensor(x, requires_grad=x_takes_grad) for x in xs0]
            if owned:
                Adam({str(i): t for i, t in enumerate(leaves)})
            # the same weight set three times in one graph: three contributions each
            outs = [op(x, layers, final_relu) for x in xs]
            mean_of_scalars([reduce(o, 0, "sum") for o in outs]).backward()
            assert all(np.shares_memory(t.grad, t._grad_buf) == owned for t in leaves)
            got = [o.data.tobytes() for o in outs] + [t.grad.tobytes() for t in leaves]
            if x_takes_grad:
                got += [x.grad.tobytes() for x in xs]
            else:
                assert all(x.grad is None for x in xs)
            return got

        assert run(dense_stack) == run(chained)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_central_difference(self, seed):
        rng = SeededRng((seed, "dense_stack_fd"))
        (w1, b1), (w2, b2) = self.weights([4, 5, 3], rng, False)
        x0, y = rng.normal(4), Tensor(rng.normal(3))
        first, second = (Tensor(w1), Tensor(b1)), (Tensor(w2), Tensor(b2))
        assert check_gradient(lambda t: mse(dense_stack(t, [first, second]), y), x0) < 1e-4
        assert check_gradient(
            lambda t: mse(dense_stack(Tensor(x0), [(t, first[1]), second], True), y), w1) < 1e-4
        assert check_gradient(
            lambda t: mse(dense_stack(Tensor(x0), [first, (second[0], t)]), y), b2) < 1e-4

    def test_one_node_over_an_input_that_takes_gradient(self):
        rng = SeededRng(3)
        layers = [(Tensor(w), Tensor(b)) for w, b in self.weights([4, 6, 2], rng, False)]
        x = Tensor(rng.normal(4), requires_grad=True)
        hidden = scale(x, 2.0)
        out = dense_stack(hidden, layers)
        assert out._parents[0] is hidden and out._parents[0]._parents == (x,)
        reduce(out, 0, "sum").backward()
        reference = Tensor(x.data, requires_grad=True)
        reduce(chained(scale(reference, 2.0), layers, False), 0, "sum").backward()
        assert x.grad.tobytes() == reference.grad.tobytes()

    def test_constant_stack_records_nothing(self):
        rng = SeededRng(4)
        layers = [(Tensor(w), Tensor(b)) for w, b in self.weights([4, 3, 2], rng, False)]
        out = dense_stack(Tensor(rng.normal(4)), layers, final_relu=True)
        assert out._bwd is None and not out.requires_grad
        with no_grad():
            trained = [(Tensor(w.data, requires_grad=True), b) for w, b in layers]
            assert dense_stack(Tensor(rng.normal(4)), trained)._bwd is None

    @pytest.mark.parametrize("w1", [[[-10.0, -10.0]], [[10.0, -10.0]]], ids=["minus_inf", "nan"])
    def test_inner_non_finite_pre_activation_raises(self, w1):
        # layer 1 of 3 overflows to -inf (or inf - inf = nan); the relu
        # after it would clamp -inf to 0, so the output alone looks finite
        layers = [
            (Tensor([[1.0], [1.0]]), Tensor([0.0, 0.0])),
            (Tensor(w1), Tensor([0.0])),
            (Tensor([[1.0]]), Tensor([0.0])),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for op in (chained, dense_stack):
                with pytest.raises(NumericError, match="linear produced non-finite"):
                    op(Tensor([1e308]), layers, False)

    def test_shape_errors_match_linear(self):
        w, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros(3))
        good = (Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        for layers, x in [
            ([(w, b)], Tensor(np.zeros(5))),
            ([good, (w, b)], Tensor(np.zeros(3))),
            ([(w, Tensor(np.zeros(2)))], Tensor(np.zeros(4))),
        ]:
            with pytest.raises(ShapeError) as fused:
                dense_stack(x, layers)
            with pytest.raises(ShapeError) as reference:
                chained(x, layers, False)
            assert str(fused.value) == str(reference.value)
        with pytest.raises(ValueError, match="no layers"):
            dense_stack(Tensor(np.zeros(4)), [])


class TestBackwardContract:
    def test_sum_of_weights_gives_ones(self):
        w = Tensor(np.arange(4.0), requires_grad=True)
        reduce(w, 0, "sum").backward()
        np.testing.assert_array_equal(w.grad, np.ones(4))

    @pytest.mark.parametrize("seed", range(20))
    def test_linear_regression_loss_gradient(self, seed):
        rng = SeededRng(seed)
        x = Tensor(rng.normal(4))
        y = Tensor(rng.normal(3))
        w0 = rng.normal((3, 4))
        assert check_gradient(lambda w: mse(linear(w, x, Tensor(np.zeros(3))), y), w0) < 1e-4

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ContractError):
            add(w, w).backward()

    def test_double_backward_without_reset_fails(self):
        w = Tensor(np.ones(3), requires_grad=True)
        reduce(w, 0, "sum").backward()
        with pytest.raises(ContractError, match="clear gradients"):
            reduce(w, 0, "sum").backward()
        w.zero_grad()
        reduce(w, 0, "sum").backward()  # fine after reset

    def test_unreachable_leaf_untouched(self):
        w = Tensor(np.ones(3), requires_grad=True)
        other = Tensor(np.ones(3), requires_grad=True)
        reduce(w, 0, "sum").backward()
        assert other.grad is None

    def test_shared_subexpression_accumulates(self):
        # loss = mean(x*x) + mean(x*x) => grad = 4x / 3
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        sq = mse(x, Tensor(np.zeros(3)))
        add(sq, sq).backward()
        np.testing.assert_allclose(x.grad, 4 * x.data / 3, rtol=1e-12)

    def test_no_grad_blocks_recording(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = reduce(w, 0, "sum")
        assert out._bwd is None and not out.requires_grad

    def test_detach_cuts_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = scale(x, 3.0)
        target = y.detach()
        assert target._bwd is None and not target.requires_grad
        assert not np.shares_memory(target.data, y.data)
        mse(target, x).backward()  # grad = 2 (x - y) / 2 with y held constant
        np.testing.assert_allclose(x.grad, x.data - y.data, rtol=1e-12)


class TestNumericGuards:
    def test_overflow_is_loud(self):
        big = Tensor(np.full(2, 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            add(big, big)

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(NumericError):
            Tensor([np.nan, 1.0])


class TestDeterminism:
    def test_same_seed_same_op_sequence_bitwise(self):
        def run(seed):
            rng = SeededRng(seed)
            w = Tensor(rng.normal((4, 4)), requires_grad=True)
            x = Tensor(rng.normal(4))
            loss = mse(relu(linear(w, x, Tensor(np.zeros(4)))), Tensor(rng.normal(4)))
            loss.backward()
            return w.grad.tobytes(), loss.data.tobytes()

        assert run(123) == run(123)
        assert run(123) != run(124)


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names loaded and the attributes read anywhere in `tree`."""
    nodes = list(ast.walk(tree))
    names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return names, {n.attr for n in nodes if isinstance(n, ast.Attribute)}


# engine functions no src module runs, and why each one stays
UNCALLED_ALLOWED = {"relu": "the linear/relu reference chain of the dense_stack tests"}


def test_every_public_engine_function_is_reached_from_src():
    """Engine code no model runs is dead weight. A tensor.py function is
    reached when another src module names it, or when a reached function
    or `Tensor` method names it; a method is reached when another module
    reads an attribute of its name."""
    src = Path(setfusion.__file__).parent
    engine = ast.parse((src / "tensor.py").read_text())
    functions = {n.name: n for n in engine.body if isinstance(n, ast.FunctionDef)}
    tensor_class = next(n for n in engine.body if isinstance(n, ast.ClassDef) and n.name == "Tensor")
    methods = {n.name: n for n in tensor_class.body if isinstance(n, ast.FunctionDef)}
    pending = [_references(ast.parse(p.read_text())) for p in src.glob("*.py")
               if p.name != "tensor.py"]
    reached = set()
    while pending:
        names, attrs = pending.pop()
        for node in [functions.get(n) for n in names] + [methods.get(a) for a in attrs]:
            if node is not None and node not in reached:
                reached.add(node)
                pending.append(_references(node))
    unreached = {name for name, node in functions.items()
                 if node not in reached and not name.startswith("_")}
    assert sorted(unreached - UNCALLED_ALLOWED.keys()) == []
