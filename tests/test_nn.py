import numpy as np
import pytest

from setfusion import nn, setnet
from setfusion.nn import MLP, Dense, parameters
from setfusion.optim import Adam
from setfusion.rng import SeededRng
from setfusion.tensor import Tensor, reduce

from conftest import chained
from reference_ops import add


def test_parameters_keeps_part_order_and_names():
    rng = SeededRng(0)
    lone = Tensor(np.zeros(2), requires_grad=True, name="lone")
    stack = MLP([3, 4, 2], rng, "stack")
    head = Dense(2, 2, rng, "head")
    assert list(parameters(lone, stack, head)) == [
        "lone", "stack/0/w", "stack/0/b", "stack/1/w", "stack/1/b", "head/w", "head/b",
    ]
    assert parameters(stack)["stack/1/b"] is stack.layers[1].bias


def test_parameters_rejects_a_repeated_name():
    rng = SeededRng(1)
    with pytest.raises(ValueError, match="duplicate parameter name 'a/w'"):
        parameters(Dense(2, 2, rng, "a"), Dense(2, 2, rng, "a"))


def test_setnet_reexports_the_one_pooling_function():
    assert setnet.aggregate is nn.aggregate
    assert setnet.AGGREGATOR_KINDS is nn.AGGREGATOR_KINDS


@pytest.mark.parametrize("final_relu", [False, True])
@pytest.mark.parametrize("widths", [[4, 3], [4, 6, 3], [4, 6, 5, 3], [4, 6, 5, 4, 3]])
def test_mlp_call_is_one_node_bitwise_equal_to_its_dense_layers(widths, final_relu):
    def run(fused):
        mlp = MLP(widths, SeededRng(7), "mlp", final_relu=final_relu)
        params = mlp.named_parameters()
        Adam(params)
        xs = [Tensor(SeededRng((7, i)).normal(widths[0]), requires_grad=True) for i in range(3)]
        outs = []
        for x in xs:
            if fused:
                out = mlp(x)
                assert out._parents[0] is x  # one node straight over the input
            else:
                out = chained(x, [(layer.weight, layer.bias) for layer in mlp.layers], final_relu)
            outs.append(out)
        sums = [reduce(o, 0, "sum") for o in outs]
        add(add(sums[0], sums[1]), sums[2]).backward()
        return ([o.data.tobytes() for o in outs] + [x.grad.tobytes() for x in xs]
                + [p.grad.tobytes() for p in params.values()])

    assert run(fused=True) == run(fused=False)
