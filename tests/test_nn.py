import numpy as np
import pytest

from setfusion import nn, setnet
from setfusion.nn import MLP, Dense, parameters
from setfusion.rng import SeededRng
from setfusion.tensor import Tensor


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
