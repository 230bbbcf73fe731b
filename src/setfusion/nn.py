"""Dense-network building blocks on top of the autodiff engine.

This module is the one place that decides how a dense stack is built
(`Dense`, `MLP`), how a list of feature vectors is pooled into one
(`aggregate`) and how a model's parameters are collected
(`parameters`). Every network in the package is assembled from them.
An `MLP` call is one `dense_stack` graph node, however many layers it
has.
"""

from __future__ import annotations

from .rng import SeededRng, glorot_uniform
from .tensor import Tensor, dense_stack, linear, reduce, stack

import numpy as np

AGGREGATOR_KINDS = ("sum", "mean", "max")


def aggregate(features: list[Tensor], kind: str) -> Tensor:
    """Order-independent reduction of equal-width feature vectors."""
    if kind not in AGGREGATOR_KINDS:
        raise ValueError(f"unknown aggregator {kind!r}; expected one of {AGGREGATOR_KINDS}")
    if not features:
        raise ValueError("aggregate: empty feature list")
    if len(features) == 1:
        return features[0]
    return reduce(stack(features), axis=0, kind=kind)


def parameters(*parts) -> dict[str, Tensor]:
    """Named parameters of `parts`, in order.

    A part is a named Tensor or anything with `named_parameters()`.
    """
    out: dict[str, Tensor] = {}
    for part in parts:
        named = {part.name: part} if isinstance(part, Tensor) else part.named_parameters()
        for name, p in named.items():
            if name in out:
                raise ValueError(f"duplicate parameter name {name!r}")
            out[name] = p
    return out


class Dense:
    """A fully connected layer: y = W x + b with W of shape (out, in)."""

    def __init__(self, fan_in: int, fan_out: int, rng: SeededRng, name: str):
        self.name = name
        self.weight = Tensor(
            glorot_uniform(rng, fan_in, fan_out, (fan_out, fan_in)),
            requires_grad=True,
            name=f"{name}/w",
        )
        self.bias = Tensor(np.zeros(fan_out), requires_grad=True, name=f"{name}/b")

    def __call__(self, x: Tensor) -> Tensor:
        return linear(self.weight, x, self.bias)

    def named_parameters(self) -> dict[str, Tensor]:
        return parameters(self.weight, self.bias)


class MLP:
    """Stacked dense layers with relu between them.

    `widths` lists every layer width including input and output, e.g.
    [32, 64, 16] builds two dense layers. With `final_relu` the output
    is rectified as well.
    """

    def __init__(self, widths: list[int], rng: SeededRng, name: str, final_relu: bool = False):
        if len(widths) < 2:
            raise ValueError(f"MLP needs at least two widths, got {widths}")
        self.name = name
        self.final_relu = final_relu
        self.layers = [
            Dense(widths[i], widths[i + 1], rng, f"{name}/{i}") for i in range(len(widths) - 1)
        ]
        self.pairs = [(layer.weight, layer.bias) for layer in self.layers]  # as dense_stack takes them

    def __call__(self, x: Tensor) -> Tensor:
        return dense_stack(x, self.pairs, self.final_relu)

    def named_parameters(self) -> dict[str, Tensor]:
        return parameters(*self.layers)
