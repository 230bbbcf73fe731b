"""Engine nodes and graphs that no model runs, kept as the tests' references."""

from typing import NamedTuple

import numpy as np

from setfusion.errors import ShapeError
from setfusion.tensor import (
    Tensor,
    _acc,
    _make,
    as_tensor,
    mse_backward,
    mse_forward,
    softmax_cross_entropy,
)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(a, 0) as its own graph node; derivative 0 at 0."""
    mask = a.data > 0

    def bwd(g):
        _acc(a, g * mask)

    return _make(np.maximum(a.data, 0.0), (a,), bwd, "relu")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b of equal shapes (no broadcasting)."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not match")

    def bwd(g):
        _acc(a, g)
        _acc(b, g)

    return _make(a.data + b.data, (a, b), bwd, "add")


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference of two 1d tensors; zero iff a == b."""
    value, diff = mse_forward(a.data, b.data)

    def bwd(g):
        scaled = mse_backward(g, diff)
        _acc(a, scaled)
        _acc(b, -scaled)

    return _make(value, (a, b), bwd, None)


class LivePhase1(NamedTuple):
    """The stage-1 values of one payload as live graph nodes."""

    z: Tensor
    e: Tensor
    z_rec: Tensor
    y_pred: Tensor


def phase1_graph(enc, x, m) -> LivePhase1:
    """The stage-1 forward node by node, as the encoder built it before an
    item became one node: backbone, embedding row, generator, its two
    output segments, conditional layer, decoder and unimodal classifier."""
    x = as_tensor(x)
    z = enc.backbone(x)
    e = enc.hypernet.conditional_linear(z, m)
    return LivePhase1(z=z, e=e, z_rec=enc.decoder(e), y_pred=enc.uniclassifier(e))


def phase1_graph_loss(out: LivePhase1, y: int) -> Tensor:
    """`encoder.phase1_loss` as mse, cross-entropy and add nodes over
    `phase1_graph`, with z a detached constant in the mse."""
    return add(mse(out.z.detach(), out.z_rec), softmax_cross_entropy(out.y_pred, y))
