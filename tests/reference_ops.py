"""Engine nodes that no model runs, kept as the tests' references."""

import numpy as np

from setfusion.tensor import Tensor, _acc, _make


def relu(a: Tensor) -> Tensor:
    """Elementwise max(a, 0) as its own graph node; derivative 0 at 0."""
    mask = a.data > 0

    def bwd(g):
        _acc(a, g * mask)

    return _make(np.maximum(a.data, 0.0), (a,), bwd, "relu")
