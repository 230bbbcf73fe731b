import numpy as np

from setfusion.tensor import Tensor, linear

from reference_ops import relu


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Coordinate-wise central finite differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * h)
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise relative error with a small-denominator floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradient(build_loss, x0: np.ndarray, h: float = 1e-5) -> float:
    """Compare backward() gradients against the finite-difference oracle.

    `build_loss` maps a raw array to a scalar Tensor through the ops
    under test; it is called fresh per evaluation so the oracle stays
    independent of any recorded graph.
    """
    leaf = Tensor(x0.copy(), requires_grad=True)
    loss = build_loss(leaf)
    loss.backward()
    numeric = central_difference(lambda arr: build_loss(Tensor(arr)).item(), x0, h=h)
    return rel_err(leaf.grad, numeric)


def chained(x, layers, final_relu):
    """The reference `dense_stack` replays: linear and relu nodes in turn."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        x = linear(w, x, b)
        if i < last or final_relu:
            x = relu(x)
    return x
