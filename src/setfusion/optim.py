"""Bias-corrected Adam over one flat buffer that owns its parameters' storage.

At construction `Adam` copies every parameter's values into one
contiguous float64 buffer, `flat`, and rebinds each `p.data` to a
reshaped view of its slice: values and shapes are unchanged, and an
in-place write to `p.data` or to `flat` is seen by both. Each parameter
also gets a view of its slice of a matching gradient buffer as
`p._grad_buf`; `backward` writes the parameter's gradient there, so
after `backward` `p.grad` is that view, valid until `step` or
`zero_grad`. A step copies only a gradient that lives elsewhere (one
assigned by hand) into the buffer, then updates all parameters with a
fixed sequence of whole-buffer in-place ufuncs.

A second optimizer built over the same tensors takes their storage and
their gradient views over: it copies their current values into its own
buffers and rebinds `p.data` and `p._grad_buf` again, after which the
first optimizer's steps no longer reach those tensors.

`release_gradients` hands the views back once training is over, so the
gradient buffer is freed with the optimizer instead of living as long
as the parameters do.

β1, β2 and ε are the module constants `BETA1`, `BETA2` and `EPSILON`:
0.9, 0.999 and 1e-8, the values of Kingma & Ba 2015 that every run of
this package uses. Only the learning rate is a parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def check_lr(lr) -> None:
    """Reject a learning rate that is a bool, no real number, or not finite and positive."""
    if isinstance(lr, bool) or not isinstance(lr, (int, float, np.integer, np.floating)):
        raise ValueError(f"lr must be a real number, got {lr!r}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")


class Adam:
    """Adam with the standard bias correction; clears grads after each step.

    Parameters must require gradients at construction time: building an
    optimizer over frozen tensors is a usage error, not a no-op.
    """

    def __init__(self, named_params: dict[str, Tensor], lr: float = 1e-4):
        check_lr(lr)
        frozen = [name for name, p in named_params.items() if not p.requires_grad]
        if frozen:
            raise ContractError(f"optimizer over frozen parameters: {', '.join(sorted(frozen))}")
        self.named_params = dict(named_params)
        self.lr = lr
        self.t = 0
        params = self.params
        self.flat = np.empty(sum(p.data.size for p in params))
        self._m = np.zeros_like(self.flat)
        self._v = np.zeros_like(self.flat)
        self._grad = np.empty_like(self.flat)
        self._scratch = np.empty_like(self.flat)
        self._grad_views = []
        offset = 0
        for p in params:
            end = offset + p.data.size
            view = self.flat[offset:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p._grad_buf = self._grad[offset:end].reshape(view.shape)
            self._grad_views.append(p._grad_buf)
            offset = end

    @property
    def params(self) -> list[Tensor]:
        return list(self.named_params.values())

    def step(self) -> None:
        for name, p in self.named_params.items():
            if not p.requires_grad:
                raise ContractError(f"adam step would update frozen parameter '{name}'")
            if p.grad is None:
                raise ContractError(f"parameter '{name}' has no gradient")
        for p, view in zip(self.named_params.values(), self._grad_views):
            if p.grad is not view:  # backward wrote it in place otherwise
                view[...] = p.grad
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        # lr (m / bc1) / (sqrt(v / bc2) + eps) rewritten with scalar
        # prefactors so each element costs one sqrt and one divide
        step_size = self.lr * math.sqrt(bc2) / bc1
        denom_eps = EPSILON * math.sqrt(bc2)
        g, m, v, s = self._grad, self._m, self._v, self._scratch
        # per element, in this order: m = b1*m + (1-b1)*g;
        # v = b2*v + (1-b2)*(g*g); p -= step_size * (m / (sqrt(v) + denom_eps)).
        # Reordering these operations changes results in the last bits.
        np.multiply(m, BETA1, out=m)
        np.multiply(g, 1.0 - BETA1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, BETA2, out=v)
        np.multiply(g, g, out=s)
        np.multiply(s, 1.0 - BETA2, out=s)
        np.add(v, s, out=v)
        np.sqrt(v, out=s)
        np.add(s, denom_eps, out=s)
        np.divide(m, s, out=s)
        np.multiply(s, step_size, out=s)
        np.subtract(self.flat, s, out=self.flat)
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.named_params.values():
            p.grad = None

    def release_gradients(self) -> None:
        """Clear the gradients and stop routing them into this optimizer's buffer."""
        self.zero_grad()
        for p, view in zip(self.named_params.values(), self._grad_views):
            if p._grad_buf is view:  # not if a later optimizer took the tensor over
                p._grad_buf = None
