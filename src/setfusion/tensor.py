"""Reverse-mode automatic differentiation over float64 numpy arrays.

Each operation returns a new `Tensor` carrying a closure that knows how
to push an incoming gradient to the operation's inputs. `backward`
replays these closures over the recorded graph in reverse creation
order, which equals reverse execution order for a single-threaded
forward pass, visiting each recorded node exactly once.

Node overhead, not arithmetic, bounds a batch-1 step, so a stack of
dense layers with relu between them is one node (`dense_stack`), and
`linear` is its one-layer case. Results are bitwise those of a chain of
`linear` and `relu` nodes.

Design constraints:
  - ops take `Tensor`s only; `as_tensor` makes leaves at the boundary.
  - `requires_grad` marks every tensor that takes gradient: a leaf that
    asked for it, and every node `_make` records.
  - float64 everywhere; forward ops raise `NumericError` on NaN/Inf
    outputs instead of propagating them silently.
  - no broadcasting at all: the operands of an elementwise op (`add`,
    `mse`) must shape-match exactly.
  - relu derivative at 0 is 0, also between the layers of a
    `dense_stack`; `reduce(..., "max")` routes gradient to the first
    argmax on ties.
  - a second `backward` without clearing leaf gradients is an error,
    not an accumulate.

Where a leaf's gradient lives: a leaf that an optimizer owns carries a
view of that optimizer's gradient buffer (`_grad_buf`, set by `Adam`).
The first contribution of a `backward` writes into that view and later
ones add in place, so after `backward` the leaf's `grad` *is* the view.
It stays valid until the optimizer's `step` or `zero_grad`, which clear
`grad`; the next `backward` overwrites the same memory. A leaf no
optimizer owns gets a freshly allocated gradient, as any graph node does.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_seq_counter = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """An n-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_bwd", "_seq", "_grad_buf")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"tensor '{name or '<anon>'}' initialized with non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._bwd = None
        self._seq = next(_seq_counter)
        self._grad_buf: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A gradient-free leaf holding a copy of this tensor's current values."""
        # no probe: the values were checked finite when this tensor was made
        return _make(self.data.copy(), (), None, None)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def _check_finite(data: np.ndarray, op: str) -> None:
    # a non-finite element always drives the sum non-finite, so this
    # single reduction is a sound (and much cheaper) finiteness probe;
    # np.add.reduce skips ndarray.sum's Python wrapper
    if not math.isfinite(float(np.add.reduce(data, axis=None))):
        if not np.all(np.isfinite(data)):
            raise NumericError(f"{op} produced non-finite values")


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str | None) -> Tensor:
    """The one constructor of derived tensors (op outputs, detached
    copies); `op=None` skips the finiteness probe for data the caller
    has already probed."""
    # the probe of _check_finite, inlined because every op pays for it
    if op is not None and not math.isfinite(float(np.add.reduce(data, axis=None))):
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = None
    out._seq = next(_seq_counter)
    out._grad_buf = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bwd = bwd
    else:
        out.requires_grad = False
        out._parents = ()
        out._bwd = None
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a gradient contribution on a graph node.

    `t.grad` is always an array this module wrote (a fresh copy or the
    leaf's `_grad_buf`), so later contributions add into it in place,
    which is bitwise equal to `t.grad + g`.
    """
    if t.requires_grad:
        if t.grad is not None:
            np.add(t.grad, g, out=t.grad)
        elif t._grad_buf is not None:
            t._grad_buf[...] = g
            t.grad = t._grad_buf
        else:
            t.grad = np.array(g, dtype=np.float64)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not match")

    def bwd(g):
        _acc(a, g)
        _acc(b, g)

    return _make(a.data + b.data, (a, b), bwd, "add")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        _acc(a, g * c)

    return _make(a.data * c, (a,), bwd, "scale")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # derivative at exactly 0 is 0

    def bwd(g):
        _acc(a, g * mask)

    return _make(np.maximum(a.data, 0.0), (a,), bwd, "relu")


# ---------------------------------------------------------------------------
# linear algebra


def linear(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """Dense layer W x + b for 1d x: the one-layer `dense_stack`."""
    return dense_stack(x, [(w, b)])


def dense_stack(x: Tensor, layers, final_relu: bool = False) -> Tensor:
    """Dense layers (W, b) applied in turn to 1d x with relu between
    them, and after the last one with `final_relu`; one graph node.

    Bitwise equal to a chain of one-layer stacks and `relu` nodes: each
    layer's pre-activation is probed (a -inf the relu would clamp still
    raises), and backward runs the layers from the last to the first.
    """
    if not layers:
        raise ValueError("dense_stack: no layers")
    last = len(layers) - 1
    need = x.requires_grad  # this layer's input takes gradient
    # per layer: its input, its pre-activation (None: no relu after it), need
    steps = []
    h = x.data
    for i, (w, b) in enumerate(layers):
        if w.data.ndim != 2 or h.ndim != 1 or w.shape[1] != h.shape[0]:
            raise ShapeError(f"linear: shapes {w.shape} @ {h.shape} are not aligned")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"linear: bias shape {b.shape} does not match output {w.shape[0]}")
        y = w.data @ h + b.data
        _check_finite(y, "linear")
        relu_after = i < last or final_relu
        steps.append((h, y if relu_after else None, need))
        h = np.maximum(y, 0.0) if relu_after else y
        need = need or w.requires_grad or b.requires_grad
    if not (_grad_enabled and need):
        return _make(h, (), None, None)  # nothing to record

    def bwd(g):
        for i in range(last, -1, -1):
            w, b = layers[i]
            x_in, pre, need_in = steps[i]
            if pre is not None:
                g = g * (pre > 0)  # relu derivative at exactly 0 is 0
            if w.requires_grad:
                if w.grad is None and w._grad_buf is not None:
                    # g ⊗ x straight into the optimizer's buffer, no temporary
                    w.grad = np.multiply(g[:, None], x_in[None, :], out=w._grad_buf)
                else:
                    _acc(w, g[:, None] * x_in[None, :])
            _acc(b, g)
            if not need_in:
                return
            g = w.data.T @ g
        _acc(x, g)

    return _make(h, (x, *(t for pair in layers for t in pair)), bwd, None)


# ---------------------------------------------------------------------------
# shape ops


def stack(tensors: list[Tensor] | tuple[Tensor, ...]) -> Tensor:
    """Stack equal-length 1d tensors into a (k, n) matrix."""
    if not tensors:
        raise ValueError("stack: empty tensor list")
    ts = list(tensors)
    width = ts[0].shape
    if any(t.data.ndim != 1 or t.shape != width for t in ts):
        raise ShapeError(f"stack: expected equal 1d shapes, got {[t.shape for t in ts]}")

    def bwd(g):
        for i, t in enumerate(ts):
            _acc(t, g[i])

    return _make(np.stack([t.data for t in ts]), tuple(ts), bwd, "stack")


def row(a: Tensor, index: int) -> Tensor:
    """Select row `index` of a 2d tensor (differentiable embedding lookup)."""
    if a.data.ndim != 2:
        raise ShapeError(f"row: expected 2d tensor, got shape {a.shape}")
    if not 0 <= index < a.shape[0]:
        raise ValueError(f"row: index {index} out of range for shape {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _acc(a, full)

    return _make(a.data[index].copy(), (a,), bwd, "row")


def segment(a: Tensor, start: int, stop: int, shape: tuple[int, ...]) -> Tensor:
    """Elements [start, stop) of a 1d tensor, arranged as `shape`.

    The output shares memory with `a` when `a` is a recorded op output,
    whose values no code writes in place; from any other tensor (a leaf,
    say a parameter the optimizer updates in place) it copies.
    """
    if a.data.ndim != 1:
        raise ShapeError(f"segment: expected 1d tensor, got shape {a.shape}")
    if not 0 <= start <= stop <= a.shape[0]:
        raise ValueError(f"segment: range [{start}, {stop}) invalid for length {a.shape[0]}")
    if math.prod(shape) != stop - start:
        raise ShapeError(f"segment: cannot view {stop - start} elements as {shape}")
    data = a.data[start:stop].reshape(shape)
    if a._bwd is None:
        data = data.copy()

    def bwd(g):
        # a recorded segment always has a parent that takes gradient
        if a.grad is None:
            _acc(a, np.zeros_like(a.data))
        a.grad[start:stop] += g.reshape(-1)

    return _make(data, (a,), bwd, "segment")


# ---------------------------------------------------------------------------
# reductions and losses


def reduce(x: Tensor, axis: int, kind: str) -> Tensor:
    """Reduce along `axis` with sum, mean or max."""
    if kind not in ("sum", "mean", "max"):
        raise ValueError(f"reduce: unknown kind {kind!r}")
    if not 0 <= axis < x.data.ndim:
        raise ShapeError(f"reduce: axis {axis} out of range for shape {x.shape}")
    if kind == "sum":
        out = x.data.sum(axis=axis)

        def bwd(g):
            _acc(x, np.broadcast_to(np.expand_dims(g, axis), x.shape))
    elif kind == "mean":
        out = x.data.mean(axis=axis)
        n = x.shape[axis]

        def bwd(g):
            _acc(x, np.broadcast_to(np.expand_dims(g, axis) / n, x.shape))
    else:
        out = x.data.max(axis=axis)
        argmax = np.argmax(x.data, axis=axis)  # first index on ties

        def bwd(g):
            full = np.zeros_like(x.data)
            np.put_along_axis(
                full, np.expand_dims(argmax, axis), np.expand_dims(g, axis), axis
            )
            _acc(x, full)

    return _make(np.asarray(out), (x,), bwd, f"reduce_{kind}")


def mean_of_scalars(losses: list[Tensor]) -> Tensor:
    """Mean of 0d loss tensors as a single differentiable scalar."""
    if len(losses) == 1:
        return losses[0]

    def bwd(g):
        share = g / len(losses)
        for t in losses:
            _acc(t, share)

    data = np.asarray(np.mean([t.data for t in losses]))
    return _make(data, tuple(losses), bwd, "mean_of_scalars")


def softmax_cross_entropy(logits: Tensor, target_class: int) -> Tensor:
    """Stable cross-entropy of a 1d logit vector against an integer class."""
    if logits.data.ndim != 1:
        raise ShapeError(f"softmax_cross_entropy: expected 1d logits, got {logits.shape}")
    c = logits.shape[0]
    if not 0 <= int(target_class) < c:
        raise ValueError(f"softmax_cross_entropy: class {target_class} out of range [0, {c})")
    target_class = int(target_class)
    z = logits.data
    m = z.max()
    exps = np.exp(z - m)
    lse = m + np.log(exps.sum())
    probs = exps / exps.sum()

    def bwd(g):
        delta = probs.copy()
        delta[target_class] -= 1.0
        _acc(logits, g * delta)

    return _make(np.asarray(lse - z[target_class]), (logits,), bwd, "softmax_cross_entropy")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax (prediction-side helper, not differentiable)."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference; zero iff a == b."""
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} and {b.shape} do not match")
    diff = a.data - b.data
    n = a.size

    def bwd(g):
        scaled = (2.0 / n) * g * diff
        _acc(a, scaled)
        _acc(b, -scaled)

    return _make(np.asarray(np.mean(diff * diff)), (a, b), bwd, "mse")


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate gradients for every requires_grad leaf reachable from `loss`.

    Raises `ContractError` if `loss` is not scalar or if a reachable
    leaf still carries a gradient from a previous pass.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")

    # one walk: collect op nodes, check leaves as they are met
    ops: list[Tensor] = []
    seen: set[Tensor] = set()  # Tensor hashes by identity
    stack_ = [loss]
    while stack_:
        t = stack_.pop()
        if t in seen:
            continue
        seen.add(t)
        if t._bwd is not None:
            ops.append(t)
            stack_.extend(t._parents)
        elif t.requires_grad and t.grad is not None:
            raise ContractError(
                f"backward: leaf '{t.name or '<anon>'}' already has a gradient; "
                "clear gradients (optimizer step or zero_grad) before calling backward again"
            )

    loss.grad = np.ones_like(loss.data)
    # reverse creation order; with three or more contributions to one
    # tensor, the order of the sum decides the last bits
    ops.sort(key=_by_seq, reverse=True)
    for t in ops:
        if t.grad is not None:
            t._bwd(t.grad)


_by_seq = operator.attrgetter("_seq")
