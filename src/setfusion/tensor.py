"""Reverse-mode automatic differentiation over float64 numpy arrays.

Each operation returns a new `Tensor` carrying a closure that knows how
to push an incoming gradient to the operation's inputs. `backward`
replays these closures over the recorded graph in reverse creation
order, which equals reverse execution order for a single-threaded
forward pass, visiting each recorded node exactly once.

Node overhead, not arithmetic, bounds a one-item step, so the
arithmetic lives in array-level helpers that ops and fused nodes share:
`dense_forward`/`dense_backward` (a stack of dense layers with relu
between them), `mse_forward`/`mse_backward` and
`cross_entropy_forward`/`cross_entropy_backward`. Each forward helper
takes a 1d item or a (k, n) stack of rows, row i bitwise row i alone,
and checks shapes, classes and finiteness as the op it serves does.
`dense_stack` is one node over a whole stack of layers (`linear` is its
one-layer case), bitwise a chain of `linear` and relu nodes (a
reference the tests keep); its input is 1d, or a (k, n) stack in a call
that records nothing, so a network encodes a whole bag or pass of sets
in one no-grad call. `dense_cross_entropy` adds the loss to the same
node. A model that runs a whole item in one node (the stage-1 item in
`encoder`) calls the helpers itself and records the result with
`fused_node`; `split_leaves` stands in for `segment` views there.
Whether a call records is decided before any arithmetic; only a
recording call keeps its layers' arrays.

Design constraints:
  - ops take `Tensor`s only; `as_tensor` makes leaves at the boundary.
  - `requires_grad` marks every tensor that takes gradient: a leaf that
    asked for it, and every node `_make` records.
  - float64 everywhere; forward ops raise `NumericError` on NaN/Inf
    outputs instead of propagating them silently.
  - no broadcasting at all: the operands of `mse` must shape-match
    exactly.
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


def grad_enabled() -> bool:
    """Whether ops record a graph here: false inside `no_grad`."""
    return _grad_enabled


class Tensor:
    """An n-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_bwd", "_seq", "_grad_buf")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():  # the method skips np.all's Python dispatch
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


def check_finite(data: np.ndarray, op: str) -> None:
    """Raise `NumericError` naming `op` if `data` holds a NaN or an Inf."""
    # a non-finite element always drives the sum non-finite, so this
    # single reduction is a sound (and much cheaper) finiteness probe;
    # np.add.reduce skips ndarray.sum's Python wrapper
    if not math.isfinite(np.add.reduce(data, None)):
        if not np.all(np.isfinite(data)):
            raise NumericError(f"{op} produced non-finite values")


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str | None) -> Tensor:
    """The one constructor of derived tensors (op outputs, detached
    copies); `op=None` skips the finiteness probe for data the caller
    has already probed."""
    # the probe of check_finite, inlined because every op pays for it
    if op is not None and not math.isfinite(np.add.reduce(data, None)):
        check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = None
    out._seq = next(_seq_counter)
    out._grad_buf = None
    if parents and _grad_enabled and any(p.requires_grad for p in parents):
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


def is_int(value) -> bool:
    """An int or numpy integer, not a bool: what a class or index must be."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# linear algebra


def linear(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """Dense layer W x + b for 1d x: the one-layer `dense_stack`."""
    return dense_stack(x, [(w, b)])


def _records(x: Tensor, layers) -> bool:
    """Whether a call over input x and dense `layers` records a node: only
    a 1d x may; a (k, n) stack that would be recorded raises `ContractError`."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"dense_stack: expected a 1d input or a (k, n) stack, got shape {x.shape}")
    record = _grad_enabled and (x.requires_grad or any(t.requires_grad for pair in layers for t in pair))
    if record and x.data.ndim == 2:
        raise ContractError("dense_stack: a (k, n) stack takes gradient; only 1d inputs are recorded")
    return record


def dense_forward(h: np.ndarray, layers, final_relu: bool = False, steps: list | None = None,
                  need: bool = False) -> np.ndarray:
    """The layer loop of `dense_stack` on arrays: h is 1d or a (k, n) stack,
    row i of whose output is bitwise the output for row i alone.

    Checks each layer's shapes and probes its pre-activation. With `steps`,
    appends per layer its input, its pre-activation (None: no relu after
    it) and whether that input takes gradient, `need` saying so of h;
    `dense_backward` reads them.
    """
    rows = h.ndim == 2
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        wd = w.data
        if wd.ndim != 2 or wd.shape[1] != h.shape[-1]:
            raise ShapeError(f"linear: shapes {wd.shape} @ {h.shape} are not aligned")
        if b.data.shape != (wd.shape[0],):
            raise ShapeError(f"linear: bias shape {b.shape} does not match output {wd.shape[0]}")
        # a stack of matrix-vector products, each bitwise the 1d `w @ h`;
        # a matrix-matrix product (h @ w.T) sums in another order
        y = ((wd @ h[:, :, None])[:, :, 0] if rows else wd @ h) + b.data
        if not math.isfinite(np.add.reduce(y, None)):  # check_finite, inlined
            check_finite(y, "linear")
        relu_after = i < last or final_relu
        if steps is not None:
            steps.append((h, y if relu_after else None, need))
            need = need or w.requires_grad or b.requires_grad
        h = np.maximum(y, 0.0) if relu_after else y
    return h


def dense_backward(g: np.ndarray, layers, steps: list, into: Tensor | None = None):
    """Push g, the gradient at the output of a recorded 1d `dense_forward`,
    through its layers from the last to the first, accumulating into every
    weight and bias that takes gradient. Returns the input's gradient, or
    accumulates it into `into`; None when the input takes none."""
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        x_in, pre, need_in = steps[i]
        if pre is not None:
            g = g * (pre > 0.0)  # relu derivative at exactly 0 is 0
        if w.requires_grad:
            if w.grad is None and w._grad_buf is not None:
                # g ⊗ x straight into the optimizer's buffer, no temporary
                w.grad = np.multiply(g[:, None], x_in[None, :], out=w._grad_buf)
            else:
                _acc(w, g[:, None] * x_in[None, :])
        _acc(b, g)
        if not need_in:
            return None
        g = w.data.T @ g
    if into is None:
        return g
    _acc(into, g)
    return None


def dense_stack(x: Tensor, layers, final_relu: bool = False) -> Tensor:
    """Dense layers (W, b) applied in turn to x with relu between them,
    and after the last one with `final_relu`; one graph node.

    x is 1d, or a (k, n) stack of k inputs when the call records nothing
    (under `no_grad`, or when neither x nor any layer takes gradient); a
    stack that would be recorded raises `ContractError` before any
    arithmetic. Row i of a stack's output is bitwise the output for row
    i alone.

    Bitwise equal to a chain of one-layer stacks and relu nodes: each
    layer's pre-activation is probed (a -inf the relu would clamp still
    raises), and backward runs the layers from the last to the first.
    """
    if not layers:
        raise ValueError("dense_stack: no layers")
    record = _records(x, layers)
    steps = [] if record else None
    h = dense_forward(x.data, layers, final_relu, steps, x.requires_grad)
    if not record:
        return _make(h, (), None, None)  # nothing to record

    def bwd(g):
        dense_backward(g, layers, steps, into=x)

    return _make(h, (x, *(t for pair in layers for t in pair)), bwd, None)


def dense_cross_entropy(x: Tensor, layers, target) -> Tensor:
    """`softmax_cross_entropy(dense_stack(x, layers), target)` as one node,
    bitwise equal to the two, with the same checks.

    In a call that records nothing, x may be a (k, n) stack and `target`
    a sequence of k classes; the output is then the k losses, each
    bitwise that of its row alone.
    """
    record = _records(x, layers)
    steps = [] if record else None
    logits = dense_forward(x.data, layers, steps=steps, need=x.requires_grad)
    loss, exps, total = cross_entropy_forward(logits, target)
    if not record:
        return _make(loss, (), None, None)

    def bwd(g):
        dense_backward(cross_entropy_backward(g, exps, total, target), layers, steps, into=x)

    return _make(loss, (x, *(t for pair in layers for t in pair)), bwd, None)


def split_leaves(flat: np.ndarray, shapes, requires_grad: bool) -> tuple[list[Tensor], np.ndarray | None]:
    """Leaves viewing consecutive pieces of the 1d array `flat`, as `shapes`:
    what `segment` views of a recorded `flat` are, for a node that runs its
    own backward. With `requires_grad`, each leaf's gradient is a view of
    one zero array that its contributions add into, as segments add into
    their parent's gradient; that array is returned beside the leaves."""
    grad = np.zeros(flat.shape) if requires_grad else None
    leaves, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        leaf = _make(flat[start:stop].reshape(shape), (), None, None)
        if requires_grad:
            leaf.requires_grad = True
            leaf.grad = grad[start:stop].reshape(shape)
        leaves.append(leaf)
        start = stop
    return leaves, grad


def fused_node(data: np.ndarray, parents: tuple[Tensor, ...] = (), bwd=None) -> Tensor:
    """A graph node over `data` that a model computed with this module's
    array helpers, which probed it; `bwd(g)` pushes its gradient to the
    leaves in `parents`. Without a parent that takes gradient, or under
    `no_grad`, it is a constant that records nothing."""
    return _make(data, parents, bwd, None)


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
        row_backward(a, index, g)

    return _make(a.data[index].copy(), (a,), bwd, "row")


def row_backward(a: Tensor, index: int, g: np.ndarray) -> None:
    """Accumulate g, the gradient of row `index` of `a`, into `a`."""
    full = np.zeros_like(a.data)
    full[index] = g
    _acc(a, full)


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

        def bwd(g):
            argmax = np.argmax(x.data, axis=axis)  # first index on ties
            full = np.zeros_like(x.data)
            np.put_along_axis(
                full, np.expand_dims(argmax, axis), np.expand_dims(g, axis), axis
            )
            _acc(x, full)

    return _make(np.asarray(out), (x,), bwd, f"reduce_{kind}")


def softmax_cross_entropy(logits: Tensor, target_class: int) -> Tensor:
    """Stable cross-entropy of a 1d logit vector against an integer class."""
    if logits.data.ndim != 1:
        raise ShapeError(f"softmax_cross_entropy: expected 1d logits, got {logits.shape}")
    loss, exps, total = cross_entropy_forward(logits.data, target_class)

    def bwd(g):
        _acc(logits, cross_entropy_backward(g, exps, total, target_class))

    return _make(loss, (logits,), bwd, None)


def cross_entropy_forward(z: np.ndarray, target):
    """Stable cross-entropy of 1d logits z against the class `target`, or of
    each row of a (k, C) stack against the k classes in `target`, row i
    bitwise row i alone. Checks every class and probes the losses; returns
    them with what `cross_entropy_backward` reads."""
    rows = z.ndim == 2
    if not rows and z.ndim != 1:
        raise ShapeError(f"softmax_cross_entropy: expected 1d logits or a (k, C) stack, got {z.shape}")
    if rows and len(target) != z.shape[0]:
        raise ShapeError(f"softmax_cross_entropy: {len(target)} classes for {z.shape[0]} rows")
    c = z.shape[-1]
    for t in target if rows else (target,):
        if not (is_int(t) and 0 <= t < c):
            raise ValueError(f"softmax_cross_entropy: class {t!r} is not an integer in [0, {c})")
    if rows:
        m = np.maximum.reduce(z, axis=1)
        exps = np.exp(z - m[:, None])
        picked = z[np.arange(len(target)), target]
    else:
        m = np.maximum.reduce(z)
        exps = np.exp(z - m)
        picked = z[target]
    total = np.add.reduce(exps, axis=-1)
    loss = np.asarray(m + np.log(total) - picked)
    if not math.isfinite(np.add.reduce(loss, None)):  # check_finite, inlined
        check_finite(loss, "softmax_cross_entropy")
    return loss, exps, total


def cross_entropy_backward(g, exps: np.ndarray, total, target) -> np.ndarray:
    """The logits' gradient of a 1d `cross_entropy_forward` times g."""
    delta = exps / total  # the probabilities, formed only when a gradient flows
    delta[target] -= 1.0
    return g * delta


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax over the last axis: of one logit vector, or of
    each row of a (k, C) stack, row i bitwise the softmax of row i alone
    (prediction-side helper, not differentiable)."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def mse_forward(a: np.ndarray, b: np.ndarray):
    """Mean squared difference of two 1d arrays, or of each pair of rows of
    two (k, n) stacks, row i bitwise row i alone; probed. Returns it with
    the difference `mse_backward` reads."""
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} and {b.shape} do not match")
    diff = a - b
    value = np.asarray(np.add.reduce(diff * diff, axis=-1) / a.shape[-1])
    check_finite(value, "mse")
    return value, diff


def mse_backward(g, diff: np.ndarray) -> np.ndarray:
    """The first operand's gradient of a 1d `mse_forward` times g; the
    second operand's is its negation."""
    return (2.0 / diff.size) * g * diff


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

    loss.grad = np.ones(loss.data.shape)
    # reverse creation order; with three or more contributions to one
    # tensor, the order of the sum decides the last bits
    ops.sort(key=_by_seq, reverse=True)
    for t in ops:
        if t.grad is not None:
            t._bwd(t.grad)


_by_seq = operator.attrgetter("_seq")
