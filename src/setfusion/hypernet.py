"""Conditional weight generation for the encoder's final layer.

A small generator network maps a learned per-modality embedding to the
flattened weights and bias of a dense layer, so one shared parameter
set serves every modality while the emitted layer differs per modality.
The emitted weights are intermediate values of the graph, never
optimizer parameters; gradients flow through them into the embedding
table and the generator trunk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .nn import Dense, parameters
from .rng import SeededRng, glorot_uniform
from .tensor import (
    Tensor,
    check_finite,
    dense_backward,
    dense_forward,
    dense_stack,
    is_int,
    linear,
    row,
    row_backward,
    segment,
    split_leaves,
)


def _as_index(value) -> int:
    """An int or numpy integer (not a bool) as a plain int."""
    if not is_int(value):
        raise ValueError(f"modality index must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModalityId:
    """Dense index of an acquisition channel plus a display name."""

    index: int
    name: str = ""

    def __post_init__(self):
        if _as_index(self.index) < 0:
            raise ValueError(f"modality index must be non-negative, got {self.index}")


class HyperNetwork:
    """Emits (weight, bias) of a d_z -> d_l dense layer per modality."""

    def __init__(
        self,
        num_modalities: int,
        d_z: int,
        d_l: int,
        rng: SeededRng,
        embed_dim: int = 8,
        hidden: int = 32,
    ):
        if num_modalities < 1:
            raise ValueError(f"need at least one modality, got {num_modalities}")
        self.num_modalities = num_modalities
        self.d_z = d_z
        self.d_l = d_l
        self.embedding = Tensor(
            glorot_uniform(rng, embed_dim, embed_dim, (num_modalities, embed_dim)),
            requires_grad=True,
            name="hypernet/embedding",
        )
        self.trunk = Dense(embed_dim, hidden, rng, "hypernet/trunk")
        self.head = Dense(hidden, d_l * d_z + d_l, rng, "hypernet/head")
        # the generator: embedding row -> trunk -> relu -> head
        self.generator = [(self.trunk.weight, self.trunk.bias), (self.head.weight, self.head.bias)]
        self._generator_params = (self.embedding, *(t for pair in self.generator for t in pair))

    def index(self, m) -> int:
        """The dense index of a ModalityId or a plain integer, checked
        against the embedding table."""
        idx = _as_index(m.index if isinstance(m, ModalityId) else m)
        if not 0 <= idx < self.num_modalities:
            raise ValueError(f"modality index {idx} out of range [0, {self.num_modalities})")
        return idx

    def generate_weights(self, m) -> tuple[Tensor, Tensor]:
        """Weights and bias of the conditional layer for modality `m`.

        Pure in (parameters, modality index): repeated calls return
        identical values until a parameter update happens. Both are
        views of the generator output (trunk, relu, head: one
        `dense_stack` node), not copies.
        """
        idx = self.index(m)
        flat = dense_stack(row(self.embedding, idx), self.generator)
        split = self.d_l * self.d_z
        weight = segment(flat, 0, split, (self.d_l, self.d_z))
        bias = segment(flat, split, split + self.d_l, (self.d_l,))
        return weight, bias

    def generated_layer(self, idx: int, steps: list | None = None):
        """`generate_weights` of modality index `idx` for a node that runs
        its own backward: the generator on arrays, its output split into
        weight and bias leaves (`split_leaves`).

        With `steps`, and a generator parameter that takes gradient, the
        generator is recorded into `steps` and the third value returned is
        the array the leaves' gradients add into, for `generated_backward`;
        it is None otherwise.
        """
        x = self.embedding.data[idx].copy()  # as `row` copies
        check_finite(x, "row")
        if steps is not None and not any(t.requires_grad for t in self._generator_params):
            steps = None
        flat = dense_forward(x, self.generator, steps=steps, need=self.embedding.requires_grad)
        split = self.d_l * self.d_z
        (weight, bias), grad = split_leaves(flat, [(self.d_l, self.d_z), (self.d_l,)],
                                            steps is not None)
        return weight, bias, grad

    def generated_backward(self, idx: int, grad, steps: list) -> None:
        """Push the gradient `generated_layer` left in `grad` through the
        generator into its parameters and row `idx` of the embedding."""
        g = dense_backward(grad, self.generator, steps)
        if g is not None:
            row_backward(self.embedding, idx, g)

    def conditional_linear(self, z: Tensor, m) -> Tensor:
        """Apply the generated modality-specific layer: W_m z + b_m."""
        if z.data.ndim != 1 or z.shape[0] != self.d_z:
            raise ShapeError(f"conditional_linear: expected input width {self.d_z}, got shape {z.shape}")
        weight, bias = self.generate_weights(m)
        return linear(weight, z, bias)

    def named_parameters(self) -> dict[str, Tensor]:
        return parameters(self.embedding, self.trunk, self.head)
