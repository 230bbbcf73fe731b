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

import numpy as np

from .errors import ShapeError
from .nn import Dense, parameters
from .rng import SeededRng, glorot_uniform
from .tensor import Tensor, dense_stack, linear, row, segment


def _as_index(value) -> int:
    """An int or numpy integer (not a bool) as a plain int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
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
        name: str = "hypernet",
    ):
        if num_modalities < 1:
            raise ValueError(f"need at least one modality, got {num_modalities}")
        self.num_modalities = num_modalities
        self.d_z = d_z
        self.d_l = d_l
        self.embedding = Tensor(
            glorot_uniform(rng, embed_dim, embed_dim, (num_modalities, embed_dim)),
            requires_grad=True,
            name=f"{name}/embedding",
        )
        self.trunk = Dense(embed_dim, hidden, rng, f"{name}/trunk")
        self.head = Dense(hidden, d_l * d_z + d_l, rng, f"{name}/head")

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
        flat = dense_stack(
            row(self.embedding, idx),
            [(self.trunk.weight, self.trunk.bias), (self.head.weight, self.head.bias)],
        )
        split = self.d_l * self.d_z
        weight = segment(flat, 0, split, (self.d_l, self.d_z))
        bias = segment(flat, split, split + self.d_l, (self.d_l,))
        return weight, bias

    def conditional_linear(self, z: Tensor, m) -> Tensor:
        """Apply the generated modality-specific layer: W_m z + b_m."""
        if z.data.ndim != 1 or z.shape[0] != self.d_z:
            raise ShapeError(f"conditional_linear: expected input width {self.d_z}, got shape {z.shape}")
        weight, bias = self.generate_weights(m)
        return linear(weight, z, bias)

    def named_parameters(self) -> dict[str, Tensor]:
        return parameters(self.embedding, self.trunk, self.head)
