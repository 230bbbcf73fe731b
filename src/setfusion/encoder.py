"""Universal feature extractor: shared backbone + modality-conditioned head.

One encoder instance serves every modality. The backbone maps a raw
payload to intermediate features z; the hypernetwork-conditioned layer
maps z to the latent e used downstream. During the first training
stage two auxiliary heads make the latents informative: a decoder that
reconstructs z from e and a per-modality class predictor.

A stage-1 item is one graph node: `phase1_forward` runs backbone,
generator, generated layer, decoder and classifier through the engine's
array helpers, keeping each layer's arrays, and `phase1_loss` adds both
loss terms and records the node, whose backward runs the same helpers
in reverse. Values and gradients are bitwise those of the node-by-node
graph (kept in the tests as the reference). A stack of payloads runs the
same forward row-wise for a validation pass. φ (`phi_forward`) is one
`dense_stack` over the backbone and the generated layer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ShapeError
from .hypernet import HyperNetwork
from .nn import MLP, Dense, aggregate, parameters
from .rng import SeededRng
from .tensor import (
    Tensor,
    as_tensor,
    check_finite,
    cross_entropy_backward,
    cross_entropy_forward,
    dense_backward,
    dense_forward,
    dense_stack,
    fused_node,
    grad_enabled,
    is_int,
    mse_backward,
    mse_forward,
    no_grad,
)

# EncoderConfig field -> its least value; every field is an integer
_INT_FIELDS = {"input_width": 1, "num_classes": 2, "num_modalities": 1, "d_z": 1, "d_l": 1,
               "backbone_hidden": 1, "decoder_hidden": 1, "embed_dim": 1, "hyper_hidden": 1}


@dataclass
class EncoderConfig:
    input_width: int
    num_classes: int
    num_modalities: int
    d_z: int = 32
    d_l: int = 16
    backbone_hidden: int = 64
    decoder_hidden: int = 32
    embed_dim: int = 8
    hyper_hidden: int = 32

    def __post_init__(self):
        for name, low in _INT_FIELDS.items():
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")


class Phase1Output(NamedTuple):
    """The stage-1 values of one payload, or of each row of a (k, r) stack,
    as constants. A recorded forward also carries what `phase1_loss`
    builds its node from: `backward(g_rec, g_pred)` pushes the gradients
    at z_rec and y_pred through the item into `parents`, the payload and
    every encoder parameter."""

    z: Tensor
    e: Tensor
    z_rec: Tensor
    y_pred: Tensor
    backward: Callable[[np.ndarray, np.ndarray], None] | None = None
    parents: tuple[Tensor, ...] = ()


class Encoder:
    """Backbone -> z -> conditional layer -> e, with stage-1 auxiliary heads."""

    def __init__(self, cfg: EncoderConfig, rng: SeededRng):
        self.cfg = cfg
        self._frozen_stacks: list[list[tuple[Tensor, Tensor]]] = []  # per modality, once frozen
        self.backbone = MLP(
            [cfg.input_width, cfg.backbone_hidden, cfg.d_z],
            rng, "encoder/backbone", final_relu=True,
        )
        self.hypernet = HyperNetwork(
            cfg.num_modalities, cfg.d_z, cfg.d_l, rng,
            embed_dim=cfg.embed_dim, hidden=cfg.hyper_hidden,
        )
        self.decoder = MLP([cfg.d_l, cfg.decoder_hidden, cfg.d_z], rng, "encoder/decoder")
        self.uniclassifier = Dense(cfg.d_l, cfg.num_classes, rng, "encoder/uniclassifier")
        self._classifier = [(self.uniclassifier.weight, self.uniclassifier.bias)]
        self._params = tuple(self.named_parameters().values())

    def _width_error(self, shape) -> ShapeError:
        return ShapeError(f"encoder expects payload width {self.cfg.input_width}, got shape {shape}")

    def _check_input(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape != (self.cfg.input_width,):
            raise self._width_error(x.shape)
        return x

    def _phi_layers(self, m) -> list[tuple[Tensor, Tensor]]:
        """φ's dense layers for modality m: the backbone's, then the
        conditional layer; once frozen, the list `freeze` cached."""
        if self._frozen_stacks:
            return self._frozen_stacks[self.hypernet.index(m)]
        backbone = [(layer.weight, layer.bias) for layer in self.backbone.layers]
        return [*backbone, self.hypernet.generate_weights(m)]

    @property
    def frozen(self) -> bool:
        return bool(self._frozen_stacks)

    def phi_forward(self, x, m) -> Tensor:
        """Latent features e of one payload, shape (r,), conditioned on its
        modality: one `dense_stack` over `_phi_layers(m)`. A list of k
        payloads is one (k, r) stack with (k, d_l) latents, row i bitwise
        payload i alone; a stack records nothing, so with gradient on a
        trainable encoder or a payload that takes gradient raises `ContractError`."""
        if isinstance(x, list):
            if not x:
                raise ShapeError("encoder expects at least one payload, got an empty list")
            xs = [p.data if isinstance(p, Tensor) else p for p in x]
            for p in xs:
                if np.shape(p) != (self.cfg.input_width,):
                    raise self._width_error(np.shape(p))
            grad = any(isinstance(p, Tensor) and p.requires_grad for p in x)
            x = Tensor(np.stack(xs), requires_grad=grad)
        else:
            x = self._check_input(x)
        return dense_stack(x, self._phi_layers(m))

    def phase1_forward(self, x, m) -> Phase1Output:
        """Backbone -> z -> generated layer -> e -> decoder (z_rec) and
        unimodal classifier (y_pred), each dense layer's shapes checked and
        its pre-activation probed as `dense_stack` does. x is one payload
        or, in a call that records nothing, a (k, r) stack, row i bitwise
        payload i alone. A recorded call keeps every layer's arrays, so
        that `phase1_loss` makes the whole item one graph node."""
        x = as_tensor(x)
        if x.data.ndim not in (1, 2) or x.shape[-1] != self.cfg.input_width:
            raise self._width_error(x.shape)
        record = grad_enabled() and (x.requires_grad or any(p.requires_grad for p in self._params))
        if record and x.data.ndim == 2:
            raise ContractError("phase1_forward: a (k, r) stack takes gradient; "
                                "only one payload is recorded")
        bb, gen, cond, dec, cls = ([], [], [], [], []) if record else (None,) * 5
        z = dense_forward(x.data, self.backbone.pairs, True, bb, x.requires_grad)
        idx = self.hypernet.index(m)
        weight, bias, g_layer = self.hypernet.generated_layer(idx, gen)
        layer = [(weight, bias)]
        # z and e are taken to need gradient whenever the item records: for
        # a part of the encoder that takes none, that costs only arithmetic
        e = dense_forward(z, layer, steps=cond, need=True)
        z_rec = dense_forward(e, self.decoder.pairs, steps=dec, need=True)
        y_pred = dense_forward(e, self._classifier, steps=cls, need=True)
        out = [fused_node(a) for a in (z, e, z_rec, y_pred)]
        if not record:
            return Phase1Output(*out)

        def backward(g_rec, g_pred):
            # e's gradient sums the classifier's and then the decoder's,
            # as `backward` summed them when each head was its own node
            g_e = (dense_backward(g_pred, self._classifier, cls)
                   + dense_backward(g_rec, self.decoder.pairs, dec))
            g_z = dense_backward(g_e, layer, cond)
            if g_layer is not None:
                self.hypernet.generated_backward(idx, g_layer, gen)
            dense_backward(g_z, self.backbone.pairs, bb, into=x)

        return Phase1Output(*out, backward=backward, parents=(x, *self._params))

    def pool_instances(self, bags, m) -> list[Tensor]:
        """The elementwise max over the latent features of each bag of payloads.

        Frozen or under `no_grad`, the instances of all bags are one
        `phi_forward` call on their list, each bag's max bitwise that of k
        separate calls. Otherwise each payload is its own φ pass, so a
        recorded bag's gradient sums in the order single payloads give; so
        is each `Tensor` payload, which may take gradient."""
        if not all(bags):
            raise ValueError("pool_instances: empty bag")
        xs = [x for bag in bags for x in bag]
        if (not self.frozen and grad_enabled()) or not xs or any(isinstance(x, Tensor) for x in xs):
            return [aggregate([self.phi_forward(x, m) for x in bag], "max") for bag in bags]
        latents = self.phi_forward(xs, m)
        starts = list(accumulate(map(len, bags[:-1]), initial=0))
        return [Tensor(peak) for peak in np.maximum.reduceat(latents.data, starts, axis=0)]

    def freeze(self) -> "Encoder":
        """Make every parameter a constant and generate each modality's
        conditional layer once; freeze again after writing parameters."""
        for p in self.named_parameters().values():
            p.requires_grad = False
        self._frozen_stacks = []  # empty, so _phi_layers generates each layer afresh
        with no_grad():
            self._frozen_stacks = [self._phi_layers(m) for m in range(self.cfg.num_modalities)]
        return self

    def named_parameters(self) -> dict[str, Tensor]:
        return parameters(self.backbone, self.hypernet, self.decoder, self.uniclassifier)


def phase1_loss(out: Phase1Output, y) -> Tensor:
    """Reconstruction + unimodal classification loss for stage 1, unweighted.

    z always enters the reconstruction term as a constant, so the
    gradient shapes the decoder output rather than dragging the backbone
    toward its own reconstruction. Of a recorded `out`, the loss is one
    node over the whole item, its value and gradients bitwise those of
    the mse, cross-entropy and add nodes over separate layer nodes. Of a
    (k, ·) stack, y lists the k classes and the loss is one per row.
    """
    rec, diff = mse_forward(out.z.data, out.z_rec.data)
    ce, exps, total = cross_entropy_forward(out.y_pred.data, y)
    loss = rec + ce
    check_finite(loss, "add")
    if out.backward is None:
        return fused_node(loss)

    def bwd(g):
        out.backward(-mse_backward(g, diff), cross_entropy_backward(g, exps, total, y))

    return fused_node(loss, out.parents, bwd)


def parameter_checksum(named_params: dict[str, Tensor]) -> str:
    """SHA-256 over name-sorted parameter bytes; detects any drift."""
    import hashlib

    h = hashlib.sha256()
    for name in sorted(named_params):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(named_params[name].data).tobytes())
    return h.hexdigest()
