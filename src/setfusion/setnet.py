"""Permutation-invariant classification of modality sets.

An observation with missing modalities is a set of (payload, modality)
pairs: absent modalities are simply not in the set. Each element is
encoded by the shared encoder, the features are aggregated with an
order-independent reduction, and a small dense network maps the
aggregate to class logits. Set size never changes the output width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import Encoder
from .errors import ContractError
from .hypernet import ModalityId
from .nn import Dense
from .rng import SeededRng
from .tensor import Tensor, mean_of_scalars, reduce, relu, softmax, softmax_cross_entropy, stack

AGGREGATOR_KINDS = ("sum", "mean", "max")


@dataclass
class SetObservation:
    """The observed part of one multimodal sample, as a set.

    Each element is (payload, modality) where the payload is a 1d array
    or, for instance-bag modalities, a list of 1d arrays. Duplicate
    modality ids are allowed (multi-resolution inputs). Missing
    modalities are absent rather than filled with placeholders.
    """

    elements: list[tuple[object, ModalityId]]
    label: int | None = None
    sample_id: str = ""

    def __post_init__(self):
        if not self.elements:
            raise ValueError(f"set observation '{self.sample_id}' has no elements")

    @property
    def q(self) -> int:
        return len(self.elements)


def aggregate(features: list[Tensor], kind: str) -> Tensor:
    """Order-independent reduction of equal-width feature vectors."""
    if kind not in AGGREGATOR_KINDS:
        raise ValueError(f"unknown aggregator {kind!r}; expected one of {AGGREGATOR_KINDS}")
    if not features:
        raise ValueError("aggregate: empty feature list")
    if len(features) == 1:
        return features[0]
    return reduce(stack(features), axis=0, kind=kind)


class SetClassifier:
    """Aggregation + a 3-layer dense prediction head."""

    def __init__(
        self,
        d_l: int,
        num_classes: int,
        rng: SeededRng,
        hidden: tuple[int, int] = (32, 16),
        aggregator: str = "mean",
    ):
        if aggregator not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator {aggregator!r}; expected one of {AGGREGATOR_KINDS}")
        self.aggregator = aggregator
        self.d_l = d_l
        self.num_classes = num_classes
        self.layers = [
            Dense(d_l, hidden[0], rng, "rho/0"),
            Dense(hidden[0], hidden[1], rng, "rho/1"),
            Dense(hidden[1], num_classes, rng, "rho/2"),
        ]

    def rho(self, pooled: Tensor) -> Tensor:
        h = relu(self.layers[0](pooled))
        h = relu(self.layers[1](h))
        return self.layers[2](h)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for layer in self.layers:
            out.update(layer.named_parameters())
        return out


def pool_set(enc: Encoder, obs: SetObservation, aggregator: str) -> Tensor:
    """The aggregated latent of one set observation: pool of phi over its elements."""
    feats = []
    for payload, modality in obs.elements:
        if isinstance(payload, (list, tuple)):
            feats.append(enc.pool_instances(list(payload), modality))
        else:
            feats.append(enc.phi_forward(payload, modality))
    return aggregate(feats, aggregator)


def f_forward(model: SetClassifier, enc: Encoder, obs: SetObservation) -> Tensor:
    """Class logits for one set observation of any size."""
    return model.rho(pool_set(enc, obs, model.aggregator))


def predict_proba(model: SetClassifier, enc: Encoder, obs: SetObservation) -> np.ndarray:
    from .tensor import no_grad

    with no_grad():
        logits = f_forward(model, enc, obs)
    return softmax(logits.data)


def phase2_loss(
    model: SetClassifier,
    enc: Encoder,
    batch: list[tuple[SetObservation, int | None]],
) -> Tensor:
    """Mean cross-entropy over a batch of labeled set observations."""
    if not batch:
        raise ValueError("phase2_loss: empty batch")
    losses = []
    for obs, y in batch:
        if y is None:
            raise ContractError(f"unlabeled observation '{obs.sample_id}' in training batch")
        losses.append(softmax_cross_entropy(f_forward(model, enc, obs), y))
    return mean_of_scalars(losses)
