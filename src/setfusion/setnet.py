"""Permutation-invariant classification of modality sets.

An observation with missing modalities is a set of (payload, modality)
pairs: absent modalities are simply not in the set. Each element is
encoded by the shared encoder, the features are aggregated with an
order-independent reduction, and a small dense network maps the
aggregate to class logits. Set size never changes the output width.

`pool_set` and `predict_proba` take one set. `pool_sets` pools a whole
list of sets in one no-grad pass, over a frozen or a trainable encoder
alike: one `pool_instances` call per modality, which is one stacked φ
call instead of one per element, with results bitwise those of
`pool_set`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import Encoder
from .errors import ContractError
from .hypernet import ModalityId
from .nn import AGGREGATOR_KINDS, MLP, aggregate
from .rng import SeededRng
from .tensor import Tensor, dense_cross_entropy, no_grad, softmax


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
        for payload, modality in self.elements:
            if isinstance(payload, (list, tuple)) and not payload:
                raise ValueError(f"set observation '{self.sample_id}' has an empty bag "
                                 f"for modality {getattr(modality, 'index', modality)}")

    @property
    def q(self) -> int:
        return len(self.elements)


class SetClassifier(MLP):
    """The Deep Sets head rho: an MLP from the pooled latent to class logits.

    `hidden` lists the widths between the latent and the logits; the
    aggregator names the pooling that `pool_set` applies before rho.
    """

    def __init__(
        self,
        d_l: int,
        num_classes: int,
        rng: SeededRng,
        hidden: tuple[int, ...] = (32, 16),
        aggregator: str = "mean",
    ):
        if aggregator not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator {aggregator!r}; expected one of {AGGREGATOR_KINDS}")
        super().__init__([d_l, *hidden, num_classes], rng, "rho")
        self.aggregator = aggregator
        self.num_classes = num_classes

    rho = MLP.__call__

    def rho_loss(self, latent: Tensor, label) -> Tensor:
        """Cross-entropy of `rho(latent)` against `label` as one graph node
        (`dense_cross_entropy`). Under `no_grad` the latent may be a (k, d_l)
        stack and `label` a sequence of k classes: one loss per row."""
        return dense_cross_entropy(latent, self.pairs, label)


def pool_set(enc: Encoder, obs: SetObservation, aggregator: str) -> Tensor:
    """The aggregated latent of one set observation: pool of phi over its elements."""
    feats = []
    for payload, modality in obs.elements:
        if isinstance(payload, (list, tuple)):
            feats.append(enc.pool_instances([payload], modality)[0])
        else:
            feats.append(enc.phi_forward(payload, modality))
    return aggregate(feats, aggregator)


def pool_sets(enc: Encoder, sets: list[SetObservation], aggregator: str) -> list[Tensor]:
    """The pooled latent of each set, bitwise `pool_set` of each, in one no-grad pass.

    A plain payload is a bag of one, whose max is its own latent, so the
    elements of one modality, across all sets, are one `pool_instances`
    call, one stacked φ call under `no_grad`; each set's latents then go
    through `aggregate` as in `pool_set`.
    """
    with no_grad():
        feats: list[list] = [[None] * obs.q for obs in sets]
        groups: dict[int, list] = {}  # modality index -> [(i, j, bag)]
        for i, obs in enumerate(sets):
            for j, (payload, modality) in enumerate(obs.elements):
                bag = payload if isinstance(payload, (list, tuple)) else [payload]
                groups.setdefault(enc.hypernet.index(modality), []).append((i, j, bag))
        for m, members in groups.items():
            latents = enc.pool_instances([bag for _, _, bag in members], m)
            for (i, j, _), latent in zip(members, latents):
                feats[i][j] = latent
        return [aggregate(f, aggregator) for f in feats]


def f_forward(model: SetClassifier, enc: Encoder, obs: SetObservation) -> Tensor:
    """Class logits for one set observation of any size."""
    return model.rho(pool_set(enc, obs, model.aggregator))


def predict_proba(model: SetClassifier, enc: Encoder, obs: SetObservation) -> np.ndarray:
    with no_grad():
        logits = f_forward(model, enc, obs)
    return softmax(logits.data)


def phase2_loss(model: SetClassifier, enc: Encoder, obs: SetObservation) -> Tensor:
    """Cross-entropy of one labeled set observation against its `label`."""
    if obs.label is None:
        raise ContractError(f"unlabeled observation '{obs.sample_id}' in training")
    return model.rho_loss(pool_set(enc, obs, model.aggregator), obs.label)
