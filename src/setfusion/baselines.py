"""Reference models the set-based pipeline is compared against.

All baselines train with the same engine, optimizer and early-stopping
loop as the main model. The concatenation baselines must place
*something* in missing slots; every such fill bumps a module-level
counter so tests can assert the set-based path never fills anything.

Kinds:
  - unimodal(k): backbone + linear head on modality k only, evaluated
    on test samples where k is observed.
  - zero_fill_multimodal: fixed-width concatenation of all modality
    slots, zeros in missing slots.
  - mean_impute_multimodal: same model, missing slots filled with the
    training-set per-modality mean.
  - late_fusion_average: one unimodal classifier per modality; at test
    time the available per-item probabilities are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetSchema, MaskedSample
from .metrics import MetricSet, compute_metrics
from .nn import MLP, Dense
from .rng import SeededRng
from .tensor import Tensor, no_grad, reduce, softmax, softmax_cross_entropy, stack
from .trainer import TrainConfig, _train_loop

_fill_count = 0


def reset_fill_count() -> None:
    global _fill_count
    _fill_count = 0


def fill_count() -> int:
    return _fill_count


def _record_fill(n: int = 1) -> None:
    global _fill_count
    _fill_count += n


@dataclass(frozen=True)
class BaselineKind:
    name: str
    k: int | None = None

    @classmethod
    def unimodal(cls, k: int) -> "BaselineKind":
        return cls("unimodal", k=k)

    @classmethod
    def zero_fill_multimodal(cls) -> "BaselineKind":
        return cls("zero_fill_multimodal")

    @classmethod
    def mean_impute_multimodal(cls) -> "BaselineKind":
        return cls("mean_impute_multimodal")

    @classmethod
    def late_fusion_average(cls) -> "BaselineKind":
        return cls("late_fusion_average")


class _UnimodalNet:
    """Backbone + linear feature layer + linear class head, one modality."""

    def __init__(self, r: int, num_classes: int, cfg: TrainConfig, rng: SeededRng):
        self.backbone = MLP([r, cfg.backbone_hidden, cfg.d_z], rng, "uni/backbone",
                            final_relu=True)
        self.feature = Dense(cfg.d_z, cfg.d_l, rng, "uni/feature")
        self.head = Dense(cfg.d_l, num_classes, rng, "uni/head")

    def features(self, x) -> Tensor:
        return self.feature(self.backbone(Tensor(x) if not isinstance(x, Tensor) else x))

    def logits_for_item(self, item) -> Tensor:
        """Item is one payload or a bag; bags are max-pooled in feature space."""
        if isinstance(item, (list, tuple)):
            feats = [self.features(x) for x in item]
            pooled = feats[0] if len(feats) == 1 else reduce(stack(feats), 0, "max")
            return self.head(pooled)
        return self.head(self.features(item))

    def named_parameters(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.backbone.named_parameters())
        out.update(self.feature.named_parameters())
        out.update(self.head.named_parameters())
        return out


class _ConcatNet:
    """One dense net over the concatenation of all modality slots."""

    def __init__(self, schema: DatasetSchema, cfg: TrainConfig, rng: SeededRng):
        width = schema.num_modalities * schema.payload_width
        self.net = MLP([width, cfg.backbone_hidden, cfg.d_l], rng, "concat/net",
                       final_relu=True)
        self.head = Dense(cfg.d_l, schema.num_classes, rng, "concat/head")

    def logits(self, x: np.ndarray) -> Tensor:
        return self.head(self.net(Tensor(x)))

    def named_parameters(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.net.named_parameters())
        out.update(self.head.named_parameters())
        return out


def _slot_vector(sample: MaskedSample, i: int, schema: DatasetSchema) -> np.ndarray | None:
    """Observed slot as one vector; bags are averaged instance-wise."""
    if sample.mask[i]:
        return None
    slot = sample.slots[i]
    if schema.is_bag(i):
        return np.mean(np.stack(slot), axis=0)
    return slot


def _concat_input(
    sample: MaskedSample, schema: DatasetSchema, fillers: list[np.ndarray]
) -> np.ndarray:
    parts = []
    for i in range(schema.num_modalities):
        vec = _slot_vector(sample, i, schema)
        if vec is None:
            _record_fill()
            vec = fillers[i]
        parts.append(vec)
    return np.concatenate(parts)


def _training_means(
    train: list[MaskedSample], schema: DatasetSchema
) -> list[np.ndarray]:
    """Per-modality mean of observed training payloads."""
    means = []
    for i in range(schema.num_modalities):
        vecs = [v for s in train if (v := _slot_vector(s, i, schema)) is not None]
        if vecs:
            means.append(np.mean(np.stack(vecs), axis=0))
        else:
            means.append(np.zeros(schema.payload_width))
    return means


def _fit_unimodal(
    k: int,
    schema: DatasetSchema,
    train: list[MaskedSample],
    val: list[MaskedSample],
    cfg: TrainConfig,
    instance_level: bool = False,
) -> _UnimodalNet:
    """Train a single-modality classifier on samples where k is observed.

    With `instance_level`, bag instances become independent training
    items (the per-image style); otherwise a bag is one pooled item.
    """
    def items_of(samples):
        items = []
        for s in samples:
            if s.mask[k]:
                continue
            if schema.is_bag(k) and instance_level:
                items.extend((inst, s.label) for inst in s.slots[k])
            else:
                items.append((s.slots[k], s.label))
        return items

    train_items, val_items = items_of(train), items_of(val)
    if not train_items or not val_items:
        raise ValueError(f"unimodal baseline: modality {k} unobserved in train or val split")
    net = _UnimodalNet(schema.payload_width, schema.num_classes, cfg,
                       SeededRng((cfg.seed, "init_unimodal", k)))

    def item_loss(item):
        x, y = item
        return softmax_cross_entropy(net.logits_for_item(x), y)

    _train_loop(
        net.named_parameters(), item_loss, train_items, val_items, cfg,
        cfg.max_epochs_phase2, SeededRng((cfg.seed, "shuffle_unimodal", k)),
        f"unimodal_{k}",
    )
    return net


def _proba(logits: Tensor, positive_class: int) -> float:
    return float(softmax(logits.data)[positive_class])


def run_baseline(
    kind: BaselineKind,
    schema: DatasetSchema,
    train: list[MaskedSample],
    val: list[MaskedSample],
    test: list[MaskedSample],
    cfg: TrainConfig,
) -> MetricSet:
    """Train one baseline and evaluate it on the test split."""
    if schema.num_classes != 2:
        raise ValueError("baselines report binary metrics; need a two-class schema")
    pos = cfg.positive_class

    if kind.name == "unimodal":
        if kind.k is None or not 0 <= kind.k < schema.num_modalities:
            raise ValueError(f"unimodal baseline needs a valid modality index, got {kind.k}")
        net = _fit_unimodal(kind.k, schema, train, val, cfg)
        eligible = [s for s in test if not s.mask[kind.k]]
        if not eligible:
            raise ValueError(f"unimodal baseline: modality {kind.k} unobserved in test split")
        with no_grad():
            scores = [
                (_proba(net.logits_for_item(s.slots[kind.k]), pos), s.label) for s in eligible
            ]
        return compute_metrics(scores, positive_class=pos)

    if kind.name in ("zero_fill_multimodal", "mean_impute_multimodal"):
        if kind.name == "zero_fill_multimodal":
            fillers = [np.zeros(schema.payload_width) for _ in range(schema.num_modalities)]
        else:
            fillers = _training_means(train, schema)
        train_items = [(_concat_input(s, schema, fillers), s.label) for s in train]
        val_items = [(_concat_input(s, schema, fillers), s.label) for s in val]
        net = _ConcatNet(schema, cfg, SeededRng((cfg.seed, "init_concat")))

        def item_loss(item):
            x, y = item
            return softmax_cross_entropy(net.logits(x), y)

        _train_loop(
            net.named_parameters(), item_loss, train_items, val_items, cfg,
            cfg.max_epochs_phase2, SeededRng((cfg.seed, "shuffle_concat")), kind.name,
        )
        with no_grad():
            scores = [
                (_proba(net.logits(_concat_input(s, schema, fillers)), pos), s.label)
                for s in test
            ]
        return compute_metrics(scores, positive_class=pos)

    if kind.name == "late_fusion_average":
        nets: dict[int, _UnimodalNet] = {}
        for k in range(schema.num_modalities):
            if any(not s.mask[k] for s in train) and any(not s.mask[k] for s in val):
                nets[k] = _fit_unimodal(k, schema, train, val, cfg, instance_level=True)
        if not nets:
            raise ValueError("late fusion: no modality observed in both train and val")
        scores = []
        with no_grad():
            for s in test:
                probs = []
                for k, net in nets.items():
                    if s.mask[k]:
                        continue
                    items = s.slots[k] if schema.is_bag(k) else [s.slots[k]]
                    probs.extend(_proba(net.logits_for_item(x), pos) for x in items)
                if probs:
                    scores.append((float(np.mean(probs)), s.label))
        if not scores:
            raise ValueError("late fusion: no test sample had a scorable modality")
        return compute_metrics(scores, positive_class=pos)

    raise ValueError(f"unknown baseline kind {kind.name!r}")
