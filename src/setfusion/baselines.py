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
from .nn import MLP, Dense, aggregate, parameters
from .rng import SeededRng
from .tensor import Tensor, as_tensor, no_grad, softmax, softmax_cross_entropy
from .trainer import TrainConfig, train_loop

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
    """One of the kinds above by name; `k` is the modality of `unimodal`."""

    name: str
    k: int | None = None


class _BaselineNet:
    """A dense feature stack and a linear class head.

    An item is one input vector or a bag of them; a bag's features are
    max-pooled before the head.
    """

    def __init__(self, widths: list[int], num_classes: int, rng: SeededRng, name: str,
                 final_relu: bool = False):
        self.features = MLP(widths, rng, f"{name}/features", final_relu=final_relu)
        self.head = Dense(widths[-1], num_classes, rng, f"{name}/head")

    def logits(self, item) -> Tensor:
        xs = item if isinstance(item, (list, tuple)) else [item]
        return self.head(aggregate([self.features(as_tensor(x)) for x in xs], "max"))

    def proba(self, item, positive_class: int) -> float:
        with no_grad():
            return float(softmax(self.logits(item).data)[positive_class])

    def named_parameters(self) -> dict[str, Tensor]:
        return parameters(self.features, self.head)

    def fit(self, train_items: list, val_items: list, cfg: TrainConfig,
            shuffle_rng: SeededRng, phase_name: str) -> "_BaselineNet":
        """Train on (item, label) pairs with the shared loop."""
        def item_loss(pair):
            item, y = pair
            return softmax_cross_entropy(self.logits(item), y)

        train_loop(self.named_parameters(), item_loss, train_items, val_items, cfg,
                   cfg.max_epochs_phase2, shuffle_rng, phase_name)
        return self


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
) -> _BaselineNet:
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
    net = _BaselineNet([schema.payload_width, cfg.backbone_hidden, cfg.d_z, cfg.d_l],
                       schema.num_classes, SeededRng((cfg.seed, "init_unimodal", k)), "uni")
    return net.fit(train_items, val_items, cfg, SeededRng((cfg.seed, "shuffle_unimodal", k)),
                   f"unimodal_{k}")


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
    cfg.check_schema(schema)
    pos = cfg.positive_class

    if kind.name == "unimodal":
        if kind.k is None or not 0 <= kind.k < schema.num_modalities:
            raise ValueError(f"unimodal baseline needs a valid modality index, got {kind.k}")
        net = _fit_unimodal(kind.k, schema, train, val, cfg)
        eligible = [s for s in test if not s.mask[kind.k]]
        if not eligible:
            raise ValueError(f"unimodal baseline: modality {kind.k} unobserved in test split")
        scores = [(net.proba(s.slots[kind.k], pos), s.label) for s in eligible]
        return compute_metrics(scores, positive_class=pos)

    if kind.name in ("zero_fill_multimodal", "mean_impute_multimodal"):
        if kind.name == "zero_fill_multimodal":
            fillers = [np.zeros(schema.payload_width) for _ in range(schema.num_modalities)]
        else:
            fillers = _training_means(train, schema)
        train_items = [(_concat_input(s, schema, fillers), s.label) for s in train]
        val_items = [(_concat_input(s, schema, fillers), s.label) for s in val]
        width = schema.num_modalities * schema.payload_width
        net = _BaselineNet([width, cfg.backbone_hidden, cfg.d_l], schema.num_classes,
                           SeededRng((cfg.seed, "init_concat")), "concat", final_relu=True)
        net.fit(train_items, val_items, cfg, SeededRng((cfg.seed, "shuffle_concat")), kind.name)
        scores = [(net.proba(_concat_input(s, schema, fillers), pos), s.label) for s in test]
        return compute_metrics(scores, positive_class=pos)

    if kind.name == "late_fusion_average":
        nets: dict[int, _BaselineNet] = {}
        for k in range(schema.num_modalities):
            if any(not s.mask[k] for s in train) and any(not s.mask[k] for s in val):
                nets[k] = _fit_unimodal(k, schema, train, val, cfg, instance_level=True)
        if not nets:
            raise ValueError("late fusion: no modality observed in both train and val")
        scores = []
        for s in test:
            probs = []
            for k, net in nets.items():
                if s.mask[k]:
                    continue
                items = s.slots[k] if schema.is_bag(k) else [s.slots[k]]
                probs.extend(net.proba(x, pos) for x in items)
            if probs:
                scores.append((float(np.mean(probs)), s.label))
        if not scores:
            raise ValueError("late fusion: no test sample had a scorable modality")
        return compute_metrics(scores, positive_class=pos)

    raise ValueError(f"unknown baseline kind {kind.name!r}")
