"""Two-stage training: encoder on unpaired single-modality items, then
a frozen encoder feeding the set classifier.

Stage 1 consumes every observed payload (and every bag instance) as an
independent (payload, modality, label) item. Stage 2 freezes the
encoder, encodes the train and validation sets once into their pooled
latents (`pool_sets`: one stacked φ call per modality), and optimizes
only the classifier head on those fixed vectors. Both stages share one
loop: shuffled per-item Adam steps, per-epoch validation, early
stopping on the validation loss with best-weight restore. Each item is
one graph node (`phase1_loss` over the whole encoder; `rho_loss`, ρ and
the cross-entropy), and each validation epoch is one stacked pass: one
row-wise forward per modality in stage 1, one ρ pass in stage 2, each
row bitwise the item's own loss. A joint single-stage mode trains
encoder and classifier together for ablation comparisons; its
validation pools the sets with `pool_sets` on the trainable encoder,
generating each modality's layer once per pass. φ is one dense stack,
trainable or frozen; freezing only caches each modality's generated
conditional layer. Either way
`run_full` returns a frozen encoder, so no prediction after training
runs the hypernetwork again, and `evaluate_sets` scores the whole test
split in one stacked ρ pass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .data import DatasetSchema, MaskedSample, split, to_set
from .encoder import Encoder, EncoderConfig, parameter_checksum, phase1_loss
from .errors import ContractError, NumericError
from .metrics import MetricSet, accuracy_only, compute_metrics
from .nn import AGGREGATOR_KINDS, parameters
from .optim import Adam, check_lr
from .rng import SeededRng
from .setnet import SetClassifier, SetObservation, phase2_loss, pool_sets
from .tensor import Tensor, is_int, no_grad, softmax, stack

# TrainConfig integer field -> its least value
_INT_FIELDS = {"seed": 0, "patience": 1, "max_epochs_phase1": 1, "max_epochs_phase2": 1,
               "d_z": 1, "d_l": 1, "backbone_hidden": 1, "decoder_hidden": 1,
               "embed_dim": 1, "hyper_hidden": 1}


@dataclass
class TrainConfig:
    # constants, not fields: every run splits (train, val, test) 0.6/0.1/0.3
    # and scores class 1 as the positive class
    split_ratios: ClassVar[tuple[float, float, float]] = (0.6, 0.1, 0.3)
    positive_class: ClassVar[int] = 1

    lr: float = 1e-4
    max_epochs_phase1: int = 100
    max_epochs_phase2: int = 100
    patience: int = 10
    aggregator: str = "mean"
    seed: int = 0
    two_steps: bool = True
    d_z: int = 32
    d_l: int = 16
    backbone_hidden: int = 64
    decoder_hidden: int = 32
    embed_dim: int = 8
    hyper_hidden: int = 32
    rho_hidden: tuple[int, int] = (32, 16)

    def __post_init__(self):
        check_lr(self.lr)
        if not isinstance(self.two_steps, bool):
            raise ValueError(f"two_steps must be a bool, got {self.two_steps!r}")
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ValueError(f"aggregator must be one of {AGGREGATOR_KINDS}, got {self.aggregator!r}")
        for name, low in _INT_FIELDS.items():
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        widths = self.rho_hidden
        if not (isinstance(widths, (tuple, list)) and len(widths) == 2
                and all(is_int(w) and w >= 1 for w in widths)):
            raise ValueError(f"rho_hidden must be exactly two positive integer widths, got {widths!r}")
        # plain values, so that dump_config writes text parse_config reads back
        self.lr = float(self.lr)
        self.rho_hidden = tuple(int(w) for w in widths)

    def encoder_config(self, schema: DatasetSchema) -> EncoderConfig:
        return EncoderConfig(
            input_width=schema.payload_width,
            num_classes=schema.num_classes,
            num_modalities=schema.num_modalities,
            d_z=self.d_z, d_l=self.d_l,
            backbone_hidden=self.backbone_hidden,
            decoder_hidden=self.decoder_hidden,
            embed_dim=self.embed_dim,
            hyper_hidden=self.hyper_hidden,
        )


@dataclass
class PhaseReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    phase1: PhaseReport | None
    phase2: PhaseReport
    checksum_before_phase2: str
    checksum_after_phase2: str
    metrics: MetricSet
    config: TrainConfig

    def to_dict(self) -> dict:
        # deterministic content only: reruns must produce identical bytes
        return {
            "phase1": self.phase1.to_dict() if self.phase1 else None,
            "phase2": self.phase2.to_dict(),
            "checksum_before_phase2": self.checksum_before_phase2,
            "checksum_after_phase2": self.checksum_after_phase2,
            "metrics": self.metrics.to_dict(),
            "two_steps": self.config.two_steps,
            "seed": self.config.seed,
        }


def collect_phase1_items(
    samples: list[MaskedSample], schema: DatasetSchema
) -> list[tuple[np.ndarray, int, int]]:
    """Every observed payload as an independent (x, modality, label) item."""
    items = []
    for s in samples:
        for i, slot in enumerate(s.slots):
            if slot is None:
                continue
            if schema.is_bag(i):
                items.extend((inst, i, s.label) for inst in slot)
            else:
                items.append((slot, i, s.label))
    return items


def _check_labels(num_classes: int, streams: dict[str, list[SetObservation]],
                  prefix: str = "") -> None:
    """Reject a set whose label is missing or no class of a `num_classes`-class
    model, before any step or prediction. `streams` maps where a message
    says each list is used ("in the training stream") to the list."""
    for where, sets in streams.items():
        for obs in sets:
            if obs.label is None:
                raise ContractError(f"{prefix}unlabeled observation '{obs.sample_id}' {where}")
            if not (is_int(obs.label) and 0 <= obs.label < num_classes):
                raise ContractError(
                    f"{prefix}label {obs.label!r} of '{obs.sample_id}' is not a class of a "
                    f"{num_classes}-class model"
                )


def train_loop(
    named_params: dict[str, Tensor],
    item_loss,
    train_items: list,
    val_items: list,
    cfg: TrainConfig,
    max_epochs: int,
    shuffle_rng: SeededRng,
    phase_name: str,
    list_loss=None,
) -> PhaseReport:
    """Shared epoch loop: shuffle, one Adam step per item, early stop, restore.

    The validation loss is the mean of `list_loss(val_items)`, the loss of
    each validation item in one call under `no_grad`; by default one
    `item_loss` call per item. Stops once `cfg.patience` epochs pass
    without a strict val-loss decrease (epoch 1 always sets the best);
    restores the best weights.
    """
    if not train_items:
        raise ValueError(f"{phase_name}: empty training stream")
    if not val_items:
        raise ValueError(f"{phase_name}: empty validation stream")
    opt = Adam(named_params, lr=cfg.lr)
    report = PhaseReport()
    best, best_val = opt.flat.copy(), np.inf

    for epoch in range(1, max_epochs + 1):
        order = shuffle_rng.permutation(len(train_items))
        epoch_losses = []
        for i in order:
            loss = item_loss(train_items[i])
            loss.backward()
            opt.step()
            epoch_losses.append(loss.item())
        train_loss = float(np.mean(epoch_losses))
        with no_grad():
            val_loss = float(np.mean(list_loss(val_items) if list_loss
                                     else [item_loss(item).item() for item in val_items]))
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise NumericError(f"{phase_name}: non-finite loss at epoch {epoch}")
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)
        report.stopped_epoch = epoch
        if val_loss < best_val:
            best, best_val, report.best_epoch = opt.flat.copy(), val_loss, epoch
        elif epoch - report.best_epoch >= cfg.patience:
            break

    opt.flat[...] = best
    opt.release_gradients()
    return report


def train_phase1(
    enc: Encoder,
    train_items: list[tuple[np.ndarray, int, int]],
    val_items: list[tuple[np.ndarray, int, int]],
    cfg: TrainConfig,
) -> PhaseReport:
    """Fit the universal encoder on unpaired single-modality items."""

    def item_loss(item):
        x, m, y = item
        return phase1_loss(enc.phase1_forward(x, m), y)

    def list_loss(items):
        # one stacked forward per modality; row i is bitwise its item's loss
        losses = np.empty(len(items))
        by_modality: dict = {}
        for i, (_, m, _) in enumerate(items):
            by_modality.setdefault(m, []).append(i)
        for m, rows in by_modality.items():
            out = enc.phase1_forward(stack([items[i][0] for i in rows]), m)
            losses[rows] = phase1_loss(out, [items[i][2] for i in rows]).data
        return losses

    def as_tensors(items):  # once per call, not once per item per epoch
        return [(Tensor(x), m, y) for x, m, y in items]

    return train_loop(
        enc.named_parameters(), item_loss, as_tensors(train_items), as_tensors(val_items), cfg,
        cfg.max_epochs_phase1, SeededRng((cfg.seed, "shuffle_phase1")), "phase1", list_loss,
    )


def train_phase2(
    model: SetClassifier,
    enc: Encoder,
    train_sets: list[SetObservation],
    val_sets: list[SetObservation],
    cfg: TrainConfig,
) -> PhaseReport:
    """Fit the set classifier over a frozen encoder.

    A frozen encoder makes every set's pooled latent a constant, so the
    train and validation sets are encoded once, here, each list in one
    `pool_sets` pass, and the epochs train only `model.rho` on those
    fixed vectors.
    """
    if not enc.frozen:
        raise ContractError("phase 2 requires a frozen encoder; call enc.freeze() first")
    _check_labels(model.num_classes, {"in the training stream": train_sets,
                                      "in the validation stream": val_sets}, "phase2: ")

    def encode(sets):
        return list(zip(pool_sets(enc, sets, model.aggregator), [obs.label for obs in sets]))

    def item_loss(item):
        latent, y = item
        return model.rho_loss(latent, y)

    def list_loss(items):
        latents, labels = zip(*items)
        return model.rho_loss(stack(latents), labels).data

    return train_loop(
        model.named_parameters(), item_loss, encode(train_sets), encode(val_sets), cfg,
        cfg.max_epochs_phase2, SeededRng((cfg.seed, "shuffle_phase2")), "phase2", list_loss,
    )


def train_joint(
    model: SetClassifier,
    enc: Encoder,
    train_sets: list[SetObservation],
    val_sets: list[SetObservation],
    cfg: TrainConfig,
) -> PhaseReport:
    """Single-stage ablation: encoder and classifier optimized together.

    Only the prediction path is trained; the stage-1 auxiliary heads
    (decoder, unimodal classifier) take no gradient from the set loss.
    """
    if enc.frozen:
        raise ContractError("joint training needs a trainable encoder")
    _check_labels(model.num_classes, {"in the training stream": train_sets,
                                      "in the validation stream": val_sets}, "joint: ")
    params = parameters(enc.backbone, enc.hypernet, model)

    def item_loss(obs):
        return phase2_loss(model, enc, obs)

    def list_loss(sets):
        # pooled on the trainable encoder in one pass, each modality's
        # conditional layer generated once, and scored in one stacked ρ pass
        latents = pool_sets(enc, sets, model.aggregator)
        return model.rho_loss(stack(latents), [obs.label for obs in sets]).data

    return train_loop(
        params, item_loss, train_sets, val_sets, cfg,
        cfg.max_epochs_phase2, SeededRng((cfg.seed, "shuffle_joint")), "joint", list_loss,
    )


def evaluate_sets(
    model: SetClassifier,
    enc: Encoder,
    test_sets: list[SetObservation],
    positive_class: int = 1,
) -> MetricSet:
    """Test metrics; full binary metrics when the task is two-class.

    Every label is checked before any prediction. The sets are pooled in
    one `pool_sets` pass and scored in one stacked ρ pass and a row-wise
    `softmax`; each row is bitwise the `predict_proba` of its set.
    """
    if not test_sets:
        raise ValueError("evaluate_sets: empty test set")
    num_classes = model.num_classes
    if not (is_int(positive_class) and 0 <= positive_class < num_classes):
        raise ContractError(
            f"positive_class {positive_class!r} is not a class of a {num_classes}-class model"
        )
    _check_labels(num_classes, {"in evaluation": test_sets})
    with no_grad():
        logits = model.rho(stack(pool_sets(enc, test_sets, model.aggregator)))
    probs = softmax(logits.data)
    labels = [obs.label for obs in test_sets]
    if num_classes == 2:
        return compute_metrics(list(zip(probs[:, positive_class].tolist(), labels)),
                               positive_class=positive_class)
    correct = int(np.count_nonzero(np.argmax(probs, axis=1) == labels))
    return accuracy_only(correct, len(test_sets), positive_class)


def run_full(
    cfg: TrainConfig,
    schema: DatasetSchema,
    samples: list[MaskedSample],
) -> tuple[TrainReport, Encoder, SetClassifier]:
    """Full pipeline: split, stage 1, freeze, stage 2, test metrics.

    With `cfg.two_steps` false, runs the joint single-stage ablation
    instead; its stage-2 checksums differ. Both modes return a frozen
    encoder: the joint one is frozen after training, once both checksums
    are taken, so its test metrics and later predictions run the frozen
    path.
    """
    train, val, test = split(samples, cfg.split_ratios, seed=(cfg.seed, "split"))
    if not train or not val or not test:
        raise ValueError(f"split of {len(samples)} samples left an empty part")

    enc = Encoder(cfg.encoder_config(schema), SeededRng((cfg.seed, "init_encoder")))
    model = SetClassifier(
        cfg.d_l, schema.num_classes, SeededRng((cfg.seed, "init_rho")),
        hidden=cfg.rho_hidden, aggregator=cfg.aggregator,
    )
    train_sets = [to_set(s, schema) for s in train]
    val_sets = [to_set(s, schema) for s in val]
    test_sets = [to_set(s, schema) for s in test]

    if cfg.two_steps:
        p1 = train_phase1(
            enc,
            collect_phase1_items(train, schema),
            collect_phase1_items(val, schema),
            cfg,
        )
        enc.freeze()
        checksum_before = parameter_checksum(enc.named_parameters())
        p2 = train_phase2(model, enc, train_sets, val_sets, cfg)
        checksum_after = parameter_checksum(enc.named_parameters())
    else:
        p1 = None
        checksum_before = parameter_checksum(enc.named_parameters())
        p2 = train_joint(model, enc, train_sets, val_sets, cfg)
        checksum_after = parameter_checksum(enc.named_parameters())
        enc.freeze()

    metrics = evaluate_sets(model, enc, test_sets, cfg.positive_class)
    report = TrainReport(
        phase1=p1, phase2=p2,
        checksum_before_phase2=checksum_before,
        checksum_after_phase2=checksum_after,
        metrics=metrics, config=cfg,
    )
    if cfg.two_steps and checksum_before != checksum_after:
        raise ContractError("encoder parameters drifted during stage 2")
    return report, enc, model
