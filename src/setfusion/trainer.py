"""Two-stage training: encoder on unpaired single-modality items, then
a frozen encoder feeding the set classifier.

Stage 1 consumes every observed payload (and every bag instance) as an
independent (payload, modality, label) item. Stage 2 freezes the
encoder, encodes each set once into its pooled latent, and optimizes
only the classifier head on those fixed vectors. Both stages share one
loop: shuffled per-item Adam steps, per-epoch validation, early
stopping on the validation loss with best-weight restore. A joint
single-stage mode trains encoder and classifier together for ablation
comparisons. Either way `run_full` returns a frozen encoder, so every
prediction after training uses the conditional layers `freeze`
generated once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetSchema, MaskedSample, check_split_ratios, split, to_set
from .encoder import Encoder, EncoderConfig, parameter_checksum, phase1_loss
from .errors import ContractError, NumericError
from .metrics import MetricSet, accuracy_only, compute_metrics
from .nn import AGGREGATOR_KINDS, parameters
from .optim import Adam
from .rng import SeededRng
from .setnet import SetClassifier, SetObservation, phase2_loss, pool_set, predict_proba
from .tensor import Tensor, mean_of_scalars, no_grad, softmax_cross_entropy


@dataclass
class TrainConfig:
    lr: float = 1e-4
    max_epochs_phase1: int = 100
    max_epochs_phase2: int = 100
    patience: int = 10
    batch_size: int = 1
    aggregator: str = "mean"
    seed: int = 0
    mse_weight: float = 1.0
    detach_recon_target: bool = True
    two_steps: bool = True
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    split_ratios: tuple[float, float, float] = (0.6, 0.1, 0.3)
    positive_class: int = 1
    d_z: int = 32
    d_l: int = 16
    backbone_hidden: int = 64
    decoder_hidden: int = 32
    embed_dim: int = 8
    hyper_hidden: int = 32
    rho_hidden: tuple[int, int] = (32, 16)

    def __post_init__(self):
        for name, value in (("lr", self.lr), ("epsilon", self.epsilon)):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name, value in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if not (np.isfinite(self.mse_weight) and self.mse_weight >= 0):
            raise ValueError(f"mse_weight must be finite and >= 0, got {self.mse_weight}")
        check_split_ratios(self.split_ratios)
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ValueError(f"aggregator must be one of {AGGREGATOR_KINDS}, got {self.aggregator!r}")
        for name in ("seed", "positive_class"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("max_epochs_phase1", "max_epochs_phase2", "d_z", "d_l", "backbone_hidden",
                     "decoder_hidden", "embed_dim", "hyper_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.rho_hidden) != 2 or min(self.rho_hidden) < 1:
            raise ValueError(
                f"rho_hidden must be exactly two positive widths, got {self.rho_hidden}"
            )

    def check_schema(self, schema: DatasetSchema) -> None:
        """Reject values that do not fit the dataset, before any training."""
        if self.positive_class >= schema.num_classes:
            raise ValueError(
                f"positive_class {self.positive_class} is not a class of a "
                f"{schema.num_classes}-class schema"
            )

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
        return {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "best_epoch": self.best_epoch,
            "stopped_epoch": self.stopped_epoch,
        }


@dataclass
class TrainReport:
    phase1: PhaseReport | None
    phase2: PhaseReport
    checksum_before_phase2: str
    checksum_after_phase2: str
    metrics: MetricSet
    config: TrainConfig
    wall_time_s: float = 0.0  # informational only; never serialized

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


class EarlyStopper:
    """Stop after `patience` epochs without a strict val-loss decrease."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best_val = np.inf
        self.best_epoch = 0
        self.epochs_since_best = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record an epoch; returns True when this is a new best."""
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best_epoch = epoch
            self.epochs_since_best = 0
            return True
        self.epochs_since_best += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.epochs_since_best >= self.patience


def collect_phase1_items(
    samples: list[MaskedSample], schema: DatasetSchema
) -> list[tuple[np.ndarray, int, int]]:
    """Every observed payload as an independent (x, modality, label) item."""
    items = []
    for s in samples:
        for i, slot in enumerate(s.slots):
            if s.mask[i]:
                continue
            if schema.is_bag(i):
                items.extend((inst, i, s.label) for inst in slot)
            else:
                items.append((slot, i, s.label))
    return items


def _require_labels(phase_name: str, train_sets: list[SetObservation],
                    val_sets: list[SetObservation]) -> None:
    """Reject an unlabeled set before any step, naming the sample and its stream."""
    for stream, sets in (("training", train_sets), ("validation", val_sets)):
        for obs in sets:
            if obs.label is None:
                raise ContractError(
                    f"{phase_name}: unlabeled observation '{obs.sample_id}' in the {stream} stream"
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
) -> PhaseReport:
    """Shared epoch loop: shuffle, batched Adam steps, early stop, restore."""
    if not train_items:
        raise ValueError(f"{phase_name}: empty training stream")
    if not val_items:
        raise ValueError(f"{phase_name}: empty validation stream")
    opt = Adam(named_params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, epsilon=cfg.epsilon)
    stopper = EarlyStopper(cfg.patience)
    report = PhaseReport()
    best = opt.flat.copy()

    for epoch in range(1, max_epochs + 1):
        order = shuffle_rng.permutation(len(train_items))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_items[i] for i in order[start : start + cfg.batch_size]]
            loss = mean_of_scalars([item_loss(item) for item in batch])
            loss.backward()
            opt.step()
            epoch_losses.append(loss.item())
        train_loss = float(np.mean(epoch_losses))
        with no_grad():
            val_loss = float(np.mean([item_loss(item).item() for item in val_items]))
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise NumericError(f"{phase_name}: non-finite loss at epoch {epoch}")
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)
        if stopper.update(epoch, val_loss):
            best = opt.flat.copy()
        report.stopped_epoch = epoch
        if stopper.should_stop:
            break

    opt.flat[...] = best
    opt.release_gradients()
    report.best_epoch = stopper.best_epoch
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
        return phase1_loss(
            enc.phase1_forward(x, m), y,
            mse_weight=cfg.mse_weight, detach_target=cfg.detach_recon_target,
        )

    def as_tensors(items):  # once per call, not once per item per epoch
        return [(Tensor(x), m, y) for x, m, y in items]

    return train_loop(
        enc.named_parameters(), item_loss, as_tensors(train_items), as_tensors(val_items), cfg,
        cfg.max_epochs_phase1, SeededRng((cfg.seed, "shuffle_phase1")), "phase1",
    )


def train_phase2(
    model: SetClassifier,
    enc: Encoder,
    train_sets: list[SetObservation],
    val_sets: list[SetObservation],
    cfg: TrainConfig,
) -> PhaseReport:
    """Fit the set classifier over a frozen encoder.

    A frozen encoder makes every set's pooled latent a constant, so each
    train and validation set is encoded once, here, and the epochs train
    only `model.rho` on those fixed vectors.
    """
    if not enc.frozen:
        raise ContractError("phase 2 requires a frozen encoder; call enc.freeze() first")
    _require_labels("phase2", train_sets, val_sets)

    def encode(sets):
        with no_grad():
            return [(pool_set(enc, obs, model.aggregator), obs.label) for obs in sets]

    def item_loss(item):
        latent, y = item
        return softmax_cross_entropy(model.rho(latent), y)

    return train_loop(
        model.named_parameters(), item_loss, encode(train_sets), encode(val_sets), cfg,
        cfg.max_epochs_phase2, SeededRng((cfg.seed, "shuffle_phase2")), "phase2",
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
    _require_labels("joint", train_sets, val_sets)
    params = parameters(enc.backbone, enc.hypernet, model)

    def item_loss(obs):
        return phase2_loss(model, enc, [(obs, obs.label)])

    return train_loop(
        params, item_loss, train_sets, val_sets, cfg,
        cfg.max_epochs_phase2, SeededRng((cfg.seed, "shuffle_joint")), "joint",
    )


def evaluate_sets(
    model: SetClassifier,
    enc: Encoder,
    test_sets: list[SetObservation],
    positive_class: int = 1,
) -> MetricSet:
    """Test metrics; full binary metrics when the task is two-class."""
    if not test_sets:
        raise ValueError("evaluate_sets: empty test set")
    num_classes = model.num_classes
    if positive_class not in range(num_classes):
        raise ContractError(
            f"positive_class {positive_class!r} is not a class of a {num_classes}-class model"
        )
    for obs in test_sets:  # every label, before any prediction
        if obs.label is None:
            raise ContractError(f"unlabeled observation '{obs.sample_id}' in evaluation")
        if obs.label not in range(num_classes):
            raise ContractError(
                f"label {obs.label!r} of '{obs.sample_id}' is not a class of a "
                f"{num_classes}-class model"
            )
    if num_classes == 2:
        scores = [
            (float(predict_proba(model, enc, obs)[positive_class]), obs.label)
            for obs in test_sets
        ]
        return compute_metrics(scores, positive_class=positive_class)
    correct = sum(
        int(np.argmax(predict_proba(model, enc, obs)) == obs.label) for obs in test_sets
    )
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
    started = time.perf_counter()
    cfg.check_schema(schema)
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
        wall_time_s=time.perf_counter() - started,
    )
    if cfg.two_steps and checksum_before != checksum_after:
        raise ContractError("encoder parameters drifted during stage 2")
    return report, enc, model
