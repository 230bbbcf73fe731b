"""Synthetic multimodal datasets with controlled missingness.

Payloads of class y, modality i are noisy copies of a class/modality
centroid drawn once from a sphere of radius `class_sep`. Missingness is
applied per sample after generation by setting slots to None; a sample
is never left fully missing (offending draws are redrawn). Datasets
serialize to a `binio` container whose header is the schema; both
`save_dataset` and `load_dataset` hold every sample to `check_sample`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binio import read_container, write_container
from .errors import DataFormatError
from .hypernet import ModalityId
from .rng import SeededRng
from .setnet import SetObservation
from .tensor import is_int

MAGIC = b"SFDS"
FORMAT_VERSION = 1

MECHANISMS = ("mcar", "modality_k_only")


@dataclass
class DatasetSchema:
    num_modalities: int
    modality_names: list[str]
    payload_width: int
    num_classes: int
    bag_modalities: tuple[int, ...] = ()

    def __post_init__(self):
        for name, low in (("num_modalities", 1), ("payload_width", 1), ("num_classes", 2)):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not (isinstance(self.modality_names, list)
                and all(isinstance(name, str) for name in self.modality_names)):
            raise ValueError(f"modality_names must be a list of str, got {self.modality_names!r}")
        if len(self.modality_names) != self.num_modalities:
            raise ValueError(
                f"{len(self.modality_names)} names for {self.num_modalities} modalities"
            )
        if len(set(self.modality_names)) != self.num_modalities:
            raise ValueError(f"modality names must be unique, got {self.modality_names}")
        self.bag_modalities = tuple(sorted(self.bag_modalities))
        for i in self.bag_modalities:
            if not (is_int(i) and 0 <= i < self.num_modalities):
                raise ValueError(f"bag modality index {i!r} out of range")
        # plain ints, so that a numpy integer given here still writes as JSON
        self.num_modalities = int(self.num_modalities)
        self.payload_width = int(self.payload_width)
        self.num_classes = int(self.num_classes)
        self.bag_modalities = tuple(int(i) for i in self.bag_modalities)

    def modality(self, index: int) -> ModalityId:
        return ModalityId(index=index, name=self.modality_names[index])

    def is_bag(self, index: int) -> bool:
        return index in self.bag_modalities

    def to_dict(self) -> dict:
        return {
            "num_modalities": self.num_modalities,
            "modality_names": list(self.modality_names),
            "payload_width": self.payload_width,
            "num_classes": self.num_classes,
            "bag_modalities": list(self.bag_modalities),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSchema":
        return cls(
            num_modalities=d["num_modalities"],
            modality_names=d["modality_names"],
            payload_width=d["payload_width"],
            num_classes=d["num_classes"],
            bag_modalities=d.get("bag_modalities", ()),
        )


@dataclass
class MaskedSample:
    """A d-modal observation; `slots[i]` is None when modality i is missing.

    Observed slots keep the original payload; `generate` makes complete
    ones. `mask` and `q` are read from the slots, never stored beside them.
    """

    slots: list
    label: int
    sample_id: str

    @property
    def mask(self) -> np.ndarray:
        """uint8 per modality, 1 where the slot is missing."""
        return np.array([slot is None for slot in self.slots], dtype=np.uint8)

    @property
    def q(self) -> int:
        return sum(slot is not None for slot in self.slots)


def check_sample(schema: DatasetSchema, s: MaskedSample) -> None:
    """Raise a ValueError naming `s` if `schema` cannot hold it."""
    sid, r = s.sample_id, schema.payload_width
    if not (isinstance(sid, str) and len(sid.encode("utf-8")) <= 0xFFFF):
        raise ValueError(f"sample id {sid!r} is not a str of at most 65535 UTF-8 bytes")
    if len(s.slots) != schema.num_modalities:
        raise ValueError(f"sample '{sid}' has {len(s.slots)} slots, not {schema.num_modalities}")
    if not (is_int(s.label) and 0 <= s.label < schema.num_classes):
        raise ValueError(f"label {s.label!r} of sample '{sid}' is not a class of the schema")
    if all(slot is None for slot in s.slots):
        raise ValueError(f"sample '{sid}' has every modality missing")
    for i, slot in enumerate(s.slots):
        if slot is None:
            continue
        if schema.is_bag(i) and not isinstance(slot, list):
            raise ValueError(f"bag modality {i} of sample '{sid}' is not a list of instances")
        if schema.is_bag(i) and not slot:
            raise ValueError(f"sample '{sid}' has an empty instance bag")
        for x in slot if schema.is_bag(i) else [slot]:
            if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf" and x.shape == (r,)):
                raise ValueError(f"payload of sample '{sid}' is not a real array of shape ({r},)")
            if not np.isfinite(x).all():
                raise ValueError(f"payload of sample '{sid}' holds non-finite values")


def check_generate_args(schema: DatasetSchema, n: int, class_sep, noise_sigma,
                        bag_size_range) -> list[float]:
    """Reject bad `generate` arguments; returns one noise sigma per modality."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (np.isfinite(class_sep) and class_sep > 0):
        raise ValueError(f"class_sep must be finite and positive, got {class_sep}")
    d = schema.num_modalities
    if isinstance(noise_sigma, (int, float)):
        sigmas = [float(noise_sigma)] * d
    else:
        sigmas = [float(s) for s in noise_sigma]
        if len(sigmas) != d:
            raise ValueError(f"{len(sigmas)} noise sigmas for {d} modalities")
    if not all(np.isfinite(s) and s >= 0 for s in sigmas):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {sigmas}")
    lo, hi = bag_size_range
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid bag size range {bag_size_range}")
    return sigmas


def generate(
    schema: DatasetSchema,
    n: int,
    seed,
    class_sep: float = 10.0,
    noise_sigma=0.5,
    bag_size_range: tuple[int, int] = (2, 5),
) -> list[MaskedSample]:
    """Class-balanced complete samples around per-(class, modality) centroids."""
    sigmas = check_generate_args(schema, n, class_sep, noise_sigma, bag_size_range)
    lo, hi = bag_size_range

    root = SeededRng(seed)
    crng = root.child("centroids")
    r = schema.payload_width
    centroids = np.empty((schema.num_classes, schema.num_modalities, r))
    for y in range(schema.num_classes):
        for i in range(schema.num_modalities):
            direction = crng.normal(r)
            centroids[y, i] = class_sep * direction / np.linalg.norm(direction)

    samples = []
    for idx in range(n):
        y = idx % schema.num_classes
        srng = root.child("sample", idx)
        payloads = []
        for i in range(schema.num_modalities):
            base = centroids[y, i] + sigmas[i] * srng.normal(r)
            if schema.is_bag(i):
                size = int(srng.integers(lo, hi + 1))
                payloads.append([base + sigmas[i] * srng.normal(r) for _ in range(size)])
            else:
                payloads.append(base)
        samples.append(MaskedSample(slots=payloads, label=y, sample_id=f"s{idx:06d}"))
    return samples


def check_missingness_args(rate: float, mechanism: str, k: int | None,
                           num_modalities: int) -> None:
    """Reject bad `apply_missingness` arguments for samples of `num_modalities` modalities."""
    if not 0 <= rate < 1:
        raise ValueError(f"missing rate must be in [0, 1), got {rate}")
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; expected one of {MECHANISMS}")
    if mechanism == "modality_k_only":
        if k is None:
            raise ValueError("mechanism 'modality_k_only' requires k")
        if not 0 <= k < num_modalities:
            raise ValueError(f"k={k} out of range for {num_modalities} modalities")


def apply_missingness(
    samples: list[MaskedSample],
    rate: float,
    mechanism: str = "mcar",
    seed=0,
    k: int | None = None,
) -> list[MaskedSample]:
    """Mask modalities of complete samples; fully-missing draws are redrawn."""
    check_missingness_args(rate, mechanism, k, len(samples[0].slots) if samples else 0)

    root = SeededRng(seed)
    masked = []
    for idx, s in enumerate(samples):
        if any(slot is None for slot in s.slots):
            raise ValueError(f"apply_missingness: sample '{s.sample_id}' already misses a modality")
        d = len(s.slots)
        rng = root.child("mask", idx)
        while True:
            if mechanism == "mcar":
                v = (rng.uniform(0.0, 1.0, d) < rate).astype(np.uint8)
            else:
                v = np.zeros(d, dtype=np.uint8)
                if rng.uniform(0.0, 1.0) < rate:
                    v[k] = 1
            if not v.all():
                break
        slots = [None if v[i] else s.slots[i] for i in range(d)]
        masked.append(MaskedSample(slots=slots, label=s.label, sample_id=s.sample_id))
    return masked


def to_set(ms: MaskedSample, schema: DatasetSchema) -> SetObservation:
    """Observed (payload, modality) pairs in ascending modality order."""
    if len(ms.slots) != schema.num_modalities:
        raise ValueError(f"to_set: sample '{ms.sample_id}' has {len(ms.slots)} slots, "
                         f"not {schema.num_modalities}")
    elements = [(slot, schema.modality(i)) for i, slot in enumerate(ms.slots) if slot is not None]
    return SetObservation(elements=elements, label=ms.label, sample_id=ms.sample_id)


def check_split_ratios(ratios) -> list[float]:
    """Three finite positive (train, val, test) ratios summing to 1."""
    ratios = [float(x) for x in ratios]
    if len(ratios) != 3 or not all(np.isfinite(x) and x > 0 for x in ratios):
        raise ValueError(f"split ratios must be three finite positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")
    return ratios


def split(samples: list, ratios, seed) -> tuple[list, list, list]:
    """Disjoint, exhaustive, seeded (train, val, test) partition.

    Sizes follow the largest-remainder rule so they always sum to n
    and match exact ratios when possible.
    """
    ratios = check_split_ratios(ratios)
    n = len(samples)
    raw = [x * n for x in ratios]
    sizes = [int(np.floor(x)) for x in raw]
    remainders = [x - s for x, s in zip(raw, sizes)]
    for _ in range(n - sum(sizes)):
        j = int(np.argmax(remainders))
        sizes[j] += 1
        remainders[j] = -1.0
    order = SeededRng(seed).permutation(n)
    a, b = sizes[0], sizes[0] + sizes[1]
    train = [samples[i] for i in order[:a]]
    val = [samples[i] for i in order[a:b]]
    test = [samples[i] for i in order[b:]]
    return train, val, test


def missing_fraction(samples: list[MaskedSample]) -> np.ndarray:
    """Observed missing rate per modality."""
    return np.stack([s.mask for s in samples]).mean(axis=0)


# ---------------------------------------------------------------------------
# binary container


def _check_samples(path, schema: DatasetSchema, samples) -> None:
    for s in samples:
        try:
            check_sample(schema, s)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def save_dataset(path, schema: DatasetSchema, samples: list[MaskedSample]) -> None:
    _check_samples(path, schema, samples)  # before anything is written
    body = [struct.pack("<I", len(samples))]
    for s in samples:
        sid = s.sample_id.encode("utf-8")
        body += [struct.pack("<H", len(sid)), sid, struct.pack("<i", s.label), s.mask.tobytes()]
        for i, slot in enumerate(s.slots):
            if slot is None:
                continue
            if schema.is_bag(i):
                body.append(struct.pack("<I", len(slot)))
            body.extend(x.astype("<f8").tobytes() for x in (slot if schema.is_bag(i) else [slot]))
    write_container(path, MAGIC, FORMAT_VERSION, schema.to_dict(), b"".join(body))


def load_dataset(path) -> tuple[DatasetSchema, list[MaskedSample]]:
    rd, header = read_container(path, MAGIC, FORMAT_VERSION, "dataset container")
    try:
        schema = DatasetSchema.from_dict(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise rd.error(f"invalid schema ({exc!r})") from exc
    d, r = schema.num_modalities, schema.payload_width
    samples = []
    for _ in range(rd.unpack("<I", "sample count")):
        sid = rd.text(rd.unpack("<H", "sample id length"), "sample id")
        label = rd.unpack("<i", f"label of sample '{sid}'")
        mask = np.frombuffer(rd.take(d, f"mask of sample '{sid}'"), dtype=np.uint8)
        if mask.max() > 1:
            raise rd.error(f"mask of sample '{sid}' holds values other than 0 and 1")
        slots = []
        for i in range(d):
            if mask[i]:
                slots.append(None)
            elif schema.is_bag(i):
                count = rd.unpack("<I", f"bag size of sample '{sid}'")
                slots.append([rd.floats(r, f"payload of sample '{sid}'") for _ in range(count)])
            else:
                slots.append(rd.floats(r, f"payload of sample '{sid}'"))
        samples.append(MaskedSample(slots=slots, label=label, sample_id=sid))
    _check_samples(path, schema, samples)
    rd.finish()
    return schema, samples
