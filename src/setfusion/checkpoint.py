"""Versioned binary checkpoint: a flat name -> float64 array map.

Values round-trip bitwise. The `binio` container's magic and version
identify the format; its JSON header carries only run metadata (frozen
flag, aggregator, config text). Every array must be finite, on save and
on load.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .binio import read_container, write_container
from .errors import DataFormatError

MAGIC = b"SFCK"
FORMAT_VERSION = 1
_MAX_NAME_BYTES = 0xFFFF  # a name's length is a <H


def _check_finite(path, name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise DataFormatError(f"{path}: tensor '{name}' holds non-finite values")


def save_checkpoint(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    body = [struct.pack("<I", len(arrays))]
    names = list(arrays)
    for name in names:
        if not isinstance(name, str):
            raise DataFormatError(f"{path}: tensor name {name!r} is not a str")
    for name in sorted(names):
        arr = np.asarray(arrays[name], dtype="<f8")  # tobytes() writes C order; 0-d stays 0-d
        _check_finite(path, name, arr)
        encoded = name.encode("utf-8")
        if len(encoded) > _MAX_NAME_BYTES:
            raise DataFormatError(f"{path}: tensor name of {len(encoded)} UTF-8 bytes is longer "
                                  f"than the {_MAX_NAME_BYTES} the layout can hold")
        body.append(struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", arr.ndim))
        body.extend(struct.pack("<I", dim) for dim in arr.shape)
        body.append(arr.tobytes())
    write_container(path, MAGIC, FORMAT_VERSION, header, b"".join(body))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    rd, header = read_container(path, MAGIC, FORMAT_VERSION, "checkpoint")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(rd.unpack("<I", "tensor count")):
        name = rd.text(rd.unpack("<H", "tensor name length"), "tensor name")
        ndim = rd.unpack("<B", f"rank of tensor '{name}'")
        shape = tuple(rd.unpack("<I", f"shape of tensor '{name}'") for _ in range(ndim))
        arrays[name] = rd.floats(math.prod(shape), f"tensor record '{name}'").reshape(shape)
        _check_finite(path, name, arrays[name])
    rd.finish()
    return header, arrays
