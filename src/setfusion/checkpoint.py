"""Versioned binary checkpoint: a flat name -> float64 array map.

Values round-trip bitwise. The header is a JSON block carrying the
format tag plus run metadata (frozen flag, aggregator, config text).
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .binio import Reader
from .errors import DataFormatError

MAGIC = b"SFCK"
FORMAT_VERSION = 1
FORMAT_TAG = "setfusion-checkpoint"


def save_checkpoint(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    meta = dict(header)
    meta["format_tag"] = FORMAT_TAG
    meta["format_version"] = FORMAT_VERSION
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype="<f8")  # tobytes() writes C order; 0-d stays 0-d
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint (bad magic)")
    rd = Reader(blob, path, start=4)
    version = rd.unpack("<I", "format version")
    if version != FORMAT_VERSION:
        raise rd.error(f"unsupported checkpoint version {version}")
    header = rd.json_object(rd.unpack("<I", "header length"), "header")
    if header.get("format_tag") != FORMAT_TAG:
        raise rd.error(f"unexpected format tag {header.get('format_tag')!r}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(rd.unpack("<I", "tensor count")):
        name = rd.text(rd.unpack("<H", "tensor name length"), "tensor name")
        ndim = rd.unpack("<B", f"rank of tensor '{name}'")
        shape = tuple(rd.unpack("<I", f"shape of tensor '{name}'") for _ in range(ndim))
        arrays[name] = rd.floats(math.prod(shape), f"tensor record '{name}'").reshape(shape)
    rd.finish()
    return header, arrays
