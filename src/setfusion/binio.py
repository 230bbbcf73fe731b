"""Framing and bounds-checked decoding of the package's binary containers.

A dataset or checkpoint file is a magic, a `<I` version, a `<I` header
length, a UTF-8 JSON header, then the records of its format. `Reader`
turns every way the bytes can miss the layout into a `DataFormatError`:
a file cut inside any field, a header that is not a JSON object, and
bytes left over after the last record.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import DataFormatError


class Reader:
    """A cursor over one container's bytes; `source` names it in errors."""

    def __init__(self, blob: bytes, source, start: int = 0):
        self.blob = blob
        self.pos = start
        self.source = source

    def error(self, what: str) -> DataFormatError:
        return DataFormatError(f"{self.source}: {what}")

    def take(self, n: int, what: str) -> bytes:
        end = self.pos + n
        if end > len(self.blob):
            raise self.error(f"truncated {what} at byte {self.pos}")
        out = self.blob[self.pos:end]
        self.pos = end
        return out

    def unpack(self, fmt: str, what: str) -> int:
        (value,) = struct.unpack(fmt, self.take(struct.calcsize(fmt), what))
        return value

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not UTF-8") from exc

    def json_object(self, n: int, what: str) -> dict:
        raw = self.text(n, what)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise self.error(f"{what} is not valid JSON ({exc.msg})") from exc
        if not isinstance(value, dict):
            raise self.error(f"{what} is not a JSON object")
        return value

    def floats(self, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(8 * count, what), dtype="<f8").copy()

    def finish(self) -> None:
        if self.pos != len(self.blob):
            raise self.error(f"{len(self.blob) - self.pos} trailing bytes after the last record")


def write_container(path, magic: bytes, version: int, header: dict, body: bytes) -> None:
    """Open `path` only once `body` and the header are encoded, and write
    the whole file at once; a header JSON cannot encode raises
    `DataFormatError` naming `path`, before the file is opened."""
    try:
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: header cannot be written as JSON ({exc})") from exc
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", version, len(blob)) + blob + body)


def read_container(path, magic: bytes, version: int, kind: str) -> tuple[Reader, dict]:
    """A reader positioned after the header of a `kind` file, and the header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise DataFormatError(f"{path}: not a {kind} (bad magic)")
    rd = Reader(blob, path, start=4)
    found = rd.unpack("<I", "format version")
    if found != version:
        raise rd.error(f"unsupported {kind} version {found}")
    return rd, rd.json_object(rd.unpack("<I", "header length"), "header")
