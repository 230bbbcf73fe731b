import hashlib
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from setfusion.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from setfusion.errors import DataFormatError

shapes = st.one_of(st.just(()), hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
arrays = st.dictionaries(
    st.text(min_size=1, max_size=6),
    shapes.flatmap(lambda s: hnp.arrays(np.float64, s, elements=st.floats(-1e6, 1e6))),
    max_size=3,
)


def _header_bytes(header: bytes) -> bytes:
    return MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(header)) + header


def test_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"rho/0/w": rng.normal(size=(4, 3)), "rho/0/b": rng.normal(size=4),
               "scalar": np.array(2.5), "empty": np.zeros((0, 2)),
               "transposed": rng.normal(size=(2, 5)).T}
    path = tmp_path / "model.sfck"
    save_checkpoint(path, {"frozen": True, "aggregator": "mean"}, tensors)
    header, loaded = load_checkpoint(path)
    assert header["frozen"] is True and header["aggregator"] == "mean"
    assert sorted(loaded) == sorted(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


@settings(max_examples=25, deadline=None)
@given(tensors=arrays)
def test_every_truncation_point_raises_data_format_error(tensors):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.sfck"
        save_checkpoint(path, {"note": "ü"}, tensors)
        blob = path.read_bytes()
        cut_path = Path(tmp) / "cut.sfck"
        for cut in range(len(blob)):
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(DataFormatError):
                load_checkpoint(cut_path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.sfck"
    save_checkpoint(path, {}, {"w": np.ones(3)})
    path.write_bytes(path.read_bytes() + b"\x00junk")
    with pytest.raises(DataFormatError, match="5 trailing bytes"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.sfck"
    path.write_bytes(b"SFDS" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v2.sfck"
    path.write_bytes(MAGIC + struct.pack("<I", 2))
    with pytest.raises(DataFormatError, match="version 2"):
        load_checkpoint(path)


@pytest.mark.parametrize("header, match", [
    (b"{not json", "not valid JSON"),
    (b"\xff\xfe", "not UTF-8"),
    (b"[1, 2]", "not a JSON object"),
])
def test_malformed_header_rejected(tmp_path, header, match):
    path = tmp_path / "bad.sfck"
    path.write_bytes(_header_bytes(header) + struct.pack("<I", 0))
    with pytest.raises(DataFormatError, match=match):
        load_checkpoint(path)


def test_bytes_differ_from_the_old_format_only_by_the_dropped_header_keys(tmp_path):
    """Old files carried `format_tag` and `format_version` in the header; they still load."""
    old_keys = {"format_tag": "setfusion-checkpoint", "format_version": 1}
    tensors = {"w": np.arange(6.0).reshape(2, 3) - 2.5, "b": np.array([0.25, -1.0]),
               "s": np.array(3.0)}
    path = tmp_path / "old.sfck"
    save_checkpoint(path, {"frozen": True, "aggregator": "mean", **old_keys}, tensors)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f74ef96cb423e5a59d7c92532448374d20532fdd1a5fbc828a63d49a19a78a5b")
    header, loaded = load_checkpoint(path)
    assert header == {"frozen": True, "aggregator": "mean", **old_keys}
    assert all(loaded[name].tobytes() == arr.tobytes() for name, arr in tensors.items())
    save_checkpoint(path, {"frozen": True}, tensors)
    assert b"format_" not in path.read_bytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_array_rejected_on_save_and_on_load(tmp_path, value):
    path = tmp_path / "model.sfck"
    with pytest.raises(DataFormatError, match="tensor 'w' holds non-finite values") as info:
        save_checkpoint(path, {}, {"b": np.zeros(2), "w": np.array([1.0, value])})
    assert str(path) in str(info.value)
    assert not path.exists()
    record = b"".join([struct.pack("<HcBI", 1, b"w", 1, 2), np.array([1.0, value]).tobytes()])
    path.write_bytes(_header_bytes(b"{}") + struct.pack("<I", 1) + record)
    with pytest.raises(DataFormatError, match="tensor 'w' holds non-finite values") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("name, match", [
    (3, "tensor name 3 is not a str"),
    (b"w", "tensor name b'w' is not a str"),
    ("w" * 65536, "tensor name of 65536 UTF-8 bytes is longer than the 65535"),
    ("é" * 32768, "tensor name of 65536 UTF-8 bytes is longer than the 65535"),
])
def test_a_name_the_layout_cannot_hold_rejected_on_save(tmp_path, name, match):
    path = tmp_path / "model.sfck"
    with pytest.raises(DataFormatError, match=match) as info:
        save_checkpoint(path, {}, {"b": np.zeros(2), name: np.zeros(1)})
    assert str(info.value).startswith(f"{path}: ")
    assert not path.exists()


def test_the_longest_name_the_layout_holds_round_trips(tmp_path):
    path = tmp_path / "model.sfck"
    name = "w" * 65535
    save_checkpoint(path, {}, {name: np.ones(2)})
    assert load_checkpoint(path)[1][name].tobytes() == np.ones(2).tobytes()
