import dataclasses
import hashlib
import itertools
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfusion.binio import write_container
from setfusion.data import (
    DatasetSchema,
    MaskedSample,
    apply_missingness,
    generate,
    load_dataset,
    missing_fraction,
    save_dataset,
    split,
    to_set,
)
from setfusion.errors import DataFormatError


def schema2(r=8, bags=()):
    return DatasetSchema(
        num_modalities=2, modality_names=["m0", "m1"], payload_width=r,
        num_classes=2, bag_modalities=bags,
    )


def schema3(r=6):
    return DatasetSchema(
        num_modalities=3, modality_names=["a", "b", "c"], payload_width=r, num_classes=2,
    )


def container(schema: DatasetSchema, records) -> bytes:
    """Raw container bytes; a record is (sample id, label, mask, body)."""
    header = json.dumps(schema.to_dict(), sort_keys=True).encode()
    out = b"SFDS" + struct.pack("<II", 1, len(header)) + header + struct.pack("<I", len(records))
    for sid, label, mask, body in records:
        out += struct.pack("<H", len(sid)) + sid.encode() + struct.pack("<i", label)
        out += bytes(mask) + body
    return out


def record(schema: DatasetSchema, s: MaskedSample) -> tuple:
    """`s` as a `container` record, encoded without any of the sample rules."""
    body = b""
    for i, slot in enumerate(s.slots):
        if slot is not None and schema.is_bag(i):
            body += struct.pack("<I", len(slot)) + b"".join(x.tobytes() for x in slot)
        elif slot is not None:
            body += slot.tobytes()
    return s.sample_id, s.label, [int(slot is None) for slot in s.slots], body


class TestSchema:
    @pytest.mark.parametrize("num_classes", [0, 1])
    def test_fewer_than_two_classes_rejected(self, num_classes):
        with pytest.raises(ValueError, match="num_classes"):
            DatasetSchema(2, ["m0", "m1"], 4, num_classes)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DatasetSchema(2, ["x", "x"], 4, 2)

    def test_bag_index_out_of_range(self):
        with pytest.raises(ValueError):
            DatasetSchema(2, ["a", "b"], 4, 2, bag_modalities=(2,))

    def test_roundtrip_dict(self):
        s = schema2(bags=(1,))
        assert DatasetSchema.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize("args, match", [
        ((2, ["a", "b"], 2.5, 2), "payload_width must be an integer, got 2.5"),
        ((True, ["a"], 2, 2), "num_modalities must be an integer, got True"),
        ((2, ["a", "b"], 2, "2"), "num_classes must be an integer, got '2'"),
        ((2, "ab", 2, 2), "modality_names must be a list of str"),
        ((2, ("a", "b"), 2, 2), "modality_names must be a list of str"),
        ((2, ["a", 1], 2, 2), "modality_names must be a list of str"),
        ((2, ["a", "b"], 2, 2, (True,)), "bag modality index True"),
        ((2, ["a", "b"], 2, 2, (1.0,)), "bag modality index 1.0"),
    ])
    def test_field_types_checked(self, args, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            DatasetSchema(*args)

    def test_numpy_integers_stored_as_int_and_saved(self, tmp_path):
        i = np.int64
        s = DatasetSchema(i(2), ["a", "b"], i(2), i(2), bag_modalities=(i(1),))
        assert [type(v) for v in (s.num_modalities, s.payload_width, s.num_classes,
                                  *s.bag_modalities)] == [int] * 4
        assert s == DatasetSchema(2, ["a", "b"], 2, 2, bag_modalities=(1,))
        path = tmp_path / "data.sfds"
        save_dataset(path, s, [MaskedSample(slots=[np.ones(2), None], label=1, sample_id="s0")])
        assert load_dataset(path)[0] == s


class TestGenerate:
    def test_zero_noise_collapses_within_class(self):
        samples = generate(schema2(), n=8, seed=0, class_sep=5.0, noise_sigma=0.0)
        by_class = {}
        for s in samples:
            key = (s.label, 0)
            ref = by_class.setdefault(key, s.slots[0])
            np.testing.assert_array_equal(s.slots[0], ref)

    def test_same_seed_bitwise_identical(self):
        a = generate(schema2(bags=(1,)), n=12, seed=42, noise_sigma=0.5)
        b = generate(schema2(bags=(1,)), n=12, seed=42, noise_sigma=0.5)
        for sa, sb in zip(a, b):
            assert sa.label == sb.label and sa.sample_id == sb.sample_id
            np.testing.assert_array_equal(sa.slots[0], sb.slots[0])
            assert len(sa.slots[1]) == len(sb.slots[1])
            for ia, ib in zip(sa.slots[1], sb.slots[1]):
                np.testing.assert_array_equal(ia, ib)

    def test_balanced_classes(self):
        samples = generate(schema2(), n=101, seed=1)
        counts = np.bincount([s.label for s in samples])
        assert abs(counts[0] - counts[1]) <= 1

    def test_nearest_centroid_oracle_learnability(self):
        # fit class means on concatenated payloads, classify by distance
        samples = generate(schema2(r=32), n=400, seed=2, class_sep=10.0, noise_sigma=0.5)
        stacked = np.stack([np.concatenate(s.slots) for s in samples])
        labels = np.array([s.label for s in samples])
        means = np.stack([stacked[labels == y].mean(axis=0) for y in (0, 1)])
        dists = np.stack([np.linalg.norm(stacked - means[y], axis=1) for y in (0, 1)])
        accuracy = float(np.mean(dists.argmin(axis=0) == labels))
        assert accuracy >= 0.99

    def test_bag_sizes_within_range(self):
        samples = generate(schema2(bags=(0,)), n=30, seed=3, bag_size_range=(2, 5))
        sizes = {len(s.slots[0]) for s in samples}
        assert sizes <= {2, 3, 4, 5} and len(sizes) > 1

    def test_per_modality_noise_sigmas(self):
        samples = generate(schema2(), n=200, seed=4, class_sep=10.0, noise_sigma=[0.0, 2.0])
        zero_noise = [s.slots[0] for s in samples if s.label == 0]
        assert all(np.array_equal(p, zero_noise[0]) for p in zero_noise)
        noisy = np.stack([s.slots[1] for s in samples if s.label == 0])
        assert noisy.std(axis=0).mean() == pytest.approx(2.0, rel=0.15)

    def test_samples_are_complete_masked_samples(self):
        samples = generate(schema2(bags=(1,)), n=6, seed=5)
        for s in samples:
            assert isinstance(s, MaskedSample)
            assert s.mask.dtype == np.uint8 and s.mask.tolist() == [0, 0]
            assert s.q == 2 and all(slot is not None for slot in s.slots)


class TestMaskedSample:
    def test_fields_are_slots_label_and_sample_id(self):
        assert [f.name for f in dataclasses.fields(MaskedSample)] == ["slots", "label", "sample_id"]

    def test_mask_and_q_are_read_from_the_slots(self):
        sample = MaskedSample(slots=[np.zeros(2), None], label=0, sample_id="s")
        assert sample.mask.dtype == np.uint8 and sample.mask.tolist() == [0, 1]
        assert sample.q == 1

    def test_mask_cannot_be_assigned(self):
        sample = MaskedSample(slots=[np.zeros(2), None], label=0, sample_id="s")
        with pytest.raises(AttributeError):
            sample.mask = np.array([0, 0], dtype=np.uint8)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate(schema2(), n=0, seed=0)
        with pytest.raises(ValueError):
            generate(schema2(), n=4, seed=0, class_sep=0.0)
        with pytest.raises(ValueError):
            generate(schema2(), n=4, seed=0, noise_sigma=-1.0)
        with pytest.raises(ValueError):
            generate(schema2(), n=4, seed=0, noise_sigma=[0.5])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_class_sep_rejected(self, value):
        with pytest.raises(ValueError, match="class_sep must be finite and positive"):
            generate(schema2(), n=4, seed=0, class_sep=value)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, [0.5, np.nan], [np.inf, 0.5]])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            generate(schema2(), n=4, seed=0, noise_sigma=sigma)


class TestMissingness:
    def test_rate_zero_keeps_everything(self):
        samples = generate(schema2(), n=10, seed=5)
        masked = apply_missingness(samples, rate=0.0, mechanism="mcar", seed=0)
        for m, s in zip(masked, samples):
            assert m.mask.sum() == 0
            for slot, payload in zip(m.slots, s.slots):
                np.testing.assert_array_equal(slot, payload)

    def test_identity_between_mask_and_slots(self):
        samples = generate(schema3(), n=50, seed=6)
        masked = apply_missingness(samples, rate=0.4, mechanism="mcar", seed=7)
        for m, s in zip(masked, samples):
            for i in range(3):
                if m.mask[i]:
                    assert m.slots[i] is None
                else:
                    np.testing.assert_array_equal(m.slots[i], s.slots[i])

    def test_modality_k_only_frequency(self):
        samples = generate(schema2(r=2), n=10000, seed=8)
        masked = apply_missingness(samples, rate=0.5, mechanism="modality_k_only", seed=9, k=1)
        rates = missing_fraction(masked)
        assert rates[0] == 0.0
        assert abs(rates[1] - 0.5) < 0.02

    def test_mcar_empirical_rate_converges_to_p(self):
        schema4 = DatasetSchema(4, ["a", "b", "c", "d"], 2, 2)
        samples = generate(schema4, n=10000, seed=10)
        masked = apply_missingness(samples, rate=0.2, mechanism="mcar", seed=11)
        rates = missing_fraction(masked)
        assert np.all(np.abs(rates - 0.2) < 0.02)

    def test_mcar_rate_matches_redraw_conditional_formula(self):
        # with fully-missing draws redrawn, the per-modality rate is
        # p (1 - p^(d-1)) / (1 - p^d)
        samples = generate(schema3(r=2), n=10000, seed=10)
        masked = apply_missingness(samples, rate=0.3, mechanism="mcar", seed=11)
        expected = 0.3 * (1 - 0.3 ** 2) / (1 - 0.3 ** 3)
        rates = missing_fraction(masked)
        assert np.all(np.abs(rates - expected) < 0.015)

    def test_no_sample_fully_missing(self):
        samples = generate(schema2(r=2), n=5000, seed=12)
        masked = apply_missingness(samples, rate=0.9, mechanism="mcar", seed=13)
        assert all(m.q >= 1 for m in masked)

    def test_a_sample_that_already_misses_a_modality_rejected(self):
        masked = apply_missingness(generate(schema2(), n=20, seed=14), rate=0.5, seed=1)
        partial = next(m for m in masked if m.mask.any())
        with pytest.raises(ValueError) as err:
            apply_missingness(masked, rate=0.5, seed=2)
        assert str(err.value) == (
            f"apply_missingness: sample '{partial.sample_id}' already misses a modality")

    def test_invalid_rate(self):
        samples = generate(schema2(), n=4, seed=14)
        with pytest.raises(ValueError):
            apply_missingness(samples, rate=1.0, mechanism="mcar", seed=0)

    def test_unknown_mechanism_and_missing_k(self):
        samples = generate(schema2(), n=4, seed=15)
        with pytest.raises(ValueError):
            apply_missingness(samples, rate=0.5, mechanism="nmar", seed=0)
        with pytest.raises(ValueError):
            apply_missingness(samples, rate=0.5, mechanism="modality_k_only", seed=0)


class TestToSet:
    @pytest.mark.parametrize("slots", [1, 3])
    def test_wrong_slot_count_rejected(self, slots):
        sample = MaskedSample(slots=[np.zeros(2)] * slots, label=0, sample_id="s7")
        with pytest.raises(ValueError, match=f"sample 's7' has {slots} slots, not 2"):
            to_set(sample, schema2(r=2))

    def test_complete_sample_keeps_all_modalities(self):
        s = schema3()
        masked = apply_missingness(generate(s, n=1, seed=16), rate=0.0)
        obs = to_set(masked[0], s)
        assert obs.q == 3
        assert [m.index for _, m in obs.elements] == [0, 1, 2]
        assert [m.name for _, m in obs.elements] == ["a", "b", "c"]

    def test_middle_modality_missing(self):
        s = schema3()
        masked = apply_missingness(generate(s, n=1, seed=17), rate=0.0)[0]
        masked.slots[1] = None
        obs = to_set(masked, s)
        assert obs.q == 2
        assert [m.index for _, m in obs.elements] == [0, 2]

    def test_element_count_matches_mask_count(self):
        s = schema3()
        samples = generate(s, n=200, seed=18)
        masked = apply_missingness(samples, rate=0.5, mechanism="mcar", seed=19)
        total_q = sum(to_set(m, s).q for m in masked)
        total_observed = sum(3 - int(m.mask.sum()) for m in masked)
        assert total_q == total_observed

    def test_labels_and_ids_carried(self):
        s = schema2()
        masked = apply_missingness(generate(s, n=3, seed=20), rate=0.0)
        for m in masked:
            obs = to_set(m, s)
            assert obs.label == m.label and obs.sample_id == m.sample_id


class TestSplit:
    def test_canonical_sizes(self):
        samples = list(range(100))
        train, val, test = split(samples, (0.6, 0.1, 0.3), seed=0)
        assert (len(train), len(val), len(test)) == (60, 10, 30)

    def test_disjoint_and_exhaustive(self):
        samples = [f"id{i}" for i in range(97)]
        train, val, test = split(samples, (0.6, 0.1, 0.3), seed=1)
        assert len(train) + len(val) + len(test) == 97
        assert set(train) | set(val) | set(test) == set(samples)
        assert not (set(train) & set(val) or set(train) & set(test) or set(val) & set(test))

    def test_seed_reproducibility(self):
        samples = list(range(50))
        assert split(samples, (0.6, 0.1, 0.3), seed=7) == split(samples, (0.6, 0.1, 0.3), seed=7)
        assert split(samples, (0.6, 0.1, 0.3), seed=7) != split(samples, (0.6, 0.1, 0.3), seed=8)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split([1, 2, 3], (0.5, 0.2), seed=0)
        with pytest.raises(ValueError):
            split([1, 2, 3], (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("ratios", [(float("nan"), 0.5, 0.5), (0.6, float("inf"), 0.4),
                                        (1.2, -0.1, -0.1)])
    def test_non_finite_or_negative_ratios_rejected(self, ratios):
        with pytest.raises(ValueError, match="finite positive"):
            split([1, 2, 3], ratios, seed=0)


class TestContainer:
    def test_roundtrip_bitwise(self, tmp_path):
        s = schema2(bags=(1,))
        samples = generate(s, n=20, seed=21)
        masked = apply_missingness(samples, rate=0.4, mechanism="mcar", seed=22)
        path = tmp_path / "data.sfds"
        save_dataset(path, s, masked)
        schema_back, loaded = load_dataset(path)
        assert schema_back == s
        assert len(loaded) == len(masked)
        for a, b in zip(masked, loaded):
            assert a.sample_id == b.sample_id and a.label == b.label
            np.testing.assert_array_equal(a.mask, b.mask)
            for i in range(2):
                if a.mask[i]:
                    assert b.slots[i] is None
                elif s.is_bag(i):
                    for ia, ib in zip(a.slots[i], b.slots[i]):
                        assert ia.tobytes() == ib.tobytes()
                else:
                    assert a.slots[i].tobytes() == b.slots[i].tobytes()

    def test_roundtrip_keeps_every_mask(self, tmp_path):
        s = schema3(r=2)
        patterns = [p for p in itertools.product((0, 1), repeat=3) if not all(p)]
        samples = [
            MaskedSample(slots=[None if missing else np.full(2, float(j)) for missing in pattern],
                         label=j % 2, sample_id=f"s{j}")
            for j, pattern in enumerate(patterns)
        ]
        path = tmp_path / "data.sfds"
        save_dataset(path, s, samples)
        _, loaded = load_dataset(path)
        assert [b.mask.tolist() for b in loaded] == [list(p) for p in patterns]
        assert all(b.mask.dtype == np.uint8 for b in loaded)

    def test_rewrite_is_byte_identical(self, tmp_path):
        s = schema2()
        masked = apply_missingness(generate(s, n=5, seed=23), rate=0.0)
        p1, p2 = tmp_path / "a.sfds", tmp_path / "b.sfds"
        save_dataset(p1, s, masked)
        save_dataset(p2, s, masked)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sfds"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataFormatError, match="magic"):
            load_dataset(path)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 3), rate=st.sampled_from([0.0, 0.5]), bags=st.sampled_from([(), (1,)]),
           seed=st.integers(0, 1000))
    def test_every_truncation_point_raises_data_format_error(self, n, rate, bags, seed):
        s = schema2(r=2, bags=bags)
        masked = apply_missingness(generate(s, n=n, seed=seed), rate, "mcar", seed=seed + 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.sfds"
            save_dataset(path, s, masked)
            blob = path.read_bytes()
            cut_path = Path(tmp) / "cut.sfds"
            for cut in range(len(blob)):
                cut_path.write_bytes(blob[:cut])
                with pytest.raises(DataFormatError):
                    load_dataset(cut_path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "data.sfds"
        masked = apply_missingness(generate(schema2(), n=3, seed=26), rate=0.0)
        save_dataset(path, schema2(), masked)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(DataFormatError, match="4 trailing bytes"):
            load_dataset(path)

    @pytest.mark.parametrize("schema, match", [
        (b"{not json", "not valid JSON"),
        (b"[]", "not a JSON object"),
        (b'{"num_modalities": 2}', "invalid schema"),
        (b'{"num_modalities": 0, "modality_names": [], "payload_width": 2, "num_classes": 2}',
         "invalid schema"),
        (b'{"num_modalities": 2, "modality_names": ["a", "b"], "payload_width": 2.7, '
         b'"num_classes": 2}', "payload_width must be an integer, got 2.7"),
        (b'{"num_modalities": 2, "modality_names": ["a", "b"], "payload_width": 2, '
         b'"num_classes": "2"}', "num_classes must be an integer, got '2'"),
        (b'{"num_modalities": 2, "modality_names": "ab", "payload_width": 2, "num_classes": 2}',
         "modality_names must be a list of str"),
        (b'{"num_modalities": 2, "modality_names": ["a", "b"], "payload_width": 2, '
         b'"num_classes": 2, "bag_modalities": [true]}', "bag modality index True"),
    ])
    def test_malformed_schema_rejected(self, tmp_path, schema, match):
        path = tmp_path / "bad.sfds"
        path.write_bytes(b"SFDS" + struct.pack("<II", 1, len(schema)) + schema + struct.pack("<I", 0))
        with pytest.raises(DataFormatError, match=match):
            load_dataset(path)

    @pytest.mark.parametrize("field, value, match", [
        ("label", struct.pack("<i", 2), "not a class"),
        ("label", struct.pack("<i", -1), "not a class"),
        ("mask", b"\x02", "mask"),
    ])
    def test_out_of_range_record_field_rejected(self, tmp_path, field, value, match):
        s = schema2(r=2)
        masked = apply_missingness(generate(s, n=1, seed=27), rate=0.0)
        path = tmp_path / "data.sfds"
        save_dataset(path, s, masked)
        blob = bytearray(path.read_bytes())
        # magic, version, schema, count, id; then the label, the 2-byte mask and two payloads
        label_at = (4 + 4 + 4 + len(json.dumps(s.to_dict(), sort_keys=True)) + 4
                    + 2 + len(masked[0].sample_id.encode()))
        assert label_at == len(blob) - 4 - 2 - 2 * 2 * 8
        at = label_at if field == "label" else label_at + 4
        blob[at:at + len(value)] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=match):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("modality", [0, 1])  # a plain payload, a bag instance
    def test_non_finite_payload_names_file_and_sample(self, tmp_path, value, modality):
        s = schema2(r=3, bags=(1,))
        masked = apply_missingness(generate(s, n=3, seed=28), rate=0.0)
        bad = masked[1]
        target = bad.slots[modality] if modality == 0 else bad.slots[modality][-1]
        target[2] = value
        path = tmp_path / "data.sfds"
        with pytest.raises(DataFormatError, match="non-finite") as info:
            save_dataset(path, s, masked)
        assert str(path) in str(info.value) and f"'{bad.sample_id}'" in str(info.value)
        assert not path.exists()
        path.write_bytes(container(s, [record(s, m) for m in masked]))
        with pytest.raises(DataFormatError, match="non-finite") as info:
            load_dataset(path)
        assert str(path) in str(info.value) and f"'{bad.sample_id}'" in str(info.value)

    @pytest.mark.parametrize("change, match, encodable", [
        pytest.param({"label": 5}, "label 5 of sample 's1' is not a class", True, id="label_5"),
        pytest.param({"label": 1.5}, "label 1.5 of sample 's1' is not a class", False,
                     id="label_1.5"),
        pytest.param({"slots": [np.zeros(3), [np.ones(2)]]}, r"not a real array of shape \(2,\)",
                     False, id="width_3"),
        pytest.param({"slots": [np.array([0.0, np.nan]), [np.ones(2)]]}, "non-finite", True,
                     id="nan_payload"),
        pytest.param({"slots": [np.zeros(2), [np.ones(2), np.array([np.inf, 0.0])]]},
                     "non-finite", True, id="inf_bag_instance"),
        pytest.param({"slots": [np.zeros(2), [np.ones(2)], np.zeros(2)]}, "3 slots, not 2",
                     False, id="3_slots"),
        pytest.param({"slots": [np.zeros(2), np.ones(2)]}, "not a list of instances", False,
                     id="plain_array_in_bag"),
        pytest.param({"slots": [np.zeros(2), []]}, "empty instance bag", True, id="empty_bag"),
        pytest.param({"slots": [None, None]}, "every modality missing", True,
                     id="every_slot_none"),
    ])
    def test_each_sample_rule_rejects_on_save_and_on_load(self, tmp_path, change, match,
                                                          encodable):
        s = schema2(r=2, bags=(1,))
        good = MaskedSample(slots=[np.zeros(2), [np.ones(2)]], label=0, sample_id="s0")
        bad = dataclasses.replace(good, sample_id="s1", **change)
        path = tmp_path / "data.sfds"
        with pytest.raises(DataFormatError, match=match) as info:
            save_dataset(path, s, [good, bad])
        assert str(path) in str(info.value) and "'s1'" in str(info.value)
        assert not path.exists()
        if encodable:  # the layout can hold the bad value, so the reader must catch it too
            path.write_bytes(container(s, [record(s, good), record(s, bad)]))
            with pytest.raises(DataFormatError, match=match) as info:
                load_dataset(path)
            assert str(path) in str(info.value) and "'s1'" in str(info.value)

    @pytest.mark.parametrize("sample_id", ["x" * 65536, 7])
    def test_sample_id_the_layout_cannot_hold_rejected_on_save(self, tmp_path, sample_id):
        path = tmp_path / "data.sfds"
        sample = MaskedSample(slots=[np.zeros(2), None], label=0, sample_id=sample_id)
        with pytest.raises(DataFormatError, match="at most 65535 UTF-8 bytes"):
            save_dataset(path, schema2(r=2), [sample])
        assert not path.exists()

    def test_bytes_are_pinned(self, tmp_path):
        """The sha256 of a fixed dataset with a bag modality, missing slots and a non-ASCII id."""
        s = DatasetSchema(3, ["img", "txt", "tab"], payload_width=2, num_classes=3,
                          bag_modalities=(1,))

        def v(*x):
            return np.array(x, dtype=np.float64)

        samples = [
            MaskedSample([v(0.5, -1.25), [v(1.0, 2.0), v(-3.5, 0.0)], v(1e-300, 7.0)], 0, "a0"),
            MaskedSample([None, [v(4.0, 4.5)], None], 2, "b1"),
            MaskedSample([v(-0.0, 3.0), None, v(9.75, -2.5)], 1, "\u00fc2"),
        ]
        path = tmp_path / "pin.sfds"
        save_dataset(path, s, samples)
        blob = path.read_bytes()
        assert len(blob) == 293
        assert hashlib.sha256(blob).hexdigest() == (
            "640896ae6eb5c9bba661c5f97b7d429ea92146e2cdbf7d215b29c2cb3c75ffc9")
        schema_back, loaded = load_dataset(path)
        assert schema_back == s and [b.sample_id for b in loaded] == ["a0", "b1", "\u00fc2"]

    def test_schema_with_one_class_rejected_on_load(self, tmp_path):
        header = schema2(r=2).to_dict()
        header["num_classes"] = 1
        blob = json.dumps(header).encode()
        path = tmp_path / "bad.sfds"
        path.write_bytes(b"SFDS" + struct.pack("<II", 1, len(blob)) + blob + struct.pack("<I", 0))
        with pytest.raises(DataFormatError, match="num_classes"):
            load_dataset(path)


class TestWriteContainer:
    @pytest.mark.parametrize("header", [{"a": np.int64(1)}, {"b": object()},
                                        {(1, 2): 3}])
    def test_header_json_cannot_encode_rejected_before_the_file_opens(self, tmp_path, header):
        path = tmp_path / "out.bin"
        with pytest.raises(DataFormatError, match="header cannot be written as JSON") as info:
            write_container(path, b"TEST", 1, header, b"")
        assert str(info.value).startswith(f"{path}: ")
        assert not path.exists()
