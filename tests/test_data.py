import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import stratified_split_reference

from fabricprune import data
from fabricprune.data import (
    AugmentConfig,
    FormatError,
    ImageDataset,
    RecordLayout,
    augment,
    horizontal_flip,
    load_binary_records,
    make_synthetic,
    normalize,
    resize_bilinear,
    save_split_manifest,
    stratified_split_indices,
)


def balanced_dataset(classes=10, per_class=100, resolution=4, seed=0):
    rng = np.random.default_rng(seed)
    n = classes * per_class
    images = rng.random((n, 3, resolution, resolution)).astype(np.float32)
    labels = np.repeat(np.arange(classes), per_class)
    return ImageDataset(images, labels, classes)


class TestImageDataset:
    def test_given_labels_default_to_a_copy_of_the_labels(self):
        ds = balanced_dataset(3, 2)
        np.testing.assert_array_equal(ds.given_labels, ds.labels)
        ds.given_labels[0] = 2
        assert ds.labels[0] == 0 and ds.noise_rate == pytest.approx(1 / 6)

    def test_subset_keeps_both_labels_and_the_class_count(self):
        ds = balanced_dataset(3, 2)
        ds.given_labels[:] = (ds.labels + 1) % 3
        part = ds.subset(np.array([1, 4]))
        np.testing.assert_array_equal(part.labels, [0, 2])
        np.testing.assert_array_equal(part.given_labels, [1, 0])
        assert part.num_classes == 3 and len(part) == 2

    def test_index_defaults_to_the_row_numbers_and_subsets_keep_it(self):
        ds = balanced_dataset(3, 2)
        np.testing.assert_array_equal(ds.index, np.arange(6))
        part = ds.subset(np.array([4, 1]))
        np.testing.assert_array_equal(part.index, [4, 1])
        np.testing.assert_array_equal(part.item_order, [1, 0])
        view = ds.subset(slice(2, 5))
        assert np.shares_memory(view.images, ds.images)
        np.testing.assert_array_equal(view.index, [2, 3, 4])

    def test_reorder_moves_every_row_in_place(self):
        ds = balanced_dataset(3, 4)
        ds.given_labels[:] = (ds.labels + 1) % 3
        before = ds.subset(np.arange(len(ds)))  # a copy
        images = ds.images
        # a 3-cycle, two fixed points, a 2-cycle and a 5-cycle
        order = np.array([3, 1, 0, 2, 5, 4, 6, 11, 7, 8, 9, 10])
        ds.reorder(order)
        assert ds.images is images
        for field in ("images", "labels", "given_labels", "index"):
            np.testing.assert_array_equal(getattr(ds, field), getattr(before, field)[order])

    def test_reorder_holds_no_python_int_per_row(self):
        ds = balanced_dataset(10, 6_000, resolution=2)
        order = np.random.default_rng(0).permutation(len(ds))
        ds.reorder(order)  # numpy's one-off set-up
        tracemalloc.start()
        try:
            ds.reorder(order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1.9 MiB for 60,000 rows; a list of Python ints and a list of flags traced 4.1 MiB
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("order", [[0, 1, 1], [0, 1], [0, 1, 3]])
    def test_reorder_by_a_non_permutation_rejected(self, order):
        ds = balanced_dataset(3, 1)
        with pytest.raises(ValueError, match="not a permutation of the 3 rows"):
            ds.reorder(order)
        np.testing.assert_array_equal(ds.index, np.arange(3))

    def test_index_misaligned_with_items_rejected(self):
        images = np.zeros((3, 3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="index misaligned"):
            ImageDataset(images, np.array([0, 1, 2]), 3, index=np.arange(2))

    def test_empty_set_rejected(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="at least one item"):
            ImageDataset(np.zeros((0, 3, 2, 2), dtype=np.float32), empty, 3)

    def test_given_labels_misaligned_with_items_rejected(self):
        images = np.zeros((3, 3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="misaligned"):
            ImageDataset(images, np.array([0, 1, 2]), 3, np.array([0, 1]))

    @pytest.mark.parametrize("field", ["labels", "given_labels"])
    def test_label_at_or_above_the_class_count_rejected(self, field):
        images = np.zeros((3, 3, 2, 2), dtype=np.float32)
        labels = {"labels": np.array([0, 1, 2]), "given_labels": np.array([0, 1, 2])}
        labels[field] = np.array([0, 3, 1])
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            ImageDataset(images, num_classes=3, **labels)


@st.composite
def split_inputs(draw, smallest):
    """(labels, fractions, seed): classes of at least smallest items each in a
    shuffled order, and 2-4 fractions summing to at most 1."""
    sizes = draw(st.lists(st.integers(smallest, 40), min_size=1, max_size=6))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    np.random.default_rng(draw(st.integers(0, 2**16))).shuffle(labels)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4))
    total = draw(st.sampled_from([1.0, 0.9, 0.55]))
    fractions = tuple(total * w / sum(weights) for w in weights)
    return labels, fractions, draw(st.integers(0, 2**16))


class TestStratifiedSplit:
    def test_exact_division(self):
        ds = balanced_dataset(10, 100)
        train, val = stratified_split_indices(ds.labels, (0.9, 0.1), seed=1)
        assert len(train) == 900 and len(val) == 100
        for cls in range(10):
            assert (ds.labels[train] == cls).sum() == 90
            assert (ds.labels[val] == cls).sum() == 10

    def test_voc_style_three_way(self):
        ds = balanced_dataset(20, 50)
        train, test, val = stratified_split_indices(ds.labels, (0.7, 0.2, 0.1), seed=2)
        for cls in range(20):
            assert (ds.labels[train] == cls).sum() == 35
            assert (ds.labels[test] == cls).sum() == 10
            assert (ds.labels[val] == cls).sum() == 5

    def test_splits_are_disjoint_and_cover(self):
        ds = balanced_dataset(5, 37)
        parts = stratified_split_indices(ds.labels, (0.6, 0.25, 0.15), seed=3)
        combined = np.concatenate(parts)
        assert len(np.unique(combined)) == len(combined)
        assert len(combined) == len(ds)

    def test_same_seed_identical_different_seed_not(self):
        ds = balanced_dataset(4, 25)
        a = stratified_split_indices(ds.labels, (0.8, 0.2), seed=7)
        b = stratified_split_indices(ds.labels, (0.8, 0.2), seed=7)
        c = stratified_split_indices(ds.labels, (0.8, 0.2), seed=8)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))
        # different permutation, identical per-class counts
        for x, y in zip(a, c):
            assert x.size == y.size

    def test_class_smaller_than_split_count_is_placed_by_largest_remainder(self):
        # class 1's one item goes to the largest share, 0.5 of an item: train;
        # class 0's three items get 1.5, 0.9 and 0.6, rounded to one each
        labels = np.array([0, 0, 0, 1])
        parts = stratified_split_indices(labels, (0.5, 0.3, 0.2), seed=0)
        assert [np.bincount(labels[part], minlength=2).tolist() for part in parts] == [
            [1, 1], [1, 0], [1, 0]]
        assert 3 in parts[0]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_splits_are_disjoint_sorted_and_round_each_class_share(self, data):
        labels, fractions, seed = data.draw(split_inputs(smallest=0))
        parts = stratified_split_indices(labels, fractions, seed)
        assert len(parts) == len(fractions)
        combined = np.concatenate(parts)
        assert np.unique(combined).size == combined.size
        assert combined.size == 0 or 0 <= combined.min() and combined.max() < labels.size
        for part, fraction in zip(parts, fractions):
            assert part.dtype == np.int64 and np.all(np.diff(part) > 0)
            for cls in np.unique(labels):
                size = int((labels == cls).sum())
                assert abs(int((labels[part] == cls).sum()) - fraction * size) < 1

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_matches_the_list_reference_where_it_accepts(self, data):
        # the reference rejects a class with fewer items than splits
        labels, fractions, seed = data.draw(split_inputs(smallest=4))
        for part, expected in zip(stratified_split_indices(labels, fractions, seed),
                                  stratified_split_reference(labels, fractions, seed)):
            assert part.dtype == expected.dtype
            np.testing.assert_array_equal(part, expected)

    def test_holds_no_python_int_per_item(self):
        labels = np.repeat(np.arange(10), 1200)
        np.random.default_rng(0).shuffle(labels)
        stratified_split_indices(labels, (0.6, 0.2, 0.2), seed=0)  # numpy's one-off set-up
        tracemalloc.start()
        try:
            stratified_split_indices(labels, (0.6, 0.2, 0.2), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 0.22 MB; splits built from lists of Python ints traced 0.61 MB
        assert peak < 0.5e6

    def test_fraction_validation(self):
        labels = np.repeat(np.arange(2), 10)
        with pytest.raises(ValueError):
            stratified_split_indices(labels, (0.8, 0.4), seed=0)
        with pytest.raises(ValueError):
            stratified_split_indices(labels, (0.8, -0.1), seed=0)

    def test_manifest_round_trip(self, tmp_path):
        ds = balanced_dataset(3, 20)
        parts = stratified_split_indices(ds.labels, (0.7, 0.3), seed=4)
        path = tmp_path / "splits.txt"
        save_split_manifest(parts, path)
        rows = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
        assert rows == [(split_id, int(index))
                        for split_id, part in enumerate(parts) for index in part]


class TestAugment:
    def test_flip_is_involution(self):
        rng = np.random.default_rng(0)
        img = rng.random((3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(horizontal_flip(horizontal_flip(img)), img)

    def test_crop_output_size(self):
        cfg = AugmentConfig(resize=16, crop_size=16, crop_padding=4, flip_prob=0.0)
        out = augment(np.random.default_rng(1).random((3, 16, 16)).astype(np.float32), cfg, 0)
        assert out.shape == (3, 16, 16)

    def test_normalize_inverse(self):
        rng = np.random.default_rng(2)
        img = rng.random((3, 8, 8)).astype(np.float64)
        mean, std = (0.4, 0.5, 0.45), (0.2, 0.25, 0.3)
        back = normalize(img, mean, std) * np.asarray(std)[:, None, None] \
            + np.asarray(mean)[:, None, None]
        np.testing.assert_allclose(back, img, atol=1e-6)

    def test_deterministic_given_seed(self):
        cfg = AugmentConfig(resize=16, crop_size=16, crop_padding=2)
        img = np.random.default_rng(3).random((3, 16, 16)).astype(np.float32)
        a = augment(img, cfg, seed=11)
        b = augment(img, cfg, seed=11)
        np.testing.assert_array_equal(a, b)
        c = augment(img, cfg, seed=12)
        assert not np.array_equal(a, c)

    def test_resize_identity_when_same_size(self):
        img = np.random.default_rng(4).random((3, 8, 8))
        np.testing.assert_array_equal(resize_bilinear(img, 8), img)

    def test_resize_constant_preserved(self):
        img = np.full((3, 8, 8), 0.3)
        np.testing.assert_allclose(resize_bilinear(img, 16), 0.3, rtol=1e-12)
        np.testing.assert_allclose(resize_bilinear(img, 4), 0.3, rtol=1e-12)

    def test_invalid_crop_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(resize=16, crop_size=20)


class TestBinaryRecords:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        images = (rng.integers(0, 256, (2, 3, 4, 4)) / 255.0).astype(np.float32)
        ds = ImageDataset(images, np.array([1, 0]), 2)
        path = tmp_path / "records.bin"
        pixels = np.rint(images * 255.0).astype(np.uint8).reshape(2, -1)
        path.write_bytes(np.hstack([ds.labels.astype(np.uint8)[:, None], pixels]).tobytes())
        # the class count is the layout's, even above the largest label
        loaded = load_binary_records(path, RecordLayout(resolution=4, num_classes=5))
        np.testing.assert_allclose(loaded.images, ds.images, atol=1 / 255.0 / 2)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == 5

    def test_size_arithmetic(self, tmp_path):
        layout = RecordLayout(resolution=32, num_classes=10)
        assert layout.record_size == 3073
        path = tmp_path / "five.bin"
        path.write_bytes(bytes(3073 * 5))
        ds = load_binary_records(path, layout)
        assert len(ds) == 5

    def test_truncated_file_names_sizes(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(100))
        layout = RecordLayout(resolution=4, num_classes=2)
        with pytest.raises(FormatError, match="100 bytes"):
            load_binary_records(path, layout)

    def test_pixels_are_the_bytes_over_255_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(7)
        records = rng.integers(0, 256, (50, 1 + 3 * 8 * 8), dtype=np.uint8)
        records[:, 0] %= 10
        path = tmp_path / "records.bin"
        path.write_bytes(records.tobytes())
        loaded = load_binary_records(path, RecordLayout(resolution=8, num_classes=10))
        expected = records[:, 1:].reshape(-1, 3, 8, 8).astype(np.float32) / 255.0
        assert loaded.images.dtype == np.float32
        np.testing.assert_array_equal(loaded.images.view(np.uint32), expected.view(np.uint32))

    def test_decoding_holds_one_float_array(self, tmp_path):
        # beside the float array only a chunk of records, never the file's bytes
        layout = RecordLayout(resolution=32, num_classes=10)
        path = tmp_path / "records.bin"
        path.write_bytes(bytes(layout.record_size * 3300))  # about 10 MB
        float_bytes = 3300 * 3 * 32 * 32 * 4
        tracemalloc.start()
        try:
            load_binary_records(path, layout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.10 * float_bytes

    def test_chunks_decode_as_one_read(self, tmp_path, monkeypatch):
        # 50 records of 193 bytes, 5 to a 1,000-byte chunk; the first bad
        # label is named even when a later chunk holds another
        monkeypatch.setattr(data, "CHUNK_BYTES", 1000)
        rng = np.random.default_rng(9)
        records = rng.integers(0, 256, (50, 1 + 3 * 8 * 8), dtype=np.uint8)
        records[:, 0] %= 10
        path = tmp_path / "records.bin"
        path.write_bytes(records.tobytes())
        layout = RecordLayout(resolution=8, num_classes=10)
        loaded = load_binary_records(path, layout)
        expected = records[:, 1:].reshape(-1, 3, 8, 8).astype(np.float32) / 255.0
        np.testing.assert_array_equal(loaded.images.view(np.uint32), expected.view(np.uint32))
        np.testing.assert_array_equal(loaded.labels, records[:, 0])
        records[[17, 33], 0] = 12
        path.write_bytes(records.tobytes())
        with pytest.raises(FormatError, match=rf"label 12 at byte offset {17 * 193} is outside"):
            load_binary_records(path, layout)

    def test_label_out_of_range_names_offset(self, tmp_path):
        layout = RecordLayout(resolution=2, num_classes=3)
        record = bytes([1]) + bytes(12)
        bad = bytes([9]) + bytes(12)
        path = tmp_path / "labels.bin"
        path.write_bytes(record + bad)
        with pytest.raises(FormatError, match="offset 13"):
            load_binary_records(path, layout)


class TestSynthetic:
    def test_construction_counts(self):
        ds = make_synthetic(3, 50, 16, seed=0)
        assert len(ds) == 150
        assert ds.images.shape == (150, 3, 16, 16)
        for cls in range(3):
            assert (ds.labels == cls).sum() == 50

    def test_values_in_unit_range(self):
        ds = make_synthetic(4, 10, 8, seed=1)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_nearest_centroid_learnable_on_easy(self):
        ds = make_synthetic(3, 60, 16, seed=2, difficulty="easy")
        flat = ds.images.reshape(len(ds), -1)
        train = np.arange(len(ds)) % 2 == 0
        centroids = np.stack([flat[train & (ds.labels == c)].mean(axis=0)
                              for c in range(3)])
        d = ((flat[~train][:, None, :] - centroids[None]) ** 2).sum(axis=2)
        accuracy = (d.argmin(axis=1) == ds.labels[~train]).mean()
        assert accuracy > 0.9

    def test_same_seed_bit_identical(self):
        a = make_synthetic(3, 10, 8, seed=5)
        b = make_synthetic(3, 10, 8, seed=5)
        assert a.images.tobytes() == b.images.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic(3, 10, 12)
