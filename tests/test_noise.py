import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    pair_transition_matrix,
    sample_transitions,
    transition_cells,
    uniform_transition_matrix,
)

from fabricprune.data import ImageDataset, make_synthetic
from fabricprune.noise import (
    AnnotatorConfig,
    classification_error,
    fitting_report,
    flip_labels,
    load_noisy_labels,
    relabel_with_annotator,
    save_noisy_labels,
    train_annotator,
)


def label_only_set(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    images = np.zeros((labels.size, 3, 2, 2), dtype=np.float32)
    return ImageDataset(images, labels.copy(), num_classes)


def big_uniform_set(n=10_000, num_classes=10, seed=0):
    rng = np.random.default_rng(seed)
    return label_only_set(rng.integers(0, num_classes, n), num_classes)


class TestUniformNoise:
    def test_zero_probability_is_identity(self):
        ls = big_uniform_set(200)
        noisy = flip_labels(ls, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.given_labels, noisy.labels)

    def test_probability_one_flips_everything(self):
        ls = big_uniform_set(500)
        noisy = flip_labels(ls, 1.0, seed=2)
        assert np.all(noisy.given_labels != noisy.labels)

    def test_flip_rate_within_three_sigma(self):
        ls = big_uniform_set(10_000)
        noisy = flip_labels(ls, 0.2, seed=3)
        sigma = np.sqrt(0.2 * 0.8 / 10_000)
        assert abs(noisy.noise_rate - 0.2) <= 3 * sigma  # 0.2 +/- 0.012

    def test_flipped_labels_uniform_over_others(self):
        ls = label_only_set(np.zeros(30_000, dtype=np.int64), 4)
        noisy = flip_labels(ls, 1.0, seed=4)
        counts = np.bincount(noisy.given_labels, minlength=4)
        assert counts[0] == 0
        assert counts[1:].min() > 9_000  # each of 3 classes near 10k

    def test_clean_labels_preserved(self):
        ls = big_uniform_set(100)
        before = ls.labels.copy()
        noisy = flip_labels(ls, 0.5, seed=5)
        np.testing.assert_array_equal(noisy.labels, before)
        np.testing.assert_array_equal(ls.given_labels, before)  # input untouched

    def test_deterministic_per_seed(self):
        ls = big_uniform_set(1000)
        a = flip_labels(ls, 0.3, seed=6)
        b = flip_labels(ls, 0.3, seed=6)
        np.testing.assert_array_equal(a.given_labels, b.given_labels)

    def test_single_class_with_noise_rejected(self):
        ls = label_only_set([0, 0, 0], 1)
        with pytest.raises(ValueError):
            flip_labels(ls, 0.5, seed=0)
        flip_labels(ls, 0.0, seed=0)  # p=0 is fine

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            flip_labels(big_uniform_set(10), 1.5, seed=0)


class TestClassNoise:
    def test_identity_matrix_changes_nothing(self):
        # at p = 0 the pair-flip matrix is the identity
        np.testing.assert_array_equal(pair_transition_matrix(10, 0.0), np.eye(10))
        ls = big_uniform_set(300)
        noisy = flip_labels(ls, 0.0, seed=1, pair=True)
        np.testing.assert_array_equal(noisy.given_labels, noisy.labels)

    def test_deterministic_pair_flip_row(self):
        # at p = 1 class 2 is always relabelled 3, and class 3 wraps to 0
        ls = label_only_set([2] * 50 + [3] * 50, 4)
        noisy = flip_labels(ls, 1.0, seed=2, pair=True)
        np.testing.assert_array_equal(noisy.given_labels[:50], 3)
        np.testing.assert_array_equal(noisy.given_labels[50:], 0)

    def test_symmetric_flipping_rates_within_three_sigma(self):
        # every class flips at the one rate
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 5, 20_000)
        ls = label_only_set(labels, 5)
        noisy = flip_labels(ls, 0.1, seed=4, pair=True)
        for cls in range(5):
            members = ls.labels == cls
            n = members.sum()
            rate = (noisy.given_labels[members] != cls).mean()
            sigma = np.sqrt(0.1 * 0.9 / n)
            assert abs(rate - 0.1) <= 3 * sigma

    def test_pair_flip_matrix_is_stochastic(self):
        # each class leaks only into its successor (mod 6), where the matrix puts its mass
        matrix = pair_transition_matrix(6, 0.25)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)
        noisy = flip_labels(big_uniform_set(6000, num_classes=6, seed=5), 0.25, seed=6,
                            pair=True)
        assert (matrix[noisy.labels, noisy.given_labels] > 0).all()
        flipped = noisy.given_labels != noisy.labels
        np.testing.assert_array_equal(noisy.given_labels[flipped],
                                      (noisy.labels[flipped] + 1) % 6)
        assert (noisy.given_labels[flipped] == 0).any()  # wraps around


@settings(derandomize=True, deadline=None, max_examples=200)
@given(num_classes=st.integers(2, 12), p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
def test_uniform_and_pair_flip_the_same_items(num_classes, p, seed, n):
    ls = big_uniform_set(n, num_classes, seed)
    uniform = flip_labels(ls, p, seed)
    pair = flip_labels(ls, p, seed, pair=True)
    flipped = uniform.given_labels != ls.labels
    np.testing.assert_array_equal(pair.given_labels != ls.labels, flipped)
    np.testing.assert_array_equal(pair.given_labels[flipped],
                                  (ls.labels[flipped] + 1) % num_classes)
    if num_classes == 2:
        np.testing.assert_array_equal(pair.given_labels, uniform.given_labels)
    if p == 0.0:
        assert not flipped.any()
    if p == 1.0:
        assert flipped.all()


def assert_cells_within_three_sigma(noisy, matrix):
    """Each (clean, given) count within 3 sigma of n_k * M[k, j], where n_k
    counts clean class k; a cell M holds at 0 stays empty."""
    cells = transition_cells(noisy.labels, noisy.given_labels, noisy.num_classes)
    n_k = cells.sum(axis=1, keepdims=True)
    sigma = np.sqrt(n_k * matrix * (1.0 - matrix))
    assert (np.abs(cells - n_k * matrix) <= 3 * sigma).all(), cells


class TestTypeEquivalence:
    # the library's flips and a label-by-label matrix sampler both land in
    # the cells the oracle's transition matrix predicts
    @staticmethod
    def check(matrix, pair):
        ls = big_uniform_set(20_000, num_classes=5, seed=7)
        assert_cells_within_three_sigma(flip_labels(ls, 0.15, seed=10, pair=pair), matrix)
        sampled = sample_transitions(ls.labels, matrix, seed=9)
        assert_cells_within_three_sigma(ImageDataset(ls.images, ls.labels, 5, sampled), matrix)

    def test_uniform_equals_matrix_form_within_three_sigma(self):
        self.check(uniform_transition_matrix(5, 0.15), pair=False)

    def test_pair_equals_matrix_form_within_three_sigma(self):
        self.check(pair_transition_matrix(5, 0.15), pair=True)


@pytest.mark.parametrize("pair", [False, True], ids=["uniform", "class"])
def test_the_same_items_flip_in_any_row_order(pair):
    # draws are made in item order, so reordering the rows moves no flip
    ls = big_uniform_set(400, num_classes=5, seed=9)
    order = np.random.default_rng(10).permutation(len(ls))
    shuffled = ls.subset(np.arange(len(ls)))
    shuffled.reorder(order)
    np.testing.assert_array_equal(flip_labels(shuffled, 0.4, 8, pair=pair).given_labels,
                                  flip_labels(ls, 0.4, 8, pair=pair).given_labels[order])


class TestFittingReport:
    def test_all_correct_zero_noise(self):
        ls = label_only_set([0, 1, 2], 3)
        report = fitting_report(np.array([0, 1, 2]), ls)
        assert report.clean_fitting == 1.0
        assert report.noisy_fitting is None
        assert report.clean_count == 3 and report.noisy_count == 0

    def test_four_item_hand_case(self):
        # 3 clean items, 2 predicted correctly; 1 noisy item predicted with
        # its noisy label -> clean 2/3, noisy 1/1
        ls = label_only_set([0, 1, 2, 0], 3)
        ls.given_labels[3] = 2
        predictions = np.array([0, 1, 0, 2])
        report = fitting_report(predictions, ls)
        assert report.clean_fitting == pytest.approx(2 / 3)
        assert report.noisy_fitting == 1.0
        assert report.clean_count == 3 and report.noisy_count == 1

    def test_ten_item_exact_case(self):
        clean = np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
        given = np.array([0, 0, 1, 1, 2, 2, 1, 2, 0, 2])  # last 4 mislabelled
        preds = np.array([0, 1, 1, 1, 2, 0, 1, 1, 0, 0])
        ls = label_only_set(clean, 3)
        ls.given_labels[:] = given
        report = fitting_report(preds, ls)
        # clean items: idx 0..5; predictions right at 0, 2, 3, 4 -> 4/6
        assert report.clean_fitting == pytest.approx(4 / 6)
        # noisy items: idx 6..9; prediction equals given at 6 and 8 -> 2/4
        assert report.noisy_fitting == pytest.approx(2 / 4)

    def test_random_predictions_noisy_fitting_near_chance(self):
        rng = np.random.default_rng(10)
        ls = big_uniform_set(20_000, num_classes=10, seed=11)
        noisy = flip_labels(ls, 0.5, seed=12)
        preds = rng.integers(0, 10, len(noisy))
        report = fitting_report(preds, noisy)
        sigma = np.sqrt(0.1 * 0.9 / report.noisy_count)
        assert abs(report.noisy_fitting - 0.1) <= 3 * sigma

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        ls = big_uniform_set(500, num_classes=4, seed=14)
        noisy = flip_labels(ls, 0.3, seed=15)
        preds = rng.integers(0, 4, 500)
        base = fitting_report(preds, noisy)
        perm = rng.permutation(500)
        shuffled = ImageDataset(noisy.images[perm], noisy.labels[perm], 4,
                                noisy.given_labels[perm])
        again = fitting_report(preds[perm], shuffled)
        assert again.clean_fitting == base.clean_fitting
        assert again.noisy_fitting == base.noisy_fitting

    def test_misaligned_predictions_rejected(self):
        with pytest.raises(ValueError):
            fitting_report(np.array([0, 1]), label_only_set([0, 1, 2], 3))


class TestSidecar:
    def test_round_trip(self, tmp_path):
        ls = big_uniform_set(50, num_classes=5, seed=16)
        noisy = flip_labels(ls, 0.4, seed=17)
        path = tmp_path / "labels.txt"
        save_noisy_labels(noisy, path)
        restored = load_noisy_labels(ls, path)
        np.testing.assert_array_equal(restored.given_labels, noisy.given_labels)
        np.testing.assert_array_equal(restored.labels, noisy.labels)

    def test_round_trip_through_reordered_rows(self, tmp_path):
        # the sidecar stays in item order and names items, not rows
        ls = big_uniform_set(50, num_classes=5, seed=16)
        noisy = flip_labels(ls, 0.4, seed=17)
        save_noisy_labels(noisy, tmp_path / "items.txt")
        order = np.random.default_rng(18).permutation(len(ls))
        noisy.reorder(order)
        save_noisy_labels(noisy, tmp_path / "rows.txt")
        assert (tmp_path / "rows.txt").read_text() == (tmp_path / "items.txt").read_text()
        shuffled = ls.subset(np.arange(len(ls)))
        shuffled.reorder(order)
        restored = load_noisy_labels(shuffled, tmp_path / "items.txt")
        np.testing.assert_array_equal(restored.given_labels, noisy.given_labels)

    def test_clean_label_mismatch_names_the_item_not_the_row(self, tmp_path):
        ls = label_only_set([0, 1, 2], 3)
        ls.reorder([2, 0, 1])  # row 0 holds item 2
        path = tmp_path / "labels.txt"
        path.write_text("0 0 1\n1 2 1\n2 2 2\n")
        with pytest.raises(ValueError,
                           match=r"line 2: clean label 2 at index 1 does not match the set \(1\)"):
            load_noisy_labels(ls, path)

    def test_clean_label_mismatch_detected(self, tmp_path):
        ls = label_only_set([0, 1, 2], 3)
        noisy = flip_labels(ls, 0.5, seed=18)
        path = tmp_path / "labels.txt"
        save_noisy_labels(noisy, path)
        other = label_only_set([2, 1, 0], 3)
        with pytest.raises(ValueError):
            load_noisy_labels(other, path)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_the_set_rejected(self, tmp_path, index):
        ls = label_only_set([0, 1, 2], 3)
        path = tmp_path / "labels.txt"
        path.write_text(f"0 0 1\n{index} 2 0\n")
        with pytest.raises(ValueError, match=f"line 2: index {index} is outside"):
            load_noisy_labels(ls, path)

    def test_repeated_index_rejected(self, tmp_path):
        ls = label_only_set([0, 1, 2], 3)
        path = tmp_path / "labels.txt"
        path.write_text("0 0 1\n1 1 1\n1 1 0\n2 2 2\n")
        with pytest.raises(ValueError, match="line 3: index 1 is repeated"):
            load_noisy_labels(ls, path)

    @pytest.mark.parametrize("line,problem", [
        ("1 1", "'1 1' is not three ints"),
        ("1 1 0 2", "'1 1 0 2' is not three ints"),
        ("1 one 0", "'1 one 0' is not three ints"),
        ("1 1 0.5", "'1 1 0.5' is not three ints"),
        ("", "'' is not three ints"),
        ("1 1 3", r"given label 3 is outside \[0, 3\)"),
        ("1 1 -1", r"given label -1 is outside \[0, 3\)"),
        ("1 2 0", r"clean label 2 at index 1 does not match the set \(1\)"),
    ], ids=["two-values", "four-values", "word", "float", "empty", "label-above",
            "label-below", "clean-mismatch"])
    def test_bad_line_is_named(self, tmp_path, line, problem):
        ls = label_only_set([0, 1, 2], 3)
        path = tmp_path / "labels.txt"
        path.write_text(f"0 0 1\n{line}\n2 2 2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: {problem}"):
            load_noisy_labels(ls, path)

    def test_missing_index_rejected(self, tmp_path):
        ls = label_only_set([0, 1, 2, 0], 3)
        path = tmp_path / "labels.txt"
        path.write_text("0 0 1\n2 2 2\n")
        with pytest.raises(ValueError, match="no line for index 1$"):
            load_noisy_labels(ls, path)


def small_annotator_sets():
    ls = make_synthetic(3, 40, 8, seed=20, difficulty="medium")
    split = np.arange(len(ls)) % 4 == 0
    return ls.subset(~split), ls.subset(split)


class TestAnnotator:
    def test_epsilon_near_untrained_error_stops_immediately(self):
        train, holdout = small_annotator_sets()
        # untrained 3-class error sits around 2/3; a wide band around 0.55
        # is satisfied before any training happens
        config = AnnotatorConfig(layers=2, channels=2, max_epochs=3, seed=21,
                                 tolerance=0.15)
        fabric, info = train_annotator(train, holdout, 0.55, config)
        assert info.chosen_epoch == 0
        assert info.hit_band
        assert len(info.error_curve) == 1

    def test_returns_closest_checkpoint_when_band_missed(self):
        train, holdout = small_annotator_sets()
        config = AnnotatorConfig(layers=2, channels=2, max_epochs=4, seed=22,
                                 tolerance=1e-9)  # band practically unreachable
        fabric, info = train_annotator(train, holdout, 0.35, config)
        assert not info.hit_band
        gaps = [abs(e - 0.35) for e in info.error_curve]
        assert info.chosen_epoch == int(np.argmin(gaps))
        # the restored fabric really is that checkpoint
        err = classification_error(fabric, holdout.images, holdout.given_labels)
        assert err == pytest.approx(info.error_curve[info.chosen_epoch])

    def test_epsilon_range_enforced(self):
        train, holdout = small_annotator_sets()
        config = AnnotatorConfig(max_epochs=0)
        with pytest.raises(ValueError):
            train_annotator(train, holdout, 0.0, config)
        with pytest.raises(ValueError):
            train_annotator(train, holdout, 0.7, config)  # >= 1 - 1/3

    def test_batch_size_below_two_rejected(self):
        # train_batches drops a batch of one item, so batch_size 1 trains nothing
        train, holdout = small_annotator_sets()
        config = AnnotatorConfig(layers=2, channels=2, batch_size=1, max_epochs=2)
        with pytest.raises(ValueError, match="batch_size"):
            train_annotator(train, holdout, 0.3, config)


class TestRelabel:
    def test_relabel_deterministic_and_fraction_matches_error(self):
        train, holdout = small_annotator_sets()
        config = AnnotatorConfig(layers=2, channels=2, max_epochs=2, seed=23)
        annotator, _ = train_annotator(train, holdout, 0.3, config)
        once = relabel_with_annotator(train, annotator)
        twice = relabel_with_annotator(train, annotator)
        np.testing.assert_array_equal(once.given_labels, twice.given_labels)
        error_on_set = classification_error(annotator, train.images, train.labels)
        assert once.noise_rate == pytest.approx(error_on_set)
        np.testing.assert_array_equal(once.labels, train.labels)
