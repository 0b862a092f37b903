import numpy as np
import pytest

from fabricprune.data import ImageDataset, make_synthetic
from fabricprune.noise import (
    AnnotatorConfig,
    apply_class_noise,
    apply_uniform_noise,
    classification_error,
    fitting_report,
    load_noisy_labels,
    relabel_with_annotator,
    save_noisy_labels,
    train_annotator,
    uniform_transition_matrix,
    validate_transition_matrix,
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
        noisy = apply_uniform_noise(ls, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.given_labels, noisy.labels)

    def test_probability_one_flips_everything(self):
        ls = big_uniform_set(500)
        noisy = apply_uniform_noise(ls, 1.0, seed=2)
        assert np.all(noisy.given_labels != noisy.labels)

    def test_flip_rate_within_three_sigma(self):
        ls = big_uniform_set(10_000)
        noisy = apply_uniform_noise(ls, 0.2, seed=3)
        sigma = np.sqrt(0.2 * 0.8 / 10_000)
        assert abs(noisy.noise_rate - 0.2) <= 3 * sigma  # 0.2 +/- 0.012

    def test_flipped_labels_uniform_over_others(self):
        ls = label_only_set(np.zeros(30_000, dtype=np.int64), 4)
        noisy = apply_uniform_noise(ls, 1.0, seed=4)
        counts = np.bincount(noisy.given_labels, minlength=4)
        assert counts[0] == 0
        assert counts[1:].min() > 9_000  # each of 3 classes near 10k

    def test_clean_labels_preserved(self):
        ls = big_uniform_set(100)
        before = ls.labels.copy()
        noisy = apply_uniform_noise(ls, 0.5, seed=5)
        np.testing.assert_array_equal(noisy.labels, before)
        np.testing.assert_array_equal(ls.given_labels, before)  # input untouched

    def test_deterministic_per_seed(self):
        ls = big_uniform_set(1000)
        a = apply_uniform_noise(ls, 0.3, seed=6)
        b = apply_uniform_noise(ls, 0.3, seed=6)
        np.testing.assert_array_equal(a.given_labels, b.given_labels)

    def test_single_class_with_noise_rejected(self):
        ls = label_only_set([0, 0, 0], 1)
        with pytest.raises(ValueError):
            apply_uniform_noise(ls, 0.5, seed=0)
        apply_uniform_noise(ls, 0.0, seed=0)  # p=0 is fine

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            apply_uniform_noise(big_uniform_set(10), 1.5, seed=0)


class TestClassNoise:
    def test_identity_matrix_changes_nothing(self):
        ls = big_uniform_set(300)
        noisy = apply_class_noise(ls, np.eye(10), seed=1)
        np.testing.assert_array_equal(noisy.given_labels, noisy.labels)

    def test_deterministic_pair_flip_row(self):
        ls = label_only_set([2] * 50 + [0] * 50, 4)
        matrix = np.eye(4)
        matrix[2, 2] = 0.0
        matrix[2, 3] = 1.0  # class 2 always relabelled 3
        noisy = apply_class_noise(ls, matrix, seed=2)
        np.testing.assert_array_equal(noisy.given_labels[:50], 3)
        np.testing.assert_array_equal(noisy.given_labels[50:], 0)

    def test_symmetric_flipping_rates_within_three_sigma(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 5, 20_000)
        ls = label_only_set(labels, 5)
        noisy = apply_class_noise(ls, uniform_transition_matrix(5, 0.1), seed=4)
        for cls in range(5):
            members = ls.labels == cls
            n = members.sum()
            rate = (noisy.given_labels[members] != cls).mean()
            sigma = np.sqrt(0.1 * 0.9 / n)
            assert abs(rate - 0.1) <= 3 * sigma

    def test_non_stochastic_rows_rejected(self):
        ls = big_uniform_set(10, num_classes=3)
        bad = np.full((3, 3), 0.5)
        with pytest.raises(ValueError):
            apply_class_noise(ls, bad, seed=0)

    def test_negative_entries_rejected(self):
        matrix = np.eye(3)
        matrix[0, 1] = -0.1
        matrix[0, 0] = 1.1
        with pytest.raises(ValueError):
            validate_transition_matrix(matrix, 3)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, rate):
        # a NaN row passes both the sign and the row-sum checks
        ls = big_uniform_set(10, num_classes=3)
        with pytest.raises(ValueError, match="finite"):
            apply_class_noise(ls, uniform_transition_matrix(3, rate), seed=0)

    def test_pair_flip_matrix_is_stochastic(self):
        # each class leaks only into its successor (mod 6)
        matrix = 0.75 * np.eye(6) + 0.25 * np.roll(np.eye(6), 1, axis=1)
        validate_transition_matrix(matrix, 6)
        noisy = apply_class_noise(big_uniform_set(6000, num_classes=6, seed=5), matrix, seed=6)
        flipped = noisy.given_labels != noisy.labels
        np.testing.assert_array_equal(noisy.given_labels[flipped],
                                      (noisy.labels[flipped] + 1) % 6)
        assert (noisy.given_labels[flipped] == 0).any()  # wraps around


class TestTypeEquivalence:
    def test_uniform_equals_matrix_form_within_three_sigma(self):
        ls = big_uniform_set(10_000, num_classes=10, seed=7)
        direct = apply_uniform_noise(ls, 0.15, seed=10)
        viamatrix = apply_class_noise(ls, uniform_transition_matrix(10, 0.15), seed=9)
        sigma = np.sqrt(0.15 * 0.85 / 10_000)
        assert abs(direct.noise_rate - viamatrix.noise_rate) <= 6 * sigma
        for noisy in (direct, viamatrix):
            assert abs(noisy.noise_rate - 0.15) <= 3 * sigma
        # flipped destinations spread evenly in both
        for noisy in (direct, viamatrix):
            flipped = noisy.given_labels[noisy.given_labels != noisy.labels]
            counts = np.bincount(flipped, minlength=10)
            assert counts.min() > 0.5 * counts.max()


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
        noisy = apply_uniform_noise(ls, 0.5, seed=12)
        preds = rng.integers(0, 10, len(noisy))
        report = fitting_report(preds, noisy)
        sigma = np.sqrt(0.1 * 0.9 / report.noisy_count)
        assert abs(report.noisy_fitting - 0.1) <= 3 * sigma

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        ls = big_uniform_set(500, num_classes=4, seed=14)
        noisy = apply_uniform_noise(ls, 0.3, seed=15)
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
        noisy = apply_uniform_noise(ls, 0.4, seed=17)
        path = tmp_path / "labels.txt"
        save_noisy_labels(noisy, path)
        restored = load_noisy_labels(ls, path)
        np.testing.assert_array_equal(restored.given_labels, noisy.given_labels)
        np.testing.assert_array_equal(restored.labels, noisy.labels)

    def test_clean_label_mismatch_detected(self, tmp_path):
        ls = label_only_set([0, 1, 2], 3)
        noisy = apply_uniform_noise(ls, 0.5, seed=18)
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
        with pytest.raises(ValueError, match=f"^sidecar line 2: {problem}"):
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
