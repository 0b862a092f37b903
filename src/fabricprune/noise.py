"""Structured label noise and the indicators that measure its effect.

Three corruption processes: uniformly random flips, class-dependent flips
through a row-stochastic transition matrix, and class-and-feature-dependent
relabeling by an artificial annotator (a small fabric classifier trained
until its held-out error lands near a target rate). Each corrupts only an
ImageDataset's given labels and keeps its true ones, which is what makes the
clean/noisy fitting fractions computable afterwards.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import FormatError, ImageDataset
from .fabric import Fabric, build_fabric, clone_parameters, train_batches
from .tensor import SGD, SgdConfig


def _on_rows(draws: np.ndarray, labeled: ImageDataset) -> np.ndarray:
    """Draws made one per item in item order, placed on the items' rows, so
    that the same items flip however the set's rows are ordered."""
    placed = np.empty_like(draws)
    placed[labeled.item_order] = draws
    return placed


def apply_uniform_noise(labeled: ImageDataset, p: float, seed: int) -> ImageDataset:
    """Flip each label with probability p, uniformly into another class."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    if labeled.num_classes < 2 and p > 0.0:
        raise ValueError("cannot flip labels with fewer than 2 classes")
    given = labeled.labels.copy()
    if p > 0.0:
        rng = np.random.default_rng(seed)
        n = len(labeled)
        flips = _on_rows(rng.random(n) < p, labeled)
        offsets = _on_rows(rng.integers(1, labeled.num_classes, size=n), labeled)
        given[flips] = (given[flips] + offsets[flips]) % labeled.num_classes
    return replace(labeled, given_labels=given)


def validate_transition_matrix(matrix: np.ndarray, num_classes: int) -> None:
    if matrix.shape != (num_classes, num_classes):
        raise ValueError(f"transition matrix must be {num_classes}x{num_classes}")
    if not np.isfinite(matrix).all():
        raise ValueError("transition probabilities must be finite")
    if (matrix < 0).any():
        raise ValueError("transition probabilities must be nonnegative")
    sums = matrix.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-9:
        raise ValueError(f"rows must sum to 1, got {sums}")


def uniform_transition_matrix(num_classes: int, p: float) -> np.ndarray:
    """The matrix equivalent of uniform noise: 1-p diagonal, p spread evenly."""
    matrix = np.full((num_classes, num_classes), p / (num_classes - 1))
    np.fill_diagonal(matrix, 1.0 - p)
    return matrix


def apply_class_noise(labeled: ImageDataset, transition: np.ndarray,
                      seed: int) -> ImageDataset:
    """Sample each given label from the transition row of its clean label."""
    transition = np.asarray(transition, dtype=np.float64)
    validate_transition_matrix(transition, labeled.num_classes)
    rng = np.random.default_rng(seed)
    cumulative = np.cumsum(transition[labeled.labels], axis=1)
    draws = _on_rows(rng.random(len(labeled)), labeled)
    given = (draws[:, None] >= cumulative).sum(axis=1)
    given = np.minimum(given, labeled.num_classes - 1).astype(labeled.labels.dtype)
    return replace(labeled, given_labels=given)


def classification_error(fabric: Fabric, images: np.ndarray, labels: np.ndarray) -> float:
    return float((fabric.predict(images) != labels).mean())


@dataclass
class AnnotatorConfig:
    """Architecture and recipe for the artificial annotator fabric.

    A deliberately small, slowly trained model: the held-out error has to
    drift through the target band rather than leap past it, and weight decay
    keeps the train split from being memorized (which would drag the
    relabeled set's mislabel fraction below the target).
    """

    layers: int = 3
    channels: int = 4
    learning_rate: float = 0.01
    weight_decay: float = 5e-3
    batch_size: int = 64
    max_epochs: int = 100
    tolerance: float = 0.01  # half-width of the acceptance band around epsilon
    seed: int = 0


@dataclass
class AnnotatorInfo:
    chosen_epoch: int
    holdout_error: float
    hit_band: bool
    error_curve: list[float] = field(default_factory=list)


def train_annotator(train_set: ImageDataset, holdout: ImageDataset, epsilon: float,
                    config: AnnotatorConfig) -> tuple[Fabric, AnnotatorInfo]:
    """Train a small fabric until its held-out error lands near epsilon.

    Evaluates before training (epoch 0) and after every epoch; stops at the
    first error inside [epsilon - tol, epsilon + tol]. If the band is never
    hit, the checkpoint whose error came closest to epsilon is returned,
    flagged via hit_band=False.
    """
    num_classes = train_set.num_classes
    if not 0.0 < epsilon < 1.0 - 1.0 / num_classes:
        raise ValueError(
            f"epsilon must be in (0, {1.0 - 1.0 / num_classes:.3f}) for {num_classes} classes")
    if config.batch_size < 2:  # train_batches drops every batch of one item
        raise ValueError(f"batch_size must be >= 2, got {config.batch_size}")

    resolution = train_set.images.shape[2]
    scales = int(np.log2(resolution)) + 1
    fabric = build_fabric(config.layers, scales, config.channels, resolution,
                          num_classes, seed=config.seed)
    optimizer = SGD(fabric.parameters(),
                    SgdConfig(learning_rate=config.learning_rate,
                              weight_decay=config.weight_decay))
    rng = np.random.default_rng([config.seed, 1])

    curve: list[float] = []
    best_snapshot = None
    best_epoch = -1
    best_error = np.inf
    hit = False
    for epoch in range(config.max_epochs + 1):
        if epoch > 0:
            for batch in train_batches(rng.permutation(len(train_set)), config.batch_size):
                optimizer.zero_grad()
                fabric.loss_backward(train_set.images[batch], train_set.given_labels[batch])
                optimizer.step()
        error = classification_error(fabric, holdout.images, holdout.given_labels)
        curve.append(error)
        if abs(error - epsilon) < abs(best_error - epsilon):
            best_error = error
            best_epoch = epoch
            best_snapshot = clone_parameters(fabric)
        if abs(error - epsilon) <= config.tolerance:
            hit = True
            break

    fabric.load_state(best_snapshot)
    return fabric, AnnotatorInfo(chosen_epoch=best_epoch, holdout_error=best_error,
                                 hit_band=hit, error_curve=curve)


def relabel_with_annotator(labeled: ImageDataset, annotator: Fabric) -> ImageDataset:
    """Replace given labels with the annotator's predictions (pure inference)."""
    predictions = annotator.predict(labeled.images).astype(labeled.labels.dtype)
    return replace(labeled, given_labels=predictions)


@dataclass
class FittingReport:
    """How predictions relate to clean and noisy labels on one set.

    clean_fitting: among items whose given label is correct, the fraction
    predicted correctly. noisy_fitting: among mislabelled items, the fraction
    predicted with the wrong given label (how much noise a model absorbed).
    Fractions with an empty denominator are None, never 0.
    """

    clean_fitting: float | None
    noisy_fitting: float | None
    clean_count: int
    noisy_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def fitting_report(predictions: np.ndarray, labeled: ImageDataset) -> FittingReport:
    predictions = np.asarray(predictions)
    if predictions.shape != labeled.labels.shape:
        raise ValueError("predictions misaligned with the set")
    clean = labeled.labels == labeled.given_labels
    noisy = ~clean
    clean_count = int(clean.sum())
    noisy_count = int(noisy.sum())
    clean_fitting = None
    noisy_fitting = None
    if clean_count:
        clean_fitting = float((predictions[clean] == labeled.labels[clean]).mean())
    if noisy_count:
        noisy_fitting = float((predictions[noisy] == labeled.given_labels[noisy]).mean())
    return FittingReport(clean_fitting, noisy_fitting, clean_count, noisy_count)


def save_noisy_labels(labeled: ImageDataset, path) -> None:
    """Order-stable sidecar: one `index clean given` line per item, in item
    order whatever the order of the set's rows. index counts the items in that
    order, so on a loaded set it is the item's number."""
    with open(path, "w") as fh:
        for index, row in enumerate(labeled.item_order):
            fh.write(f"{index} {labeled.labels[row]} {labeled.given_labels[row]}\n")


def load_noisy_labels(labeled: ImageDataset, path) -> ImageDataset:
    """Re-apply a sidecar of one line per index, as save_noisy_labels counts
    items, to the same set in any row order. FormatError
    names the path and the first line that is not three ints, has an index
    outside the set or repeated, a clean label the set disagrees with or a
    given label outside [0, num_classes); failing that, the first index with
    no line."""
    given = labeled.given_labels.copy()
    rows = labeled.item_order
    seen = np.zeros(len(labeled), dtype=bool)
    with open(path, errors="replace") as fh:  # bytes that are not text fail as a line
        for number, line in enumerate(fh, 1):
            try:
                index, clean, noisy = (int(v) for v in line.split())
            except ValueError:
                raise FormatError(f"{path}: line {number}: {line.rstrip()!r} is not "
                                  f"three ints") from None
            if not 0 <= index < len(labeled):
                raise FormatError(f"{path}: line {number}: index {index} is outside "
                                  f"[0, {len(labeled)})")
            if seen[index]:
                raise FormatError(f"{path}: line {number}: index {index} is repeated")
            seen[index] = True
            row = rows[index]
            if labeled.labels[row] != clean:
                raise FormatError(
                    f"{path}: line {number}: clean label {clean} at index {index} does "
                    f"not match the set ({labeled.labels[row]})")
            if not 0 <= noisy < labeled.num_classes:
                raise FormatError(f"{path}: line {number}: given label {noisy} is outside "
                                  f"[0, {labeled.num_classes})")
            given[row] = noisy
    if not seen.all():
        raise FormatError(f"{path}: no line for index {int(np.argmin(seen))}")
    return replace(labeled, given_labels=given)
