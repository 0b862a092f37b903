"""Dataset handling: ingestion, synthetic generation, splits, augmentation.

Images are float32 arrays of shape (N, 3, R, R) with values in [0, 1]
before normalization. Splits are stratified so every subset keeps the
class proportions of the whole; all randomness is seeded.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass, replace

import numpy as np

from .tensor import bilinear_matrix


class FormatError(ValueError):
    """Malformed binary record file or noisy-label sidecar."""


@dataclass
class ImageDataset:
    """Images with their true labels and the labels a model gets to see.

    Each row carries its item number in index, so a set whose rows were
    reordered (load_split_dataset puts them in split order) still names its
    items as loaded; "item order" is ascending index. subset() with a slice
    shares the images (a view); with an index array it copies them.
    """

    images: np.ndarray  # (N, 3, R, R) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64, the true labels
    num_classes: int
    given_labels: np.ndarray | None = None  # (N,) int64; None: a copy of labels
    index: np.ndarray | None = None  # (N,) int64 item numbers; None: arange(N)

    def __post_init__(self):
        n = self.images.shape[0]
        if n == 0:
            raise ValueError("dataset must contain at least one item")
        if self.given_labels is None:
            self.given_labels = self.labels.copy()
        if self.index is None:
            self.index = np.arange(n)
        if self.labels.shape != (n,) or self.given_labels.shape != (n,):
            raise ValueError("labels misaligned with items")
        if self.index.shape != (n,):
            raise ValueError("index misaligned with items")
        for labels in (self.labels, self.given_labels):
            if labels.min() < 0 or labels.max() >= self.num_classes:
                raise ValueError(f"label outside [0, {self.num_classes})")

    def __len__(self):
        return self.images.shape[0]

    @property
    def noise_rate(self) -> float:
        return float((self.labels != self.given_labels).mean())

    @property
    def item_order(self) -> np.ndarray:
        """The rows in item order: row item_order[k] holds the k-th item."""
        return np.argsort(self.index, kind="stable")

    def subset(self, indices) -> "ImageDataset":
        return replace(self, images=self.images[indices], labels=self.labels[indices],
                       given_labels=self.given_labels[indices], index=self.index[indices])

    def reorder(self, order) -> None:
        """Rearrange the rows in place so that row r holds what row order[r]
        held, for a permutation order of the rows. The images move along the
        permutation's cycles through a one-row buffer: no second image array."""
        order = np.asarray(order)
        if not np.array_equal(np.sort(order), np.arange(len(self))):
            raise ValueError(f"order is not a permutation of the {len(self)} rows")
        # 8 bytes and 1 byte a row, not a Python int and a list slot
        sources = array.array("q", order.astype(np.int64).tobytes())
        moved = bytearray(len(sources))
        for start in range(len(sources)):
            if moved[start] or sources[start] == start:
                continue
            held = self.images[start].copy()
            row = start
            while sources[row] != start:
                self.images[row] = self.images[sources[row]]
                moved[row] = 1
                row = sources[row]
            self.images[row] = held
            moved[row] = 1
        for name in ("labels", "given_labels", "index"):
            setattr(self, name, getattr(self, name)[order])


def stratified_split_indices(labels: np.ndarray, fractions, seed: int) -> list[np.ndarray]:
    """Sorted int64 item indices of each fraction's split: each class's items,
    permuted, cut into blocks of its share of each fraction rounded by largest
    remainder (ties to the earlier split), so a class may miss a split. Splits
    are disjoint; with fractions summing below 1 the leftover items go unused."""
    fractions = list(fractions)
    if any(f <= 0 for f in fractions):
        raise ValueError("all fractions must be positive")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)}, above 1")

    rng = np.random.default_rng(seed)
    splits = [[np.empty(0, dtype=np.int64)] for _ in fractions]
    for cls in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == cls))
        targets = [f * members.size for f in fractions]
        counts = [math.floor(t) for t in targets]
        by_part = sorted(range(len(fractions)), key=lambda i: (counts[i] - targets[i], i))
        for i in by_part[: round(sum(targets)) - sum(counts)]:
            counts[i] += 1
        # the block past the last count holds the unused items
        for split, block in zip(splits, np.split(members, np.cumsum(counts))):
            split.append(block)
    return [np.sort(np.concatenate(blocks)) for blocks in splits]


def save_split_manifest(index_lists, path) -> None:
    """Plain-text sidecar: one `split_id item_index` pair per line."""
    with open(path, "w") as fh:
        for split_id, indices in enumerate(index_lists):
            for index in indices:
                fh.write(f"{split_id} {index}\n")


@dataclass
class AugmentConfig:
    normalize_mean: tuple[float, float, float] = (0.5, 0.5, 0.5)
    normalize_std: tuple[float, float, float] = (0.25, 0.25, 0.25)
    resize: int = 32
    crop_size: int = 32
    crop_padding: int = 4
    flip_prob: float = 0.5

    def __post_init__(self):
        # int sizes only: a bool or non-int size is left to the config
        # check, whose error names the field
        sizes = (self.crop_size, self.resize)
        if all(type(size) is int for size in sizes) and self.crop_size > self.resize:
            raise ValueError(f"crop {self.crop_size} larger than resize {self.resize}")


def resize_bilinear(image: np.ndarray, target: int) -> np.ndarray:
    """Bilinear resize of a (C, H, W) image (align-corners-false sampling)."""
    C, H, W = image.shape
    if H == target and W == target:
        return image.copy()

    mh = bilinear_matrix(H, target, image.dtype)
    mw = bilinear_matrix(W, target, image.dtype)
    return np.einsum("ph,chw,qw->cpq", mh, image, mw, optimize=True)


def horizontal_flip(image: np.ndarray) -> np.ndarray:
    return image[:, :, ::-1].copy()


def normalize(image: np.ndarray, mean, std, out: np.ndarray | None = None) -> np.ndarray:
    """Per-channel (x - mean) / std of a (C, H, W) image or an (N, C, H, W) batch,
    written into out when it is given (out=image normalizes in place)."""
    mean = np.asarray(mean, dtype=image.dtype)[:, None, None]
    std = np.asarray(std, dtype=image.dtype)[:, None, None]
    out = np.subtract(image, mean, out=out)
    return np.divide(out, std, out=out)


def augment(image: np.ndarray, config: AugmentConfig, seed) -> np.ndarray:
    """Seeded train-time geometric transform: resize, random padded crop,
    random horizontal flip. Pure per-image function; normalization is the
    run's, applied to training and evaluation inputs alike."""
    rng = np.random.default_rng(seed)
    out = resize_bilinear(image, config.resize)

    pad = config.crop_padding
    if pad > 0 or config.crop_size < config.resize:
        padded = np.pad(out, ((0, 0), (pad, pad), (pad, pad)))
        span = padded.shape[1] - config.crop_size
        top = int(rng.integers(0, span + 1))
        left = int(rng.integers(0, span + 1))
        out = padded[:, top : top + config.crop_size, left : left + config.crop_size]

    if rng.random() < config.flip_prob:
        out = horizontal_flip(out)
    return out


@dataclass
class RecordLayout:
    """Fixed-size records: 1 label byte, then channel-major bytes of 3 channels.
    Every label must lie in [0, num_classes)."""

    resolution: int
    num_classes: int

    @property
    def record_size(self) -> int:
        return 1 + 3 * self.resolution * self.resolution


def load_binary_records(path, layout: RecordLayout) -> ImageDataset:
    """Parse a file of fixed-size label+pixel records into a dataset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    size = layout.record_size
    if len(raw) == 0 or len(raw) % size != 0:
        expected = (len(raw) // size + 1) * size
        raise FormatError(
            f"{path}: file is {len(raw)} bytes, not a positive multiple of the "
            f"{size}-byte record (nearest would be {expected})")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, size)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels >= layout.num_classes)[0]
    if bad.size:
        offset = int(bad[0]) * size
        raise FormatError(
            f"{path}: label {labels[bad[0]]} at byte offset {offset} is outside "
            f"[0, {layout.num_classes})")
    r = layout.resolution
    images = records[:, 1:].reshape(-1, 3, r, r).astype(np.float32)
    images /= 255.0  # in place: one float array at a time
    return ImageDataset(images, labels, layout.num_classes)


# difficulty, a choice of data.difficulty -> (center jitter, pixel noise, color contrast)
DIFFICULTY = {
    "easy": (0.04, 0.05, 0.48),
    "medium": (0.10, 0.16, 0.30),
    "hard": (0.16, 0.26, 0.20),
}


def make_synthetic(classes: int, n_per_class: int, resolution: int, seed: int = 0,
                   difficulty: str = "easy",
                   confusable_fraction: float = 0.0) -> ImageDataset:
    """Colored Gaussian blobs at class-specific positions, seeded and separable.

    Each class owns a position on a ring and a color; difficulty widens the
    position jitter and pixel noise until classes start to overlap.

    confusable_fraction carves out a subpopulation of each class whose items
    borrow the next class's position and half its color while keeping their
    own label: genuinely ambiguous items that an imperfect annotator will
    mislabel consistently, giving injected label noise a learnable structure.
    """
    if resolution < 2 or resolution & (resolution - 1):
        raise ValueError(f"resolution must be a power of two, got {resolution}")
    if difficulty not in DIFFICULTY:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    if not 0.0 <= confusable_fraction < 1.0:
        raise ValueError(f"confusable_fraction must be in [0, 1), got {confusable_fraction}")
    jitter, noise, contrast = DIFFICULTY[difficulty]

    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = 0.5 + 0.28 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    phases = 2.0 * np.pi * np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    colors = 0.5 + contrast * np.cos(angles[:, None] + phases[None, :])

    grid = (np.arange(resolution) + 0.5) / resolution
    yy, xx = np.meshgrid(grid, grid, indexing="ij")

    images = np.empty((classes * n_per_class, 3, resolution, resolution), dtype=np.float32)
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    row = 0
    for cls in range(classes):
        n_confusable = int(round(confusable_fraction * n_per_class))
        for item in range(n_per_class):
            if item < n_confusable:
                lookalike = (cls + 1) % classes
                center = centers[lookalike]
                color = 0.5 * (colors[cls] + colors[lookalike])
            else:
                center = centers[cls]
                color = colors[cls]
            cy, cx = center + jitter * rng.standard_normal(2)
            radius = 0.16 * (1.0 + 0.15 * rng.standard_normal())
            blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * radius ** 2))
            img = 0.12 + blob[None] * color[:, None, None] \
                + noise * rng.standard_normal((3, resolution, resolution))
            images[row] = np.clip(img, 0.0, 1.0)
            labels[row] = cls
            row += 1
    return ImageDataset(images, labels, classes)
