"""Experiment orchestration: the training loop, schedules, and artifacts.

A run takes one ExperimentConfig and produces a directory containing the
config copy and its hash, split manifests, append-only JSON-lines metrics,
pruning event reports, a DOT diagram, a checkpoint, and (when noise is
configured) a fitting report. Reruns of the same config and seed reproduce
metrics.jsonl byte for byte; wall-clock timings go to a separate sidecar
so they cannot break that.

Epoch bookkeeping is 1-based. Learning-rate milestones and pruning-event
epochs are expressed on the canonical 200-epoch recipe (drop the rate
tenfold after epochs 80 and 120; prune at 5/75/every 10 from 5 to 75) and
are rescaled proportionally when a run uses a different epoch budget.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    AugmentConfig,
    ImageDataset,
    RecordLayout,
    augment,
    load_binary_records,
    make_synthetic,
    normalize,
    save_split_manifest,
    stratified_split_indices,
)
from .fabric import (
    Fabric,
    build_fabric,
    export_dot,
    param_breakdown,
    save_fabric,
    train_batches,
)
from .noise import (
    AnnotatorConfig,
    apply_class_noise,
    apply_uniform_noise,
    classification_error,
    fitting_report,
    relabel_with_annotator,
    save_noisy_labels,
    train_annotator,
    uniform_transition_matrix,
)
from .pruning import (
    Criterion,
    PrunePlan,
    Strategy,
    apply_event,
    build_plan,
    reported_param_count,
    rescale_epochs,
    rescale_plan,
    sensitivity_grads,
)
from .tensor import SGD, SgdConfig

RECIPE_EPOCHS = 200
RECIPE_LR_MILESTONES = (80, 120)
# the dataset's splits, in split-manifest order; prune.gradient_source names one
SPLITS = ("train", "validation", "test")
NOISE_KINDS = ("uniform", "class", "annotator")


class TrainingDiverged(RuntimeError):
    """Loss or a parameter became non-finite; the run is aborted with a diagnostic."""


class ConfigError(ValueError):
    """A config section that is not an object, a key no field matches, an
    image size the fabric cannot take, a batch size below 2, a prune or
    noise setting outside its choices, or a prune section with no epoch to
    prune in."""


def _checked_section(cls, raw, path: str) -> dict:
    """A copy of raw once every key names a field of the dataclass cls.

    path is the section's dotted place in the config ("" at the top level),
    so an error names e.g. noise.annotator.bogus.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {path or '(top level)'} must be an object, "
                          f"got {type(raw).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = [f"{path}.{key}" if path else str(key) for key in raw if key not in known]
    if unknown:
        raise ConfigError(f"unknown config field {', '.join(unknown)}")
    return dict(raw)


@dataclass
class DataConfig:
    kind: str = "synthetic"  # synthetic | binary
    classes: int = 3
    n_per_class: int = 150
    resolution: int = 16
    difficulty: str = "easy"
    confusable_fraction: float = 0.0
    path: str | None = None  # binary record file for kind="binary"
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    seed: int = 0


@dataclass
class PruneConfig:
    strategy: str = "iterative"  # a Strategy value: early | late | iterative
    sparsity: float = 0.05  # in (0, 1)
    criterion: str = "magnitude"  # a Criterion value: magnitude | sensitivity
    gradient_source: str = "validation"  # one of SPLITS
    count_cascade: bool = True


@dataclass
class NoiseConfig:
    kind: str = "uniform"  # one of NOISE_KINDS
    rate: float = 0.1  # flip probability for uniform / symmetric class noise
    epsilon: float = 0.1  # target annotator error for kind="annotator"
    seed: int = 0
    annotator: AnnotatorConfig = field(default_factory=AnnotatorConfig)
    # fraction of the training split the annotator itself trains on; below 1
    # most of the relabeled data is unseen by it, pulling the realized
    # mislabel fraction toward its held-out error
    annotator_train_fraction: float = 1.0


@dataclass
class ExperimentConfig:
    layers: int = 4
    channels: int = 8
    input_resolution: int = 16
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.0
    weight_decay: float = 0.0
    lr_milestones: list[int] | None = None  # None: recipe milestones, rescaled
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    prune: PruneConfig | None = None
    noise: NoiseConfig | None = None
    augment: AugmentConfig | None = None
    out_dir: str = "runs/experiment"

    @property
    def scales(self) -> int:
        return int(math.log2(self.input_resolution)) + 1

    def check(self) -> None:
        """Raise ConfigError naming a field whose image or batch size the fabric
        cannot take, a prune or noise field outside its choices, or epochs
        below 1 when a prune section is set."""
        r = self.input_resolution
        if not isinstance(r, int) or r < 2 or r & (r - 1):
            raise ConfigError(f"input_resolution must be a power of two >= 2, got {r!r}")
        if self.data.resolution != r:
            raise ConfigError(f"data.resolution {self.data.resolution} differs from "
                              f"input_resolution {r}")
        if self.augment is not None and self.augment.crop_size != r:
            raise ConfigError(f"augment.crop_size {self.augment.crop_size} differs from "
                              f"input_resolution {r}")
        sizes = {"batch_size": self.batch_size}
        if self.noise is not None:
            sizes["noise.annotator.batch_size"] = self.noise.annotator.batch_size
        for name, size in sizes.items():
            if not isinstance(size, int) or size < 2:
                raise ConfigError(f"{name} must be an int >= 2, got {size!r}")
        choices = {}
        if self.prune is not None:
            choices["prune.strategy"] = (self.prune.strategy, [s.value for s in Strategy])
            choices["prune.criterion"] = (self.prune.criterion, [c.value for c in Criterion])
            choices["prune.gradient_source"] = (self.prune.gradient_source, SPLITS)
        if self.noise is not None:
            choices["noise.kind"] = (self.noise.kind, NOISE_KINDS)
        for name, (value, allowed) in choices.items():
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
        if self.prune is not None:
            sparsity = self.prune.sparsity
            if not isinstance(sparsity, (int, float)) or not 0.0 < sparsity < 1.0:
                raise ConfigError(f"prune.sparsity must be in (0, 1), got {sparsity!r}")
            if not isinstance(self.epochs, int) or self.epochs < 1:
                raise ConfigError(f"epochs must be an int >= 1 with a prune section, "
                                  f"got {self.epochs!r}")

    def model_inputs(self, images: np.ndarray) -> np.ndarray:
        """Images as the fabric takes them, for training and evaluation alike:
        normalized by the augment section's mean and std when it is set."""
        if self.augment is None:
            return images
        return normalize(images, self.augment.normalize_mean, self.augment.normalize_std)

    def prune_plan(self, fabric: Fabric) -> PrunePlan:
        """The prune section's schedule for fabric, rescaled to this run's epochs."""
        plan = build_plan(Strategy(self.prune.strategy), self.prune.sparsity, fabric)
        return rescale_plan(plan, RECIPE_EPOCHS, self.epochs)

    def resolved_milestones(self) -> list[int]:
        if self.lr_milestones is not None:
            return list(self.lr_milestones)
        return rescale_epochs(RECIPE_LR_MILESTONES, RECIPE_EPOCHS, self.epochs)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config, raising ConfigError that names any unknown field."""
        raw = _checked_section(cls, raw, "")
        if raw.get("data") is not None:
            raw["data"] = DataConfig(**_checked_section(DataConfig, raw["data"], "data"))
        if raw.get("prune") is not None:
            raw["prune"] = PruneConfig(**_checked_section(PruneConfig, raw["prune"], "prune"))
        if raw.get("noise") is not None:
            noise_raw = _checked_section(NoiseConfig, raw["noise"], "noise")
            if noise_raw.get("annotator") is not None:
                noise_raw["annotator"] = AnnotatorConfig(**_checked_section(
                    AnnotatorConfig, noise_raw["annotator"], "noise.annotator"))
            raw["noise"] = NoiseConfig(**noise_raw)
        if raw.get("augment") is not None:
            aug = _checked_section(AugmentConfig, raw["augment"], "augment")
            for key in ("normalize_mean", "normalize_std"):
                if key in aug:
                    aug[key] = tuple(aug[key])
            raw["augment"] = AugmentConfig(**aug)
        return cls(**raw)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_error: float
    test_error: float
    learning_rate: float
    alive_links: int
    live_params: int
    wall_time: float  # kept out of metrics.jsonl so reruns stay byte-identical

    def to_json(self) -> str:
        record = asdict(self)
        del record["wall_time"]
        return json.dumps(record)


def lr_at(epoch: int, base_lr: float, milestones) -> float:
    """Learning rate for an epoch: divided by 10 after each passed milestone."""
    passed = sum(1 for m in milestones if epoch > m)
    return base_lr / (10.0 ** passed)


def load_split_dataset(data: DataConfig) -> tuple[ImageDataset, list[np.ndarray]]:
    """The config's dataset and its stratified train/validation/test indices.

    Raises ValueError naming a split that the fractions leave empty.
    """
    if data.kind == "synthetic":
        dataset = make_synthetic(data.classes, data.n_per_class, data.resolution,
                                 seed=data.seed, difficulty=data.difficulty,
                                 confusable_fraction=data.confusable_fraction)
    elif data.kind == "binary":
        if data.path is None:
            raise ValueError("binary dataset needs a path")
        layout = RecordLayout(resolution=data.resolution, num_classes=data.classes)
        dataset = load_binary_records(data.path, layout)
    else:
        raise ValueError(f"unknown dataset kind {data.kind!r}")
    fractions = (data.train_fraction, data.val_fraction, data.test_fraction)
    indices = stratified_split_indices(dataset.labels, fractions, data.seed)
    for name, split in zip(SPLITS, indices):
        if split.size == 0:
            raise ValueError(f"the {name} split is empty: {len(dataset)} items "
                             f"split by fractions {fractions}")
    return dataset, indices


def inject_noise(full: ImageDataset, train_idx, val_idx, config: NoiseConfig,
                 out_dir: Path | None):
    """Corrupt the given labels of the whole dataset, pre-split."""
    info: dict = {"kind": config.kind}
    if config.kind == "uniform":
        noisy = apply_uniform_noise(full, config.rate, config.seed)
        info["target_rate"] = config.rate
    elif config.kind == "class":
        matrix = uniform_transition_matrix(full.num_classes, config.rate)
        noisy = apply_class_noise(full, matrix, config.seed)
        info["target_rate"] = config.rate
    elif config.kind == "annotator":
        ann_train_idx = train_idx
        if config.annotator_train_fraction < 1.0:
            keep = max(2, int(round(config.annotator_train_fraction * len(train_idx))))
            picked = np.random.default_rng([config.seed, 7]).choice(
                len(train_idx), size=keep, replace=False)
            ann_train_idx = train_idx[np.sort(picked)]
        annotator, ann_info = train_annotator(full.subset(ann_train_idx),
                                              full.subset(val_idx),
                                              config.epsilon, config.annotator)
        noisy = relabel_with_annotator(full, annotator)
        info["target_rate"] = config.epsilon
        info["annotator_epoch"] = ann_info.chosen_epoch
        info["annotator_holdout_error"] = ann_info.holdout_error
        info["annotator_hit_band"] = ann_info.hit_band
    else:
        raise ValueError(f"unknown noise kind {config.kind!r}")
    info["realized_rate"] = noisy.noise_rate
    if out_dir is not None:
        save_noisy_labels(noisy, out_dir / "noisy_labels.txt")
    return noisy, info


def _train_inputs(images: np.ndarray, config: ExperimentConfig, seed_tuple) -> np.ndarray:
    """One training batch's inputs: augmented when the config says so, then
    as model_inputs gives them."""
    if config.augment is not None:
        images = np.stack([augment(images[i], config.augment, seed=list(seed_tuple) + [i])
                           for i in range(images.shape[0])])
    return config.model_inputs(images)


def run_experiment(config: ExperimentConfig) -> dict:
    """Train (and optionally prune) one fabric end to end; returns a summary.

    Raises ValueError naming the field, before anything is written, when the
    config fails ExperimentConfig.check (a ConfigError) or a split is empty.
    """
    config.check()
    dataset, (train_idx, val_idx, test_idx) = load_split_dataset(config.data)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json())
    (out / "config.hash").write_text(config.hash() + "\n")
    save_split_manifest([train_idx, val_idx, test_idx], out / "splits.txt")

    noise_info = None
    if config.noise is not None:
        dataset, noise_info = inject_noise(dataset, train_idx, val_idx, config.noise, out)
    train_set = dataset.subset(train_idx)
    val_set = dataset.subset(val_idx)
    test_set = dataset.subset(test_idx)
    val_inputs = config.model_inputs(val_set.images)
    test_inputs = config.model_inputs(test_set.images)

    fabric = build_fabric(config.layers, config.scales, config.channels,
                          config.input_resolution, dataset.num_classes,
                          seed=config.seed)
    full_counts = param_breakdown(config.layers, config.scales, config.channels,
                                  dataset.num_classes)
    reported = full_counts.total

    events_by_epoch = {}
    if config.prune is not None:
        plan = config.prune_plan(fabric)
        events_by_epoch = {event.epoch: event for event in plan.events}
        reported = reported_param_count(full_counts, plan.sparsity)

    optimizer = SGD(fabric.parameters(),
                    SgdConfig(config.learning_rate, config.momentum, config.weight_decay))
    milestones = config.resolved_milestones()
    criterion = Criterion(config.prune.criterion) if config.prune else None

    metrics_file = open(out / "metrics.jsonl", "w")
    timings_file = open(out / "timings.jsonl", "w")
    prune_file = open(out / "prune_events.jsonl", "w")
    try:
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            lr = lr_at(epoch, config.learning_rate, milestones)
            optimizer.config = replace(optimizer.config, learning_rate=lr)

            order = np.random.default_rng([config.seed, 101, epoch]).permutation(
                len(train_set))
            losses = []
            for batch_index, batch in enumerate(train_batches(order, config.batch_size)):
                images = _train_inputs(train_set.images[batch], config,
                                       (config.seed, 202, epoch, batch_index))
                optimizer.zero_grad()
                try:
                    losses.append(fabric.loss_backward(images, train_set.given_labels[batch]))
                    optimizer.step()
                except FloatingPointError as exc:
                    raise TrainingDiverged(f"{exc} at epoch {epoch}, batch {batch_index} "
                                           f"(lr={lr})") from exc

            record = EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(losses)) if losses else 0.0,
                val_error=classification_error(fabric, val_inputs, val_set.given_labels),
                test_error=classification_error(fabric, test_inputs, test_set.labels),
                learning_rate=lr,
                alive_links=len(fabric.alive_links()),
                live_params=fabric.live_param_count(),
                wall_time=time.perf_counter() - started,
            )
            metrics_file.write(record.to_json() + "\n")
            timings_file.write(json.dumps({"epoch": epoch,
                                           "wall_time": record.wall_time}) + "\n")

            event = events_by_epoch.get(epoch)
            if event is not None:
                weight_scores = None
                if criterion is Criterion.SENSITIVITY:
                    source = (train_set, val_set, test_set)[
                        SPLITS.index(config.prune.gradient_source)]
                    inputs = config.model_inputs(source.images)
                    batches = [(inputs[b], source.given_labels[b])
                               for b in train_batches(np.arange(len(source)), config.batch_size)]
                    weight_scores = sensitivity_grads(fabric, batches)
                report = apply_event(fabric, event, criterion, weight_scores,
                                     count_cascade=config.prune.count_cascade)
                prune_file.write(report.to_json() + "\n")
                if report.link_shortfall or report.weight_shortfall:
                    warnings.warn(
                        f"pruning quota shortfall at epoch {epoch}: "
                        f"links {report.link_shortfall}, weights {report.weight_shortfall}")
                optimizer.params = fabric.parameters()
    finally:
        metrics_file.close()
        timings_file.close()
        prune_file.close()

    save_fabric(fabric, out / "fabric.npz")
    (out / "fabric.dot").write_text(export_dot(fabric))

    summary = {
        "config_hash": config.hash(),
        "epochs": config.epochs,
        "final_val_error": classification_error(fabric, val_inputs, val_set.given_labels),
        "final_test_error": classification_error(fabric, test_inputs, test_set.labels),
        "alive_links": len(fabric.alive_links()),
        "live_params": fabric.live_param_count(),
        "reported_params": reported,
        "param_total_baseline": full_counts.total,
    }
    if noise_info is not None:
        predictions = fabric.predict(test_inputs)
        report = fitting_report(predictions, test_set)
        summary["noise"] = noise_info
        summary["fitting"] = report.to_dict()
        (out / "fitting.json").write_text(json.dumps(summary["fitting"], indent=2))
    (out / "report.json").write_text(json.dumps(summary, indent=2))
    return summary


def evaluate_checkpoint(fabric: Fabric, config: ExperimentConfig,
                        split: str = "test") -> dict:
    """Error of a checkpointed fabric on one split of the config's dataset."""
    dataset, indices = load_split_dataset(config.data)
    subset = dataset.subset(indices[SPLITS.index(split)])
    error = classification_error(fabric, config.model_inputs(subset.images), subset.labels)
    return {"split": split, "items": len(subset), "error": error}
