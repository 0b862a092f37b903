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
from functools import reduce
from pathlib import Path

import numpy as np

from .data import (
    DIFFICULTY,
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
    FabricError,
    TrainingDiverged,
    build_fabric,
    export_dot,
    save_fabric,
    train_batches,
)
from .noise import (
    AnnotatorConfig,
    classification_error,
    fitting_report,
    flip_labels,
    load_noisy_labels,
    relabel_with_annotator,
    save_noisy_labels,
    train_annotator,
)
from .pruning import (
    RECIPE_EPOCHS,
    Criterion,
    PrunePlan,
    Strategy,
    apply_event,
    build_plan,
    rescale_epochs,
    sensitivity_grads,
)
from .tensor import SGD, SgdConfig

RECIPE_LR_MILESTONES = (80, 120)
# the dataset's splits, in split-manifest order; prune.gradient_source names one
SPLITS = ("train", "validation", "test")
NOISE_KINDS = ("uniform", "class", "annotator")
DATA_KINDS = ("synthetic", "binary")  # load_split_dataset's dispatch


class ConfigError(ValueError):
    """A config section that is not an object or that its dataclass rejects, a key
    no field matches, or a value ExperimentConfig.check rejects, named by its dotted place."""


def _object(raw, path: str) -> dict:
    """raw, once it is a dict; path is its dotted place ("" at the top level)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {path or '(top level)'} must be an object, "
                          f"got {type(raw).__name__}")
    return raw


def _checked_section(cls, raw, path: str, unknown: list[str]):
    """The dataclass cls built from raw, its nested _SECTIONS built alike and
    its tuple fields' lists made tuples. path is its dotted place ("" at the
    top level), so a ConfigError names e.g. config section noise.annotator.
    Appends to unknown the dotted names of the keys that no field matches,
    e.g. noise.annotator.bogus: the section's own, then those of its nested
    sections in field order. Once any key is unknown, builds nothing: None."""
    raw, names = dict(_object(raw, path)), [f.name for f in fields(cls)]
    unknown += [f"{path}.{key}".lstrip(".") for key in raw if key not in names]
    for f in fields(cls):
        dotted, value = f"{path}.{f.name}".lstrip("."), raw.get(f.name)
        if dotted in _SECTIONS and f.name in raw and (value is not None or f.default is not None):
            raw[f.name] = _checked_section(_SECTIONS[dotted], value, dotted, unknown)
        elif isinstance(value, list) and str(f.type).startswith("tuple"):
            raw[f.name] = tuple(value)
    if unknown:
        return None
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:  # the section's own __post_init__ check
        raise ConfigError(f"config section {path}: {exc}") from exc


@dataclass
class DataConfig:
    kind: str = "synthetic"  # one of DATA_KINDS
    classes: int = 3
    n_per_class: int = 150
    resolution: int = 16
    difficulty: str = "easy"  # a key of data.DIFFICULTY
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


@dataclass
class NoiseConfig:
    # epsilon, the target mislabel rate of every kind, is the flip probability of
    # "uniform" (to any other class) and "class" (to the next class) and the
    # annotator's target held-out error
    kind: str = "uniform"  # one of NOISE_KINDS
    epsilon: float = 0.1
    seed: int = 0  # the uniform and class flips; the annotator draws from annotator.seed
    annotator: AnnotatorConfig = field(default_factory=AnnotatorConfig)


# dotted field -> the dataclass of the config section there
_SECTIONS = {"data": DataConfig, "prune": PruneConfig, "noise": NoiseConfig,
             "noise.annotator": AnnotatorConfig, "augment": AugmentConfig}


def _is_number(v, kind=(int, float)) -> bool:
    """isinstance(v, kind) for a number kind, without bool, which is an int."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _number(test, requirement: str, kind=(int, float)):
    return (lambda v, config: _is_number(v, kind) and test(v)), requirement


def _one_of(allowed):
    return (lambda v, config: v in allowed), f"one of {', '.join(allowed)}"


_POSITIVE = _number(lambda v: v > 0, "a number > 0")
_NONNEGATIVE = _number(lambda v: v >= 0, "a number >= 0")
_INT_FROM_0 = _number(lambda v: v >= 0, "an int >= 0", int)
_INT_FROM_1 = _number(lambda v: v >= 1, "an int >= 1", int)
_INT_FROM_2 = _number(lambda v: v >= 2, "an int >= 2", int)
# input_resolution's rule runs first, so it is a known int by then
_INPUT_RESOLUTION = (lambda v, config: _is_number(v, int) and v == config.input_resolution,
                     "equal to input_resolution")
# dotted field -> (test of its value and the config, requirement), in check's order
_RULES = {
    "input_resolution": _number(lambda v: v >= 2 and not v & (v - 1), "a power of two >= 2", int),
    "layers": _INT_FROM_2, "channels": _INT_FROM_1, "batch_size": _INT_FROM_2,
    "epochs": (lambda v, config: _is_number(v, int) and v >= (0 if config.prune is None else 1),
               "an int >= 1 with a prune section, else >= 0"),
    "learning_rate": _POSITIVE, "momentum": _NONNEGATIVE, "weight_decay": _NONNEGATIVE,
    "seed": _INT_FROM_0,
    "data.kind": _one_of(DATA_KINDS), "data.resolution": _INPUT_RESOLUTION,
    # a label can flip only to another class
    "data.classes": (lambda v, config: _is_number(v, int)
                     and v >= (1 if config.noise is None else 2),
                     "an int >= 2 with a noise section, else >= 1"),
    "data.n_per_class": _INT_FROM_1,  # load_split_dataset checks the splits' sizes
    "data.difficulty": _one_of(DIFFICULTY),
    "data.confusable_fraction": _number(lambda v: 0 <= v < 1, "in [0, 1)"),
    "data.train_fraction": _POSITIVE, "data.val_fraction": _POSITIVE,
    # the last of the three, so the other two are known numbers here
    "data.test_fraction": (lambda v, config: _is_number(v) and v > 0
                           and config.data.train_fraction + config.data.val_fraction + v
                           <= 1 + 1e-9,
                           "a number > 0, with data.train_fraction + data.val_fraction + "
                           "data.test_fraction <= 1"),
    "data.seed": _INT_FROM_0,
    "data.path": (lambda v, config: v is not None or config.data.kind != "binary",
                  "set for data.kind binary"),
    "prune.strategy": _one_of([s.value for s in Strategy]),
    "prune.criterion": _one_of([c.value for c in Criterion]),
    "prune.gradient_source": _one_of(SPLITS),
    "prune.sparsity": _number(lambda v: 0 < v < 1, "in (0, 1)"),
    "noise.kind": _one_of(NOISE_KINDS),
    # an annotator at or above the error of guessing would learn nothing
    "noise.epsilon": (lambda v, config: _is_number(v) and (
        0 < v < 1 - 1 / config.data.classes if config.noise.kind == "annotator" else 0 <= v <= 1),
        "a number in [0, 1], and in (0, 1 - 1/data.classes) for noise.kind annotator"),
    "noise.seed": _INT_FROM_0,
    "noise.annotator.layers": _INT_FROM_2, "noise.annotator.channels": _INT_FROM_1,
    "noise.annotator.batch_size": _INT_FROM_2,
    "noise.annotator.learning_rate": _POSITIVE, "noise.annotator.weight_decay": _NONNEGATIVE,
    "noise.annotator.max_epochs": _INT_FROM_0, "noise.annotator.seed": _INT_FROM_0,
    "noise.annotator.tolerance": _NONNEGATIVE,
    "augment.normalize_mean": (lambda v, config: isinstance(v, (list, tuple)) and len(v) == 3
                               and all(_is_number(m) for m in v),
                               "three numbers"),
    "augment.normalize_std": (lambda v, config: isinstance(v, (list, tuple)) and len(v) == 3
                              and all(_is_number(s) and s > 0 for s in v),
                              "three numbers > 0"),
    "augment.resize": _INT_FROM_1, "augment.crop_size": _INPUT_RESOLUTION,
    "augment.crop_padding": _INT_FROM_0,
    "augment.flip_prob": _number(lambda v: 0 <= v <= 1, "in [0, 1]"),
}


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
        """Raise ConfigError naming the first field that fails its rule in _RULES."""
        for name, (test, requirement) in _RULES.items():
            if "." in name and getattr(self, name.split(".")[0]) is None:
                continue  # a prune, noise or augment section that is not set
            value = reduce(getattr, name.split("."), self)
            if not test(value, self):
                raise ConfigError(f"{name} must be {requirement}, got {value!r}")

    def model_inputs(self, images: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Images as the fabric takes them, for training and evaluation alike:
        normalized by the augment section's mean and std when it is set, into
        out when it is given (out=images normalizes them in place)."""
        if self.augment is None:
            return images
        return normalize(images, self.augment.normalize_mean, self.augment.normalize_std,
                         out=out)

    def prune_plan(self, fabric: Fabric) -> PrunePlan:
        """The prune section's schedule for fabric over this run's epochs."""
        return build_plan(Strategy(self.prune.strategy), self.prune.sparsity, fabric,
                          self.epochs)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "ExperimentConfig":
        """The checked config of raw, each {dotted field: value} of overrides set
        first in a copy: a section absent or null starts as {}, and {"noise":
        None} drops the section. ConfigError names the field or section at fault."""
        raw = dict(_object(raw, ""))
        for dotted, value in (overrides or {}).items():
            *path, leaf = dotted.split(".")
            section = raw
            for depth, key in enumerate(path, 1):
                section[key] = dict(_object({} if section.get(key) is None else section[key],
                                            ".".join(path[:depth])))
                section = section[key]
            section[leaf] = value
        unknown: list[str] = []
        config = _checked_section(cls, raw, "", unknown)
        if unknown:  # every section's, so an older run's config is refused once
            raise ConfigError(f"unknown config field {', '.join(unknown)}")
        config.check()
        return config

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()


def lr_at(epoch: int, base_lr: float, milestones) -> float:
    """Learning rate for an epoch: divided by 10 after each passed milestone."""
    passed = sum(1 for m in milestones if epoch > m)
    return base_lr / (10.0 ** passed)


def load_split_dataset(data: DataConfig) -> tuple[ImageDataset, list[slice]]:
    """The config's dataset, its rows in split order, and the row slices of its
    stratified train, validation and test splits.

    The rows are rearranged in place into train | validation | test | unused
    (the items fractions summing below 1 leave out), each block in item
    order, so dataset.subset(split) is a view and the images are held once;
    index still names each row's item as loaded. Any split may feed train-mode
    batch norm, which needs 2 samples: ConfigError names a split left smaller.
    """
    if data.kind == "synthetic":
        dataset = make_synthetic(data.classes, data.n_per_class, data.resolution,
                                 seed=data.seed, difficulty=data.difficulty,
                                 confusable_fraction=data.confusable_fraction)
    elif data.kind == "binary":
        layout = RecordLayout(resolution=data.resolution, num_classes=data.classes)
        dataset = load_binary_records(data.path, layout)
    else:
        raise ConfigError(f"data.kind must be one of {', '.join(DATA_KINDS)}, got {data.kind!r}")
    fractions = (data.train_fraction, data.val_fraction, data.test_fraction)
    indices = stratified_split_indices(dataset.labels, fractions, data.seed)
    for name, split in zip(SPLITS, indices):
        if split.size < 2:
            given = ("data.n_per_class must be large enough" if data.kind == "synthetic"
                     else "data.path must hold enough records")
            raise ConfigError(f"{given} to leave 2 items in every split: the {name} split "
                              f"holds {split.size} of {len(dataset)} items at data.train_fraction, "
                              f"data.val_fraction and data.test_fraction {fractions}")
    unused = np.setdiff1d(np.arange(len(dataset)), np.concatenate(indices))
    dataset.reorder(np.concatenate([*indices, unused]))
    ends = np.cumsum([len(split) for split in indices]).tolist()
    return dataset, [slice(start, end) for start, end in zip([0, *ends], ends)]


def inject_noise(full: ImageDataset, splits, config: NoiseConfig, out_dir: Path | None):
    """Corrupt the given labels of the whole dataset, pre-split; splits are its
    train, validation and test rows as load_split_dataset gives them. The
    annotator trains on the train rows and holds out the validation rows;
    TrainingDiverged names its epoch when it diverges."""
    info: dict = {"kind": config.kind, "target_rate": config.epsilon}
    if config.kind in ("uniform", "class"):
        noisy = flip_labels(full, config.epsilon, config.seed, pair=config.kind == "class")
    elif config.kind == "annotator":
        annotator, ann_info = train_annotator(full.subset(splits[0]), full.subset(splits[1]),
                                              config.epsilon, config.annotator)
        noisy = relabel_with_annotator(full, annotator)
        info.update(annotator_epoch=ann_info.chosen_epoch,
                    annotator_holdout_error=ann_info.holdout_error,
                    annotator_hit_band=ann_info.hit_band,
                    annotator_error_curve=ann_info.error_curve)
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


def _sensitivity_batches(source: ImageDataset, config: ExperimentConfig, raw: bool):
    """source's (inputs, given labels) batches, row slices as train_batches cuts
    them, each made a model input as it is yielded when its rows are raw."""
    for rows in train_batches(range(len(source)), config.batch_size):
        rows = slice(rows.start, rows.stop)
        images = source.images[rows]
        yield (config.model_inputs(images) if raw else images), source.given_labels[rows]


def _append(path: Path, line: str) -> None:
    """Add one line to path, closing it so the line reaches the OS at once."""
    with open(path, "a") as fh:
        fh.write(line + "\n")


def run_experiment(config: ExperimentConfig) -> dict:
    """Train (and optionally prune) one fabric end to end; returns a summary.

    Raises ConfigError naming the field, before anything is written, when the
    config fails ExperimentConfig.check or load_split_dataset's split sizes, and
    TrainingDiverged naming the epoch when a loss, parameter or logit is non-finite.
    """
    config.check()
    dataset, splits = load_split_dataset(config.data)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json())
    (out / "config.hash").write_text(config.hash() + "\n")
    save_split_manifest([dataset.index[rows] for rows in splits], out / "splits.txt")

    noise_info = None
    if config.noise is not None:
        dataset, noise_info = inject_noise(dataset, splits, config.noise, out)
    train_set, val_set, test_set = (dataset.subset(rows) for rows in splits)
    # nothing reads the validation and test pixels raw from here on
    val_inputs = config.model_inputs(val_set.images, out=val_set.images)
    test_inputs = config.model_inputs(test_set.images, out=test_set.images)

    fabric = build_fabric(config.layers, config.scales, config.channels,
                          config.input_resolution, dataset.num_classes,
                          seed=config.seed)
    baseline = fabric.param_count().total
    reported, events_by_epoch = baseline, {}
    if config.prune is not None:
        plan = config.prune_plan(fabric)
        events_by_epoch = {event.epoch: event for event in plan.events}
        reported = plan.budget.reported_params

    optimizer = SGD(fabric.parameters(),
                    SgdConfig(config.learning_rate, config.momentum, config.weight_decay))

    def scored(epoch: int) -> tuple[np.ndarray, float]:  # test predictions, validation error
        try:
            predictions = fabric.predict(test_inputs)
            return predictions, classification_error(fabric, val_inputs, val_set.given_labels)
        except FabricError as exc:  # predict met a non-finite logit
            raise TrainingDiverged(f"{exc} at epoch {epoch}") from exc

    milestones = rescale_epochs(RECIPE_LR_MILESTONES, RECIPE_EPOCHS, config.epochs)
    criterion = Criterion(config.prune.criterion) if config.prune else None

    for name in ("metrics.jsonl", "timings.jsonl", "prune_events.jsonl"):
        (out / name).write_text("")
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        lr = lr_at(epoch, config.learning_rate, milestones)
        optimizer.config = replace(optimizer.config, learning_rate=lr)

        order = np.random.default_rng([config.seed, 101, epoch]).permutation(len(train_set))
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

        test_predictions, val_error = scored(epoch)
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "val_error": val_error,
            "test_error": float((test_predictions != test_set.labels).mean()),
            "learning_rate": lr,
            "alive_links": len(fabric.alive_links()),
            "live_params": fabric.live_param_count(),
        }
        # wall time stays out of metrics.jsonl so reruns are byte-identical
        wall_time = time.perf_counter() - started
        _append(out / "metrics.jsonl", json.dumps(record))
        _append(out / "timings.jsonl", json.dumps({"epoch": epoch, "wall_time": wall_time}))

        event = events_by_epoch.get(epoch)
        if event is not None:
            weight_scores = None
            if criterion is Criterion.SENSITIVITY:
                source = (train_set, val_set, test_set)[SPLITS.index(config.prune.gradient_source)]
                batches = _sensitivity_batches(source, config, raw=source is train_set)
                weight_scores = sensitivity_grads(fabric, batches)
            report = apply_event(fabric, event, criterion, weight_scores)
            _append(out / "prune_events.jsonl", report.to_json())
            if report.link_shortfall or report.weight_shortfall:
                warnings.warn(f"pruning quota shortfall at epoch {epoch}: "
                              f"links {report.link_shortfall}, weights {report.weight_shortfall}")
            optimizer.params = fabric.parameters()

    save_fabric(fabric, out / "fabric.npz")
    (out / "fabric.dot").write_text(export_dot(fabric))

    # the last epoch's record scored the final fabric unless a prune event followed it
    if config.epochs == 0 or config.epochs in events_by_epoch:
        test_predictions, val_error = scored(config.epochs)
    summary = {
        "config_hash": config.hash(),
        "epochs": config.epochs,
        "final_val_error": val_error,
        "final_test_error": float((test_predictions != test_set.labels).mean()),
        "alive_links": len(fabric.alive_links()),
        "live_params": fabric.live_param_count(),
        "reported_params": reported,
        "param_total_baseline": baseline,
    }
    if noise_info is not None:
        summary["noise"] = noise_info
        summary["fitting"] = fitting_report(test_predictions, test_set).to_dict()
        (out / "fitting.json").write_text(json.dumps(summary["fitting"], indent=2))
    (out / "report.json").write_text(json.dumps(summary, indent=2))
    return summary


def load_run_split(config: ExperimentConfig, split: str, noisy_labels=None) -> ImageDataset:
    """One split of the config's dataset as the run scores it: its images made model
    inputs in place and, given a noisy-label sidecar's path, its given labels from there."""
    dataset, splits = load_split_dataset(config.data)
    if noisy_labels is not None:
        dataset = load_noisy_labels(dataset, noisy_labels)
    subset = dataset.subset(splits[SPLITS.index(split)])
    config.model_inputs(subset.images, out=subset.images)
    return subset
