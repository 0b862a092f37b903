"""Command-line front end. Consumers are scripts; all output is JSON or DOT."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import FormatError
from .fabric import Fabric, FabricError, build_fabric, export_dot, load_fabric, param_breakdown
from .noise import classification_error, fitting_report
from .pruning import Criterion, Strategy
from .runner import (
    NOISE_KINDS,
    SPLITS,
    ConfigError,
    ExperimentConfig,
    TrainingDiverged,
    inject_noise,
    load_run_split,
    load_split_dataset,
    run_experiment,
)

# override flag -> (its argparse options, the dotted config fields it sets); each
# command takes the flags whose fields it reads, and --noise none drops the section
OVERRIDES = {
    "seed": ({"type": int}, ("seed",)),
    "epochs": ({"type": int}, ("epochs",)),
    "out": ({}, ("out_dir",)),
    "sparsity": ({"type": float}, ("prune.sparsity",)),
    "strategy": ({"choices": [s.value for s in Strategy]}, ("prune.strategy",)),
    "criterion": ({"choices": [c.value for c in Criterion]}, ("prune.criterion",)),
    "noise": ({"choices": ["none", *NOISE_KINDS]}, ("noise.kind",)),
    "layers": ({"type": int}, ("layers",)),
    "channels": ({"type": int}, ("channels",)),
    "resolution": ({"type": int}, ("input_resolution", "data.resolution")),
    "classes": ({"type": int}, ("data.classes",)),
}
# the config count-params reads without --config: the paper's fabric
PAPER_FABRIC = {"layers": 8, "channels": 64, "input_resolution": 32,
                "data": {"resolution": 32, "classes": 10}}


def _load_config(args) -> ExperimentConfig:
    """The config at args.config, or PAPER_FABRIC, with the flags that are set applied."""
    overrides = {}
    for flag, (_, fields) in OVERRIDES.items():
        value = getattr(args, flag, None)
        if flag == "noise" and value == "none":
            overrides["noise"] = None
        elif value is not None:
            overrides.update(dict.fromkeys(fields, value))
    raw = json.loads(Path(args.config).read_text()) if args.config else PAPER_FABRIC
    return ExperimentConfig.from_dict(raw, overrides)


def _load_checkpoint(args, config: ExperimentConfig) -> Fabric:
    """The fabric at args.checkpoint; FabricError unless it fits the config's data."""
    fabric = load_fabric(args.checkpoint)
    for name, expected in [("num_classes", config.data.classes),
                           ("input_resolution", config.input_resolution)]:
        if getattr(fabric, name) != expected:
            raise FabricError(f"checkpoint {args.checkpoint} has {name} {getattr(fabric, name)}"
                              f", config {args.config} has {expected}")
    return fabric


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_train(args) -> int:
    _emit(run_experiment(_load_config(args)))
    return 0


def cmd_prune_plan(args) -> int:
    config = _load_config(args)
    if config.prune is None:
        raise ConfigError("config has no prune section")
    # the schedule reads the fabric's graph only, not its weights
    fabric = build_fabric(config.layers, config.scales, config.channels,
                          config.input_resolution, config.data.classes)
    plan = config.prune_plan(fabric)
    _emit({
        "strategy": plan.strategy.value,
        "sparsity": plan.sparsity,
        "total_links": plan.budget.total_links,
        "links_kept": plan.budget.links_kept,
        "min_links_kept": plan.budget.min_links_kept,
        "links_to_remove": plan.budget.links_to_remove,
        "events": [vars(e) for e in plan.events],
        "baseline_params": fabric.param_count().total,
        "reported_params": plan.budget.reported_params,
    })
    return 0


def cmd_count_params(args) -> int:
    config = _load_config(args)
    classes = config.data.classes
    breakdown = param_breakdown(config.layers, config.scales, config.channels, classes)
    _emit({
        "layers": config.layers,
        "scales": config.scales,
        "channels": config.channels,
        "input_resolution": config.input_resolution,
        "classes": classes,
        "stem": breakdown.stem,
        "links": breakdown.links,
        "head": breakdown.head,
        "total": breakdown.total,
    })
    return 0


def cmd_export_dot(args) -> int:
    fabric = load_fabric(args.checkpoint)
    text = export_dot(fabric, include_pruned=args.include_pruned)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_inject_noise(args) -> int:
    config = _load_config(args)
    if config.noise is None:
        raise ConfigError("config has no noise section")
    dataset, splits = load_split_dataset(config.data)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, info = inject_noise(dataset, splits, config.noise, out_dir)
    _emit(info)
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    fabric = _load_checkpoint(args, config)
    split = load_run_split(config, args.split)
    _emit({"split": args.split, "items": len(split),
           "error": classification_error(fabric, split.images, split.labels)})
    return 0


def cmd_fitting_report(args) -> int:
    config = _load_config(args)
    fabric = _load_checkpoint(args, config)
    test_set = load_run_split(config, "test", noisy_labels=args.labels)
    _emit(fitting_report(fabric.predict(test_set.images), test_set).to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabricprune",
        description="Train, prune, and probe convolutional network fabrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def configured(name, handler, about, flags, required=True):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=required, help="experiment config (JSON)")
        for flag in flags:
            p.add_argument(f"--{flag}", **OVERRIDES[flag][0])
        p.set_defaults(handler=handler)
        return p

    configured("train", cmd_train, "run an experiment end to end",
               ["seed", "epochs", "out", "sparsity", "strategy", "criterion", "noise"])
    configured("prune-plan", cmd_prune_plan, "print the run's pruning schedule (dry run)",
               ["epochs", "sparsity", "strategy"])
    configured("count-params", cmd_count_params, "parameter accounting for a fabric",
               ["layers", "channels", "resolution", "classes"], required=False)

    dot = sub.add_parser("export-dot", help="render a checkpoint as a DOT digraph")
    dot.add_argument("--checkpoint", required=True)
    dot.add_argument("--out", default=None)
    dot.add_argument("--include-pruned", action="store_true")
    dot.set_defaults(handler=cmd_export_dot)

    configured("inject-noise", cmd_inject_noise, "write a noisy-label sidecar",
               ["noise", "out"])
    evaluate = configured("evaluate", cmd_evaluate, "error of a checkpoint on a split", [])
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--split", choices=SPLITS, default="test")
    fitting = configured("fitting-report", cmd_fitting_report,
                         "clean/noisy fitting of a checkpoint", [])
    fitting.add_argument("--checkpoint", required=True)
    fitting.add_argument("--labels", required=True, help="noisy-label sidecar")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite loss, parameter or logit ends a run as TrainingDiverged,
        # one line below; numpy's overflow warnings on the way there add nothing
        with np.errstate(all="ignore"):
            return args.handler(args)
    except ConfigError as exc:
        source = f"config {args.config}" if args.config else "arguments"
        print(f"invalid {source}: {exc}", file=sys.stderr)
        return 2
    except (FabricError, FormatError, OSError, TrainingDiverged) as exc:
        print(f"fabricprune: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, TrainingDiverged) else 2  # 2: an unusable input file


if __name__ == "__main__":
    sys.exit(main())
