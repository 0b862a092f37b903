"""Command-line front end. Consumers are scripts; all output is JSON or DOT."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import FormatError
from .fabric import FabricError, build_fabric, export_dot, load_fabric, param_breakdown
from .noise import fitting_report, load_noisy_labels
from .pruning import Criterion, Strategy, reported_param_count
from .runner import (
    NOISE_KINDS,
    SPLITS,
    ConfigError,
    ExperimentConfig,
    evaluate_checkpoint,
    inject_noise,
    load_split_dataset,
    run_experiment,
)

# override flag -> the dotted config field it sets; --noise none drops the section
OVERRIDES = {"seed": "seed", "epochs": "epochs", "out": "out_dir",
             "sparsity": "prune.sparsity", "strategy": "prune.strategy",
             "criterion": "prune.criterion", "noise": "noise.kind"}


def _load_config(args) -> ExperimentConfig:
    """The config at args.config with the override flags that are set, built and checked."""
    overrides = {}
    for flag, dotted in OVERRIDES.items():
        value = getattr(args, flag, None)
        if value == "none":
            overrides["noise"] = None
        elif value is not None:
            overrides[dotted] = value
    return ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()), overrides)


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_train(args) -> int:
    config = _load_config(args)
    summary = run_experiment(config)
    _emit(summary)
    return 0


def cmd_prune_plan(args) -> int:
    config = _load_config(args)
    if config.prune is None:
        print("config has no prune section", file=sys.stderr)
        return 2
    fabric = build_fabric(config.layers, config.scales, config.channels,
                          config.input_resolution, config.data.classes,
                          seed=config.seed)
    plan = config.prune_plan(fabric)
    full = param_breakdown(config.layers, config.scales, config.channels,
                           config.data.classes)
    _emit({
        "strategy": plan.strategy.value,
        "sparsity": plan.sparsity,
        "total_links": plan.budget.total_links,
        "links_kept": plan.budget.links_kept,
        "min_links_kept": plan.budget.min_links_kept,
        "links_to_remove": plan.budget.links_to_remove,
        "weights_to_remove": plan.budget.weights_to_remove,
        "events": [{"epoch": e.epoch, "links": e.links_to_remove,
                    "weights": e.weights_to_remove} for e in plan.events],
        "baseline_params": full.total,
        "reported_params": reported_param_count(full, plan.sparsity),
    })
    return 0


def cmd_count_params(args) -> int:
    config = _load_config(args) if args.config else ExperimentConfig.from_dict({}, {
        "layers": args.layers, "channels": args.channels, "data.classes": args.classes,
        "input_resolution": args.resolution, "data.resolution": args.resolution})
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
        print("config has no noise section", file=sys.stderr)
        return 2
    dataset, (train_idx, val_idx, _) = load_split_dataset(config.data)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    _, info = inject_noise(dataset, train_idx, val_idx, config.noise, out_dir)
    _emit(info)
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    fabric = load_fabric(args.checkpoint)
    _emit(evaluate_checkpoint(fabric, config, split=args.split))
    return 0


def cmd_fitting_report(args) -> int:
    config = _load_config(args)
    fabric = load_fabric(args.checkpoint)
    dataset, (_, _, test_idx) = load_split_dataset(config.data)
    full = load_noisy_labels(dataset, args.labels)
    test_set = full.subset(test_idx)
    predictions = fabric.predict(config.model_inputs(test_set.images))
    _emit(fitting_report(predictions, test_set).to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabricprune",
        description="Train, prune, and probe convolutional network fabrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--sparsity", type=float, default=None)
        p.add_argument("--strategy", choices=[s.value for s in Strategy], default=None)
        p.add_argument("--criterion", choices=[c.value for c in Criterion], default=None)
        p.add_argument("--noise", choices=["none", *NOISE_KINDS], default=None)
        p.add_argument("--out", default=None)

    train = sub.add_parser("train", help="run an experiment end to end")
    add_common(train)
    train.set_defaults(handler=cmd_train)

    plan = sub.add_parser("prune-plan", help="print the run's pruning schedule (dry run)")
    add_common(plan)
    plan.set_defaults(handler=cmd_prune_plan)

    count = sub.add_parser("count-params", help="parameter accounting for a fabric")
    count.add_argument("--config", default=None)
    count.add_argument("--layers", type=int, default=8)
    count.add_argument("--channels", type=int, default=64)
    count.add_argument("--resolution", type=int, default=32)
    count.add_argument("--classes", type=int, default=10)
    count.set_defaults(handler=cmd_count_params)

    dot = sub.add_parser("export-dot", help="render a checkpoint as a DOT digraph")
    dot.add_argument("--checkpoint", required=True)
    dot.add_argument("--out", default=None)
    dot.add_argument("--include-pruned", action="store_true")
    dot.set_defaults(handler=cmd_export_dot)

    inject = sub.add_parser("inject-noise", help="write a noisy-label sidecar")
    add_common(inject)
    inject.set_defaults(handler=cmd_inject_noise)

    evaluate = sub.add_parser("evaluate", help="error of a checkpoint on a split")
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--split", choices=SPLITS, default="test")
    evaluate.set_defaults(handler=cmd_evaluate)

    fitting = sub.add_parser("fitting-report", help="clean/noisy fitting of a checkpoint")
    fitting.add_argument("--config", required=True)
    fitting.add_argument("--checkpoint", required=True)
    fitting.add_argument("--labels", required=True, help="noisy-label sidecar")
    fitting.set_defaults(handler=cmd_fitting_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        source = f"config {args.config}" if args.config else "arguments"
        print(f"invalid {source}: {exc}", file=sys.stderr)
        return 2
    except (FabricError, FormatError, FileNotFoundError) as exc:  # an unusable input file
        print(f"fabricprune: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
