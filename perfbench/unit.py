"""One benchmark unit: a fresh process that runs one workload instance.

    python3 perfbench/unit.py --workload NAME --seed N --work DIR --result FILE
                              [--trace {spans,memory}] [--setup-only] [--spawned T]

The unit sets up (imports, inputs, fabric), runs the workload's timed
operations through fabricprune's public API, checks every output and writes
one JSON result file. `--spawned` is the CLOCK_MONOTONIC reading taken by the
parent just before it started this process, so set-up time includes
interpreter start and imports. `--setup-only` stops before the first timed
call. With `--trace` the public functions are wrapped by perfbench/tracer.py
and garbage-collector pauses are recorded; `--trace memory` also runs
tracemalloc and records its peak per span. Without `--trace` none of that is
loaded.

Any exception, MemoryError included, ends the unit: the operations not yet
completed count as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NOISE_VICTIM_EPOCHS = 4
# (eval-mode predict calls, training steps) on the probe set after
# run_experiment, interleaved: about 4 s of probing per unit on the victim
# (140 ms a predict, 150 ms a step), so both span seconds of the host's speed
NOISE_PROBES = (12, 16)
PROBE_BATCH = 64
PAPER_BATCH = 16
PAPER_TRAIN_IMAGES = 32  # one epoch is two B=16 steps
PAPER_PREDICT_IMAGES = 16


def import_package():
    """Import fabricprune from this checkout's src/, never from elsewhere."""
    if not (SRC / "fabricprune" / "__init__.py").is_file():
        raise SystemExit(f"no fabricprune sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fabricprune

    if Path(fabricprune.__file__).resolve().parent != SRC / "fabricprune":
        raise SystemExit(f"imported fabricprune from {fabricprune.__file__}, not {SRC}")
    return fabricprune


class Unit:
    """Timings, operation counts and check outcomes of one unit."""

    def __init__(self):
        self.passed_ops = 0
        self.checks: list[dict] = []
        self.epochs_s: list[float] = []
        self.steps_s: list[float] = []
        self.predicts: list[tuple[int, float]] = []  # (images, seconds) per predict call
        self.hashes: dict[str, str] = {}

    def predict(self, fabric, images, batch_size: int):
        started = time.perf_counter()
        preds = fabric.predict(images, batch_size=batch_size)
        self.predicts.append((len(preds), time.perf_counter() - started))
        return preds

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    def op_done(self, *oks: bool) -> None:
        if all(oks):
            self.passed_ops += 1


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- workloads -------------------------------------------------------------------
#
# Each workload is a (prepare, run, planned_ops) triple. prepare() is set-up:
# everything before the first timed call, and counts as one operation. run()
# is the timed part.


def noise_config(fp, seed: int, out_dir: Path):
    """Criterion 7's annotator path; the seed drives the victim's init,
    batch order and augmentation draws, which leave its cost unchanged."""
    data = fp.DataConfig(kind="synthetic", classes=3, n_per_class=300, resolution=16,
                         difficulty="medium", confusable_fraction=0.10, seed=0,
                         train_fraction=0.6, val_fraction=0.2, test_fraction=0.2)
    annotator = fp.AnnotatorConfig(layers=3, channels=4, learning_rate=0.01,
                                   weight_decay=5e-3, batch_size=64, max_epochs=100,
                                   tolerance=0.01, seed=5)
    return fp.ExperimentConfig(
        layers=4, channels=8, input_resolution=16, epochs=NOISE_VICTIM_EPOCHS,
        batch_size=64, learning_rate=0.1, seed=seed, data=data,
        noise=fp.NoiseConfig(kind="annotator", epsilon=0.10, seed=3, annotator=annotator),
        augment=fp.AugmentConfig(resize=16, crop_size=16),
        out_dir=str(out_dir))


def prepare_noise(fp, seed: int, work: Path):
    # three classes of PROBE_BATCH images: three batches
    probe = fp.data.make_synthetic(3, PROBE_BATCH, 16, seed=seed + 1, difficulty="medium")
    return {"config": noise_config(fp, seed, work / "run"), "probe": probe}


def run_noise(fp, state, unit: Unit) -> None:
    """run_experiment, then eval-mode predicts and training steps on the
    trained victim reloaded from its checkpoint."""
    config = state["config"]
    out = Path(config.out_dir)
    summary = fp.runner.run_experiment(config)
    unit.epochs_s += [json.loads(line)["wall_time"]
                      for line in (out / "timings.jsonl").read_text().splitlines()]
    for name in ("metrics.jsonl", "prune_events.jsonl"):
        unit.hashes[name] = sha256(out / name)
    unit.op_done(*[unit.check(name, ok, detail) for name, ok, detail in noise_checks(summary)])

    # predicts on one copy of the checkpoint and training steps on another,
    # so the predictions must repeat exactly
    fabric = fp.fabric.load_fabric(out / "fabric.npz")
    trained = fp.fabric.load_fabric(out / "fabric.npz")
    optimizer = fp.tensor.SGD(trained.parameters(), fp.tensor.SgdConfig(config.learning_rate))
    probe = state["probe"]
    predicts, steps = NOISE_PROBES
    first = None
    for i in range(steps):
        if i * predicts // steps < (i + 1) * predicts // steps:
            preds = unit.predict(fabric, probe.images, PROBE_BATCH)
            first = preds if first is None else first
            unit.op_done(
                unit.check("predict in range",
                           0 <= preds.min() and preds.max() < fabric.num_classes,
                           f"[{preds.min()}, {preds.max()}]"),
                unit.check("predict repeats", (preds == first).all()))
        batch = slice(i % 3 * PROBE_BATCH, (i % 3 + 1) * PROBE_BATCH)
        unit.op_done(train_step(fp, trained, optimizer, probe.images[batch],
                                probe.labels[batch], unit, f"probe step {i}"))


def train_step(fp, fabric, optimizer, images, labels, unit: Unit, label: str) -> bool:
    started = time.perf_counter()
    optimizer.zero_grad()
    loss = fp.tensor.softmax_cross_entropy(fabric.forward(images, mode="train"), labels)
    fp.tensor.backward(loss)
    optimizer.step()
    unit.steps_s.append(time.perf_counter() - started)
    return unit.check(f"{label} loss finite", math.isfinite(loss.item()), loss.item())


def noise_checks(summary):
    noise, fitting = summary["noise"], summary["fitting"]
    return [
        ("annotator hit band", noise["annotator_hit_band"] is True, noise["annotator_epoch"]),
        ("realized rate within 0.03 of 0.10", abs(noise["realized_rate"] - 0.10) <= 0.03,
         noise["realized_rate"]),
        ("fitting fractions present",
         fitting["clean_fitting"] is not None and fitting["noisy_fitting"] is not None,
         fitting),
    ]


def prepare_paper(fp, seed: int, work: Path):
    import numpy as np

    data = fp.data.make_synthetic(10, 5, 32, seed=seed, difficulty="easy")
    order = np.random.default_rng([seed, 1]).permutation(len(data))
    fabric = fp.fabric.build_fabric(8, 6, 64, 32, 10, seed=seed)
    optimizer = fp.tensor.SGD(fabric.parameters(), fp.tensor.SgdConfig(0.1))
    return {
        "fabric": fabric,
        "optimizer": optimizer,
        "train": data.subset(order[:PAPER_TRAIN_IMAGES]),
        "held_out": data.images[order[PAPER_TRAIN_IMAGES:][:PAPER_PREDICT_IMAGES]],
    }


def run_paper(fp, state, unit: Unit) -> None:
    """One epoch of B=16 steps, one eval-mode predict, one early pruning event."""
    fabric, train = state["fabric"], state["train"]
    dims = (fabric.L, fabric.S, fabric.C, fabric.num_classes)
    full_ok = unit.check("param_count equals param_breakdown",
                         fabric.param_count() == fp.fabric.param_breakdown(*dims))
    started = time.perf_counter()
    for step, begin in enumerate(range(0, len(train), PAPER_BATCH)):
        batch = slice(begin, begin + PAPER_BATCH)
        ok = train_step(fp, fabric, state["optimizer"], train.images[batch],
                        train.labels[batch], unit, f"step {step}")
        unit.op_done(ok, full_ok)
    unit.epochs_s.append(time.perf_counter() - started)

    images = state["held_out"]
    preds = unit.predict(fabric, images, PAPER_BATCH)
    unit.op_done(unit.check("predict in [0, 10)", 0 <= preds.min() and preds.max() < 10,
                            f"[{preds.min()}, {preds.max()}]"))

    plan = fp.pruning.build_plan(fp.pruning.Strategy.EARLY, 0.05, fabric)
    report = fp.pruning.apply_event(fabric, plan.events[0], fp.pruning.Criterion.MAGNITUDE)
    alive = len(fabric.alive_links())
    floor = plan.budget.min_links_kept  # longest_linear_path of the unpruned grid
    unit.op_done(
        unit.check("input->output path alive after pruning",
                   fp.pruning.link_condition(fabric, set())),
        unit.check("alive links >= longest linear path", alive >= floor,
                   f"{alive} alive, path {floor}"),
        unit.check("pruned param_count equals param_breakdown",
                   fabric.param_count() == fp.fabric.param_breakdown(*dims, alive_links=alive)),
        unit.check("pruning event removed links", report.links_removed > 0,
                   f"{len(report.killed_links)} killed + {len(report.cascade_links)} cascade, "
                   f"{report.masked_weights} weights masked"))


WORKLOADS = {
    "paper-step": (prepare_paper, run_paper, 1 + PAPER_TRAIN_IMAGES // PAPER_BATCH + 2),
    "noise-annotator": (prepare_noise, run_noise, 2 + sum(NOISE_PROBES)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", choices=("spans", "memory"))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned", type=float, default=None)
    args = parser.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned

    tracer = None
    if args.trace:
        import tracemalloc

        from tracer import Tracer  # perfbench/tracer.py, beside this file

        if args.trace == "memory":
            tracemalloc.start()
        tracer = Tracer(track_memory=args.trace == "memory")
    prepare, run, planned = WORKLOADS[args.workload]
    unit = Unit()
    result = {"attempted": 1 if args.setup_only else planned, "error": None}
    try:
        fp = import_package()
        if tracer is not None:
            tracer.install(fp)
        args.work.mkdir(parents=True, exist_ok=True)
        state = prepare(fp, args.seed, args.work)
        started = time.monotonic()
        result["setup_s"] = started - spawned
        unit.op_done()
        if not args.setup_only:
            run(fp, state, unit)
            result["wall_s"] = time.monotonic() - started
    except Exception as exc:  # the unit's failure boundary: record and report it
        result["error"] = "".join(traceback.format_exception(exc))
    result.update(
        failed=result["attempted"] - unit.passed_ops,
        checks=unit.checks, epochs_s=unit.epochs_s, steps_s=unit.steps_s,
        predicts=unit.predicts, hashes=unit.hashes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        result["per_layer"] = tracer.per_layer()
        tracer.write_spans(args.work / f"spans-{args.trace}.jsonl")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
