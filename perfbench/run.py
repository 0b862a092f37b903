"""fabricprune benchmark: two closed-loop workloads, one process per unit.

    python3 perfbench/run.py --workload {paper-step,noise-annotator}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each unit of work runs in a fresh child
process (perfbench/unit.py) under an address-space cap, so a memory
exhaustion is a failed operation instead of an out-of-memory kill; units run
one after another, each waiting for the last (a closed loop with one client).

The number of units is S divided by the workload's UNIT_SECONDS, fixed by S
alone, so every commit does the same work in a run whatever its speed. On
the reference machine (2 cores, 8 GB) a 50-s run takes about 45 s on
paper-step (4 units) and 58 s on noise-annotator (2 units). SETUP_RUNS
further processes, spread between the units, stop before their first timed
call; with the units' own they give the set-up time.

With --trace 0 the run prints every end-to-end metric. With --trace 1 it runs
one unit with timed spans and one under tracemalloc, and prints the
per-layer metrics: times, counts and the tracing overhead from the spans
unit, memory peaks from the tracemalloc unit. The overhead is measured in
the spans unit as the time its wrappers spend outside the calls they wrap;
a third, untraced unit for a wall-time difference would push a
noise-annotator trace run towards the 180 s a run may take.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from unit import WORKLOADS  # perfbench/unit.py, beside this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

UNIT_SECONDS = {"paper-step": 12, "noise-annotator": 25}  # one unit on the reference machine
SETUP_RUNS = 8  # set-up-only processes per untraced run
MEMORY_CAP_BYTES = 6 * 1024 ** 3  # below the 8 GB of the reference machine
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = str(min(2, os.cpu_count() or 1))


def tail_rank(n: int) -> int:
    """Zero-based rank of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum (the
    100th percentile) is used instead.
    """
    return n - 1 if n <= 10 else n - 11


def at_percentile(values: list[float], percentile: float) -> float:
    """The smallest sample with at least `percentile` % of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": int(BLAS_THREADS)}


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_unit(workload: str, seed: int, index: int, trace: str | None, setup_only: bool,
             deadline: float) -> dict:
    """Run one unit in a fresh capped child process and return its result."""
    work = WORK / f"{workload}-s{seed}-u{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--result", str(result_path)]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, preexec_fn=cap_memory, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        output, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as exc:
        output, code = f"timed out after {timeout:.0f} s\n{exc.output or ''}", None
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        planned = 1 if setup_only else WORKLOADS[workload][2]
        result = {"error": f"unit exited with {code}:\n{output[-2000:]}", "checks": [],
                  "attempted": planned, "failed": planned}
    spans = work / f"spans-{trace}.jsonl"
    if spans.is_file():
        shutil.move(spans, WORK / f"spans-{workload}-s{seed}-{trace}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    return result


def check_hashes(workload: str, seed: int, units: list[dict]) -> list[str]:
    """Artifact hashes must agree across every unit and run of one seed.

    Runs are compared only when the package sources and unit.py are the
    same, so checking out another commit in the same tree starts afresh.
    """
    code = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fabricprune").glob("*.py")) + [HERE / "unit.py"]:
        code.update(path.read_bytes())
    store_path = WORK / "hashes.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    key = f"{workload}/{seed}/{code.hexdigest()[:16]}"
    mismatches = []
    for unit in units:
        hashes = unit.get("hashes")
        if not hashes:
            continue
        if key not in store:
            store[key] = hashes
        elif hashes != store[key]:
            mismatches.append(f"{hashes} != {store[key]}")
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return mismatches


def end_to_end(units: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    """Each unit's own value, median over the run's units.

    The host's speed drifts by tens of percent over seconds, and a unit's
    probes take a few seconds at most, so a slow spell can cover one unit's
    samples; a median over units, rather than over the pooled samples, keeps
    such a unit from moving the result. The tail percentile is the highest
    with ten of the run's pooled epochs beyond it, read in each unit's epochs.
    """
    n_epochs = sum(len(u["epochs_s"]) for u in units)
    percentile = 100.0 * (tail_rank(n_epochs) + 1) / n_epochs

    def per_unit(value) -> float:
        return statistics.median(value(u) for u in units)

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": per_unit(lambda u: u["wall_s"]),
        "epoch_s.p50": per_unit(lambda u: statistics.median(u["epochs_s"])),
        "epoch_s.tail": per_unit(lambda u: at_percentile(u["epochs_s"], percentile)),
        "step_s.p50": per_unit(lambda u: statistics.median(u["steps_s"])),
        "predict_img_per_s": per_unit(lambda u: sum(n for n, _ in u["predicts"])
                                      / sum(t for _, t in u["predicts"])),
        "peak_rss_mb": per_unit(lambda u: u["peak_rss_mb"]),
    }
    notes = [f"setup_s: median of {len(setups)} set-ups",
             f"medians over {len(units)} units of: wall_s; epoch_s over "
             f"{len(units[0]['epochs_s'])} epochs a unit, tail is p{percentile:.1f} "
             f"of {n_epochs} epochs; step_s over {len(units[0]['steps_s'])} steps a unit; "
             f"predict_img_per_s over {len(units[0]['predicts'])} predict calls a unit"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNIT_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fabricprune" / "__init__.py").is_file():
        print(f"error: no fabricprune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in environment().items()))
    n_units = max(1, round(args.seconds / UNIT_SECONDS[args.workload]))
    units, setup_runs = [], []
    if args.trace:
        units = [run_unit(args.workload, args.seed, i, trace, False, deadline)
                 for i, trace in enumerate(["spans", "memory"])]
    else:
        # set-up-only processes between the units, so set-up is sampled
        # across the whole run and not in one spell of the host's speed
        for i in range(n_units):
            units.append(run_unit(args.workload, args.seed, i, None, False, deadline))
            while len(setup_runs) < SETUP_RUNS * (i + 1) // n_units:
                setup_runs.append(run_unit(args.workload, args.seed, n_units + len(setup_runs),
                                           None, True, deadline))
    setups = [u["setup_s"] for u in units + setup_runs if "setup_s" in u]

    attempted = failed = 0
    for unit in units + setup_runs:
        attempted += unit["attempted"]
        failed += unit["failed"]
        for check in unit["checks"]:
            if not check["ok"]:
                print(f"check failed: {check['name']} ({check['detail']})")
        if unit.get("error"):
            print(f"unit error: {unit['error'].rstrip()}")
    mismatches = check_hashes(args.workload, args.seed, units)
    for mismatch in mismatches:
        print(f"check failed: artifact hashes differ across runs of one seed: {mismatch}")
    failed += len(mismatches)
    correct = failed == 0
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / max(attempted, 1):.4f}")

    metrics: dict = {}
    if correct:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.trace:
            timed, memory = units
            values = timed["per_layer"]
            for name, value in memory["per_layer"].items():
                if name.endswith(".peak_traced_mb"):
                    values[name] = value
            print(f"wall: {timed['wall_s']:.3f} s with spans, of which "
                  f"{values['trace.overhead_s']:.3f} s tracing overhead; "
                  f"{memory['wall_s']:.3f} s under tracemalloc")
        else:
            values, notes = end_to_end(units, setups)
            for note in notes:
                print(note)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer" if args.trace else "end_to_end"]}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
