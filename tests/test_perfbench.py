"""The names perfbench's span tracer rebinds must stay where it looks them up,
the hooks it runs on their results must still find what they read, its
workloads' set-up must still run against the package, and so must
paper-step's timed part, on a small fabric."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in a child process, so the tracer's rebinding cannot leak into other tests
TRACED_STEP = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import fabricprune
from tracer import Tracer

tracer = Tracer(track_memory=False)
tracer.install(fabricprune)
fabric = fabricprune.fabric.build_fabric(2, 2, 2, 2, 3)
images = np.random.default_rng(0).random((4, 3, 2, 2)).astype(np.float32)
logits = fabric.forward(images, mode="train")
loss = fabricprune.tensor.softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
fabricprune.tensor.backward(loss)
pruning = fabricprune.pruning
pruning.apply_event(fabric, pruning.PruneEvent(1, 1, 2), pruning.Criterion.MAGNITUDE)
print(json.dumps(tracer.per_layer()))
"""

TRACED_PREDICT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import fabricprune
from tracer import Tracer

tracer = Tracer(track_memory=False)
tracer.install(fabricprune)
fabric = fabricprune.fabric.build_fabric(2, 2, 2, 2, 3)
fabric.predict(np.random.default_rng(0).random((4, 3, 2, 2)).astype(np.float32))
print(json.dumps(tracer.per_layer()))
"""

TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import fabricprune
from tracer import Tracer

tracer = Tracer(track_memory=False)
tracer.install(fabricprune)
data = fabricprune.DataConfig(classes=3, n_per_class=10, resolution=4)
fabricprune.run_experiment(fabricprune.ExperimentConfig(
    layers=2, channels=2, input_resolution=4, epochs=1, batch_size=8, data=data,
    out_dir=sys.argv[3]))
print(json.dumps(tracer.per_layer()))
"""


# the benchmark's own set-up: a renamed name or field it uses fails here, not
# only in a benchmark run
BENCHMARK_SETUP = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import unit

fp = unit.import_package()
work = Path(sys.argv[3])
paper = unit.prepare_paper(fp, 0, work / "paper")
noise = unit.prepare_noise(fp, 0, work / "noise")
unit.noise_config(fp, 0, work / "run").check()
print(json.dumps({"train": paper["train"].images.shape[0],
                  "train_labels": paper["train"].labels.shape[0],
                  "held_out": paper["held_out"].shape[0],
                  "probe_labels": noise["probe"].labels.shape[0],
                  "out_dir": noise["config"].out_dir}))
"""


# paper-step's timed part on a 2-layer, 3-scale, 2-channel fabric at 4 px, its
# state built as prepare_paper builds it: a renamed name that the steps, the
# predict or the pruning checks read fails here, not only in a benchmark run
PAPER_STEP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import unit

fp = unit.import_package()
data = fp.data.make_synthetic(10, 5, 4, seed=0, difficulty="easy")
order = np.random.default_rng([0, 1]).permutation(len(data))
fabric = fp.fabric.build_fabric(2, 3, 2, 4, 10, seed=0)
state = {
    "fabric": fabric,
    "optimizer": fp.tensor.SGD(fabric.parameters(), fp.tensor.SgdConfig(0.1)),
    "train": data.subset(order[:unit.PAPER_TRAIN_IMAGES]),
    "held_out": data.images[order[unit.PAPER_TRAIN_IMAGES:][:unit.PAPER_PREDICT_IMAGES]],
}
result = unit.Unit()
unit.run_paper(fp, state, result)
print(json.dumps({"checks": result.checks, "passed_ops": result.passed_ops,
                  "timed_ops": unit.WORKLOADS["paper-step"][2] - 1}))
"""


def traced(script, *args):
    result = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"), str(ROOT / "src"), *args],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_traced_training_step_times_conv_forward_and_backward():
    metrics = traced(TRACED_STEP)
    for op in ("conv2d", "batch_norm", "relu6", "upsample_bilinear_x2"):
        assert metrics[f"tensor.{op}.calls"] > 0, op
        assert metrics[f"tensor.{op}.bwd_s"] > 0, op
    assert metrics["fabric.forward.s"] > 0 and metrics["tensor.backward.s"] > 0
    assert metrics["pruning.apply_event.calls"] == 1
    assert metrics["pruning.weights_masked"] > 0


def test_traced_predict_times_its_convs():
    # predict's folded forward must call conv2d through fabric's module global
    metrics = traced(TRACED_PREDICT)
    assert metrics["fabric.predict.calls"] >= 1
    assert metrics["tensor.conv2d.calls"] > 0


def test_traced_run_splits_its_time_by_runner_phase(tmp_path):
    # a runner phase sums only the spans that are direct children of run_experiment's span
    metrics = traced(TRACED_RUN, str(tmp_path / "run"))
    for phase in ("train", "eval", "artifacts"):
        assert metrics[f"runner.{phase}_s"] > 0, phase


def test_benchmark_setup_runs_against_this_checkout(tmp_path):
    shapes = traced(BENCHMARK_SETUP, str(tmp_path))
    assert shapes["train"] == shapes["train_labels"] == 32
    assert shapes["held_out"] == 16 and shapes["probe_labels"] == 192
    assert shapes["out_dir"] == str(tmp_path / "noise" / "run")


def test_paper_step_passes_every_check_on_a_small_fabric():
    result = traced(PAPER_STEP)
    failed = [check for check in result["checks"] if not check["ok"]]
    assert failed == [] and len(result["checks"]) >= 4
    assert result["passed_ops"] == result["timed_ops"]
