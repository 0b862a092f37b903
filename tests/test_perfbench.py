"""The names perfbench's span tracer rebinds must stay where it looks them up,
and the hooks it runs on their results must still find what they read."""

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


def test_traced_run_splits_its_time_by_runner_phase(tmp_path):
    # a runner phase sums only the spans that are direct children of run_experiment's span
    metrics = traced(TRACED_RUN, str(tmp_path / "run"))
    for phase in ("train", "eval", "artifacts"):
        assert metrics[f"runner.{phase}_s"] > 0, phase
