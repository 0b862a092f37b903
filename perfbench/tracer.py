"""Span tracer for the traced benchmark run.

The tracer wraps fabricprune's public functions where their callers look
them up (module globals and class attributes), records one span per call
(name, start, end, parent, tracemalloc peak when tracking memory) in
memory, and derives the per-layer metrics from the spans after the unit has
run. Nothing in the package itself changes; an untraced run never imports
this module.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from collections import Counter

PACKAGE_MODULES = ("tensor", "fabric", "pruning", "noise", "data", "runner")

OPS = ("conv2d", "batch_norm", "relu6", "upsample_bilinear_x2", "linear",
       "softmax_cross_entropy", "add")
# (input resolution, stride) of every conv the paper-scale grid (32 px, six
# scales) can run; a 1x1 node has no coarser scale to stride into
CONV_TABLE = [(r, s) for r in (32, 16, 8, 4, 2, 1) for s in (1, 2) if (r, s) != (1, 2)]

# direct children of run_experiment's span, by the runner phase they belong to
RUNNER_PHASES = {
    "fabric.forward": "train", "tensor.softmax_cross_entropy.fwd": "train",
    "tensor.backward": "train", "tensor.sgd_step": "train", "data.augment": "train",
    "noise.classification_error": "eval", "fabric.predict": "eval",
    "pruning.apply_event": "prune",
    "runner.save_fabric": "artifacts", "runner.export_dot": "artifacts",
    "runner.save_split_manifest": "artifacts", "runner.save_noisy_labels": "artifacts",
}

MB = 1e6


class Tracer:
    """In-memory spans, garbage-collector pauses and, with track_memory,
    tracemalloc peaks per span (tracemalloc must already be tracing).

    tracemalloc slows every allocation, most of all in code that makes many
    small Python objects, so a unit either times spans or tracks memory.
    """

    def __init__(self, track_memory: bool):
        self.track_memory = track_memory
        self.spans: list[list] = []  # [name, start, end, parent, peak_bytes]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.overhead_s = 0.0  # time inside the wrappers outside the wrapped calls
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_started = 0.0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        if self.track_memory:
            if parent >= 0:
                peak = tracemalloc.get_traced_memory()[1]
                self.spans[parent][4] = max(self.spans[parent][4], peak)
            tracemalloc.reset_peak()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._open.pop()
        if not self.track_memory:
            return
        span[4] = max(span[4], tracemalloc.get_traced_memory()[1])
        if span[3] >= 0:
            parent = self.spans[span[3]]
            parent[4] = max(parent[4], span[4])

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(result)
            tracer.charge(entered, index)
            return result

        return traced

    def wrap_op(self, op: str, fn):
        """Time an op's forward call and, through its _backward slot, its backward."""
        tracer = self

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            name = f"tensor.{op}"
            if op == "conv2d":
                x, weight = args[0], args[1]
                stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
                batch, c_in, res, _ = x.data.shape
                out_res = (res - 1) // stride + 1
                positions = batch * out_res * out_res
                tracer.counts["conv2d.macs"] += weight.data.shape[0] * c_in * 9 * positions
                tracer.counts["conv2d.cols_bytes"] += c_in * 9 * positions * x.data.itemsize
                name = f"tensor.conv2d.r{res}.s{stride}"
            index = tracer.begin(name + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if out._backward is not None:
                out._backward = tracer._timed_backward(name + ".bwd", out._backward)
            tracer.charge(entered, index)
            return out

        return traced

    def _timed_backward(self, name: str, fn):
        def traced():
            entered = time.perf_counter()
            index = self.begin(name)
            try:
                fn()
            finally:
                self.end(index)
            self.charge(entered, index)

        return traced

    def charge(self, entered: float, index: int) -> None:
        """Add a wrapper's own time: from entry to now, minus the wrapped call."""
        span = self.spans[index]
        self.overhead_s += time.perf_counter() - entered - (span[2] - span[1])

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_started
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every binding of the traced functions in the package's modules."""
        modules = [package] + [getattr(package, m) for m in PACKAGE_MODULES]
        tensor, fabric, pruning, noise, data, runner = modules[1:]

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)

        for op in OPS[:-1]:
            original = getattr(tensor, op)
            rebind(original, self.wrap_op(op, original))
        tensor.Tensor.__add__ = self.wrap_op("add", tensor.Tensor.__add__)
        tensor.SGD.step = self.wrap("tensor.sgd_step", tensor.SGD.step)
        fabric.Fabric.forward = self.wrap("fabric.forward", fabric.Fabric.forward)
        fabric.Fabric.predict = self.wrap("fabric.predict", fabric.Fabric.predict)

        spans = {
            tensor.backward: "tensor.backward",
            pruning.apply_event: "pruning.apply_event",
            pruning.link_condition: "pruning.link_condition",
            noise.train_annotator: "noise.train_annotator",
            noise.classification_error: "noise.classification_error",
            fabric.clone_parameters: "noise.clone_parameters",
            noise.relabel_with_annotator: "noise.relabel_with_annotator",
            data.make_synthetic: "data.make_synthetic",
            data.augment: "data.augment",
            runner.run_experiment: "runner.run_experiment",
            runner.save_fabric: "runner.save_fabric",
            runner.export_dot: "runner.export_dot",
            runner.save_split_manifest: "runner.save_split_manifest",
            runner.save_noisy_labels: "runner.save_noisy_labels",
        }
        hooks = {
            pruning.apply_event: self._count_prune_report,
            noise.train_annotator: self._count_annotator,
        }
        for original, name in spans.items():
            rebind(original, self.wrap(name, original, hooks.get(original)))
        gc.callbacks.append(self._on_gc)

    def _count_prune_report(self, report) -> None:
        self.counts["prune.kills"] += len(report.killed_links)
        self.counts["prune.skips"] += len(report.skipped_links)
        self.counts["prune.weights_masked"] += report.masked_weights

    def _count_annotator(self, result) -> None:
        info = result[1]
        self.counts["annotator.epochs"] += len(info.error_curve) - 1
        self.counts["annotator.evaluations"] += len(info.error_curve)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, peak in self.spans:
                fh.write(json.dumps([name, start, end, parent, peak]) + "\n")

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        total: Counter = Counter()  # inclusive seconds per span name
        calls: Counter = Counter()
        child_s: Counter = Counter()  # seconds of direct children per span index
        peak: Counter = Counter()  # max traced bytes per span name
        runner: Counter = Counter()  # seconds per runner phase
        for name, start, end, parent, peak_bytes in self.spans:
            total[name] += end - start
            calls[name] += 1
            peak[name] = max(peak[name], peak_bytes)
            if parent >= 0:
                child_s[parent] += end - start
                if self.spans[parent][0] == "runner.run_experiment" and name in RUNNER_PHASES:
                    runner[RUNNER_PHASES[name]] += end - start
        self_s: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child_s[index]

        conv = [f"tensor.conv2d.r{r}.s{s}" for r, s in CONV_TABLE]
        metrics: dict[str, float] = {}
        for op in OPS:
            names = conv if op == "conv2d" else [f"tensor.{op}"]
            metrics[f"tensor.{op}.fwd_s"] = sum(total[n + ".fwd"] for n in names)
            metrics[f"tensor.{op}.bwd_s"] = sum(total[n + ".bwd"] for n in names)
            metrics[f"tensor.{op}.calls"] = sum(calls[n + ".fwd"] for n in names)
        for name in conv:
            metrics[name + ".fwd_s"] = total[name + ".fwd"]
            metrics[name + ".bwd_s"] = total[name + ".bwd"]
        metrics["tensor.conv2d.macs"] = self.counts["conv2d.macs"]
        metrics["tensor.conv2d.cols_mb"] = self.counts["conv2d.cols_bytes"] / MB
        metrics["tensor.backward.s"] = total["tensor.backward"]
        metrics["tensor.backward.self_s"] = self_s["tensor.backward"]
        metrics["tensor.backward.peak_traced_mb"] = peak["tensor.backward"] / MB
        metrics["tensor.sgd_step.s"] = total["tensor.sgd_step"]
        metrics["fabric.forward.s"] = total["fabric.forward"]
        metrics["fabric.forward.self_s"] = self_s["fabric.forward"]
        metrics["fabric.forward.peak_traced_mb"] = peak["fabric.forward"] / MB
        metrics["fabric.predict.s"] = total["fabric.predict"]
        metrics["fabric.predict.calls"] = calls["fabric.predict"]
        metrics["fabric.predict.peak_traced_mb"] = peak["fabric.predict"] / MB
        metrics["pruning.apply_event.s"] = total["pruning.apply_event"]
        metrics["pruning.apply_event.calls"] = calls["pruning.apply_event"]
        metrics["pruning.link_condition.calls"] = calls["pruning.link_condition"]
        attempts = self.counts["prune.kills"] + self.counts["prune.skips"]
        metrics["pruning.link_accept_ratio"] = (self.counts["prune.kills"] / attempts
                                                if attempts else 0.0)
        metrics["pruning.weights_masked"] = self.counts["prune.weights_masked"]
        metrics["noise.train_annotator.s"] = total["noise.train_annotator"]
        metrics["noise.annotator_epochs"] = self.counts["annotator.epochs"]
        metrics["noise.classification_error.s"] = total["noise.classification_error"]
        metrics["noise.clone_parameters.calls"] = calls["noise.clone_parameters"]
        metrics["noise.clone_parameters.s"] = total["noise.clone_parameters"]
        metrics["noise.relabel_with_annotator.s"] = total["noise.relabel_with_annotator"]
        evaluations = self.counts["annotator.evaluations"]
        metrics["noise.snapshots_per_epoch"] = (calls["noise.clone_parameters"] / evaluations
                                                if evaluations else 0.0)
        metrics["data.make_synthetic.s"] = total["data.make_synthetic"]
        metrics["data.augment.calls"] = calls["data.augment"]
        metrics["data.augment.s"] = total["data.augment"]
        metrics["runner.train_s"] = runner["train"]
        metrics["runner.eval_s"] = runner["eval"]
        metrics["runner.prune_s"] = runner["prune"]
        metrics["runner.artifacts_s"] = runner["artifacts"]
        metrics["runner.self_s"] = self_s["runner.run_experiment"]
        metrics["gc.collections.gen2"] = self.gc_gen2
        metrics["gc.pause_s"] = self.gc_pause_s
        metrics["trace.overhead_s"] = self.overhead_s
        return metrics
