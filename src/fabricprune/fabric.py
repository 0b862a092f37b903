"""The 2D convolutional network fabric: a layer x scale grid of nodes.

Every node holds an activation tensor; activations flow along directed
links, each applying conv -> (optional resample) -> batch norm -> ReLU6.
A never-pruned stem link, the same block from the image's 3 channels,
feeds the input node at (0, 0) and a never-pruned fully connected head
reads the output node at (L-1, S-1), whose spatial resolution is 1x1.

Grid wiring: node (l+1, s) receives links from (l, s-1), (l, s) and
(l, s+1) where those exist; layers 0 and L-1 additionally carry
downward column links (l, s) -> (l, s+1) that spread information along
the scale axis. Down and column links use stride-2 convolution; up links
convolve at the source resolution and then upsample x2 bilinearly.
"""

from __future__ import annotations

import enum
import io
import json
import os
import zipfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import (
    BN_EPSILON,
    BatchNormState,
    Parameter,
    Tensor,
    backward,
    batch_norm,
    concat,
    conv2d,
    grad_enabled,
    linear,
    no_grad,
    relu6,
    softmax_cross_entropy,
    split,
    upsample_bilinear_x2,
)

NodeId = tuple[int, int]  # (layer, scale)

CHECKPOINT_VERSION = 2
# bytes of one predict slice's input-resolution activations, the largest a
# forward holds (the stem's output, or a scale-0 source's stride-1 conv)
PREDICT_ACTIVATION_BUDGET = 16 * 2**20


class FabricError(ValueError):
    """Inconsistent fabric construction or state."""


class TrainingDiverged(RuntimeError):
    """Loss, a parameter or a logit became non-finite; training is aborted naming the epoch."""


class Direction(enum.Enum):
    SAME = "same"
    DOWN = "down"
    UP = "up"
    COLUMN_DOWN = "column_down"

    @property
    def stride(self) -> int:
        return 2 if self in (Direction.DOWN, Direction.COLUMN_DOWN) else 1


@dataclass
class Link:
    """One directed edge of the grid and all of its parameters; the stem is
    the link with index -1 and no source, from the image.

    A grid link's conv weight and bias are views of its (source, stride)
    group's two arrays, its block in link order, so the forward's concat of
    a whole group is those arrays. They are written only in place (SGD, the
    masks, load_state) and never rebound.
    """

    index: int
    src: NodeId | None
    dst: NodeId
    direction: Direction
    conv_weight: Parameter  # (C, C_in, 3, 3); carries the prune mask
    conv_bias: Parameter  # (C,)
    bn_gamma: Parameter
    bn_beta: Parameter
    bn_state: BatchNormState
    alive: bool = True

    def parameters(self) -> list[Parameter]:
        return [self.conv_weight, self.conv_bias, self.bn_gamma, self.bn_beta]

    def unmasked_weight_count(self) -> int:
        if self.conv_weight.mask is None:
            return self.conv_weight.data.size
        return int(self.conv_weight.mask.sum())


@dataclass
class ParamBreakdown:
    stem: int
    links: int
    head: int

    @property
    def total(self) -> int:
        return self.stem + self.links + self.head


def link_param_count(c_in: int, channels: int) -> int:
    # conv c_in->C with bias, plus BN affine
    return c_in * channels * 9 + channels + 2 * channels


def head_param_count(channels: int, num_classes: int) -> int:
    return channels * num_classes + num_classes


def grid_link_count(layers: int, scales: int) -> int:
    """Alive links at construction: (L-1)(3S-2) between-layer + 2(S-1) column."""
    return (layers - 1) * (3 * scales - 2) + 2 * (scales - 1)


def param_breakdown(layers: int, scales: int, channels: int, num_classes: int,
                    alive_links: int | None = None) -> ParamBreakdown:
    """Parameter accounting for given dims; defaults to the full grid."""
    if alive_links is None:
        alive_links = grid_link_count(layers, scales)
    return ParamBreakdown(
        stem=link_param_count(3, channels),
        links=alive_links * link_param_count(channels, channels),
        head=head_param_count(channels, num_classes),
    )


class Fabric:
    """Grid of nodes and links plus stem and head, ready for forward passes."""

    def __init__(self, layers: int, scales: int, channels: int,
                 input_resolution: int, num_classes: int, dtype=np.float32):
        self.L = layers
        self.S = scales
        self.C = channels
        self.input_resolution = input_resolution
        self.num_classes = num_classes
        self.dtype = np.dtype(dtype)

        self.stem: Link
        self.head_weight: Parameter
        self.head_bias: Parameter
        self.links: list[Link] = []

    @property
    def input_node(self) -> NodeId:
        return (0, 0)

    @property
    def output_node(self) -> NodeId:
        return (self.L - 1, self.S - 1)

    def nodes(self) -> list[NodeId]:
        return [(l, s) for l in range(self.L) for s in range(self.S)]

    def alive_links(self) -> list[Link]:
        return [l for l in self.links if l.alive]

    def head_parameters(self) -> list[Parameter]:
        return [self.head_weight, self.head_bias]

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of the stem, all alive links, and the head."""
        params = []
        for link in [self.stem, *self.alive_links()]:
            params.extend(link.parameters())
        params.extend(self.head_parameters())
        return params

    def _apply_links(self, activation: Tensor | np.ndarray, links: list[Link], mode: str,
                     fold: bool):
        """Yield (destination, contribution) for one source's alive out-links.

        Links of one stride share one conv over their stacked weights (the
        group's own arrays while none of its links is pruned); each link then
        upsamples (UP only), batch-normalizes and clips its slice.
        An up link's batch norm gets the slice as its source, so its node
        holds the slice at source resolution instead of the x4 larger xhat,
        and rebuilds xhat in backward. With fold, each link's eval-mode
        batch norm is folded into its slice of the stacked weights and
        biases, and the slice is clipped in place.
        """
        for stride in (1, 2):
            group = [link for link in links if link.direction.stride == stride]
            if not group:
                continue
            if fold:
                folded = [_fold_batch_norm(link) for link in group]
                weight = Tensor(np.concatenate([w for w, _ in folded]))
                bias = Tensor(np.concatenate([b for _, b in folded]))
            else:
                weight = concat([link.conv_weight for link in group])
                bias = concat([link.conv_bias for link in group])
            convs = split(conv2d(activation, weight, bias, stride=stride),
                          [self.C] * len(group), axis=1)
            for link, h in zip(group, convs):
                source = None
                if link.direction is Direction.UP:
                    source, h = h, upsample_bilinear_x2(h)
                if fold:
                    np.clip(h.data, 0.0, 6.0, out=h.data)
                else:
                    h = relu6(batch_norm(h, link.bn_gamma, link.bn_beta, link.bn_state, mode,
                                         source=source))
                yield link.dst, h

    def forward(self, batch: Tensor | np.ndarray, mode: str = "train") -> Tensor:
        """Run a (B, 3, R, R) batch through the fabric, returning logits.

        The pass is source-major, and a node's activation is dropped once its
        out-links have run. In eval mode under no_grad, every batch norm is
        folded into the conv before it, on every call (nothing is cached, so
        a parameter update is always seen), and each node's sum is built in
        place. With grad recording on, or in train mode, each op runs on its
        own and records its graph. An array batch is a constant, for which the
        stem's conv builds no input grad; a Tensor batch gets its grad.
        """
        if not isinstance(batch, Tensor):
            batch = np.asarray(batch, dtype=self.dtype)
        B, C_in, H, W = batch.shape
        if C_in != 3 or H != self.input_resolution or W != self.input_resolution:
            raise FabricError(
                f"expected (B, 3, {self.input_resolution}, {self.input_resolution}) "
                f"input, got {batch.shape}")

        fold = mode == "eval" and not grad_enabled()
        sums: dict[NodeId, Tensor] = dict(self._apply_links(batch, [self.stem], mode, fold))
        out_links: dict[NodeId, list[Link]] = {}
        for link in self.alive_links():
            out_links.setdefault(link.src, []).append(link)

        # (layer asc, scale asc) is a topological order: grid links go to the
        # next layer and column links to the next scale within a layer. So a
        # node's sum is complete when the walk reaches it, and each node's
        # contributions arrive in source order, which is link index order.
        # The output node comes last and feeds no link.
        for node in self.nodes()[:-1]:
            activation = sums.pop(node, None)
            if activation is None:
                continue
            for dst, contribution in self._apply_links(activation, out_links.get(node, []),
                                                       mode, fold):
                total = sums.get(dst)
                if total is None:
                    sums[dst] = contribution
                elif fold:
                    total.data += contribution.data
                else:
                    sums[dst] = total + contribution

        out = sums.get(self.output_node)
        if out is None:
            raise FabricError("output node received no activation; "
                              "input->output connectivity is broken")
        flat = out.reshape((B, self.C))
        return linear(flat, self.head_weight, self.head_bias)

    def loss_backward(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Train-mode forward, cross entropy and backward over one batch; returns the loss.

        Gradients accumulate, so zeroing them is the caller's job. A non-finite
        loss raises FloatingPointError before backward runs.
        """
        loss = softmax_cross_entropy(self.forward(images, mode="train"), labels)
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss {value}")
        backward(loss)
        return value

    def predict(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Argmax class indices in eval mode, without recording gradients.

        Images go through in slices of at most batch_size, fewer when a
        slice's input-resolution activations (C x R x R values a sample)
        would exceed PREDICT_ACTIVATION_BUDGET bytes; a sample's logits do
        not depend on the slicing. Raises FabricError when a slice yields a
        non-finite logit, which has no argmax to report, and ValueError when
        batch_size is below 1. No images give an empty intp array.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        per_sample = self.C * self.input_resolution ** 2 * self.dtype.itemsize
        step = max(1, min(batch_size, PREDICT_ACTIVATION_BUDGET // per_sample))
        preds = [np.empty(0, dtype=np.intp)]  # what no images give
        with no_grad():
            for start in range(0, images.shape[0], step):
                logits = self.forward(images[start : start + step], mode="eval")
                if not np.isfinite(logits.data).all():
                    raise FabricError(f"non-finite logits in the batch of images "
                                      f"{start}..{start + logits.data.shape[0] - 1}")
                preds.append(logits.data.argmax(axis=1))
        return np.concatenate(preds)

    def param_count(self) -> ParamBreakdown:
        return param_breakdown(self.L, self.S, self.C, self.num_classes,
                               alive_links=len(self.alive_links()))

    def live_param_count(self) -> int:
        """Surviving parameters: unmasked conv weights plus everything unpruned."""
        total = head_param_count(self.C, self.num_classes)
        for link in [self.stem, *self.alive_links()]:
            total += link.unmasked_weight_count() + self.C + 2 * self.C
        return total

    def state(self) -> dict[str, np.ndarray]:
        """Every array of the fabric by checkpoint name, in checkpoint order.

        Parameters, running statistics and masks are the live arrays; a mask
        appears only for a link that has one. "alive" is a new bool array of
        the links' alive flags.
        """
        state = {}
        for key, link in [("stem", self.stem), *((f"link{l.index}", l) for l in self.links)]:
            state[f"{key}_conv"] = link.conv_weight.data
            state[f"{key}_bias"] = link.conv_bias.data
            state[f"{key}_gamma"] = link.bn_gamma.data
            state[f"{key}_beta"] = link.bn_beta.data
            state[f"{key}_running_mean"] = link.bn_state.running_mean
            state[f"{key}_running_var"] = link.bn_state.running_var
            if link.conv_weight.mask is not None:
                state[f"{key}_mask"] = link.conv_weight.mask
        state["head_weight"] = self.head_weight.data
        state["head_bias"] = self.head_bias.data
        state["alive"] = np.array([link.alive for link in self.links])
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy a map shaped like state() into this fabric.

        Every entry but the masks is required; an absent link mask means the
        link is unmasked. Each array must have the shape and dtype of the
        entry it replaces and be finite, a mask must hold only 0 and 1, and a
        masked link's conv weight must be zero wherever its mask is, as a
        Parameter keeps it. Everything is checked before anything is copied,
        and a FabricError names the first offending key.
        """
        masks = {f"link{link.index}_mask": link.conv_weight for link in self.links}
        required = {key: live for key, live in self.state().items() if key not in masks}
        # a mask has the shape and dtype of its weight
        expected = {**required, **{key: w.data for key, w in masks.items() if key in state}}
        unknown = sorted(state.keys() - expected.keys())
        if unknown:
            raise FabricError(f"state entry {unknown[0]!r} does not belong to this fabric")
        for key, live in expected.items():
            if key not in state:
                raise FabricError(f"state is missing {key!r}")
            value = state[key]
            if value.shape != live.shape or value.dtype != live.dtype:
                raise FabricError(f"state entry {key!r} is {value.dtype}{list(value.shape)}, "
                                  f"expected {live.dtype}{list(live.shape)}")
            if not np.isfinite(value).all():
                raise FabricError(f"state entry {key!r} has a non-finite entry")
        for link in self.links:
            mask = state.get(f"link{link.index}_mask")
            if mask is None:
                continue
            if not ((mask == 0) | (mask == 1)).all():
                raise FabricError(f"state entry 'link{link.index}_mask' has an entry "
                                  f"other than 0 or 1")
            if (state[f"link{link.index}_conv"][mask == 0] != 0).any():
                raise FabricError(f"state entry 'link{link.index}_conv' is non-zero where "
                                  f"its mask is 0")
        for key, live in required.items():
            live[...] = state[key]
        for key, weight in masks.items():
            weight.mask = state[key].copy() if key in state else None
        for link, alive in zip(self.links, state["alive"]):
            link.alive = bool(alive)


def _fold_batch_norm(link: Link) -> tuple[np.ndarray, np.ndarray]:
    """New conv weight and bias arrays that give the link's eval-mode
    batch_norm(conv(x)): w * gamma/sigma and (b - mu) * gamma/sigma + beta,
    sigma the running std."""
    state = link.bn_state
    scale = link.bn_gamma.data / np.sqrt(state.running_var + BN_EPSILON)
    return (link.conv_weight.data * scale[:, None, None, None],
            (link.conv_bias.data - state.running_mean) * scale + link.bn_beta.data)


def train_batches(order, batch_size: int) -> list:
    """The consecutive batch_size slices of order, less any slice of one
    item: train-mode batch norm needs at least 2 samples."""
    batches = [order[start : start + batch_size]
               for start in range(0, len(order), batch_size)]
    return [batch for batch in batches if len(batch) >= 2]


def _link_direction(src: NodeId, dst: NodeId) -> Direction:
    if src[0] == dst[0]:
        return Direction.COLUMN_DOWN
    if dst[1] == src[1] + 1:
        return Direction.DOWN
    if dst[1] == src[1] - 1:
        return Direction.UP
    return Direction.SAME


def _grid_edges(layers: int, scales: int) -> list[tuple[NodeId, NodeId]]:
    edges: list[tuple[NodeId, NodeId]] = []
    for l in range(layers - 1):
        for s in range(scales):
            for ds in (-1, 0, 1):
                src_scale = s + ds
                if 0 <= src_scale < scales:
                    edges.append(((l, src_scale), (l + 1, s)))
    for l in (0, layers - 1):
        for s in range(scales - 1):
            edges.append(((l, s), (l, s + 1)))
    return edges


def build_fabric(layers: int, scales: int, channels: int, input_resolution: int,
                 num_classes: int, seed: int = 0, dtype=np.float32) -> Fabric:
    """Construct a fully alive fabric with seeded He-normal initialization."""
    if layers < 2 or scales < 2:
        raise FabricError(f"need at least 2 layers and 2 scales, got L={layers}, S={scales}")
    if input_resolution != 2 ** (scales - 1):
        raise FabricError(
            f"input resolution {input_resolution} inconsistent with {scales} scales; "
            f"expected {2 ** (scales - 1)} so the smallest scale is 1x1")

    fabric = Fabric(layers, scales, channels, input_resolution, num_classes, dtype)
    rng = np.random.default_rng(seed)
    dt = fabric.dtype

    def new_link(index, src, dst, direction, weight, bias):
        # He-normal conv weights, drawn from rng in construction order into
        # the link's block of its group's arrays
        std = np.sqrt(2.0 / (weight.shape[1] * 9))
        weight[...] = (rng.standard_normal(weight.shape) * std).astype(dt)
        return Link(
            index=index,
            src=src,
            dst=dst,
            direction=direction,
            conv_weight=Parameter(weight),
            conv_bias=Parameter(bias),
            bn_gamma=Parameter(np.ones(channels, dtype=dt)),
            bn_beta=Parameter(np.zeros(channels, dtype=dt)),
            bn_state=BatchNormState.create(channels, dt),
        )

    fabric.stem = new_link(-1, None, fabric.input_node, Direction.SAME,
                           np.empty((channels, 3, 3, 3), dt), np.zeros(channels, dt))
    edges = [(src, dst, _link_direction(src, dst)) for src, dst in _grid_edges(layers, scales)]
    sizes = Counter((src, direction.stride) for src, _, direction in edges)
    weights = {key: np.empty((n * channels, channels, 3, 3), dt) for key, n in sizes.items()}
    biases = {key: np.zeros(n * channels, dt) for key, n in sizes.items()}
    filled: Counter = Counter()
    for index, (src, dst, direction) in enumerate(edges):
        key = (src, direction.stride)
        rows = slice(filled[key] * channels, (filled[key] + 1) * channels)
        filled[key] += 1
        fabric.links.append(new_link(index, src, dst, direction,
                                     weights[key][rows], biases[key][rows]))

    head_std = np.sqrt(1.0 / channels)
    fabric.head_weight = Parameter(
        (rng.standard_normal((num_classes, channels)) * head_std).astype(dt))
    fabric.head_bias = Parameter(np.zeros(num_classes, dtype=dt))
    return fabric


def longest_linear_path(fabric: Fabric) -> int:
    """Longest input->output chain, in links, over the alive graph.

    Linear paths are scale-monotone: a chain network processes its input at
    ever coarser resolution, so up links never appear in one. On the full
    grid this equals (L-1) + (S-1).
    """
    # in (layer, scale) order of sources, every in-link of a node comes before
    # its out-links, so a source's distance is final when its out-links run
    dist: dict[NodeId, int] = {fabric.input_node: 0}
    for link in sorted(fabric.alive_links(), key=lambda l: l.src):
        if link.direction is not Direction.UP and link.src in dist:
            dist[link.dst] = max(dist.get(link.dst, 0), dist[link.src] + 1)
    if fabric.output_node not in dist:
        raise FabricError("no scale-monotone input->output path is alive")
    return dist[fabric.output_node]


def export_dot(fabric: Fabric, include_pruned: bool = False) -> str:
    """Render the grid as a DOT digraph; pruned links dashed or omitted."""
    buf = io.StringIO()
    buf.write("digraph fabric {\n")
    buf.write("  rankdir=LR;\n")
    buf.write("  node [shape=circle, fontsize=10];\n")
    for l, s in fabric.nodes():
        attrs = f'label="({l},{s})"'
        if (l, s) == fabric.input_node:
            attrs += ", style=filled, fillcolor=lightblue"
        elif (l, s) == fabric.output_node:
            attrs += ", style=filled, fillcolor=lightgreen"
        buf.write(f"  n{l}_{s} [{attrs}];\n")
    for link in fabric.links:
        if not link.alive and not include_pruned:
            continue
        style = "" if link.alive else ' [style=dashed, color=gray]'
        (l0, s0), (l1, s1) = link.src, link.dst
        buf.write(f"  n{l0}_{s0} -> n{l1}_{s1}{style};\n")
    buf.write("}\n")
    return buf.getvalue()


def save_fabric(fabric: Fabric, path) -> None:
    """Write a lossless, versioned checkpoint (npz container) atomically.

    The archive goes to a temporary file next to `path` that replaces it only
    once complete, so an interrupted save never leaves a truncated checkpoint.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "layers": fabric.L,
        "scales": fabric.S,
        "channels": fabric.C,
        "input_resolution": fabric.input_resolution,
        "num_classes": fabric.num_classes,
        "dtype": fabric.dtype.name,
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)), **fabric.state())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_fabric(path) -> Fabric:
    """Reconstruct a fabric from a checkpoint written by save_fabric: its
    members are the fabric's state() and its meta builds the fabric.

    Raises FabricError on a file that is not an npz archive or is corrupt,
    meta that is not an object, an unsupported version, a missing meta key,
    a dimension that is not a positive int or an unknown dtype, and on every
    state that load_state refuses. A missing path or a directory raises its
    OSError.
    """
    if Path(path).is_file() and not zipfile.is_zipfile(path):
        raise FabricError(f"{path} is not a readable checkpoint: not an npz archive")
    try:
        with np.load(path) as archive:
            state = {name: archive[name] for name in archive.files}
        meta = json.loads(str(state.pop("__meta__")))
    except (zipfile.BadZipFile, NotImplementedError, EOFError, KeyError, ValueError) as exc:
        raise FabricError(f"{path} is not a readable checkpoint: {exc!r}") from exc
    if not isinstance(meta, dict):
        raise FabricError(f"checkpoint meta must be an object, got {type(meta).__name__}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise FabricError(f"unsupported checkpoint version {meta.get('version')}")
    dims = ("layers", "scales", "channels", "input_resolution", "num_classes")
    for key in (*dims, "dtype"):
        if key not in meta:
            raise FabricError(f"checkpoint meta is missing {key!r}")
    for key in dims:
        if type(meta[key]) is not int or meta[key] < 1:
            raise FabricError(f"checkpoint meta {key!r} must be a positive int, "
                              f"got {meta[key]!r}")
    try:
        dtype = np.dtype(meta["dtype"])
    except TypeError as exc:
        raise FabricError(f"checkpoint meta 'dtype' {meta['dtype']!r} is not a dtype") from exc
    fabric = build_fabric(*(meta[key] for key in dims), dtype=dtype)
    fabric.load_state(state)
    return fabric


def clone_parameters(fabric: Fabric) -> dict[str, np.ndarray]:
    """In-memory snapshot: a copy of every entry of the fabric's state()."""
    return {key: value.copy() for key, value in fabric.state().items()}
