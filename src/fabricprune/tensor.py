"""Dense tensor math with reverse-mode differentiation.

Covers exactly the operator set a convolutional network fabric needs:
3x3 convolution (stride 1 or 2, padding 1), x2 bilinear upsampling,
batch normalization, ReLU6, an affine head, and softmax cross entropy.
Arrays are numpy, float32 by default; float64 is supported throughout
for high-precision gradient checking.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, count, product
from operator import attrgetter

import numpy as np

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.1
# bytes of columns a conv2d pass builds at once: one core's L2 cache on a
# desk machine, so they are read back while still cached, and well under
# glibc's 32 MiB dynamic mmap ceiling, so buffers are reused from the heap
CONV_COLUMN_BUDGET = 2 * 2**20


class ShapeError(ValueError):
    """Structural mismatch between tensor shapes."""


class UsageError(RuntimeError):
    """Operation called outside its contract (e.g. backward before forward)."""


_grad_enabled = True
_creation = count()  # GradNode.seq: nodes in the order they were made


@contextmanager
def no_grad():
    """Disable graph recording, e.g. for evaluation passes."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether ops record a graph: False inside no_grad."""
    return _grad_enabled


class GradNode:
    """A tensor's place in the graph, apart from its value.

    It holds the grad, the parents' nodes and a zero-argument backward that
    pushes the grad into theirs. An edge never references a parent's value:
    each op's closure saves only the arrays its backward reads and is bound
    to its output's node, never the output tensor, so an intermediate value
    dies with the last Python reference to its tensor. A Parameter's node
    also carries its mask. seq numbers the nodes in creation order, which
    backward() runs them against.
    """

    __slots__ = ("grad", "dtype", "parents", "backward", "mask", "seq")

    def __init__(self, dtype):
        self.seq = next(_creation)
        self.grad = None
        self.dtype = dtype
        self.parents = ()
        self.backward = None
        self.mask = None


class Tensor:
    """A dense numpy value and its graph node.

    Ops pass their parents and a backward closure to the constructor. While
    grad is enabled it records the parents' nodes and binds the closure to
    the new node, whose grad the closure reads; under no_grad it records
    nothing.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data)
        self._node = GradNode(self.data.dtype)
        if _grad_enabled:
            self._node.parents = tuple(p._node for p in parents)
            if backward_fn is not None:
                self._node.backward = partial(backward_fn, self._node)

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def _backward(self):
        """The node's backward closure; a span tracer may swap in a wrapper."""
        return self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.data.shape != other.data.shape:
            raise ShapeError(f"add: {self.data.shape} vs {other.data.shape}")
        a, b = self._node, other._node

        def backward(node):
            _accumulate(a, node.grad)
            _accumulate(b, node.grad)

        return Tensor(self.data + other.data, (self, other), backward)

    def reshape(self, shape) -> "Tensor":
        parent, in_shape = self._node, self.data.shape

        def backward(node):
            _accumulate(parent, node.grad.reshape(in_shape))

        return Tensor(self.data.reshape(shape), (self,), backward)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A leaf tensor the optimizer updates, with an optional permanent binary mask.

    Masked positions of the value are kept exactly zero: the mask is
    re-applied whenever it is set and after every optimizer step, and
    backward() zeroes the corresponding gradient entries.

    A grad array exists only from the backward() that reaches the parameter
    to the next zero_grad(): construction and zero_grad() hold none, so
    backward takes an op's fresh grad array as it is instead of adding it
    into zeros. While none is held, .grad reads as a read-only zero view of
    the value's shape, so a write into it raises instead of being lost.
    """

    __slots__ = ()

    @Tensor.grad.getter
    def grad(self):
        g = self._node.grad
        if g is None:
            return np.broadcast_to(np.zeros((), self.data.dtype), self.data.shape)
        return g

    @property
    def mask(self):
        return self._node.mask

    @mask.setter
    def mask(self, value):
        self._node.mask = value

    def set_mask(self, mask: np.ndarray) -> None:
        if mask.shape != self.data.shape:
            raise ShapeError(f"mask shape {mask.shape} vs value {self.data.shape}")
        self.mask = mask.astype(self.data.dtype)
        self.apply_mask()

    def apply_mask(self) -> None:
        if self.mask is not None:
            self.data *= self.mask

    def zero_grad(self) -> None:
        self._node.grad = None


def _accumulate(node: GradNode, g: np.ndarray) -> None:
    if node.grad is None:
        # C order whatever g's layout, so a transposed view never leaks out
        node.grad = g.astype(node.dtype, order="C", copy=True)
    else:
        node.grad += g


def _hand_off(node: GradNode, g: np.ndarray) -> None:
    """_accumulate for a grad array the caller has just allocated and holds
    no other reference to: a node without a grad takes it as is when it is
    C-contiguous and of the node's dtype, so it is not copied. A view of
    another node's grad or of a forward value must go through _accumulate."""
    if node.grad is None and g.flags.c_contiguous and g.dtype == node.dtype:
        node.grad = g
    else:
        _accumulate(node, g)


def _reachable(root: GradNode) -> list[GradNode]:
    """Every node the root reaches through parents, root included, oldest
    first. A function of its own, so its walk's id set is freed before
    backward() allocates any grad."""
    nodes, seen, stack = [], {id(root)}, [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    nodes.sort(key=attrgetter("seq"))
    return nodes


def backward(loss: Tensor) -> None:
    """Populate grads of every parameter reachable from a scalar loss node.

    The reachable nodes run newest first. An op makes its output's node
    after its parents', so each node runs once all of its consumers have,
    and the pass retraces the forward backwards: an input grad is consumed
    soon after it is complete, instead of waiting on a depth-first walk
    down another branch. A node that receives at most two grads (every
    node of a fabric) gets the same bits in any order, since a + b is b + a.
    Each node drops its closure and parents once it has run, so the graph is
    freed during the pass and a loss can be backpropagated only once.

    Ops read their saved arrays here. A fabric group conv's saved weights
    and biases are its links' own parameter arrays (see concat), so link
    conv weights and biases are written only in place, and only between
    backward() and the next forward.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if not root.parents:
        raise UsageError("no graph to backpropagate: built under no_grad, a leaf, or already used")

    nodes = _reachable(root)
    root.grad = np.ones_like(loss.data)
    while nodes:
        node = nodes.pop()
        if node.backward is not None:
            node.backward()
        node.backward = None
        node.parents = ()
        # All consumers have run, so the grad is final. Masked weights never
        # move: zeroing their entries hides any pull on them from .grad users.
        if node.mask is not None:
            node.grad *= node.mask


def _im2col(x: np.ndarray, stride: int, Ho: int, Wo: int) -> np.ndarray:
    """Zero-pad (B,Cin,H,W) by 1 and gather its 3x3 windows as
    (B, Cin*9, Ho*Wo) columns, each sample's block contiguous.

    Each channel is laid out flat with W+1 zeros at both ends, so tap
    (i, j) at output (y, x) reads flat position i*W + j + stride*(y*W + x):
    one strided view holds every tap, and one copy fills the columns. Past
    the top and bottom rows it reads the end zeros; a left tap (j = 0) at
    x = 0 and a right tap at input column W wrap to the neighbouring row
    instead, and those columns are zeroed afterwards.
    """
    B, Cin, H, W = x.shape
    flat = np.zeros((B, Cin, H * W + 2 * (W + 1)), dtype=x.dtype)
    flat[:, :, W + 1 : W + 1 + H * W].reshape(B, Cin, H, W)[...] = x
    step = x.itemsize
    # unlike as_strided, the constructor checks that the view stays inside flat
    taps = np.ndarray((B, Cin, 3, 3, Ho, Wo), x.dtype, flat,
                      strides=(*flat.strides[:2], W * step, step, stride * W * step, stride * step))
    cols = np.empty((B, Cin * 9, Ho * Wo), dtype=x.dtype)
    windows = cols.reshape(B, Cin, 3, 3, Ho, Wo)
    np.copyto(windows, taps)
    windows[:, :, :, 0, :, 0] = 0
    if (W - 1) % stride == 0:  # the last output column's right tap is past the edge
        windows[:, :, :, 2, :, Wo - 1] = 0
    return cols


@lru_cache(maxsize=2)
def _parity_taps(stride: int):
    """Per input parity (p, q) of a 3x3 conv: the run of output-grad shifts
    its taps read, and the run in `taps` of those taps (3*row + column).
    Tap i of a kernel row reads input row stride*y + i - 1: row y - d of row
    parity p = (i - 1) % stride, d = (p - i + 1) // stride. The shifts are
    ordered so that each parity's are one run."""
    shifts = (tuple((dy, dx) for dy in (1, 0, -1) for dx in (1, 0, -1)) if stride == 1
              else ((0, 1), (0, 0), (1, 0), (1, 1)))
    parity = [(i - 1) % stride for i in range(3)]
    shift = [(parity[i] - i + 1) // stride for i in range(3)]
    taps, plan = [], []
    for p, q in product(range(stride), repeat=2):
        slabs, run = zip(*sorted((shifts.index((shift[i], shift[j])), 3 * i + j)
                                 for i, j in product(range(3), repeat=2)
                                 if (parity[i], parity[j]) == (p, q)))
        plan.append((p, q, slice(slabs[0], slabs[-1] + 1), slice(len(taps), len(taps) + len(run))))
        taps += run
    return shifts, tuple(taps), tuple(plan)  # cached: shared by every call


def _shifted_copies(g: np.ndarray, shifts) -> np.ndarray:
    """A (b,C,H,W) grad shifted by each (dy, dx), zero past the edges, as
    rows (shift, c) by columns (y, x, b): g[b, c, y + dy, x + dx]. Samples
    are the fastest axis.

    g is copied once into flat (C, (y, x, b)) rows with (W+1)*b zeros at
    both ends, where a shift is an offset of (dy*W + dx)*b: each shift's
    copy is one run of H*W*b values a channel. A dx = 1 shift at x = W-1
    and a dx = -1 shift at x = 0 wrap to the neighbouring row, and those
    columns are zeroed afterwards.
    """
    b, C, H, W = g.shape
    n, pad = H * W * b, (W + 1) * b
    flat = np.zeros((C, n + 2 * pad), dtype=g.dtype)
    flat[:, pad : pad + n].reshape(C, H, W, b)[...] = g.transpose(1, 2, 3, 0)
    copies = np.empty((len(shifts), C, n), dtype=g.dtype)
    grid = copies.reshape(len(shifts), C, H, W, b)
    for k, (dy, dx) in enumerate(shifts):
        start = pad + (dy * W + dx) * b
        copies[k] = flat[:, start : start + n]
        if dx:
            grid[k, :, :, W - 1 if dx > 0 else 0] = 0
    return copies.reshape(len(shifts) * C, n)


def _slices(batch: int, sample_bytes: int) -> list[slice]:
    """Consecutive slices of the batch, as many samples each as fit
    CONV_COLUMN_BUDGET at sample_bytes of columns a sample, and at least one."""
    step = max(1, CONV_COLUMN_BUDGET // sample_bytes)
    return [slice(start, min(start + step, batch)) for start in range(0, batch, step)]


def conv2d(x: Tensor | np.ndarray, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """3x3 convolution with padding 1. Input (B,Cin,H,W) -> (B,Cout,H',W').

    Each pass builds columns for b consecutive samples at a time, within
    CONV_COLUMN_BUDGET bytes (2 MiB, one core's L2 cache; one sample when a
    sample alone is over it), so no buffer grows with the batch. The forward
    pass runs one GEMM per sample on its (Cin*9, H'*W') window columns into
    the C-contiguous output, so its values do not depend on the slicing.
    Backward builds no input columns: each tap reads one input parity (one
    at stride 1, four at stride 2) at the output grad shifted by at most a
    row and a column. A slice's shifted grad copies, (9 or 4)*Cout rows by
    b*H'*W' columns, give both grads: the weight grad is the copies times
    each parity, summed over the slices, and each parity's input grad is
    its taps' kernel blocks times the copies, written into its positions of
    the C-contiguous input grad. The recorded node keeps no column buffer:
    backward reads the saved input and weight arrays, so neither may be
    changed in place between the forward call and backward().

    An x that is not a Tensor, such as a batch of images, is a constant: the
    node has no parent for it, and backward builds no input grad, only the
    weight and bias grads.
    """
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    constant = not isinstance(x, Tensor)
    x_data = np.asarray(x) if constant else x.data
    B, Cin, H, W = x_data.shape
    Cout, Cin_w, kh, kw = weight.data.shape
    if (kh, kw) != (3, 3):
        raise ShapeError(f"kernel must be 3x3, got {kh}x{kw}")
    if Cin != Cin_w:
        raise ShapeError(f"input has {Cin} channels, kernel expects {Cin_w}")

    # padding 1: stride 1 keeps the extents, stride 2 gives ceil(n/2)
    Ho, Wo = (H - 1) // stride + 1, (W - 1) // stride + 1
    w_data = weight.data
    wflat = w_data.reshape(Cout, Cin * 9)
    out_data = np.empty((B, Cout, Ho, Wo), dtype=np.result_type(w_data, x_data))
    for s in _slices(B, Cin * 9 * Ho * Wo * x_data.itemsize):
        # one GEMM per sample, written straight into the B-major output; each
        # sample's columns have the same layout whatever the slicing, which
        # keeps BLAS's matrix-vector kernels from rounding differently
        np.matmul(wflat, _im2col(x_data[s], stride, Ho, Wo),
                  out=out_data[s].reshape(s.stop - s.start, Cout, Ho * Wo))
    out_data += bias.data[None, :, None, None]
    x_node, w_node, b_node = None if constant else x._node, weight._node, bias._node

    def backward(node):
        _hand_off(b_node, node.grad.sum(axis=(0, 2, 3)))
        shifts, taps, plan = _parity_taps(stride)
        # the taps' (Cin, Cout) kernel blocks side by side, and their weight
        # grads stacked as rows (tap, co), summed over the slices
        w_taps = w_data.reshape(Cout, Cin, 9)[:, :, taps].transpose(1, 2, 0).reshape(Cin, -1)
        dw = np.zeros((9 * Cout, Cin), dtype=node.grad.dtype)
        fresh = x_node is not None and x_node.grad is None
        if fresh:
            x_node.grad = np.empty(x_data.shape, dtype=x_node.dtype)
        for s in _slices(B, len(shifts) * Cout * Ho * Wo * node.grad.itemsize):
            copies = _shifted_copies(node.grad[s], shifts)
            dx = None
            for p, q, slabs, run in plan:
                x_par = x_data[s, :, p::stride, q::stride].transpose(1, 2, 3, 0)
                Hp, Wp = x_par.shape[1:3]
                if (Hp, Wp) != (Ho, Wo):  # an odd extent at stride 2
                    x_par = np.pad(x_par, ((0, 0), (0, Ho - Hp), (0, Wo - Wp), (0, 0)))
                g_par = copies[slabs.start * Cout : slabs.stop * Cout]
                rows = slice(run.start * Cout, run.stop * Cout)
                dw[rows] += g_par @ x_par.reshape(Cin, -1).T
                if x_node is None:
                    continue
                dx = (w_taps[:, rows] @ g_par).reshape(Cin, Ho, Wo, -1)[:, :Hp, :Wp]
                target = x_node.grad[s, :, p::stride, q::stride]
                if fresh:
                    target[...] = dx.transpose(3, 0, 1, 2)
                else:
                    target += dx.transpose(3, 0, 1, 2)
            del copies, g_par, x_par, dx  # before the next slice's
        dw = dw.reshape(9, Cout, Cin)[np.argsort(taps)]  # rows back in kernel tap order
        _hand_off(w_node, np.ascontiguousarray(dw.transpose(1, 2, 0)).reshape(w_data.shape))

    return Tensor(out_data, (weight, bias) if constant else (x, weight, bias), backward)


def _blocks(extents, axis: int) -> list[tuple[slice, ...]]:
    """Index tuples of consecutive blocks with the given extents along axis."""
    return [(slice(None),) * axis + (slice(stop - n, stop),)
            for n, stop in zip(extents, accumulate(extents))]


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along an existing axis; a single tensor is returned as is.

    When the inputs' values are views that tile the array owning their
    memory, block after block along axis in order, the output's value is
    that array and nothing is copied; otherwise it is a new array. A fabric
    stores each (source, stride) group's link conv weights and biases so,
    and its group conv saves the parameters' own memory instead of a
    stacked copy. The output then shares memory with its inputs, so the
    inputs are written only in place (an optimizer step, a mask, a state
    load) and never between this call and backward().
    """
    if len(tensors) == 1:
        return tensors[0]
    blocks = _blocks([t.data.shape[axis] for t in tensors], axis)
    parents = [t._node for t in tensors]
    whole = tensors[0].data.base
    if not (isinstance(whole, np.ndarray) and whole.ndim > axis
            and whole.shape[axis] == blocks[-1][axis].stop
            and all(t.data.__array_interface__ == whole[block].__array_interface__
                    for t, block in zip(tensors, blocks))):
        whole = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(node):
        for parent, block in zip(parents, blocks):
            _accumulate(parent, node.grad[block])

    return Tensor(whole, tensors, backward)


def split(x: Tensor, extents: list[int], axis: int = 0) -> list[Tensor]:
    """Consecutive pieces of x along axis, as views of its data; a single
    piece is x itself."""
    if sum(extents) != x.data.shape[axis]:
        raise ShapeError(f"split: extents {list(extents)} do not sum to {x.data.shape[axis]}")
    if len(extents) == 1:
        return [x]
    return [_piece(x, block) for block in _blocks(extents, axis)]


def _piece(x: Tensor, block: tuple[slice, ...]) -> Tensor:
    parent, whole = x._node, x.data.shape

    def backward(node):
        if parent.grad is None:
            parent.grad = np.zeros(whole, dtype=parent.dtype)
        parent.grad[block] += node.grad

    return Tensor(x.data[block], (x,), backward)


def bilinear_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic (n_out x n_in) bilinear interpolation matrix.

    Source coordinate of output pixel i is (i + 0.5) * n_in / n_out - 0.5,
    clamped to [0, n_in - 1] (align-corners-false convention).
    """
    m = np.zeros((n_out, n_in), dtype=dtype)
    scale = n_in / n_out
    for i in range(n_out):
        src = min(max((i + 0.5) * scale - 0.5, 0.0), n_in - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        f = src - i0
        m[i, i0] += 1.0 - f
        m[i, i1] += f
    return m


@lru_cache(maxsize=64)
def _upsample_matrices(H: int, W: int, dtype):
    """Read-only (2H x H) and (2W x W) bilinear matrices of a x2 upsample."""
    uh = bilinear_matrix(H, 2 * H, dtype)
    uw = bilinear_matrix(W, 2 * W, dtype)
    uh.flags.writeable = uw.flags.writeable = False
    return uh, uw


def _upsample(data: np.ndarray, uh: np.ndarray, uw: np.ndarray) -> np.ndarray:
    """uh @ data @ uw.T per (sample, channel) of (B,C,H,W) data, as two
    matmuls: the rows first, as one (B*C*H, W) GEMM, then the columns over
    (B*C, H, 2W)."""
    B, C, H, W = data.shape
    rows = data.reshape(B * C * H, W) @ uw.T
    return (uh @ rows.reshape(B * C, H, 2 * W)).reshape(B, C, 2 * H, 2 * W)


def upsample_bilinear_x2(x: Tensor) -> Tensor:
    """Double both spatial extents of (B,C,H,W) by bilinear interpolation."""
    B, C, H, W = x.data.shape
    uh, uw = _upsample_matrices(H, W, x.data.dtype)
    out_data = _upsample(x.data, uh, uw)
    parent = x._node

    def backward(node):
        cols = uh.T @ node.grad.reshape(B * C, 2 * H, 2 * W)
        _hand_off(parent, (cols.reshape(B * C * H, 2 * W) @ uw).reshape(B, C, H, W))

    return Tensor(out_data, (x,), backward)


@dataclass
class BatchNormState:
    """Running statistics, updated by exponential moving average in train mode."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels: int, dtype=np.float32) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


def batch_norm(x: Tensor, gamma: Parameter, beta: Parameter, state: BatchNormState,
               mode: str = "train", source: Tensor | None = None) -> Tensor:
    """Per-channel normalization over batch and spatial dims, then affine.

    Train mode uses (biased) batch statistics and updates the running ones;
    eval mode normalizes with the running statistics. The recorded node
    saves xhat, the inverse std and gamma's array, not x. Backward computes
    the input grad from two per-channel sums, sum(g) and sum(g * xhat),
    which are also beta's and gamma's grads.

    When x is upsample_bilinear_x2(source), passing source lets the node
    save a copy of source's data, a quarter of xhat's entries, and the mean
    instead of xhat. Backward rebuilds xhat with the forward's own
    arithmetic, so every grad keeps its bits.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    B, C, H, W = x.data.shape
    if source is not None:
        s = source.data.shape
        if len(s) != 4 or (s[0], s[1], 2 * s[2], 2 * s[3]) != x.data.shape \
                or source.data.dtype != x.data.dtype:
            raise ShapeError(f"batch_norm: x {x.data.shape} {x.data.dtype} is not the x2 "
                             f"upsample of source {s} {source.data.dtype}")
    n = B * H * W
    if mode == "train" and n < 2:
        raise UsageError(f"train-mode batch norm needs >= 2 values per channel, got {n}")
    axes = (0, 2, 3)

    # x.var's own arithmetic, centring once: the centred copy becomes xhat
    # and its square fills the buffer that becomes the output. A ufunc
    # reduction divided by n gives .mean's bits without its call overhead.
    if mode == "train":
        mean = np.add.reduce(x.data, axis=axes) / n
        xhat = x.data - mean[None, :, None, None]
        out_data = np.multiply(xhat, xhat)
        var = np.add.reduce(out_data, axis=axes) / n
        state.running_mean[:] = (1.0 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        state.running_var[:] = (1.0 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var
    else:
        mean, var = state.running_mean, state.running_var
        xhat = x.data - mean[None, :, None, None]
        out_data = np.empty_like(xhat)

    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat *= inv_std[None, :, None, None]
    gamma_data = gamma.data
    np.multiply(gamma_data[None, :, None, None], xhat, out=out_data)
    out_data += beta.data[None, :, None, None]
    if not _grad_enabled:
        return Tensor(out_data)
    x_node, gamma_node, beta_node = x._node, gamma._node, beta._node
    if source is None:
        saved, centre = xhat, None
    else:
        # copies: a fabric's source is a view that would pin the whole conv
        # output it was split from, and eval's mean is the running state,
        # which a later train step moves
        saved, centre = source.data.copy(), mean.copy()

    def backward(node):
        g = node.grad
        if centre is None:
            xhat = saved
        else:
            uh, uw = _upsample_matrices(H // 2, W // 2, saved.dtype)
            xhat = _upsample(saved, uh, uw) - centre[None, :, None, None]
            xhat *= inv_std[None, :, None, None]
        sum_g = np.add.reduce(g, axis=axes)
        dx = np.multiply(g, xhat)
        sum_gx = np.add.reduce(dx, axis=axes)
        _accumulate(gamma_node, sum_gx)
        _accumulate(beta_node, sum_g)
        scale = (gamma_data * inv_std)[None, :, None, None]
        if mode == "train":
            # batch stats depend on x: remove the grad's per-channel mean and
            # its projection on xhat, dx = gamma*inv_std*(g - mean(g) - xhat*mean(g*xhat))
            np.multiply(xhat, (sum_gx / n)[None, :, None, None], out=dx)
            np.subtract(g, dx, out=dx)
            dx -= (sum_g / n)[None, :, None, None]
            dx *= scale
        else:
            np.multiply(g, scale, out=dx)
        _hand_off(x_node, dx)

    return Tensor(out_data, (x, gamma, beta), backward)


def relu6(x: Tensor) -> Tensor:
    """Elementwise min(max(x, 0), 6). The recorded node saves a mask of the
    entries inside (0, 6), where the derivative is 1, packed one bit per
    entry; it is read off the output, since 0 < out < 6 exactly where
    0 < x < 6, NaN included."""
    out_data = np.clip(x.data, 0.0, 6.0)
    if not _grad_enabled:
        return Tensor(out_data)
    inside = out_data > 0.0
    inside &= out_data < 6.0
    bits = np.packbits(inside, axis=None)
    parent = x._node

    def backward(node):
        g = node.grad
        inside = np.unpackbits(bits, count=g.size).view(np.bool_).reshape(g.shape)
        _hand_off(parent, g * inside)

    return Tensor(out_data, (x,), backward)


def linear(x: Tensor, weight: Parameter, bias: Parameter) -> Tensor:
    """Affine map per batch row: (B,F) x (K,F) -> (B,K).

    Like conv2d, the recorded node saves the input and weight arrays, so
    neither may be changed in place between the forward call and backward().
    """
    B, F = x.data.shape
    K, F_w = weight.data.shape
    if F != F_w:
        raise ShapeError(f"input has {F} features, weight expects {F_w}")
    x_data, w_data = x.data, weight.data
    out_data = x_data @ w_data.T
    out_data += bias.data[None, :]
    x_node, w_node, b_node = x._node, weight._node, bias._node

    def backward(node):
        _hand_off(x_node, node.grad @ w_data)
        _accumulate(w_node, node.grad.T @ x_data)
        _accumulate(b_node, node.grad.sum(axis=0))

    return Tensor(out_data, (x, weight, bias), backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target], max-stabilized."""
    B, K = logits.data.shape
    targets = np.asarray(targets)
    if targets.shape != (B,):
        raise ShapeError(f"targets shape {targets.shape}, expected ({B},)")
    if targets.min() < 0 or targets.max() >= K:
        raise ValueError(f"target out of range [0, {K})")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss_val = -log_probs[np.arange(B), targets].mean()
    parent = logits._node

    def backward(node):
        probs = np.exp(log_probs)
        probs[np.arange(B), targets] -= 1.0
        probs *= node.grad / B
        _hand_off(parent, probs)

    return Tensor(np.asarray(loss_val, dtype=logits.data.dtype), (logits,), backward)


@dataclass
class SgdConfig:
    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("momentum and weight_decay must be nonnegative")


@dataclass
class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    Masks are re-applied after every step, so masked weights stay exactly 0.
    A step that leaves a parameter non-finite raises FloatingPointError
    naming the parameter's index in params and its shape.
    """

    params: list[Parameter]
    config: SgdConfig
    _buffers: dict[int, np.ndarray] = field(default_factory=dict)

    def step(self) -> None:
        cfg = self.config
        for index, p in enumerate(self.params):
            g = p.grad
            if cfg.weight_decay != 0.0:
                g = g + cfg.weight_decay * p.data
            if cfg.momentum != 0.0:
                buf = self._buffers.get(id(p))
                if buf is None:
                    buf = np.zeros_like(p.data)
                    self._buffers[id(p)] = buf
                buf *= cfg.momentum
                buf += g
                g = buf
            p.data -= cfg.learning_rate * g
            p.apply_mask()
            if not np.isfinite(p.data).all():
                raise FloatingPointError(f"parameter {index} {list(p.data.shape)} is "
                                         f"non-finite after the SGD step")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
