"""Independent oracles used by the test suite.

Everything here is deliberately naive (nested loops, closed-form arithmetic,
finite differences, exhaustive graph scans) and shares no code with the
library implementations it checks. The one exception is tensor_sum, the
gradient tests' scalar loss head, a graph op built on the engine's Tensor.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from fabricprune.tensor import Tensor, _accumulate


def naive_conv2d(x, w, b, stride):
    """Direct 6-nested-loop 3x3 convolution with padding 1."""
    B, Cin, H, W = x.shape
    Cout = w.shape[0]
    Ho = (H - 1) // stride + 1
    Wo = (W - 1) // stride + 1
    out = np.zeros((B, Cout, Ho, Wo), dtype=np.float64)
    for n in range(B):
        for co in range(Cout):
            for oh in range(Ho):
                for ow in range(Wo):
                    acc = 0.0
                    for ci in range(Cin):
                        for kh in range(3):
                            for kw in range(3):
                                ih = oh * stride + kh - 1
                                iw = ow * stride + kw - 1
                                if 0 <= ih < H and 0 <= iw < W:
                                    acc += float(x[n, ci, ih, iw]) * float(w[co, ci, kh, kw])
                    out[n, co, oh, ow] = acc + (float(b[co]) if b is not None else 0.0)
    return out


def im2col_reference(x, stride, Ho, Wo):
    """(B, Cin*9, Ho*Wo) window columns of (B,Cin,H,W) zero-padded by 1:
    sliding_window_view's 3x3 windows of the padded 2-D copy, every
    stride-th one, transposed to rows (cin, tap)."""
    B, Cin, H, W = x.shape
    xp = np.zeros((B, Cin, H + 2, W + 2), dtype=x.dtype)
    xp[:, :, 1 : H + 1, 1 : W + 1] = x
    windows = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(B, Cin * 9, Ho * Wo)


def shifted_copies_reference(g, shifts):
    """(len(shifts)*C, H*W*b) copies of a (b,C,H,W) grad, rows (shift, c)
    and columns (y, x, b): g[b, c, y + dy, x + dx], zero past the edges,
    each a slab of a zero-padded (C, H+2, W+2, b) copy."""
    b, C, H, W = g.shape
    gp = np.zeros((C, H + 2, W + 2, b), dtype=g.dtype)
    gp[:, 1 : H + 1, 1 : W + 1] = g.transpose(1, 2, 3, 0)
    copies = np.empty((len(shifts), C, H, W, b), dtype=g.dtype)
    for k, (dy, dx) in enumerate(shifts):
        copies[k] = gp[:, 1 + dy : 1 + dy + H, 1 + dx : 1 + dx + W]
    return copies.reshape(len(shifts) * C, H * W * b)


def bilinear_x2_reference(x):
    """Per-output-pixel closed-form x2 bilinear interpolation (no matrices)."""
    B, C, H, W = x.shape
    out = np.zeros((B, C, 2 * H, 2 * W), dtype=np.float64)
    for oh in range(2 * H):
        for ow in range(2 * W):
            sh = min(max((oh + 0.5) / 2.0 - 0.5, 0.0), H - 1.0)
            sw = min(max((ow + 0.5) / 2.0 - 0.5, 0.0), W - 1.0)
            h0, w0 = int(np.floor(sh)), int(np.floor(sw))
            h1, w1 = min(h0 + 1, H - 1), min(w0 + 1, W - 1)
            fh, fw = sh - h0, sw - w0
            out[:, :, oh, ow] = (
                (1 - fh) * (1 - fw) * x[:, :, h0, w0]
                + (1 - fh) * fw * x[:, :, h0, w1]
                + fh * (1 - fw) * x[:, :, h1, w0]
                + fh * fw * x[:, :, h1, w1]
            )
    return out


def naive_linear(x, w, b):
    """Triple-loop affine map."""
    B, F = x.shape
    K = w.shape[0]
    out = np.zeros((B, K), dtype=np.float64)
    for n in range(B):
        for k in range(K):
            acc = float(b[k]) if b is not None else 0.0
            for f in range(F):
                acc += float(x[n, f]) * float(w[k, f])
            out[n, k] = acc
    return out


def cross_entropy_reference(logits, targets):
    """Mean of -log softmax via explicit exponentials in float64."""
    logits = np.asarray(logits, dtype=np.float64)
    total = 0.0
    for n in range(logits.shape[0]):
        z = np.exp(logits[n])
        total += -np.log(z[targets[n]] / z.sum())
    return total / logits.shape[0]


def finite_difference_grads(fn, arrays, step):
    """Central-difference gradient of scalar fn() wrt each array, in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat_a = a.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_a.size):
            orig = flat_a[i]
            flat_a[i] = orig + step
            fp = fn()
            flat_a[i] = orig - step
            fm = fn()
            flat_a[i] = orig
            flat_g[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def max_grad_mismatch(analytic, numeric):
    """Worst |a - n| / max(1, |a|, |n|) over all entries of grad pairs."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def reachable_nodes(edges, start):
    """BFS over a list of (src, dst) pairs."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def path_exists(edges, start, goal):
    return goal in reachable_nodes(edges, start)


def links_on_some_path(edges, start, goal):
    """Indices of edges lying on at least one start->goal directed path."""
    forward = reachable_nodes(edges, start)
    reverse = reachable_nodes([(v, u) for u, v in edges], goal)
    return {i for i, (u, v) in enumerate(edges) if u in forward and v in reverse}


def dangling_links_by_rescan(edges, start, goal):
    """Fixpoint of the obsolete-link rule by repeated full rescans.

    A link dangles if its head node (not the goal) has no outgoing link or
    its tail node (not the start) has no incoming link; removal repeats
    until stable. Returns indices of removed edges.
    """
    alive = set(range(len(edges)))
    changed = True
    while changed:
        changed = False
        outs = {}
        ins = {}
        for i in alive:
            u, v = edges[i]
            outs.setdefault(u, []).append(i)
            ins.setdefault(v, []).append(i)
        for i in list(alive):
            u, v = edges[i]
            if v != goal and not outs.get(v):
                alive.discard(i)
                changed = True
            elif u != start and not ins.get(u):
                alive.discard(i)
                changed = True
    return set(range(len(edges))) - alive


def longest_path_exhaustive(edges, start, goal):
    """Longest start->goal path length in edges by full DFS enumeration."""
    adj = {}
    for i, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((i, v))

    best = -1

    def dfs(node, length):
        nonlocal best
        if node == goal:
            best = max(best, length)
        for _, nxt in adj.get(node, ()):
            dfs(nxt, length + 1)

    dfs(start, 0)
    return best


def link_norm(weight_scores):
    """A link's score: the Euclidean norm of its per-weight scores, in float64."""
    return float(np.sqrt(np.sum(np.asarray(weight_scores, dtype=np.float64) ** 2)))


def weight_stage_reference(scores, masks, quota):
    """The weight stage walked one weight at a time.

    `scores` maps each alive link's index to its per-weight criterion array
    and `masks` the same index to its current 0/1 mask (None: unmasked).
    Every unmasked weight joins one ascending ranking, ties kept in (link
    index, flat position) order. Down that ranking a weight is masked unless
    it is the last unmasked weight of its link, until `quota` are masked.
    Returns (masks, masked, skipped, shortfall) with a mask for every link.
    """
    candidates = []
    for index in sorted(scores):
        flat = np.asarray(scores[index], dtype=np.float64).reshape(-1)
        mask = masks[index]
        for pos in range(flat.size):
            if mask is None or mask.reshape(-1)[pos] != 0.0:
                candidates.append((float(flat[pos]), index, pos))
    candidates.sort(key=lambda c: c[0])  # stable
    new = {index: np.ones(np.shape(scores[index])) if masks[index] is None
           else np.array(masks[index], dtype=np.float64) for index in scores}
    unmasked = {index: int(np.count_nonzero(m)) for index, m in new.items()}
    masked = skipped = 0
    remaining = quota
    for _, index, pos in candidates:
        if remaining <= 0:
            break
        if unmasked[index] <= 1:
            skipped += 1
            continue
        new[index].reshape(-1)[pos] = 0.0
        unmasked[index] -= 1
        masked += 1
        remaining -= 1
    return new, masked, skipped, remaining


def train_batches_reference(order, batch_size):
    """(batch index, batch) pairs of one training epoch, walked slice by slice.

    A slice of fewer than 2 items is skipped, since train-mode batch norm
    needs 2 samples; the index counts every slice, kept or skipped.
    """
    kept = []
    for batch_index, start in enumerate(range(0, order.size, batch_size)):
        batch = order[start : start + batch_size]
        if batch.size >= 2:
            kept.append((batch_index, batch))
    return kept


def tensor_sum(x):
    """Sum of all entries, as a scalar node."""
    parent, shape = x._node, x.data.shape

    def backward(node):
        _accumulate(parent, np.broadcast_to(node.grad, shape))

    return Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), backward)


def postorder_backward(loss):
    """backward() by a depth-first post-order walk of the graph: each node
    runs after all of its consumers, in the order a depth-first search from
    the loss finishes them. Each node drops its closure and parents once it
    has run, and a masked node's grad is zeroed at the mask."""
    root = loss._node
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node.backward is not None:
            node.backward()
        node.backward = None
        node.parents = ()
        if node.mask is not None:
            node.grad *= node.mask


def plan_reference(strategy, sparsity, total_links, floor_links, channels, classes, epochs):
    """The pruning schedule as two steps built it: the 200-epoch recipe's
    events per strategy ("early", "late" or "iterative"), then their epochs
    mapped onto `epochs` and colliding events merged with a UserWarning.

    The target is floor(s * prunable) + stem + head. Event k of n leaves
    a_k links alive, and its ceiling keeps their biases and batch norms
    plus a share of their conv weights that steps linearly from 1 (before
    the first event) to the target's share (clamped at 0); the last ceiling
    is the target. Returns the budget's fields as a dict and the events as
    (epoch, links to remove, live-params ceiling) tuples.
    """
    frac = Fraction(str(sparsity))
    links_kept = min(max(math.ceil(frac * total_links), floor_links), total_links)
    conv, rest = channels * channels * 9, 3 * channels
    fixed = (3 * channels * 9 + rest) + (channels * classes + classes)
    target = math.floor(frac * total_links * (conv + rest)) + fixed
    budget = dict(total_links=total_links, links_kept=links_kept, min_links_kept=floor_links,
                  reported_params=target)
    link_total = total_links - links_kept
    if strategy == "early":
        recipe = [(5, link_total)]
    elif strategy == "late":
        recipe = [(75, link_total)]
    else:
        epochs_at = list(range(5, 76, 10))
        n = len(epochs_at)
        recipe = [(e, link_total // n + (i < link_total % n)) for i, e in enumerate(epochs_at)]
    final_share = max(Fraction(0), Fraction(target - fixed - links_kept * rest,
                                            links_kept * conv))
    events, alive = [], total_links
    for k, (epoch, links) in enumerate(recipe, 1):
        alive -= links
        share = 1 + (final_share - 1) * Fraction(k, len(recipe))
        ceiling = fixed + alive * rest + math.ceil(share * alive * conv)
        events.append((epoch, links, target if k == len(recipe) else ceiling))
    merged = {}
    for epoch, links, ceiling in events:
        mapped = max(1, math.floor(epoch * (epochs / 200) + 0.5))
        prev_links = merged.get(mapped, (0, None))[0]
        merged[mapped] = (prev_links + links, ceiling)
    if len(merged) < len(recipe):
        warnings.warn(f"rescaling 200->{epochs} merged pruning events")
    return budget, [(e, *merged[e]) for e in sorted(merged)]


def stratified_split_reference(labels, fractions, seed):
    """Stratified splits built item by item in Python lists: each class's
    permuted items dealt out by largest-remainder counts. Rejects a class with
    fewer items than splits, which the library places by the same counts."""
    fractions = list(fractions)
    rng = np.random.default_rng(seed)
    splits = [[] for _ in fractions]
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        if members.size < len(fractions):
            raise ValueError(
                f"class {cls} has {members.size} items, fewer than {len(fractions)} splits")
        members = rng.permutation(members)

        targets = [f * members.size for f in fractions]
        counts = [math.floor(t) for t in targets]
        leftover = round(sum(targets)) - sum(counts)
        by_fractional_part = sorted(range(len(fractions)),
                                    key=lambda i: (-(targets[i] - counts[i]), i))
        for i in by_fractional_part[:leftover]:
            counts[i] += 1

        start = 0
        for split, count in zip(splits, counts):
            split.extend(members[start : start + count].tolist())
            start += count
    return [np.array(sorted(s), dtype=np.int64) for s in splits]


def uniform_transition_matrix(num_classes, p):
    """Uniform noise as a transition matrix: 1 - p on the diagonal, p spread
    evenly over the other classes of each row."""
    matrix = np.full((num_classes, num_classes), p / (num_classes - 1))
    np.fill_diagonal(matrix, 1.0 - p)
    return matrix


def pair_transition_matrix(num_classes, p):
    """Pair-flip noise as a transition matrix: row k keeps 1 - p on k and
    sends p to (k + 1) mod num_classes."""
    matrix = np.zeros((num_classes, num_classes))
    for k in range(num_classes):
        matrix[k, k] += 1.0 - p
        matrix[k, (k + 1) % num_classes] += p
    return matrix


def sample_transitions(labels, matrix, seed):
    """Given labels drawn label by label from the transition row of each
    clean label, by inverse CDF of one uniform draw per label."""
    rng = np.random.default_rng(seed)
    given = np.empty_like(labels)
    for i, clean in enumerate(labels):
        u = rng.random()
        for j, cumulative in enumerate(np.cumsum(matrix[clean])):
            if u < cumulative:
                break
        else:  # u past a row sum rounded below 1
            j = np.flatnonzero(matrix[clean])[-1]
        given[i] = j
    return given


def transition_cells(clean, given, num_classes):
    """(num_classes, num_classes) counts of the (clean, given) label pairs."""
    cells = np.zeros((num_classes, num_classes), dtype=np.int64)
    for k, j in zip(clean, given):
        cells[k, j] += 1
    return cells
