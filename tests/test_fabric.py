import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabricprune import fabric as fabric_module
from fabricprune import tensor
from fabricprune.fabric import (
    Direction,
    Fabric,
    FabricError,
    build_fabric,
    clone_parameters,
    export_dot,
    grid_link_count,
    head_param_count,
    link_param_count,
    load_fabric,
    longest_linear_path,
    param_breakdown,
    save_fabric,
    train_batches,
)
from fabricprune.tensor import (
    SGD,
    SgdConfig,
    Tensor,
    backward,
    batch_norm,
    conv2d,
    linear,
    no_grad,
    relu6,
    softmax_cross_entropy,
    upsample_bilinear_x2,
)

from oracles import (
    bilinear_x2_reference,
    longest_path_exhaustive,
    naive_conv2d,
    path_exists,
    postorder_backward,
    train_batches_reference,
)


def enumerate_grid_edges(layers, scales):
    """Independent edge enumeration: three closest previous-layer nodes plus
    downward column links at the boundary layers."""
    edges = []
    for l in range(1, layers):
        for s in range(scales):
            for src_s in (s - 1, s, s + 1):
                if 0 <= src_s < scales:
                    edges.append(((l - 1, src_s), (l, s)))
    for l in (0, layers - 1):
        for s in range(scales - 1):
            edges.append(((l, s), (l, s + 1)))
    return edges


class TestConstruction:
    @pytest.mark.parametrize("dims", [(6, 4), (2, 2), (8, 6), (3, 5), (5, 3)])
    def test_link_count_matches_enumeration(self, dims):
        layers, scales = dims
        fabric = build_fabric(layers, scales, 2, 2 ** (scales - 1), 3)
        expected = enumerate_grid_edges(layers, scales)
        assert len(fabric.alive_links()) == len(expected)
        assert grid_link_count(layers, scales) == len(expected)
        assert {(l.src, l.dst) for l in fabric.links} == set(expected)

    def test_fig1_grid_has_56_links(self):
        assert grid_link_count(6, 4) == 56

    def test_smallest_grid_has_6_links(self):
        assert grid_link_count(2, 2) == 6

    def test_directions(self):
        fabric = build_fabric(3, 3, 1, 4, 2)
        by_pair = {(l.src, l.dst): l.direction for l in fabric.links}
        assert by_pair[((0, 0), (1, 0))] is Direction.SAME
        assert by_pair[((0, 0), (1, 1))] is Direction.DOWN
        assert by_pair[((0, 1), (1, 0))] is Direction.UP
        assert by_pair[((0, 0), (0, 1))] is Direction.COLUMN_DOWN
        assert by_pair[((2, 1), (2, 2))] is Direction.COLUMN_DOWN

    def test_inconsistent_resolution_rejected(self):
        with pytest.raises(FabricError):
            build_fabric(4, 4, 2, 16, 3)  # 4 scales wants 8x8

    def test_too_small_grid_rejected(self):
        with pytest.raises(FabricError):
            build_fabric(1, 4, 2, 8, 3)

    def test_reachability_at_construction(self):
        fabric = build_fabric(5, 4, 1, 8, 2)
        edges = [(l.src, l.dst) for l in fabric.alive_links()]
        assert path_exists(edges, (0, 0), (4, 3))

    def test_init_draw_order_pinned(self):
        # He-normal conv weights come off one default_rng(seed) stream: the
        # stem's first, then each grid link's in index order, then the head's
        layers, scales, channels, classes, seed = 2, 3, 2, 3, 17
        fabric = build_fabric(layers, scales, channels, 4, classes, seed=seed)
        rng = np.random.default_rng(seed)
        expected = [(rng.standard_normal((channels, c_in, 3, 3))
                     * np.sqrt(2.0 / (c_in * 9))).astype(np.float32)
                    for c_in in [3] + [channels] * len(fabric.links)]
        head = (rng.standard_normal((classes, channels))
                * np.sqrt(1.0 / channels)).astype(np.float32)
        convs = [fabric.stem.conv_weight.data] + [l.conv_weight.data for l in fabric.links]
        for index, (ours, theirs) in enumerate(zip(convs, expected, strict=True)):
            np.testing.assert_array_equal(ours, theirs, err_msg=f"conv {index - 1}")
        np.testing.assert_array_equal(fabric.head_weight.data, head)

    def test_stem_is_a_link_outside_the_grid(self):
        fabric = build_fabric(2, 2, 2, 2, 3)
        stem = fabric.stem
        assert (stem.index, stem.src, stem.dst) == (-1, None, fabric.input_node)
        assert stem.direction is Direction.SAME
        assert stem.conv_weight.data.shape == (2, 3, 3, 3)
        assert all(link is not stem for link in fabric.links)
        assert all(a is b for a, b in zip(fabric.parameters(), stem.parameters()))
        _, edges = parse_dot(export_dot(fabric, include_pruned=True))
        assert len(edges) == len(fabric.links)
        assert "None" not in export_dot(fabric, include_pruned=True)


class TestParamCount:
    def test_per_link_at_64_channels(self):
        assert link_param_count(64, 64) == 37_056

    def test_cifar10_baseline(self):
        assert param_breakdown(8, 6, 64, 10).total == 4_523_402

    def test_cifar100_baseline(self):
        assert param_breakdown(8, 6, 64, 100).total == 4_529_252

    def test_pascalvoc_baseline(self):
        assert param_breakdown(8, 7, 64, 20).total == 5_376_340

    def test_breakdown_sums(self):
        b = param_breakdown(8, 6, 64, 10)
        assert b.total == b.stem + b.links + b.head
        assert b.stem == link_param_count(3, 64) == 1_920
        assert b.head == head_param_count(64, 10) == 650
        assert b.links == 122 * 37_056

    def test_fabric_counts_only_alive_links(self):
        fabric = build_fabric(3, 3, 4, 4, 2)
        full = fabric.param_count()
        fabric.links[0].alive = False
        assert fabric.param_count().links == full.links - link_param_count(4, 4)

    def test_live_count_tracks_masks(self):
        fabric = build_fabric(2, 2, 2, 2, 2)
        before = fabric.live_param_count()
        link = fabric.links[0]
        mask = np.ones_like(link.conv_weight.data)
        mask.reshape(-1)[:5] = 0.0
        link.conv_weight.set_mask(mask)
        assert fabric.live_param_count() == before - 5


class TestForward:
    def test_logits_shape(self):
        fabric = build_fabric(3, 4, 2, 8, 5, seed=1)
        logits = fabric.forward(np.random.default_rng(0).random((2, 3, 8, 8)))
        assert logits.shape == (2, 5)

    def test_zero_weights_propagate_head_bias(self):
        fabric = build_fabric(3, 3, 2, 4, 4, seed=2)
        for link in fabric.links:
            link.conv_weight.data[:] = 0.0
            link.conv_bias.data[:] = 0.0
        fabric.stem.conv_weight.data[:] = 0.0
        fabric.head_weight.data[:] = 0.0
        fabric.head_bias.data[:] = np.arange(4.0, dtype=np.float32)
        logits = fabric.forward(np.ones((2, 3, 4, 4), dtype=np.float32), mode="eval")
        np.testing.assert_allclose(logits.data, np.tile(np.arange(4.0), (2, 1)), atol=1e-6)

    def test_micro_fabric_matches_straight_line_oracle(self):
        # L=2, S=2, C=1 on a 2x2 image in eval mode with fresh running stats:
        # batch norm reduces to x / sqrt(1 + eps), so the whole forward pass is
        # a straight-line program over the naive op oracles.
        fabric = build_fabric(2, 2, 1, 2, 3, seed=7, dtype=np.float64)
        x = np.random.default_rng(5).random((1, 3, 2, 2))

        def bn_eval(a):
            return a / np.sqrt(1.0 + 1e-5)

        def relu6_ref(a):
            return np.clip(a, 0.0, 6.0)

        def link_out(src_act, link):
            h = naive_conv2d(src_act, link.conv_weight.data, link.conv_bias.data,
                             link.direction.stride)
            if link.direction is Direction.UP:
                h = bilinear_x2_reference(h)
            return relu6_ref(bn_eval(h))

        by_pair = {(l.src, l.dst): l for l in fabric.links}
        act00 = link_out(x, fabric.stem)
        act01 = link_out(act00, by_pair[((0, 0), (0, 1))])
        act10 = link_out(act00, by_pair[((0, 0), (1, 0))]) + \
            link_out(act01, by_pair[((0, 1), (1, 0))])
        act11 = link_out(act00, by_pair[((0, 0), (1, 1))]) + \
            link_out(act01, by_pair[((0, 1), (1, 1))]) + \
            link_out(act10, by_pair[((1, 0), (1, 1))])
        expected = act11.reshape(1, 1) @ fabric.head_weight.data.T + fabric.head_bias.data

        logits = fabric.forward(x, mode="eval")
        np.testing.assert_allclose(logits.data, expected, rtol=1e-9)

    def test_activation_resolutions_halve_per_scale(self):
        fabric = build_fabric(3, 4, 2, 8, 2, seed=3)
        _, acts = per_link_forward(fabric, np.zeros((2, 3, 8, 8), dtype=np.float32), "train")
        for (l, s), act in acts.items():
            assert act.shape[2] == act.shape[3] == 8 // (2 ** s)
        assert acts[fabric.output_node].shape == (2, 2, 1, 1)

    def test_aggregation_is_sum_of_link_contributions(self):
        fabric = build_fabric(3, 3, 2, 4, 2, seed=11, dtype=np.float64)
        x = np.random.default_rng(1).random((2, 3, 4, 4))
        node = (1, 1)
        in_links = [l for l in fabric.links if l.dst == node]
        assert len(in_links) == 3

        _, acts = per_link_forward(fabric, x, "eval")
        full = acts[node].data.copy()

        singles = []
        for keep in in_links:
            saved = [(l, l.bn_gamma.data.copy(), l.bn_beta.data.copy()) for l in in_links]
            for other in in_links:
                if other is not keep:
                    other.bn_gamma.data[:] = 0.0
                    other.bn_beta.data[:] = 0.0
            _, acts_k = per_link_forward(fabric, x, "eval")
            singles.append(acts_k[node].data.copy())
            for l, g, b in saved:
                l.bn_gamma.data = g
                l.bn_beta.data = b
        np.testing.assert_allclose(full, sum(singles), rtol=1e-9)

    def test_wrong_input_resolution_rejected(self):
        fabric = build_fabric(2, 3, 1, 4, 2)
        with pytest.raises(FabricError):
            fabric.forward(np.zeros((1, 3, 8, 8)))

    def test_array_batch_is_a_constant(self):
        # the same logits and parameter grads as a Tensor batch, which gets a grad
        x = np.random.default_rng(3).random((2, 3, 4, 4)).astype(np.float32)
        runs = []
        for batch in (x, Tensor(x)):
            fabric = build_fabric(3, 3, 2, 4, 3, seed=4)
            logits = fabric.forward(batch, "train")
            backward(softmax_cross_entropy(logits, np.array([0, 2])))
            runs.append([logits.data] + [p.grad for p in fabric.parameters()])
        for ours, theirs in zip(*runs):
            assert ours.tobytes() == theirs.tobytes()
        assert batch.grad.shape == x.shape and np.abs(batch.grad).sum() > 0

    def test_forward_deterministic(self):
        def run():
            fabric = build_fabric(3, 3, 2, 4, 3, seed=21)
            x = np.random.default_rng(2).random((2, 3, 4, 4)).astype(np.float32)
            return fabric.forward(x, mode="train").data.tobytes()

        assert run() == run()


def per_link_forward(fabric, x, mode):
    """Reference forward: one conv2d per alive link, each node's in-links
    summed in link index order. Returns the logits and every node's
    activation; test_matches_per_link_reference ties it to Fabric.forward."""
    stem = fabric.stem
    h = conv2d(Tensor(x), stem.conv_weight, stem.conv_bias, stride=1)
    h = batch_norm(h, stem.bn_gamma, stem.bn_beta, stem.bn_state, mode)
    acts = {fabric.input_node: relu6(h)}
    for node in fabric.nodes():
        total = None
        for link in (l for l in fabric.links if l.alive and l.dst == node):
            if link.src not in acts:
                continue
            h = conv2d(acts[link.src], link.conv_weight, link.conv_bias,
                       stride=link.direction.stride)
            if link.direction is Direction.UP:
                h = upsample_bilinear_x2(h)
            h = relu6(batch_norm(h, link.bn_gamma, link.bn_beta, link.bn_state, mode))
            total = h if total is None else total + h
        if total is not None:
            acts[node] = total
    flat = acts[fabric.output_node].reshape((x.shape[0], fabric.C))
    return linear(flat, fabric.head_weight, fabric.head_bias), acts


@st.composite
def pruned_fabric_cases(draw, channels=st.integers(1, 3)):
    """A float64 fabric with random dead links, masks and affine parameters.

    A path down layer 0's column and along the last scale stays alive, and
    one node off it loses every in-link but keeps its out-links, so those
    out-links have a source that no activation reaches.
    """
    layers, scales = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    channels = draw(channels)
    seed = draw(st.integers(0, 2**32 - 1))
    kept = {((0, s), (0, s + 1)) for s in range(scales - 1)}
    kept |= {((l, scales - 1), (l + 1, scales - 1)) for l in range(layers - 1)}
    cut = draw(st.sampled_from([(l, s) for l in range(1, layers) for s in range(scales - 1)]))
    n_links = grid_link_count(layers, scales)
    dead = draw(st.lists(st.booleans(), min_size=n_links, max_size=n_links))
    masked = draw(st.lists(st.booleans(), min_size=n_links, max_size=n_links))
    mode = draw(st.sampled_from(["train", "eval"]))
    return layers, scales, channels, seed, kept, cut, dead, masked, mode


def build_pruned_case(case):
    """The fabric a pruned_fabric_cases draw describes, and the rng that drew
    its link parameters, for the test to draw on."""
    layers, scales, channels, seed, kept, cut, dead, masked, _ = case
    rng = np.random.default_rng(seed)
    fabric = build_fabric(layers, scales, channels, 2 ** (scales - 1), 3, seed=seed,
                          dtype=np.float64)
    for link, kill, mask in zip(fabric.links, dead, masked):
        if link.dst == cut:
            link.alive = False
        elif (link.src, link.dst) not in kept and link.src != cut:
            link.alive = not kill
        for p in (link.conv_bias, link.bn_gamma, link.bn_beta):
            p.data[:] = rng.standard_normal(channels)
        link.bn_state.running_mean[:] = rng.standard_normal(channels)
        link.bn_state.running_var[:] = rng.random(channels) + 0.5
        if mask:
            link.conv_weight.set_mask((rng.random((channels, channels, 3, 3)) > 0.3)
                                      .astype(np.float64))
    assert any(l.alive for l in fabric.links if l.src == cut)
    return fabric, rng


class TestSourceMajorForward:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(pruned_fabric_cases())
    def test_matches_per_link_reference(self, case):
        mode = case[-1]
        fabric, rng = build_pruned_case(case)
        resolution = fabric.input_resolution
        reference = build_fabric(fabric.L, fabric.S, fabric.C, resolution, 3, dtype=np.float64)
        reference.load_state(clone_parameters(fabric))
        x = rng.random((2, 3, resolution, resolution))
        labels = np.array([0, 2])

        logits = fabric.forward(x, mode)
        expected, _ = per_link_forward(reference, x, mode)
        np.testing.assert_allclose(logits.data, expected.data, rtol=1e-10)
        backward(softmax_cross_entropy(logits, labels))
        backward(softmax_cross_entropy(expected, labels))

        def grads(f):
            params = f.stem.parameters() + f.head_parameters()
            return params + [p for link in f.links for p in link.parameters()]

        for ours, theirs in zip(grads(fabric), grads(reference)):
            np.testing.assert_allclose(ours.grad, theirs.grad, rtol=1e-10, atol=1e-13)
        ours_state, their_state = fabric.state(), reference.state()
        for key in ours_state:
            np.testing.assert_allclose(ours_state[key], their_state[key], rtol=1e-10,
                                       err_msg=key)


class TestFoldedEval:
    """Eval mode under no_grad folds each batch norm into its conv; the
    unfolded per-link reference runs every op on its own, with grad on."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(pruned_fabric_cases())
    def test_matches_unfolded_per_link_reference(self, case):
        fabric, rng = build_pruned_case(case)
        C = fabric.C
        stem = fabric.stem
        for p in (stem.conv_bias, stem.bn_gamma, stem.bn_beta):
            p.data[:] = rng.standard_normal(C)
        stem.bn_state.running_mean[:] = rng.standard_normal(C)
        stem.bn_state.running_var[:] = rng.random(C) + 0.5
        fabric.head_bias.data[:] = rng.standard_normal(3)
        x = rng.random((3, 3, fabric.input_resolution, fabric.input_resolution))
        with tensor.no_grad():
            folded = fabric.forward(x, "eval")
        expected, _ = per_link_forward(fabric, x, "eval")
        np.testing.assert_allclose(folded.data, expected.data, rtol=1e-12)

    def test_folds_the_parameters_of_the_call(self):
        # nothing folded is kept between calls, so an SGD step is seen at once
        fabric = build_fabric(3, 3, 2, 4, 3, seed=5, dtype=np.float64)
        x = np.random.default_rng(6).random((4, 3, 4, 4))
        fabric.forward(x, "train")  # running statistics off their initial values
        optimizer = SGD(fabric.parameters(), SgdConfig(0.5))
        with tensor.no_grad():
            before = fabric.forward(x, "eval").data
        fabric.loss_backward(x, np.array([0, 1, 2, 0]))
        optimizer.step()
        with tensor.no_grad():
            after = fabric.forward(x, "eval").data
        expected, _ = per_link_forward(fabric, x, "eval")
        np.testing.assert_allclose(after, expected.data, rtol=1e-12)
        assert not np.allclose(after, before)

    def test_eval_forward_with_grad_on_records_a_graph(self):
        # the unfolded path: backward() gives the per-link reference's grads
        fabric = build_fabric(3, 3, 2, 4, 3, seed=7, dtype=np.float64)
        x = np.random.default_rng(8).random((2, 3, 4, 4))
        fabric.forward(x, "train")
        reference = build_fabric(3, 3, 2, 4, 3, dtype=np.float64)
        reference.load_state(clone_parameters(fabric))
        labels = np.array([0, 2])
        backward(softmax_cross_entropy(fabric.forward(x, "eval"), labels))
        backward(softmax_cross_entropy(per_link_forward(reference, x, "eval")[0], labels))
        for ours, theirs in zip(fabric.parameters(), reference.parameters()):
            np.testing.assert_allclose(ours.grad, theirs.grad, rtol=1e-10, atol=1e-13)
        assert np.abs(fabric.head_weight.grad).sum() > 0


class TestLongestPath:
    @pytest.mark.parametrize("dims,expected", [((8, 6), 12), ((2, 2), 2), ((6, 4), 8)])
    def test_full_grid(self, dims, expected):
        fabric = build_fabric(dims[0], dims[1], 1, 2 ** (dims[1] - 1), 2)
        assert longest_linear_path(fabric) == expected

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 3)])
    def test_matches_exhaustive_dfs(self, dims):
        fabric = build_fabric(dims[0], dims[1], 1, 2 ** (dims[1] - 1), 2)
        edges = [(l.src, l.dst) for l in fabric.alive_links()
                 if l.direction is not Direction.UP]
        assert longest_linear_path(fabric) == longest_path_exhaustive(
            edges, fabric.input_node, fabric.output_node)

    def test_single_diagonal_link(self):
        fabric = build_fabric(2, 2, 1, 2, 2)
        for link in fabric.links:
            link.alive = link.src == (0, 0) and link.dst == (1, 1)
        assert longest_linear_path(fabric) == 1

    def test_longest_in_link_wins_over_the_last_one(self):
        # in source order, the output's last in-link is the column link from
        # (2, 1), which ends a 3-link chain once these two links are cut; the
        # same-scale link from (1, 2) ends the 4-link chain along layer 0
        fabric = build_fabric(3, 3, 1, 4, 2)
        cut = {((0, 1), (1, 1)), ((2, 0), (2, 1))}
        for link in fabric.links:
            link.alive = (link.src, link.dst) not in cut
        assert longest_linear_path(fabric) == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_pruned_grid_matches_dfs(self, seed):
        rng = np.random.default_rng(seed)
        fabric = build_fabric(4, 3, 1, 4, 2)
        # keep a guaranteed monotone chain plus a random subset
        for link in fabric.links:
            on_chain = link.direction is Direction.SAME and link.src[1] == 0 \
                or link.src[0] == 3
            link.alive = on_chain or bool(rng.random() < 0.5)
        monotone_edges = [(l.src, l.dst) for l in fabric.alive_links()
                          if l.direction is not Direction.UP]
        assert longest_linear_path(fabric) == longest_path_exhaustive(
            monotone_edges, (0, 0), (3, 2))


def parse_dot(text):
    """Tiny structural DOT check: returns (node names, edge pairs)."""
    lines = [l.strip().rstrip(";") for l in text.splitlines()]
    assert lines[0].startswith("digraph")
    assert text.count("{") == text.count("}") == 1
    assert text.rstrip().endswith("}")
    nodes, edges = [], []
    for line in lines[1:-1]:
        if not line or line.startswith(("rankdir", "node ")):
            continue
        if "->" in line:
            left, right = line.split("->")
            edges.append((left.strip(), right.split("[")[0].strip()))
        else:
            nodes.append(line.split("[")[0].strip())
    return nodes, edges


class TestDotExport:
    def test_full_grid_nodes_and_edges(self):
        fabric = build_fabric(2, 2, 1, 2, 2)
        nodes, edges = parse_dot(export_dot(fabric))
        assert len(nodes) == 4
        assert len(edges) == 6

    def test_pruned_link_omitted(self):
        fabric = build_fabric(2, 2, 1, 2, 2)
        target = fabric.links[0]
        target.alive = False
        _, edges = parse_dot(export_dot(fabric))
        assert len(edges) == 5
        name = (f"n{target.src[0]}_{target.src[1]}", f"n{target.dst[0]}_{target.dst[1]}")
        assert name not in edges

    def test_pruned_link_dashed_when_included(self):
        fabric = build_fabric(2, 2, 1, 2, 2)
        fabric.links[0].alive = False
        text = export_dot(fabric, include_pruned=True)
        _, edges = parse_dot(text)
        assert len(edges) == 6
        assert "style=dashed" in text


def dirty_fabric(channels=2, seed=13):
    """A small fabric with pruned links, masks and moved running statistics."""
    fabric = build_fabric(3, 3, channels, 4, 3, seed=seed)
    fabric.links[2].alive = False
    fabric.links[5].alive = False
    for index in (0, 7):
        mask = np.ones_like(fabric.links[index].conv_weight.data)
        mask.reshape(-1)[index::3] = 0.0
        fabric.links[index].conv_weight.set_mask(mask)
    fabric.forward(np.random.default_rng(0).random((2, 3, 4, 4)).astype(np.float32))
    return fabric


def assert_same_state(a, b):
    expected, actual = a.state(), b.state()
    assert list(actual) == list(expected)
    for key, value in expected.items():
        assert actual[key].dtype == value.dtype, key
        np.testing.assert_array_equal(actual[key], value, err_msg=key)


def rewrite_checkpoint(path, edit):
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    edit(members)
    np.savez(path, **members)


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path):
        fabric = dirty_fabric()
        # gamma/beta move only under training: make them differ from the init
        for link in fabric.links:
            link.bn_gamma.data += 0.5
            link.bn_beta.data -= 0.25
        fabric.stem.bn_gamma.data *= 3.0
        fabric.head_bias.data += 1.0

        path = tmp_path / "fabric.npz"
        save_fabric(fabric, path)
        loaded = load_fabric(path)

        assert loaded.L == fabric.L and loaded.S == fabric.S and loaded.C == fabric.C
        assert_same_state(fabric, loaded)
        assert [l.conv_weight.mask is None for l in loaded.links] == \
            [l.conv_weight.mask is None for l in fabric.links]

        x = np.random.default_rng(1).random((2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(fabric.forward(x, "eval").data,
                                      loaded.forward(x, "eval").data)

    def test_member_names_and_meta_keys_pinned(self, tmp_path):
        fabric = build_fabric(2, 2, 1, 2, 2)
        fabric.links[1].alive = False
        for index in (0, 3):
            fabric.links[index].conv_weight.set_mask(np.ones((1, 1, 3, 3)))
        path = tmp_path / "fabric.npz"
        save_fabric(fabric, path)

        links = []
        for i in range(6):
            links += [f"link{i}_{part}" for part in
                      ("conv", "bias", "gamma", "beta", "running_mean", "running_var")]
            if i in (0, 3):
                links.append(f"link{i}_mask")
        with np.load(path) as archive:
            assert archive.files == [
                "__meta__", "stem_weight", "stem_bias", "stem_gamma", "stem_beta",
                "stem_running_mean", "stem_running_var", "head_weight", "head_bias",
            ] + links
            meta = json.loads(str(archive["__meta__"]))
        assert list(meta) == ["version", "layers", "scales", "channels",
                              "input_resolution", "num_classes", "dtype", "alive",
                              "has_mask"]
        assert meta["version"] == 1
        assert meta["alive"] == [True, False, True, True, True, True]
        assert meta["has_mask"] == [True, False, False, True, False, False]

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "fabric"
        save_fabric(build_fabric(2, 2, 1, 2, 2, seed=1), path)
        assert [p.name for p in tmp_path.iterdir()] == ["fabric"]  # no .npz appended
        before = path.read_bytes()

        def interrupted(fh, **arrays):
            fh.write(b"PK partial archive")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_fabric(build_fabric(2, 2, 1, 2, 2, seed=2), path)
        assert [p.name for p in tmp_path.iterdir()] == ["fabric"]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("key,edit", [
        ("link0_conv", lambda m: m.update(link0_conv=np.zeros((2, 2, 3, 3), np.float32))),
        ("stem_bias", lambda m: m.update(stem_bias=m["stem_bias"].astype(np.float64))),
        ("link0_mask", lambda m: m.update(link0_mask=np.ones((4, 4, 3), np.float32))),
        ("link3_running_var", lambda m: m.pop("link3_running_var")),
        ("head_weight", lambda m: m.pop("head_weight")),
        ("link99_mask", lambda m: m.update(link99_mask=np.ones(1, np.float32))),
        pytest.param("link0_mask", lambda m: m.pop("link0_mask"),  # meta still flags it
                     id="link0_mask-flagged-but-absent"),
    ])
    def test_mismatched_or_missing_array_names_key(self, tmp_path, key, edit):
        fabric = build_fabric(2, 2, 4, 2, 2)
        fabric.links[0].conv_weight.set_mask(np.ones((4, 4, 3, 3)))
        path = tmp_path / "fabric.npz"
        save_fabric(fabric, path)
        rewrite_checkpoint(path, edit)
        with pytest.raises(FabricError, match=key):
            load_fabric(path)

    @pytest.mark.parametrize("index,flag", [(0, False), (1, True)])
    def test_has_mask_disagreeing_with_members_names_link(self, tmp_path, index, flag):
        fabric = build_fabric(2, 2, 1, 2, 2)
        fabric.links[0].conv_weight.set_mask(np.ones((1, 1, 3, 3)))
        path = tmp_path / "fabric.npz"
        save_fabric(fabric, path)

        def flip(members):
            meta = json.loads(str(members["__meta__"]))
            meta["has_mask"][index] = flag
            members["__meta__"] = np.array(json.dumps(meta))

        rewrite_checkpoint(path, flip)
        with pytest.raises(FabricError, match=f"link{index}_mask"):
            load_fabric(path)

    @pytest.mark.parametrize("key", ["layers", "scales", "channels", "input_resolution",
                                     "num_classes", "dtype", "alive", "has_mask"])
    def test_missing_meta_key_named(self, tmp_path, key):
        path = tmp_path / "fabric.npz"
        save_fabric(build_fabric(2, 2, 1, 2, 2), path)

        def drop(members):
            meta = json.loads(str(members["__meta__"]))
            del meta[key]
            members["__meta__"] = np.array(json.dumps(meta))

        rewrite_checkpoint(path, drop)
        with pytest.raises(FabricError, match=f"missing '{key}'"):
            load_fabric(path)

    @pytest.mark.parametrize("meta", [[1, 2], "fabric", 7, None])
    def test_meta_that_is_not_an_object_rejected(self, tmp_path, meta):
        path = tmp_path / "fabric.npz"
        save_fabric(build_fabric(2, 2, 1, 2, 2), path)
        rewrite_checkpoint(path, lambda m: m.update(__meta__=np.array(json.dumps(meta))))
        with pytest.raises(FabricError, match="meta must be an object"):
            load_fabric(path)

    @pytest.mark.parametrize("key,value,problem", [
        ("layers", "2", "must be a positive int"), ("scales", 2.0, "must be a positive int"),
        ("channels", True, "must be a positive int"), ("num_classes", 0, "must be a positive int"),
        ("input_resolution", None, "must be a positive int"), ("dtype", "bogus", "is not a dtype"),
        ("has_mask", 5, "must be a list"),
        ("alive", ["a"] * 6, "must be a list of booleans"),
        ("alive", [1] * 6, "must be a list of booleans"),
        ("alive", [True] * 5 + [None], "must be a list of booleans"),
        ("alive", 1, "must be a list of booleans"),
    ])
    def test_bad_dimension_or_dtype_named(self, tmp_path, key, value, problem):
        path = tmp_path / "fabric.npz"
        save_fabric(build_fabric(2, 2, 1, 2, 2), path)

        def spoil(members):
            meta = json.loads(str(members["__meta__"]))
            meta[key] = value
            members["__meta__"] = np.array(json.dumps(meta))

        rewrite_checkpoint(path, spoil)
        with pytest.raises(FabricError, match=f"'{key}' .*{problem}"):
            load_fabric(path)

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.99])
    def test_truncated_file_raises_fabric_error(self, tmp_path, keep):
        path = tmp_path / "fabric.npz"
        save_fabric(dirty_fabric(), path)
        data = path.read_bytes()
        path.write_bytes(data[: int(keep * len(data))])
        with pytest.raises(FabricError, match="not a readable checkpoint"):
            load_fabric(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "fabric.npz"
        save_fabric(build_fabric(2, 2, 1, 2, 2), path)

        def bump(members):
            meta = json.loads(str(members["__meta__"]))
            meta["version"] = 2
            members["__meta__"] = np.array(json.dumps(meta))

        rewrite_checkpoint(path, bump)
        with pytest.raises(FabricError, match="version 2"):
            load_fabric(path)


class TestSnapshot:
    def test_restore_undoes_training_pruning_and_masking(self):
        fabric = dirty_fabric(seed=21)
        snapshot = clone_parameters(fabric)
        reference = dirty_fabric(seed=21)

        optimizer = SGD(fabric.parameters(), SgdConfig(learning_rate=0.1))
        images = np.random.default_rng(2).random((4, 3, 4, 4)).astype(np.float32)
        backward(softmax_cross_entropy(fabric.forward(images), np.array([0, 1, 2, 0])))
        optimizer.step()
        fabric.links[0].conv_weight.mask = None
        fabric.links[9].conv_weight.set_mask(np.zeros((2, 2, 3, 3)))
        fabric.links[2].alive = True
        fabric.links[11].alive = False

        fabric.load_state(snapshot)
        assert_same_state(reference, fabric)
        # the snapshot is copied in, not aliased
        fabric.stem.conv_weight.data += 1.0
        np.testing.assert_array_equal(snapshot["stem_weight"], reference.stem.conv_weight.data)

    def test_state_entries_are_live(self):
        fabric = build_fabric(2, 2, 1, 2, 2)
        state = fabric.state()
        assert state["link4_running_var"] is fabric.links[4].bn_state.running_var
        assert state["head_weight"] is fabric.head_weight.data
        assert "link4_mask" not in state
        assert state["alive"].dtype == bool and state["alive"].all()


class TestPredict:
    def test_sliced_batch_predicts_like_single_images(self, monkeypatch):
        fabric = build_fabric(3, 4, 4, 8, 5, seed=3)
        images = np.random.default_rng(1).random((10, 3, 8, 8)).astype(np.float32)
        one_at_a_time = fabric.predict(images, batch_size=1)
        # three samples' columns of a full-resolution stride-1 conv: slices of
        # 3, 3, 3 and 1 there, fewer and larger ones at the coarser scales
        monkeypatch.setattr(tensor, "CONV_COLUMN_BUDGET", 3 * 4 * 9 * 8 * 8 * 4)
        np.testing.assert_array_equal(fabric.predict(images, batch_size=10), one_at_a_time)

    def test_batch_sliced_to_the_activation_budget(self, monkeypatch):
        fabric = build_fabric(3, 4, 4, 8, 5, seed=3)
        images = np.random.default_rng(1).random((10, 3, 8, 8)).astype(np.float32)
        one_at_a_time = fabric.predict(images, batch_size=1)
        sizes = []
        forward = Fabric.forward

        def spy(self, batch, mode="train"):
            sizes.append(batch.shape[0])
            return forward(self, batch, mode)

        monkeypatch.setattr(Fabric, "forward", spy)
        # three samples' input-resolution activations: 4 channels x 8 x 8 float32
        monkeypatch.setattr(fabric_module, "PREDICT_ACTIVATION_BUDGET", 3 * 4 * 8 * 8 * 4)
        np.testing.assert_array_equal(fabric.predict(images), one_at_a_time)
        assert sizes == [3, 3, 3, 1]
        sizes.clear()
        fabric.predict(images, batch_size=2)
        assert sizes == [2] * 5

    @pytest.mark.parametrize("dims,images,batch_size,slices", [
        ((8, 6, 64, 32, 10), 16, 16, [16]),  # the paper-scale benchmark predict
        ((4, 5, 8, 16, 3), 64, 64, [64]),  # the annotator victim's benchmark predict
        ((8, 6, 64, 32, 10), 256, 256, [64] * 4),  # 256 KiB a sample: 16 MiB slices
    ])
    def test_slices_at_the_default_budget(self, monkeypatch, dims, images, batch_size, slices):
        sizes = []

        def spy(self, batch, mode="train"):
            sizes.append(batch.shape[0])
            return Tensor(np.zeros((batch.shape[0], self.num_classes), dtype=self.dtype))

        monkeypatch.setattr(Fabric, "forward", spy)
        fabric = build_fabric(*dims)
        R = fabric.input_resolution
        fabric.predict(np.zeros((images, 3, R, R), dtype=np.float32), batch_size=batch_size)
        assert sizes == slices

    def test_non_finite_logits_rejected(self):
        fabric = build_fabric(2, 2, 2, 2, 3)
        images = np.random.default_rng(0).random((5, 3, 2, 2)).astype(np.float32)
        assert fabric.predict(images, batch_size=2).shape == (5,)
        images[3] = np.nan
        with pytest.raises(FabricError, match="2..3"):
            fabric.predict(images, batch_size=2)


class TestColumnBudget:
    @pytest.mark.parametrize("dims,batch", [
        ((8, 6, 64, 32, 10), 2),  # 32-px columns: two slices of 1 sample, or one of 2 at 8 MiB
        ((4, 5, 8, 16, 10), 32),  # 16-px columns: one slice of 28 and one of 4, or one of 32
    ], ids=["paper", "desk"])
    def test_forward_logits_do_not_depend_on_the_budget(self, monkeypatch, dims, batch):
        # train and folded eval logits equal those of the earlier 8 MiB budget
        # bit for bit; only backward's rounding follows the slicing
        fabric = build_fabric(*dims, seed=1)
        R = fabric.input_resolution
        images = np.random.default_rng(2).random((batch, 3, R, R)).astype(np.float32)
        for mode in ("eval", "train"):  # eval first: train mode moves the running stats
            logits = []
            for budget in (tensor.CONV_COLUMN_BUDGET, 8 * 2**20):
                monkeypatch.setattr(tensor, "CONV_COLUMN_BUDGET", budget)
                with no_grad():
                    logits.append(fabric.forward(images, mode=mode).data)
            np.testing.assert_array_equal(*logits)


class TestTrainMemory:
    def test_train_forward_holds_only_what_backward_reads(self):
        """What a train-mode forward leaves held, bounded from shapes: each
        batch norm's xhat (for an up link, its conv slice at source
        resolution, a quarter of that), each node's sum and one bit per
        ReLU6 entry, plus 5 % for the graph's small arrays and objects. A
        group's conv saves the links' own weight and bias arrays, so a
        stacked copy (1.2 MB here, 17 % of the bound) does not fit, nor does
        a one-byte ReLU6 mask or an up link's xhat at its destination's
        resolution."""
        fabric = build_fabric(4, 5, 32, 16, 10, seed=0)
        assert all(p._node.grad is None for p in fabric.parameters())
        B, C, R = 16, fabric.C, fabric.input_resolution
        rng = np.random.default_rng(0)
        images = rng.random((B, 3, R, R)).astype(np.float32)
        optimizer = SGD(fabric.parameters(), SgdConfig(0.1))
        # one step first: caches built on first use are not counted, and
        # zero_grad then has grads to drop
        fabric.loss_backward(images, rng.integers(0, 10, B))
        optimizer.step()
        optimizer.zero_grad()
        assert all(p._node.grad is None for p in fabric.parameters())

        def entries(scale):  # of one activation at the scale
            return B * C * (R >> scale) ** 2

        links = [fabric.stem, *fabric.alive_links()]
        xhat = sum(4 * entries(link.src[1] if link.direction is Direction.UP else link.dst[1])
                   for link in links)
        mask_bits = sum(-(-entries(link.dst[1]) // 8) for link in links)
        sums = sum(4 * entries(scale) for _, scale in fabric.nodes())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits = fabric.forward(images, mode="train")
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert logits.shape == (B, 10)
        assert held <= 1.05 * (xhat + sums + mask_bits)


def conv_groups(fabric):
    """The alive links of each conv a forward runs, as _apply_links groups
    them: the stem, then per source that an activation reaches, in (layer,
    scale) order, its stride-1 and stride-2 links in link order."""
    groups, reached = [[fabric.stem]], {fabric.input_node}
    for node in fabric.nodes():
        for stride in (1, 2):
            group = [l for l in fabric.alive_links()
                     if l.src == node and l.direction.stride == stride]
            if group and node in reached:
                groups.append(group)
                reached |= {l.dst for l in group}
    return groups


class TestGroupStorage:
    def test_weights_are_drawn_link_by_link(self):
        # stem, then links in index order, then the head, as one array each
        fabric = build_fabric(3, 3, 4, 4, 3, seed=9)
        rng = np.random.default_rng(9)
        for link in [fabric.stem, *fabric.links]:
            c_in = link.conv_weight.shape[1]
            expected = rng.standard_normal((4, c_in, 3, 3)) * np.sqrt(2.0 / (c_in * 9))
            assert link.conv_weight.data.tobytes() == expected.astype(np.float32).tobytes()
        head = rng.standard_normal((3, 4)) * np.sqrt(1.0 / 4)
        assert fabric.head_weight.data.tobytes() == head.astype(np.float32).tobytes()

    def test_group_convs_read_the_links_own_arrays_until_a_link_is_pruned(self, monkeypatch):
        fabric = build_fabric(3, 3, 2, 4, 3, seed=0)
        fabric.load_state(clone_parameters(build_fabric(3, 3, 2, 4, 3, seed=1)))
        seen = []

        def recording(x, weight, bias, stride=1):
            seen.append((weight.data, bias.data))
            return conv2d(x, weight, bias, stride)

        monkeypatch.setattr(fabric_module, "conv2d", recording)
        x = np.random.default_rng(2).random((2, 3, 4, 4)).astype(np.float32)
        fabric.forward(x, "train")
        groups = conv_groups(fabric)
        assert len(seen) == len(groups) and max(len(g) for g in groups) > 1
        for (weight, bias), group in zip(seen, groups):
            first = group[0]
            if len(group) == 1:
                assert weight is first.conv_weight.data and bias is first.conv_bias.data
            else:
                assert weight is first.conv_weight.data.base
                assert bias is first.conv_bias.data.base

        # a link's own array once its group has lost the other link
        victim = next(g for g in groups if len(g) == 2)[1]
        victim.alive = False
        seen.clear()
        fabric.forward(x, "train")
        for (weight, bias), group in zip(seen, conv_groups(fabric)):
            if len(group) == 1:
                assert weight is group[0].conv_weight.data and bias is group[0].conv_bias.data


def run_engine(engine, fabric, rng, batch, mode):
    """One batch's forward in mode, then backward by engine; returns the batch
    Tensor and the engine's tracemalloc peak over what the forward left held."""
    R = fabric.input_resolution
    x = Tensor(rng.random((batch, 3, R, R)))
    labels = rng.integers(0, 3, batch)
    tracemalloc.start()
    try:
        loss = softmax_cross_entropy(fabric.forward(x, mode), labels)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine(loss)
        return x, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestBackwardOrder:
    """backward() runs nodes newest first; the reference engine runs them in
    a depth-first walk's post-order."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(pruned_fabric_cases(channels=st.integers(1, 6)), st.integers(2, 6))
    def test_grads_match_post_order_reference_bit_for_bit(self, case, batch):
        grads = []
        for engine in (backward, postorder_backward):
            fabric, rng = build_pruned_case(case)
            x, _ = run_engine(engine, fabric, rng, batch, case[-1])
            params = [p for link in [fabric.stem, *fabric.links] for p in link.parameters()]
            grads.append([x.grad] + [p._node.grad for p in params + fabric.head_parameters()])
        for ours, theirs in zip(*grads):
            assert (ours is None) == (theirs is None)
            assert ours is None or ours.tobytes() == theirs.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(st.integers(2, 5), st.integers(3, 5), st.integers(2, 8), st.integers(8, 16),
           st.sampled_from(["train", "eval"]), st.integers(0, 2**32 - 1))
    def test_full_grid_peak_is_below_post_order(self, layers, scales, channels, batch,
                                                mode, seed):
        def peak(engine):
            fabric = build_fabric(layers, scales, channels, 2 ** (scales - 1), 3, seed=seed,
                                  dtype=np.float64)
            return run_engine(engine, fabric, np.random.default_rng(seed), batch, mode)[1]

        peak(backward)  # fills the ops' caches
        assert peak(backward) < peak(postorder_backward)


class TestTrainBatches:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(0, 300), st.integers(2, 70))
    def test_matches_the_slice_by_slice_reference(self, n, batch_size):
        # the batch index seeds augmentation, so it must match too
        expected = train_batches_reference(np.arange(n), batch_size)
        got = list(enumerate(train_batches(np.arange(n), batch_size)))
        assert [index for index, _ in got] == [index for index, _ in expected]
        for (_, batch), (_, reference) in zip(got, expected):
            np.testing.assert_array_equal(batch, reference)
