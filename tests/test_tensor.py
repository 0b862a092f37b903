import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabricprune import tensor
from fabricprune.tensor import (
    SGD,
    BatchNormState,
    Parameter,
    SgdConfig,
    ShapeError,
    Tensor,
    UsageError,
    backward,
    batch_norm,
    concat,
    conv2d,
    linear,
    no_grad,
    relu6,
    softmax_cross_entropy,
    split,
    upsample_bilinear_x2,
)

from oracles import (
    bilinear_x2_reference,
    cross_entropy_reference,
    finite_difference_grads,
    im2col_reference,
    max_grad_mismatch,
    naive_conv2d,
    naive_linear,
    shifted_copies_reference,
    tensor_sum,
)


def _param(rng, *shape):
    return Parameter(rng.standard_normal(shape))


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(x, Parameter(w), Parameter(np.zeros(1)), stride=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_stride2_shape(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        out = conv2d(x, Parameter(np.ones((1, 1, 3, 3))), Parameter(np.zeros(1)), stride=2)
        assert out.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("hw", [(5, 5), (4, 6), (1, 3)])
    def test_matches_naive_loop_oracle(self, stride, hw):
        rng = np.random.default_rng(42)
        h, w = hw
        x = Tensor(rng.standard_normal((1, 2, h, w)))
        kern = _param(rng, 3, 2, 3, 3)
        bias = _param(rng, 3)
        out = conv2d(x, kern, bias, stride=stride)
        expected = naive_conv2d(x.data, kern.data, bias.data, stride)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ShapeError):
            conv2d(x, Parameter(np.zeros((1, 3, 3, 3))), Parameter(np.zeros(1)))

    def test_masked_positions_contribute_nothing(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 1, 4, 4)))
        kern = _param(rng, 1, 1, 3, 3)
        mask = np.ones((1, 1, 3, 3))
        mask[0, 0, 0, :] = 0.0
        kern.set_mask(mask)
        out = conv2d(x, kern, Parameter(np.zeros(1)))
        # an unmasked kernel with those weights hand-zeroed gives the same map
        zeroed = kern.data.copy()
        expected = naive_conv2d(x.data, zeroed, None, 1)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_recorded_node_keeps_no_column_buffer(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 16, 16, 16)))
        w = _param(rng, 16, 16, 3, 3)
        b = _param(rng, 16)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, b)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        # an im2col buffer alone would be 9x the input
        assert retained - out.data.nbytes < 2 * x.data.nbytes


    @pytest.mark.parametrize("stride", [1, 2])
    def test_array_input_is_a_constant(self, stride):
        # the same output and weight and bias grads as a Tensor input gives,
        # with no parent and no grad for the array
        rng = np.random.default_rng(3)
        side = (5 - 1) // stride + 1
        x, w, b, probe = (rng.standard_normal(shape) for shape in
                          ((3, 2, 5, 5), (4, 2, 3, 3), (4,), (1, 3 * 4 * side * side)))
        runs = []
        for given in (x, Tensor(x)):
            weight, bias = Parameter(w.copy()), Parameter(b.copy())
            out = conv2d(given, weight, bias, stride=stride)
            parents = len(out._node.parents)
            backward(tensor_sum(linear(out.reshape((1, -1)), Tensor(probe),
                                       Parameter(np.zeros(1)))))
            runs.append((parents, out.data, weight.grad, bias.grad))
        (array_parents, *array_run), (tensor_parents, *tensor_run) = runs
        assert (array_parents, tensor_parents) == (2, 3)
        for ours, theirs in zip(array_run, tensor_run):
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_output_and_input_grad_are_c_contiguous(self, stride, dtype):
        # batch norm's float32 reductions lose accuracy on a transposed layout
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 2, 5, 6)).astype(dtype))
        w = Parameter(rng.standard_normal((4, 2, 3, 3)).astype(dtype))
        b = Parameter(rng.standard_normal(4).astype(dtype))
        out = conv2d(x, w, b, stride=stride)
        assert out.shape == (3, 4, (5 - 1) // stride + 1, (6 - 1) // stride + 1)
        assert out.data.flags.c_contiguous and out.dtype == dtype
        backward(tensor_sum(out))
        assert x.grad.shape == x.shape
        assert x.grad.flags.c_contiguous and x.grad.dtype == dtype


class TestUpsample:
    def test_constant_field_is_fixed_point(self):
        x = Tensor(np.full((1, 2, 3, 3), 3.5))
        out = upsample_bilinear_x2(x)
        assert out.shape == (1, 2, 6, 6)
        np.testing.assert_allclose(out.data, 3.5)

    def test_single_pixel_replicates(self):
        out = upsample_bilinear_x2(Tensor(np.full((1, 1, 1, 1), -2.25)))
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(out.data, -2.25)

    def test_linear_ramp_matches_closed_form(self):
        ramp = np.arange(6.0).reshape(1, 1, 1, 6)
        out = upsample_bilinear_x2(Tensor(ramp))
        np.testing.assert_allclose(out.data, bilinear_x2_reference(ramp), rtol=1e-12)

    def test_random_matches_closed_form(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4, 5))
        out = upsample_bilinear_x2(Tensor(x))
        np.testing.assert_allclose(out.data, bilinear_x2_reference(x), rtol=1e-6, atol=1e-9)


class TestBatchNorm:
    def test_constant_channel_leaves_beta(self):
        x = Tensor(np.full((2, 1, 3, 3), 5.0))
        gamma, beta = Parameter(np.ones(1)), Parameter(np.array([0.7]))
        out = batch_norm(x, gamma, beta, BatchNormState.create(1, np.float64), "train")
        np.testing.assert_allclose(out.data, 0.7, atol=1e-3)

    def test_normalizes_per_channel(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 2.0 + 1.0)
        gamma, beta = Parameter(np.ones(3)), Parameter(np.zeros(3))
        out = batch_norm(x, gamma, beta, BatchNormState.create(3, np.float64), "train")
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_eval_mode_matches_scalar_arithmetic(self):
        state = BatchNormState(np.array([0.5]), np.array([2.0]))
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        gamma, beta = Parameter(np.array([1.5])), Parameter(np.array([-0.25]))
        out = batch_norm(Tensor(x), gamma, beta, state, "eval")
        expected = (x - 0.5) / np.sqrt(2.0 + 1e-5) * 1.5 - 0.25
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_running_stats_update_only_in_train(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 1, 4, 4)))
        gamma, beta = Parameter(np.ones(1)), Parameter(np.zeros(1))
        state = BatchNormState.create(1, np.float64)
        batch_norm(x, gamma, beta, state, "eval")
        np.testing.assert_array_equal(state.running_mean, 0.0)
        batch_norm(x, gamma, beta, state, "train")
        expected_mean = 0.1 * x.data.mean()
        np.testing.assert_allclose(state.running_mean, expected_mean, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16, 8, 8, 8), (3, 2, 3, 3), (8, 4, 1, 1), (2, 5, 7, 4)])
    def test_train_mode_matches_np_var_bit_for_bit(self, shape, dtype):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(shape) * 2.0 + 1.0).astype(dtype)
        c = shape[1]
        gamma, beta = rng.standard_normal(c).astype(dtype), rng.standard_normal(c).astype(dtype)
        state = BatchNormState(rng.standard_normal(c).astype(dtype),
                               (rng.random(c) + 0.5).astype(dtype))
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        xhat = (x - mean[None, :, None, None]) * (1.0 / np.sqrt(var + 1e-5))[None, :, None, None]
        expected = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
        expected_mean = 0.9 * state.running_mean + 0.1 * mean
        expected_var = 0.9 * state.running_var + 0.1 * var

        out = batch_norm(Tensor(x), Parameter(gamma), Parameter(beta), state, "train")
        np.testing.assert_array_equal(out.data, expected)
        assert out.dtype == dtype
        np.testing.assert_array_equal(state.running_mean, expected_mean.astype(dtype))
        np.testing.assert_array_equal(state.running_var, expected_var.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("shape", [(4, 3, 4, 4), (2, 2, 1, 1), (3, 2, 3, 5)],
                             ids=["even", "1x1", "odd"])
    def test_source_keeps_every_byte(self, shape, mode, dtype):
        # saving the upsample's source and rebuilding xhat in backward gives
        # the bytes that saving xhat gives, even when the running stats move
        # between forward and backward
        rng = np.random.default_rng(21)
        B, C, H, W = shape
        whole = (rng.standard_normal((B, 2 * C, H, W)) * 2.0 + 1.0).astype(dtype)
        gamma0, beta0 = rng.standard_normal(C).astype(dtype), rng.standard_normal(C).astype(dtype)
        running = (rng.standard_normal(C).astype(dtype), (rng.random(C) + 0.5).astype(dtype))
        probe = Tensor(rng.standard_normal((1, C * 4 * H * W)).astype(dtype))

        def run(with_source):
            # h is a view of a wider conv output, as a fabric's up link's is
            h = split(Tensor(whole.copy()), [C, C], axis=1)[1]
            gamma, beta = Parameter(gamma0.copy()), Parameter(beta0.copy())
            state = BatchNormState(running[0].copy(), running[1].copy())
            out = batch_norm(upsample_bilinear_x2(h), gamma, beta, state, mode,
                             source=h if with_source else None)
            stats = [state.running_mean.copy(), state.running_var.copy()]
            batch_norm(Tensor(whole[:, :C]), gamma, beta, state, "train")
            backward(_probed(out, probe))
            return [out.data, *stats, h.grad, gamma.grad, beta.grad]

        for got, want in zip(run(with_source=True), run(with_source=False)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("source", [
        np.zeros((2, 3, 4, 3)), np.zeros((2, 2, 4, 4)), np.zeros((2, 3, 4)),
        np.zeros((1, 3, 4, 4)), np.zeros((2, 3, 4, 4), dtype=np.float32),
    ], ids=["width", "channels", "3d", "batch", "dtype"])
    def test_source_must_upsample_to_x(self, source):
        with pytest.raises(ShapeError, match="upsample of source"):
            batch_norm(Tensor(np.zeros((2, 3, 8, 8))), Parameter(np.ones(3)),
                       Parameter(np.zeros(3)), BatchNormState.create(3, np.float64),
                       source=Tensor(source))

    def test_train_mode_needs_two_values(self):
        with pytest.raises(UsageError):
            batch_norm(Tensor(np.ones((1, 1, 1, 1))), Parameter(np.ones(1)),
                       Parameter(np.zeros(1)), BatchNormState.create(1), "train")


class TestRelu6:
    @pytest.mark.parametrize("value,expected", [(-1.0, 0.0), (3.0, 3.0), (7.0, 6.0)])
    def test_clamps(self, value, expected):
        out = relu6(Tensor(np.array([value])))
        assert out.data[0] == expected

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.integers(1, 3), st.integers(1, 23).filter(lambda n: n % 8),
           st.sampled_from([np.float32, np.float64]), st.data())
    def test_backward_is_grad_times_inside_bit_for_bit(self, rows, cols, dtype, data):
        # the mask is saved one bit per entry, so entry counts that are not a
        # multiple of 8 leave a partly used last byte
        values = st.one_of(st.sampled_from([0.0, 6.0, np.nan, -0.0]),
                           st.floats(-8.0, 8.0, allow_nan=False))
        x_data = np.array(data.draw(st.lists(values, min_size=rows * cols,
                                             max_size=rows * cols)), dtype=dtype)
        x = Tensor(x_data.reshape(rows, 1, cols))
        out = relu6(x)
        g = np.random.default_rng(rows * 100 + cols).standard_normal(x.shape).astype(dtype)
        out.grad = g
        out._backward()
        expected = g * ((out.data > 0) & (out.data < 6))
        assert x.grad.dtype == dtype and x.grad.shape == x.shape
        assert x.grad.tobytes() == expected.tobytes()


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = linear(x, Parameter(np.eye(3)), Parameter(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_input_gives_bias(self):
        bias = Parameter(np.array([1.0, -2.0]))
        out = linear(Tensor(np.zeros((3, 4))), Parameter(np.zeros((2, 4))), bias)
        np.testing.assert_allclose(out.data, np.tile(bias.data, (3, 1)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 3)))
        w, b = _param(rng, 4, 3), _param(rng, 4)
        out = linear(x, w, b)
        np.testing.assert_allclose(out.data, naive_linear(x.data, w.data, b.data), rtol=1e-8)

    def test_feature_mismatch_raises(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Parameter(np.zeros((4, 5))), Parameter(np.zeros(4)))


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((2, 10))), np.array([3, 7]))
        np.testing.assert_allclose(loss.item(), np.log(10.0), rtol=1e-9)

    def test_saturated_correct_prediction(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1000.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([2]))
        assert loss.item() < 1e-8

    def test_matches_explicit_exponential_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((3, 4))
        targets = np.array([0, 3, 1])
        loss = softmax_cross_entropy(Tensor(logits), targets)
        np.testing.assert_allclose(loss.item(), cross_entropy_reference(logits, targets),
                                   rtol=1e-9)

    def test_out_of_range_target_raises(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


class TestBackward:
    def test_sum_grad_is_one(self):
        w = Parameter(np.array([2.0, -1.0, 0.5]))
        backward(tensor_sum(w))
        np.testing.assert_array_equal(w.grad, np.ones(3))

    def test_backward_without_forward_raises(self):
        with pytest.raises(UsageError):
            backward(Parameter(np.array(1.0)))

    def test_non_scalar_loss_raises(self):
        w = Parameter(np.ones(3))
        out = w + w
        with pytest.raises(UsageError):
            backward(out)

    def test_shared_node_accumulates(self):
        w = Parameter(np.array([3.0]))
        out = tensor_sum(w + w)
        backward(out)
        np.testing.assert_allclose(w.grad, [2.0])

    def test_masked_grads_are_zeroed(self):
        rng = np.random.default_rng(17)
        w = Parameter(rng.standard_normal((2, 2, 3, 3)))
        mask = (rng.random((2, 2, 3, 3)) > 0.5).astype(float)
        w.set_mask(mask)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        loss = tensor_sum(conv2d(x, w, Parameter(np.zeros(2))))
        backward(loss)
        np.testing.assert_array_equal(w.grad[mask == 0.0], 0.0)

    def test_no_grad_skips_recording(self):
        w = Parameter(np.ones((2, 2)))
        with no_grad():
            out = linear(Tensor(np.ones((1, 2))), w, Parameter(np.zeros(2)))
            conv = conv2d(Tensor(np.ones((1, 2, 4, 4))), Parameter(np.ones((2, 2, 3, 3))),
                          Parameter(np.zeros(2)))
        assert out._node.parents == ()
        assert out._backward is None
        assert conv._node.parents == () and conv._backward is None

    def test_backward_frees_graph_without_cycle_collector(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Parameter(rng.standard_normal((2, 2, 3, 3)))
        gc.disable()
        try:
            hidden = conv2d(x, w, Parameter(np.zeros(2)))
            hidden_data = weakref.ref(hidden.data)
            loss = tensor_sum(relu6(hidden))
            del hidden
            backward(loss)
            del loss
            assert hidden_data() is None
        finally:
            gc.enable()

    def test_graph_does_not_pin_intermediate_values(self):
        def run(keep_intermediates):
            rng = np.random.default_rng(8)
            x = Tensor(rng.standard_normal((2, 2, 4, 4)))
            w, b = _param(rng, 3, 2, 3, 3), _param(rng, 3)
            gamma, beta = _param(rng, 3), _param(rng, 3)
            conv = conv2d(x, w, b)
            normed = batch_norm(conv, gamma, beta, BatchNormState.create(3, np.float64))
            loss = tensor_sum(relu6(normed))
            values = [weakref.ref(conv.data), weakref.ref(normed.data)]
            kept = [conv, normed] if keep_intermediates else []
            del conv, normed
            alive = [value() is not None for value in values]
            backward(loss)
            del kept
            return alive, [t.grad for t in (x, w, b, gamma, beta)]

        gc.disable()
        try:
            alive, grads = run(keep_intermediates=False)
            kept_alive, kept_grads = run(keep_intermediates=True)
        finally:
            gc.enable()
        # only the arrays backward reads are saved; conv and batch-norm outputs die
        assert alive == [False, False] and kept_alive == [True, True]
        for got, want in zip(grads, kept_grads):
            np.testing.assert_array_equal(got, want)

    def test_source_does_not_pin_the_conv_output_it_is_split_from(self):
        rng = np.random.default_rng(4)
        conv = Tensor(rng.standard_normal((2, 4, 3, 3)))
        gamma, beta = _param(rng, 2), _param(rng, 2)
        h = split(conv, [2, 2], axis=1)[0]
        normed = batch_norm(upsample_bilinear_x2(h), gamma, beta,
                            BatchNormState.create(2, np.float64), source=h)
        whole = weakref.ref(conv.data)
        gc.disable()
        try:
            del conv, h
            assert whole() is None
        finally:
            gc.enable()
        backward(tensor_sum(normed))
        assert np.isfinite(gamma.grad).all()

    def test_second_backward_raises(self):
        w = Parameter(np.array([1.0, 2.0]))
        loss = tensor_sum(relu6(w))
        backward(loss)
        with pytest.raises(UsageError, match="already used"):
            backward(loss)


class TestBackwardSlot:
    def test_wrapped_slots_run_once_and_grads_are_unchanged(self):
        # a span tracer swaps each op output's _backward for a zero-argument
        # timing wrapper; backward() must call exactly the swapped-in slots
        def run(wrap):
            rng = np.random.default_rng(5)
            x = Tensor(rng.standard_normal((2, 2, 4, 4)))
            weights = [_param(rng, 2, 2, 3, 3), _param(rng, 2, 2, 3, 3)]
            biases = [_param(rng, 2), _param(rng, 2)]
            gamma, beta = _param(rng, 2), _param(rng, 2)
            head_w, head_b = _param(rng, 3, 2 * 4 * 4), _param(rng, 3)
            state = BatchNormState.create(2, np.float64)

            conv = wrap("conv2d", conv2d(x, wrap("concat.w", concat(weights)),
                                         wrap("concat.b", concat(biases)), stride=2))
            a, b = (wrap(f"split.{i}", piece)
                    for i, piece in enumerate(split(conv, [2, 2], axis=1)))
            h = wrap("upsample.a", upsample_bilinear_x2(a))
            h = wrap("relu6", relu6(wrap("batch_norm", batch_norm(h, gamma, beta, state))))
            h = wrap("add", h + wrap("upsample.b", upsample_bilinear_x2(b)))
            logits = wrap("linear", linear(wrap("reshape", h.reshape((2, -1))), head_w, head_b))
            backward(wrap("cross_entropy", softmax_cross_entropy(logits, np.array([0, 2]))))
            return [t.grad for t in (x, *weights, *biases, gamma, beta, head_w, head_b)]

        calls: dict[str, int] = {}

        def counted(name, out):
            inner = out._backward
            calls[name] = 0

            def wrapper():
                calls[name] += 1
                inner()

            out._backward = wrapper
            return out

        wrapped = run(counted)
        assert len(calls) == 13 and set(calls.values()) == {1}
        for got, want in zip(wrapped, run(lambda name, out: out)):
            np.testing.assert_array_equal(got, want)


class TestGradHandOff:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_grad_is_a_private_c_contiguous_array(self, dtype):
        # ops hand freshly allocated grads to their parents uncopied; a grad
        # that is a view of another grad or of a forward value must never be
        # handed over, or a later in-place update would corrupt both
        rng = np.random.default_rng(9)

        def param(*shape):
            return Parameter(rng.standard_normal(shape).astype(dtype))

        def leaf(*shape):  # its grad starts as None, as an intermediate's does
            return Tensor(rng.standard_normal(shape).astype(dtype))

        x = leaf(2, 3, 4, 4)
        weights, biases = [leaf(2, 3, 3, 3), leaf(2, 3, 3, 3)], [leaf(2), leaf(2)]
        gammas, betas = [param(2), param(2)], [param(2), param(2)]
        head_w, head_b = param(5, 2 * 8 * 8), param(5)
        weight, bias = concat(weights), concat(biases)
        conv = conv2d(x, weight, bias)
        pieces = split(conv, [2, 2], axis=1)
        ups = [upsample_bilinear_x2(piece) for piece in pieces]
        normed = [batch_norm(h, gamma, beta, BatchNormState.create(2, dtype), mode)
                  for h, gamma, beta, mode in zip(ups, gammas, betas, ["train", "eval"])]
        acts = [relu6(h) for h in normed]
        total = acts[0] + acts[1]
        flat = total.reshape((2, -1))
        logits = linear(flat, head_w, head_b)
        loss = softmax_cross_entropy(logits, np.array([0, 3]))
        tensors = [x, *weights, *biases, *gammas, *betas, head_w, head_b, weight, bias, conv,
                   *pieces, *ups, *normed, *acts, total, flat, logits, loss]
        backward(loss)

        for i, t in enumerate(tensors):
            assert t.grad.flags.c_contiguous and t.grad.dtype == t.dtype, i
            for j, other in enumerate(tensors):
                assert not np.shares_memory(t.grad, other.data), (i, j)
                if j != i:
                    assert not np.shares_memory(t.grad, other.grad), (i, j)


def _gradcheck(build_loss, params, step=1e-5, tol=1e-4):
    """Analytic grads vs central differences on float64 inputs."""
    loss = build_loss()
    backward(loss)
    analytic = [p.grad.copy() for p in params]
    numeric = finite_difference_grads(lambda: build_loss().item(),
                                      [p.data for p in params], step)
    assert max_grad_mismatch(analytic, numeric) < tol


class TestGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_conv2d_grads(self, seed):
        rng = np.random.default_rng(seed)
        stride = 1 if seed % 2 == 0 else 2
        x = Parameter(rng.standard_normal((2, 2, 4, 4)))
        w = _param(rng, 2, 2, 3, 3)
        b = _param(rng, 2)
        _gradcheck(lambda: tensor_sum(relu6(conv2d(x, w, b, stride=stride))), [x, w, b])

    @pytest.mark.parametrize("seed", range(20))
    def test_upsample_grads(self, seed):
        rng = np.random.default_rng(seed + 100)
        x = Parameter(rng.standard_normal((1, 2, 3, 3)))
        _gradcheck(lambda: tensor_sum(upsample_bilinear_x2(x)), [x])

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batch_norm_grads(self, seed, mode):
        rng = np.random.default_rng(seed + 200)
        x = Parameter(rng.standard_normal((3, 2, 3, 3)))
        gamma = Parameter(rng.standard_normal(2) + 1.5)
        beta = _param(rng, 2)
        state = BatchNormState(rng.standard_normal(2) * 0.1,
                               rng.random(2) + 0.5)

        def build():
            # fresh copy: train mode mutates running stats, a side effect that
            # must not leak between finite-difference evaluations
            local = BatchNormState(state.running_mean.copy(), state.running_var.copy())
            return tensor_sum(relu6(batch_norm(x, gamma, beta, local, mode)))

        _gradcheck(build, [x, gamma, beta])

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batch_norm_with_source_grads(self, seed, mode):
        rng = np.random.default_rng(seed + 500)
        h = Parameter(rng.standard_normal((3, 2, 2, 3)))
        gamma = Parameter(rng.standard_normal(2) + 1.5)
        beta = _param(rng, 2)
        state = BatchNormState(rng.standard_normal(2) * 0.1, rng.random(2) + 0.5)

        def build():
            local = BatchNormState(state.running_mean.copy(), state.running_var.copy())
            up = upsample_bilinear_x2(h)
            return tensor_sum(relu6(batch_norm(up, gamma, beta, local, mode, source=h)))

        _gradcheck(build, [h, gamma, beta])

    @pytest.mark.parametrize("seed", range(20))
    def test_linear_softmax_grads(self, seed):
        rng = np.random.default_rng(seed + 300)
        x = Parameter(rng.standard_normal((3, 4)))
        w = _param(rng, 5, 4)
        b = _param(rng, 5)
        targets = rng.integers(0, 5, size=3)
        _gradcheck(lambda: softmax_cross_entropy(linear(x, w, b), targets), [x, w, b])

    @pytest.mark.parametrize("seed", range(20))
    def test_relu6_grads(self, seed):
        rng = np.random.default_rng(seed + 400)
        x_data = rng.standard_normal((4, 4)) * 3.0
        # keep samples away from the kinks at 0 and 6 where the derivative jumps
        x_data += 0.01 * np.sign(x_data)
        x_data[np.abs(x_data - 6.0) < 0.01] += 0.05
        x = Parameter(x_data)
        w = _param(rng, 4, 4)
        b = Parameter(np.zeros(4))
        _gradcheck(lambda: tensor_sum(relu6(linear(x, w, b))), [x, w, b])

    def test_float32_gradcheck_with_coarse_step(self):
        rng = np.random.default_rng(9)
        x = Parameter(rng.standard_normal((2, 2, 4, 4)).astype(np.float32))
        w = Parameter(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))

        def build():
            return tensor_sum(conv2d(x, w, Parameter(np.zeros(2, np.float32))))

        loss = build()
        backward(loss)
        analytic = [w.grad.astype(np.float64)]
        numeric = finite_difference_grads(lambda: float(build().data), [w.data], 1e-3)
        assert max_grad_mismatch(analytic, numeric) < 1e-2


def _probed(out: Tensor, probe: Tensor) -> Tensor:
    """A random linear functional of out, so every entry gets its own grad."""
    return tensor_sum(linear(out.reshape((out.shape[0], -1)), probe, Parameter(np.zeros(1))))


def _assert_matches_oracles(build, params, expected):
    """build() -> (loss, out) on float64 Parameters: out against the oracle's
    values, every parameter's grad against central differences."""
    loss, out = build()
    np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)
    backward(loss)
    analytic = [p.grad.copy() for p in params]
    with no_grad():
        numeric = finite_difference_grads(lambda: build()[0].item(),
                                          [p.data for p in params], 1e-5)
    assert max_grad_mismatch(analytic, numeric) < 1e-7


@st.composite
def conv_cases(draw, max_batch=2):
    """A small float64 conv2d problem: input, kernel, bias, stride, probe."""
    b, cin, cout = draw(st.integers(1, max_batch)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    stride = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    return (rng.standard_normal((b, cin, h, w)), rng.standard_normal((cout, cin, 3, 3)),
            rng.standard_normal(cout), stride, rng.standard_normal((1, cout * ho * wo)))


class TestConv2dProperties:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(conv_cases())
    def test_matches_oracles(self, case):
        x_data, w_data, b_data, stride, probe_data = case
        x, w, b = Parameter(x_data), Parameter(w_data), Parameter(b_data)
        probe = Tensor(probe_data)

        def build():
            out = conv2d(x, w, b, stride=stride)
            return _probed(out, probe), out

        _assert_matches_oracles(build, [x, w, b], naive_conv2d(x_data, w_data, b_data, stride))


@st.composite
def column_build_cases(draw):
    """A (b, C, H, W) array with H != W, extents 1-9, float32 or float64,
    some entries -0.0 and some +0.0, given C-contiguous or as a transposed
    view; and a stride."""
    b, c = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9).filter(lambda n: n != h))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((b, c, w, h)).astype(dtype)
    zeros = rng.random(x.shape)
    x[zeros < 0.2] = -0.0
    x[zeros > 0.9] = 0.0
    x = x.transpose(0, 1, 3, 2)
    if draw(st.booleans()):
        x = np.ascontiguousarray(x)
    return x, draw(st.sampled_from([1, 2]))


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestColumnBuilds:
    """The flat-buffer column and shifted-copy builds give the padded 2-D
    formulas' values bit for bit, signed zeros included."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(column_build_cases())
    def test_im2col_matches_padded_windows(self, case):
        x, stride = case
        h, w = x.shape[2:]
        ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
        _assert_same_bits(tensor._im2col(x, stride, ho, wo),
                          im2col_reference(x, stride, ho, wo))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(column_build_cases())
    def test_shifted_copies_match_padded_slabs(self, case):
        g, stride = case
        shifts = tensor._parity_taps(stride)[0]
        _assert_same_bits(tensor._shifted_copies(g, shifts), shifted_copies_reference(g, shifts))


@st.composite
def sliced_conv_cases(draw):
    """A conv_cases problem, a column budget that holds 0 (a single sample is
    over it) to B samples' columns, and whether the input is a Parameter
    holding a zero grad before backward, which backward adds into, or a
    plain Tensor, which holds none."""
    case = draw(conv_cases(max_batch=5))
    x_data, stride = case[0], case[3]
    b, cin, h, w = x_data.shape
    sample_bytes = cin * 9 * ((h - 1) // stride + 1) * ((w - 1) // stride + 1) * 8
    per_slice = draw(st.integers(0, b))
    return case + (per_slice * sample_bytes or sample_bytes - 1, sample_bytes,
                   draw(st.sampled_from([_with_zero_grad, Tensor])))


def _with_zero_grad(data):
    p = Parameter(data)
    p.grad = np.zeros_like(p.data)
    return p


class TestConv2dSlicing:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(sliced_conv_cases())
    def test_slices_match_one_pass_and_oracles(self, case):
        x_data, w_data, b_data, stride, probe_data, budget, sample_bytes, leaf = case
        x, w, b = leaf(x_data), Parameter(w_data), Parameter(b_data)
        probe = Tensor(probe_data)
        with no_grad():  # the default budget holds these whole batches
            one_pass = conv2d(x, w, b, stride=stride).data

        def build():
            out = conv2d(x, w, b, stride=stride)
            return _probed(out, probe), out

        built = []  # samples and bytes of every column buffer

        def recording_im2col(x_slice, *args, **kwargs):
            cols = im2col(x_slice, *args, **kwargs)
            built.append((x_slice.shape[0], cols.nbytes))
            return cols

        im2col = tensor._im2col
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "CONV_COLUMN_BUDGET", budget)
            mp.setattr(tensor, "_im2col", recording_im2col)
            with no_grad():
                np.testing.assert_array_equal(conv2d(x, w, b, stride=stride).data, one_pass)
            per_slice, batch = max(1, budget // sample_bytes), x_data.shape[0]
            assert [n for n, _ in built] == [min(per_slice, batch - start)
                                             for start in range(0, batch, per_slice)]
            assert all(n == 1 or nbytes <= budget for n, nbytes in built)
            _assert_matches_oracles(build, [x, w, b],
                                    naive_conv2d(x_data, w_data, b_data, stride))

    def test_peak_memory_stays_within_the_budget(self, monkeypatch):
        budget = 256 * 1024
        monkeypatch.setattr(tensor, "CONV_COLUMN_BUDGET", budget)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((8, 8, 16, 16)))
        w, b = _param(rng, 8, 8, 3, 3), _param(rng, 8)
        full_columns = 8 * 9 * 8 * 16 * 16 * 8
        assert full_columns >= 4 * budget
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, b)
            backward(tensor_sum(out))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for a in (x.data, out.data, out.grad, x.grad, w.grad, b.grad))
        assert peak < budget + arrays


@st.composite
def backward_cases(draw):
    """A float64 conv2d problem whose output has one channel fewer than, as
    many as or one more than its input, at stride 1 or 2, a column budget
    that holds 0 (a single sample is over it) to B samples' shifted copies of
    the output grad (9 at stride 1, 4 at stride 2), and the input's leaf kind
    as in sliced_conv_cases."""
    b, cin = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    cout = cin + draw(st.sampled_from([-1, 0, 1]))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    stride = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    sample_bytes = (9 if stride == 1 else 4) * cout * ho * wo * 8
    per_slice = draw(st.integers(0, b))
    return (rng.standard_normal((b, cin, h, w)), rng.standard_normal((cout, cin, 3, 3)),
            rng.standard_normal(cout), stride, rng.standard_normal((1, cout * ho * wo)),
            per_slice * sample_bytes or sample_bytes - 1, sample_bytes,
            draw(st.sampled_from([_with_zero_grad, Tensor])))


def _backward_peak(x, w, stride, rng) -> int:
    """Traced peak bytes of one conv2d backward, over what it starts with."""
    out = conv2d(x, w, Parameter(np.zeros(w.shape[0])), stride=stride)
    out.grad = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out._backward()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestConv2dBackward:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(backward_cases())
    def test_matches_oracles_from_sliced_shifted_grad_copies(self, case):
        # both grads of every conv come from shifted copies of the output
        # grad, one set per slice of the batch; backward builds no input columns
        x_data, w_data, b_data, stride, probe_data, budget, sample_bytes, leaf = case
        x, w, b = leaf(x_data), Parameter(w_data), Parameter(b_data)
        probe = Tensor(probe_data)

        def build():
            out = conv2d(x, w, b, stride=stride)
            return _probed(out, probe), out

        built = []  # samples and bytes of every set of shifted copies

        def recording_copies(g, shifts):
            copies = shifted_copies(g, shifts)
            built.append((g.shape[0], copies.nbytes))
            return copies

        def input_columns(*args):
            raise AssertionError("backward built input columns")

        shifted_copies = tensor._shifted_copies
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "CONV_COLUMN_BUDGET", budget)
            mp.setattr(tensor, "_shifted_copies", recording_copies)
            _assert_matches_oracles(build, [x, w, b],
                                    naive_conv2d(x_data, w_data, b_data, stride))
            per_slice, batch = max(1, budget // sample_bytes), x_data.shape[0]
            assert [n for n, _ in built] == [min(per_slice, batch - start)
                                             for start in range(0, batch, per_slice)]
            assert all(n == 1 or nbytes <= budget for n, nbytes in built)
            loss, _ = build()
            mp.setattr(tensor, "_im2col", input_columns)
            backward(loss)

    def test_stride_1_holds_one_slice_of_shifted_grad_copies(self, monkeypatch):
        # 32 -> 4 channels: the input's columns would be 8x the grad's copies
        B, cin, cout, n = 8, 32, 4, 16
        per_slice = 2
        grad_columns = per_slice * 9 * cout * n * n * 8
        monkeypatch.setattr(tensor, "CONV_COLUMN_BUDGET", grad_columns)
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((B, cin, n, n)))
        w = _param(rng, cout, cin, 3, 3)
        peak = _backward_peak(x, w, 1, rng)
        input_slice = per_slice * cin * n * n * 8
        padded_grad_slice = per_slice * cout * (n + 2) * (n + 2) * 8
        # x's channel-major copy and its input grad are one input slice each
        temporaries = 2 * input_slice + padded_grad_slice + w.grad.nbytes
        assert peak < 1.1 * (grad_columns + x.grad.nbytes + temporaries)

    def test_stride_2_holds_one_slice_of_shifted_grad_copies(self, monkeypatch):
        # 32 -> 4 channels: the input's columns, or the columns w.T @ grad
        # that a col2im would scatter, would each be 18x the grad's copies
        B, cin, cout, n = 8, 32, 4, 16
        per_slice, m = 2, n // 2
        grad_columns = per_slice * 4 * cout * m * m * 8
        monkeypatch.setattr(tensor, "CONV_COLUMN_BUDGET", grad_columns)
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((B, cin, n, n)))
        w = _param(rng, cout, cin, 3, 3)
        peak = _backward_peak(x, w, 2, rng)
        # the four input parities, channel-major, and one parity's input grad
        # add up to 1.25 input slices
        parities = 1.25 * per_slice * cin * n * n * 8
        padded_grad_slice = per_slice * cout * (m + 2) * (m + 2) * 8
        temporaries = parities + padded_grad_slice + w.grad.nbytes
        assert peak < 1.1 * (grad_columns + x.grad.nbytes + temporaries)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_frees_each_slice_of_shifted_grad_copies(self, monkeypatch, stride):
        # 4 -> 32 channels: the copies dominate, so holding a slice's copies
        # while the next slice builds its own would exceed the bound
        B, cin, cout, n = 8, 4, 32, 16
        per_slice, m = 2, (n - 1) // stride + 1
        shifts = 9 if stride == 1 else 4
        grad_columns = per_slice * shifts * cout * m * m * 8
        monkeypatch.setattr(tensor, "CONV_COLUMN_BUDGET", grad_columns)
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((B, cin, n, n)))
        w = _param(rng, cout, cin, 3, 3)
        peak = _backward_peak(x, w, stride, rng)
        input_slice = per_slice * cin * n * n * 8
        padded_grad_slice = per_slice * cout * (m + 2) * (m + 2) * 8
        temporaries = 2 * input_slice + padded_grad_slice + w.grad.nbytes
        assert peak < 1.1 * (grad_columns + x.grad.nbytes + temporaries)


@st.composite
def concat_split_cases(draw):
    """Float64 blocks joined along one axis and cut again at other places."""
    axis = draw(st.integers(0, 2))
    shape = [draw(st.integers(1, 3)) for _ in range(3)]
    extents = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    total = sum(extents)
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=2))) if total > 1 else []
    pieces = np.diff([0, *cuts, total]).tolist()
    return axis, shape, extents, pieces, draw(st.integers(0, 2**32 - 1))


class TestConcatSplitProperties:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(concat_split_cases())
    def test_grads_match_finite_differences(self, case):
        axis, shape, extents, pieces, seed = case
        rng = np.random.default_rng(seed)

        def block_shape(n):
            return tuple(n if d == axis else e for d, e in enumerate(shape))

        blocks = [Parameter(rng.standard_normal(block_shape(n))) for n in extents]
        mask = (rng.random(blocks[0].shape) > 0.5).astype(np.float64)
        blocks[0].set_mask(mask)
        probes = [Tensor(rng.standard_normal((1, int(np.prod(block_shape(n))))))
                  for n in pieces]

        def build():
            parts = split(concat(blocks, axis=axis), pieces, axis=axis)
            assert [p.shape for p in parts] == [block_shape(n) for n in pieces]
            losses = [tensor_sum(linear(p.reshape((1, -1)), probe, Parameter(np.zeros(1))))
                      for p, probe in zip(parts, probes)]
            total = losses[0]
            for extra in losses[1:]:
                total = total + extra
            return total

        backward(build())
        analytic = [b.grad.copy() for b in blocks]
        assert np.all(analytic[0][mask == 0.0] == 0.0)
        with no_grad():
            numeric = finite_difference_grads(lambda: build().item(),
                                              [b.data for b in blocks], 1e-5)
        # a masked weight never moves, so its pull is hidden from .grad
        numeric[0] *= mask
        assert max_grad_mismatch(analytic, numeric) < 1e-7

    def test_split_extents_must_cover_axis(self):
        with pytest.raises(ShapeError):
            split(Tensor(np.zeros((2, 5))), [2, 2], axis=1)


def _tiles(whole, extents, axis):
    """Consecutive views of whole along axis with the given extents."""
    return [whole[(slice(None),) * axis + (slice(stop - n, stop),)]
            for n, stop in zip(extents, np.cumsum(extents))]


class TestConcatOfTiles:
    """concat returns the array its inputs' values tile in order, and copies
    anything else."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_returns_the_array_its_inputs_tile(self, axis):
        whole = np.arange(36.0).reshape(6, 6).copy()  # owns its memory
        parts = [Parameter(view) for view in _tiles(whole, [1, 2, 3], axis)]
        out = concat(parts, axis=axis)
        assert out.data is whole
        probe = np.random.default_rng(0).standard_normal((1, 36))
        backward(tensor_sum(linear(out.reshape((1, 36)), Tensor(probe), Parameter(np.zeros(1)))))
        for part, expected in zip(parts, _tiles(probe.reshape(6, 6), [1, 2, 3], axis)):
            np.testing.assert_array_equal(part.grad, expected)
            assert not np.shares_memory(part.grad, whole)

    @pytest.mark.parametrize("case", ["reversed", "lost a block", "prefix", "two arrays",
                                      "interleaved", "owners"])
    def test_copies_what_does_not_tile_one_array(self, case):
        whole = np.arange(36.0).reshape(6, 6).copy()  # owns its memory
        other = whole + 100.0
        a, b, c = _tiles(whole, [2, 2, 2], 0)
        values = {"reversed": [c, b, a], "lost a block": [a, c], "prefix": [a, b],
                  "two arrays": [a, _tiles(other, [2, 2, 2], 0)[1], c],
                  "interleaved": [whole[::2], whole[1::2]],
                  "owners": [a.copy(), b.copy(), c.copy()]}[case]
        out = concat([Parameter(v) for v in values])
        assert not np.shares_memory(out.data, whole)
        np.testing.assert_array_equal(out.data, np.concatenate(values))


@st.composite
def image_cases(draw, min_values=1):
    """A float64 (B,C,H,W) batch with at least min_values entries per channel,
    and a seed for the rest of the problem."""
    b, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if b * h * w < min_values:
        b = min_values
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((b, c, h, w)) * draw(st.sampled_from([0.5, 1.0, 3.0])), rng


class TestOpProperties:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(image_cases(min_values=2))
    def test_batch_norm_matches_oracles(self, mode, case):
        x_data, rng = case
        c = x_data.shape[1]
        x = Parameter(x_data)
        gamma, beta = Parameter(rng.standard_normal(c) + 1.5), Parameter(rng.standard_normal(c))
        running = (rng.standard_normal(c) * 0.1, rng.random(c) + 0.5)
        probe = Tensor(rng.standard_normal((1, x_data[0].size)))

        def build():
            # a fresh state each call: train mode updates the running stats
            state = BatchNormState(running[0].copy(), running[1].copy())
            out = batch_norm(x, gamma, beta, state, mode)
            return _probed(out, probe), out

        axes = (0, 2, 3)
        if mode == "train":
            mean, var = x_data.mean(axis=axes), x_data.var(axis=axes)
        else:
            mean, var = running
        xhat = (x_data - mean[None, :, None, None]) / np.sqrt(var + 1e-5)[None, :, None, None]
        expected = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
        _assert_matches_oracles(build, [x, gamma, beta], expected)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(image_cases())
    def test_upsample_matches_oracles(self, case):
        x_data, rng = case
        x = Parameter(x_data)
        probe = Tensor(rng.standard_normal((1, 4 * x_data[0].size)))

        def build():
            out = upsample_bilinear_x2(x)
            return _probed(out, probe), out

        _assert_matches_oracles(build, [x], bilinear_x2_reference(x_data))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_linear_matches_oracles(self, b, f, k, seed):
        rng = np.random.default_rng(seed)
        x, w = Parameter(rng.standard_normal((b, f))), Parameter(rng.standard_normal((k, f)))
        bias = Parameter(rng.standard_normal(k))
        probe = Tensor(rng.standard_normal((1, k)))

        def build():
            out = linear(x, w, bias)
            return _probed(out, probe), out

        _assert_matches_oracles(build, [x, w, bias], naive_linear(x.data, w.data, bias.data))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 6), st.sampled_from([0.1, 1.0, 5.0]),
           st.integers(0, 2**32 - 1))
    def test_softmax_cross_entropy_matches_oracles(self, b, k, scale, seed):
        rng = np.random.default_rng(seed)
        logits = Parameter(rng.standard_normal((b, k)) * scale)
        targets = rng.integers(0, k, size=b)
        probe = Tensor(rng.standard_normal((1, 1)))

        def build():
            out = softmax_cross_entropy(logits, targets)
            return _probed(out.reshape((1, 1)), probe), out

        _assert_matches_oracles(build, [logits],
                                cross_entropy_reference(logits.data, targets))


class TestGradLifecycle:
    def test_no_grad_array_from_construction_or_zero_grad_to_backward(self):
        rng = np.random.default_rng(41)
        w, b = _param(rng, 2, 3, 3, 3), _param(rng, 2)
        params = [w, b]
        assert all(p._node.grad is None for p in params)
        backward(tensor_sum(conv2d(Tensor(rng.standard_normal((1, 3, 4, 4))), w, b)))
        assert all(p._node.grad is not None and p.grad.any() for p in params)
        SGD(params, SgdConfig(learning_rate=0.1)).zero_grad()
        for p in params:
            assert p._node.grad is None
            assert p.grad.shape == p.shape and p.grad.dtype == p.dtype
            assert not p.grad.any()
            with pytest.raises(ValueError, match="read-only"):
                p.grad[...] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                p.grad += 1.0
            assert p._node.grad is None and not p.grad.any()

    def test_backward_takes_conv2d_grads_without_a_copy(self):
        rng = np.random.default_rng(42)
        w, b = _param(rng, 2, 3, 3, 3), _param(rng, 2)
        handed = []
        hand_off = tensor._hand_off

        def spy(node, g):
            handed.append(g)
            hand_off(node, g)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "_hand_off", spy)
            backward(tensor_sum(conv2d(Tensor(rng.standard_normal((1, 3, 4, 4))), w, b)))
        assert any(g is w.grad for g in handed) and any(g is b.grad for g in handed)


class TestSgd:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unreached_parameter_steps_like_a_zero_grad(self, dtype):
        # momentum and weight decay move a parameter that backward never reached
        rng = np.random.default_rng(43)
        data = rng.standard_normal((3, 4)).astype(dtype)
        mask = (rng.random((3, 4)) > 0.3).astype(dtype)
        unreached, zeroed = Parameter(data.copy()), Parameter(data.copy())
        for p in (unreached, zeroed):
            p.set_mask(mask)
        config = SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.05)
        opts = SGD([unreached], config), SGD([zeroed], config)
        for step in range(4):
            if step == 2:  # a real grad between the unreached steps
                g = rng.standard_normal((3, 4)).astype(dtype)
                unreached.grad, zeroed.grad = g.copy(), g.copy()
            else:
                opts[0].zero_grad()
                zeroed.grad = np.zeros_like(data)
            for opt in opts:
                opt.step()
            assert unreached.data.tobytes() == zeroed.data.tobytes()
        assert not np.array_equal(unreached.data, data * mask)

    def test_plain_step(self):
        w = Parameter(np.array([1.0]))
        w.grad = np.array([0.5])
        SGD([w], SgdConfig(learning_rate=0.1)).step()
        np.testing.assert_allclose(w.data, [0.95])

    def test_zero_grad_leaves_weight(self):
        w = Parameter(np.array([1.0]))
        SGD([w], SgdConfig(learning_rate=0.1)).step()
        np.testing.assert_allclose(w.data, [1.0])

    def test_masked_position_stays_zero(self):
        w = Parameter(np.array([1.0, 2.0]))
        w.set_mask(np.array([0.0, 1.0]))
        w.grad = np.array([5.0, 0.1])
        SGD([w], SgdConfig(learning_rate=0.1)).step()
        assert w.data[0] == 0.0
        np.testing.assert_allclose(w.data[1], 1.99)

    def test_mask_permanence_over_many_steps(self):
        rng = np.random.default_rng(23)
        w = Parameter(rng.standard_normal(10))
        mask = (rng.random(10) > 0.4).astype(float)
        w.set_mask(mask)
        opt = SGD([w], SgdConfig(learning_rate=0.05, momentum=0.9, weight_decay=1e-3))
        for _ in range(25):
            w.grad = rng.standard_normal(10)
            opt.step()
        np.testing.assert_array_equal(w.data[mask == 0.0], 0.0)

    def test_momentum_accumulates(self):
        w = Parameter(np.array([0.0]))
        opt = SGD([w], SgdConfig(learning_rate=1.0, momentum=0.5))
        w.grad = np.array([1.0])
        opt.step()  # buf = 1, w = -1
        opt.step()  # buf = 1.5, w = -2.5
        np.testing.assert_allclose(w.data, [-2.5])

    def test_weight_decay(self):
        w = Parameter(np.array([2.0]))
        w.grad = np.array([0.0])
        SGD([w], SgdConfig(learning_rate=0.1, weight_decay=0.5)).step()
        np.testing.assert_allclose(w.data, [1.9])

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.0)

    def test_non_finite_update_names_the_parameter(self):
        params = [Parameter(np.ones(3)), Parameter(np.ones((2, 2)))]
        params[1].grad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(FloatingPointError, match=r"parameter 1 \[2, 2\] is non-finite"):
            SGD(params, SgdConfig(learning_rate=0.1)).step()


class TestShapeComposition:
    def test_same_down_up_restores_shape(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        w = _param(rng, 2, 2, 3, 3)
        b = Parameter(np.zeros(2))
        same = conv2d(x, w, b, stride=1)
        down = conv2d(same, w, b, stride=2)
        up = upsample_bilinear_x2(conv2d(down, w, b, stride=1))
        assert same.shape == x.shape
        assert down.shape == (1, 2, 4, 4)
        assert up.shape == x.shape

    def test_odd_extent_stride2(self):
        x = Tensor(np.zeros((1, 1, 5, 7)))
        out = conv2d(x, Parameter(np.zeros((1, 1, 3, 3))), Parameter(np.zeros(1)), stride=2)
        assert out.shape == (1, 1, 3, 4)


class TestDeterminism:
    def test_identical_seed_bit_identical_output(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
            w = Parameter(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
            b = Parameter(rng.standard_normal(4).astype(np.float32))
            out = relu6(conv2d(x, w, b, stride=2))
            return out.data.tobytes()

        assert run() == run()
