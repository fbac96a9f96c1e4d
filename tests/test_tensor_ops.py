"""Forward-value and gradient checks for the tensor op layer.

Forward values come from spec'd tiny cases (hand arithmetic) or from
direct-summation reference implementations in helpers.py.  Gradients are
checked against central finite differences in float64 mode, where the
1e-3 tolerance is meaningful.
"""
import tracemalloc

import numpy as np
import pytest

from wavetransformer.errors import ConfigError, DimensionError, UsageError
from wavetransformer.tensor import RngState, Tape, Tensor, backward, default_dtype
from wavetransformer.tensor import ops

from helpers import conv1d_reference, conv2d_reference, gradcheck


def randt(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        w = Tensor([[[1.0]]])
        b = Tensor([0.0])
        out = ops.conv1d(x, w, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_box_kernel_matches_direct_summation(self):
        x = Tensor([[1.0, 0.0, 0.0, 1.0]])
        w = Tensor([[[1.0, 1.0, 1.0]]])
        b = Tensor([0.0])
        out = ops.conv1d(x, w, b, stride=1, padding=1)
        ref = conv1d_reference(x.data, w.data, b.data, stride=1, padding=1)
        np.testing.assert_allclose(out.data, ref)
        np.testing.assert_array_equal(out.data, [[1.0, 1.0, 1.0, 1.0]])

    def test_dilated_length_preserved(self):
        x = Tensor(np.arange(5.0)[None, :])
        w = Tensor(np.ones((1, 1, 3)))
        out = ops.conv1d(x, w, None, stride=1, padding=2, dilation=2)
        assert out.shape == (1, 5)

    @pytest.mark.parametrize("stride,pad,dil,k", [(1, 0, 1, 1), (1, 1, 1, 3), (2, 1, 1, 3), (1, 2, 2, 3), (3, 4, 2, 4)])
    def test_random_matches_reference(self, stride, pad, dil, k):
        rng = RngState(11 + k + stride)
        x = rng.uniform(-1, 1, (3, 17))
        w = rng.uniform(-1, 1, (2, 3, k))
        b = rng.uniform(-1, 1, (2,))
        out = ops.conv1d(Tensor(x), Tensor(w), Tensor(b), stride, pad, dil)
        ref = conv1d_reference(x, w, b, stride, pad, dil)
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-6)

    def test_batched_equals_per_sample(self):
        rng = RngState(5)
        x = rng.uniform(-1, 1, (4, 3, 9))
        w = rng.uniform(-1, 1, (2, 3, 3))
        b = rng.uniform(-1, 1, (2,))
        batched = ops.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1)
        for i in range(4):
            single = ops.conv1d(Tensor(x[i]), Tensor(w), Tensor(b), padding=1)
            np.testing.assert_array_equal(batched.data[i], single.data)

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ops.conv1d(Tensor(np.ones((2, 5))), Tensor(np.ones((1, 3, 3))), None)

    def test_empty_output_raises(self):
        with pytest.raises(DimensionError):
            ops.conv1d(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 1, 5))), None)


class TestConv2d:
    def test_scaling_kernel(self):
        x = Tensor(np.ones((1, 2, 2)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = ops.conv2d(x, w, Tensor([0.0]))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2), 2.0))

    def test_depthwise_channel_isolation(self):
        rng = RngState(7)
        x = rng.uniform(-1, 1, (2, 3, 3))
        w = rng.uniform(-1, 1, (2, 1, 3, 3))
        full = ops.conv2d(Tensor(x), Tensor(w), None, padding=1, groups=2)
        x0 = x.copy()
        x0[1] = 0.0
        zeroed = ops.conv2d(Tensor(x0), Tensor(w), None, padding=1, groups=2)
        # channel 0 of the output only sees channel 0 of the input
        np.testing.assert_array_equal(full.data[0], zeroed.data[0])
        ref = conv2d_reference(x, w, None, padding=1, groups=2)
        np.testing.assert_allclose(full.data, ref, rtol=1e-5, atol=1e-6)

    def test_5x5_pad2_preserves_size(self):
        x = Tensor(np.ones((1, 4, 4)))
        w = Tensor(np.ones((1, 1, 5, 5)))
        out = ops.conv2d(x, w, None, padding=2)
        assert out.shape == (1, 4, 4)

    def test_grouped_matches_reference(self):
        rng = RngState(23)
        x = rng.uniform(-1, 1, (4, 5, 6))
        w = rng.uniform(-1, 1, (6, 2, 3, 3))
        b = rng.uniform(-1, 1, (6,))
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1, groups=2)
        ref = conv2d_reference(x, w, b, stride=2, padding=1, groups=2)
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-6)

    # the TF branch's geometry: (B, C, T, F) with T != F, 5x5 kernels, padding 2
    MODEL_CASES = {"depthwise": (3, 3, 3), "dense_1_to_c": (1, 3, 1), "dense_c_to_c": (3, 3, 1)}

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_model_geometry_matches_reference(self, case, stride):
        c_in, c_out, groups = self.MODEL_CASES[case]
        rng = RngState(50 + c_in + stride)
        x = rng.uniform(-1, 1, (2, c_in, 11, 6))
        w = rng.uniform(-1, 1, (c_out, c_in // groups, 5, 5))
        b = rng.uniform(-1, 1, (c_out,))
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=2, groups=groups)
        for i in range(2):
            ref = conv2d_reference(x[i], w, b, stride=stride, padding=2, groups=groups)
            np.testing.assert_allclose(out.data[i], ref, rtol=1e-5, atol=1e-6)

    def test_batched_equals_per_sample(self):
        rng = RngState(6)
        x = rng.uniform(-1, 1, (3, 4, 9, 5))
        for w, groups in ((rng.uniform(-1, 1, (4, 1, 5, 5)), 4), (rng.uniform(-1, 1, (2, 4, 5, 5)), 1)):
            b = rng.uniform(-1, 1, (w.shape[0],))
            batched = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=2, groups=groups)
            for i in range(3):
                single = ops.conv2d(Tensor(x[i]), Tensor(w), Tensor(b), padding=2, groups=groups)
                np.testing.assert_array_equal(batched.data[i], single.data)

    @pytest.mark.parametrize("groups", [16, 1])
    def test_tape_keeps_less_than_12x_the_input(self, groups):
        # the tape keeps the conv's input, not a buffer of its frequency taps;
        # what is held is the output and the rearranged weights
        rng = RngState(8)
        x = Tensor(rng.uniform(-1, 1, (1, 16, 64, 16)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (16, 16 // groups, 5, 5)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ops.conv2d(x, w, b, padding=2, groups=groups)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and out.shape == (1, 16, 64, 16)
        assert held <= 2 * x.data.nbytes, f"{held / x.data.nbytes:.2f}x the input"

    def test_indivisible_groups_raise(self):
        with pytest.raises(DimensionError):
            ops.conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((2, 1, 3, 3))), None, groups=2)


class TestConvVjpChunks:
    """The conv VJP rebuilds its tap buffer over chunks of clips; no chunk
    size may change a bit of any gradient."""

    # op, input shape, weight shape, options, bytes of one clip's tap buffer
    # (C_in * kw * (H + 2*pad) * W_out * 4)
    CASES = {
        "depthwise": (ops.conv2d, (5, 8, 12, 6), (8, 1, 5, 5),
                      dict(padding=2, groups=8), 8 * 5 * 16 * 6 * 4),
        "dense": (ops.conv2d, (5, 4, 12, 6), (6, 4, 5, 5),
                  dict(padding=2), 4 * 5 * 16 * 6 * 4),
        "stride2": (ops.conv2d, (5, 4, 13, 7), (6, 2, 5, 5),
                    dict(stride=2, padding=1, groups=2), 4 * 5 * 15 * 3 * 4),
        "dilated_conv1d": (ops.conv1d, (5, 4, 30), (6, 4, 3),
                           dict(padding=3, dilation=3), 4 * 1 * 36 * 1 * 4),
    }

    def _grads(self, case, monkeypatch):
        op, x_shape, w_shape, options, _ = self.CASES[case]
        rng = RngState(70)
        x, w, b = (Tensor(rng.uniform(-1, 1, shape).astype(np.float32), requires_grad=True)
                   for shape in (x_shape, w_shape, w_shape[:1]))
        chunks = []
        tap_cols = ops._tap_cols

        def spy(x4, *args):
            chunks.append(len(x4))
            return tap_cols(x4, *args)

        monkeypatch.setattr(ops, "_tap_cols", spy)
        with Tape() as tape:
            loss = ops.tensor_sum(ops.tanh(op(x, w, b, **options)))
        backward(loss, tape)
        monkeypatch.setattr(ops, "_tap_cols", tap_cols)
        return (x.grad, w.grad, b.grad), chunks[1:]  # the first call is the forward

    @pytest.mark.parametrize("clips", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_chunked_vjp_is_bit_equal(self, case, clips, monkeypatch):
        whole, chunks = self._grads(case, monkeypatch)
        assert chunks == [5]
        monkeypatch.setattr(ops, "_VJP_CHUNK_BYTES", max(1, clips * self.CASES[case][-1]))
        chunked, chunks = self._grads(case, monkeypatch)
        assert chunks == {1: [1] * 5, 2: [2, 2, 1]}[clips]
        for a, b in zip(whole, chunked):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLinear:
    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ops.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_case(self):
        out = ops.linear(Tensor([2.0, 3.0]), Tensor([[1.0, 1.0]]), Tensor([1.0]))
        np.testing.assert_array_equal(out.data, [6.0])

    def test_batched_rows_equal_single_rows(self):
        rng = RngState(3)
        x = rng.uniform(-1, 1, (4, 7, 5))
        w = rng.uniform(-1, 1, (6, 5))
        b = rng.uniform(-1, 1, (6,))
        out = ops.linear(Tensor(x), Tensor(w), Tensor(b))
        assert out.shape == (4, 7, 6)
        for i in range(4):
            for j in range(7):
                row = ops.linear(Tensor(x[i, j]), Tensor(w), Tensor(b))
                np.testing.assert_allclose(out.data[i, j], row.data, rtol=1e-6)

    def test_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ops.linear(Tensor(np.ones(3)), Tensor(np.ones((2, 4))), None)


class TestNorms:
    def test_batch_norm_training_normalizes(self):
        rng = RngState(9)
        x = Tensor(rng.uniform(-3, 5, (4, 50)))
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        rm, rv = np.zeros(4), np.ones(4)
        out = ops.batch_norm(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-3)
        assert not np.allclose(rm, 0.0)  # running stats moved

    def test_batch_norm_eval_identity(self):
        x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4))
        out = ops.batch_norm(
            x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
            np.zeros(3), np.ones(3), training=False, eps=1e-12,
        )
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_batch_norm_constant_channel_is_zero(self):
        x = Tensor(np.full((2, 8), 3.0))
        out = ops.batch_norm(
            x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
            np.zeros(2), np.ones(2), training=True,
        )
        np.testing.assert_array_equal(out.data, np.zeros((2, 8)))
        assert np.isfinite(out.data).all()

    def test_batch_norm_training_tape_keeps_no_normalized_copy(self):
        # the VJP recomputes xhat from the input the tape keeps anyway
        rng = RngState(10)
        x = Tensor(rng.uniform(-1, 1, (4, 16, 32, 8)).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.ones(16, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
        rm, rv = np.zeros(16, dtype=np.float32), np.ones(16, dtype=np.float32)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ops.batch_norm(x, gamma, beta, rm, rv, training=True, channel_axis=1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and out.shape == x.shape
        assert held <= 1.25 * x.data.nbytes, f"{held / x.data.nbytes:.2f}x the input"

    def test_batch_norm_bad_eps(self):
        with pytest.raises(ConfigError):
            ops.batch_norm(
                Tensor(np.ones((1, 2))), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                np.zeros(1), np.ones(1), training=True, eps=0.0,
            )

    def test_layer_norm_normalizes_rows(self):
        out = ops.layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert abs(out.data.mean()) < 1e-6
        np.testing.assert_allclose(out.data.var(), 1.0, atol=1e-4)

    def test_layer_norm_constant_row_is_zero(self):
        out = ops.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros(4))


class TestActivations:
    def test_softmax_uniform(self):
        out = ops.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), rtol=1e-7)

    def test_softmax_rows_sum_to_one(self):
        rng = RngState(2)
        out = ops.softmax(Tensor(rng.uniform(-5, 5, (6, 9))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_fully_masked_row_raises(self):
        mask = np.full((2, 2), -np.inf, dtype=np.float32)
        with pytest.raises(UsageError):
            ops.softmax(Tensor(np.zeros((2, 2))), axis=-1, mask=mask)

    def test_dropout_identity_cases(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert ops.dropout(x, 0.0, training=True, rng=RngState(0)) is x
        assert ops.dropout(x, 0.5, training=False) is x

    def test_dropout_preserves_expectation(self):
        rng = RngState(77)
        n = 10_000
        p = 0.25
        x = Tensor(np.ones(n))
        out = ops.dropout(x, p, training=True, rng=rng)
        # survivors are 1/(1-p) w.p. (1-p): mean 1, var p/(1-p)
        sigma_mean = np.sqrt(p / (1 - p) / n)
        assert abs(out.data.mean() - 1.0) <= 3 * sigma_mean

    def test_leaky_relu_slope(self):
        out = ops.leaky_relu(Tensor([-2.0, 2.0]), slope=0.01)
        np.testing.assert_allclose(out.data, [-0.02, 2.0], rtol=1e-6)


class TestMaxPoolFreq:
    def test_basic(self):
        out = ops.max_pool_freq(Tensor(np.array([[[1.0, 5.0, 2.0, 3.0]]])), 2)
        np.testing.assert_array_equal(out.data, [[[5.0, 3.0]]])

    def test_pool_one_identity(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 4))
        out = ops.max_pool_freq(x, 1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_time_axis_untouched(self):
        rng = RngState(4)
        x = rng.uniform(-1, 1, (2, 5, 8))
        out = ops.max_pool_freq(Tensor(x), 4)
        assert out.shape == (2, 5, 2)
        np.testing.assert_array_equal(out.data, x.reshape(2, 5, 2, 4).max(axis=-1))

    def test_indivisible_raises(self):
        with pytest.raises(DimensionError):
            ops.max_pool_freq(Tensor(np.ones((1, 1, 5))), 2)

    def test_tie_gradient_goes_to_lowest_index(self):
        x = Tensor(np.array([[2.0, 2.0, 1.0, 1.0]]), requires_grad=True)
        with Tape() as tape:
            out = ops.max_pool_freq(x, 4)
            loss = ops.tensor_sum(out)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0, 0.0]])

    def test_tie_gradient_goes_to_first_maximum_in_every_window(self):
        # the first maximum sits at index 1, 0, 2 and 0 of its window
        x = Tensor(np.array([[1.0, 3.0, 3.0, 0.0, 5.0, 5.0, 5.0, 5.0,
                              0.0, 1.0, 2.0, 2.0, 4.0, 0.0, 0.0, 4.0]]), requires_grad=True)
        with Tape() as tape:
            loss = ops.tensor_sum(ops.max_pool_freq(x, 4))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
                                                0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0]])


class TestPositionalEncoding:
    def test_row_zero(self):
        pe = ops.positional_encoding(3, 6)
        np.testing.assert_array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_bounded(self):
        pe = ops.positional_encoding(50, 16)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_shift_is_fixed_rotation(self):
        # PE[pos+k] = R_k(PE[pos]) with a per-frequency rotation matrix
        d = 8
        pe = ops.positional_encoding(40, d, dtype=np.float64)
        k = 5
        for i in range(d // 2):
            omega = 1.0 / 10000 ** (2 * i / d)
            c, s = np.cos(k * omega), np.sin(k * omega)
            rot = np.array([[c, s], [-s, c]])
            pairs = pe[:, 2 * i : 2 * i + 2]
            np.testing.assert_allclose(pairs[:-k] @ rot.T, pairs[k:], atol=1e-5)


class TestGradients:
    """Central-difference checks in float64 mode (h=1e-3, rtol=1e-3)."""

    def test_conv1d_grad(self):
        with default_dtype(np.float64):
            rng = RngState(31)
            x = randt(rng, 2, 11)
            w = randt(rng, 3, 2, 3)
            b = randt(rng, 3)
            gradcheck(lambda: ops.tensor_sum(ops.tanh(ops.conv1d(x, w, b, stride=2, padding=2, dilation=2))), [x, w, b])

    def test_conv2d_grad(self):
        with default_dtype(np.float64):
            rng = RngState(32)
            x = randt(rng, 4, 5, 5)
            w = randt(rng, 4, 2, 3, 3)
            b = randt(rng, 4)
            gradcheck(lambda: ops.tensor_sum(ops.sigmoid(ops.conv2d(x, w, b, padding=1, groups=2))), [x, w, b])

    @pytest.mark.parametrize("c_in,c_out,groups", [(3, 3, 3), (1, 3, 1), (3, 3, 1)])
    def test_conv2d_model_geometry_grad(self, c_in, c_out, groups):
        with default_dtype(np.float64):
            rng = RngState(42 + c_in + groups)
            x = randt(rng, 2, c_in, 7, 4)
            w = randt(rng, c_out, c_in // groups, 5, 5)
            b = randt(rng, c_out)
            gradcheck(lambda: ops.tensor_sum(ops.sigmoid(ops.conv2d(x, w, b, padding=2, groups=groups))), [x, w, b])

    def test_linear_grad(self):
        with default_dtype(np.float64):
            rng = RngState(33)
            x = randt(rng, 3, 4)
            w = randt(rng, 5, 4)
            b = randt(rng, 5)
            gradcheck(lambda: ops.tensor_sum(ops.tanh(ops.linear(x, w, b))), [x, w, b])

    def test_batch_norm_training_grad(self):
        with default_dtype(np.float64):
            rng = RngState(34)
            x = randt(rng, 3, 7)
            gamma = randt(rng, 3, lo=0.5, hi=1.5)
            beta = randt(rng, 3)

            def fn():
                rm, rv = np.zeros(3), np.ones(3)  # fresh buffers per eval
                return ops.tensor_sum(ops.tanh(ops.batch_norm(x, gamma, beta, rm, rv, training=True)))

            gradcheck(fn, [x, gamma, beta])

    def test_layer_norm_grad(self):
        with default_dtype(np.float64):
            rng = RngState(35)
            x = randt(rng, 4, 6)
            gamma = randt(rng, 6, lo=0.5, hi=1.5)
            beta = randt(rng, 6)
            gradcheck(lambda: ops.tensor_sum(ops.sigmoid(ops.layer_norm(x, gamma, beta))), [x, gamma, beta])

    def test_activation_grads(self):
        with default_dtype(np.float64):
            rng = RngState(36)
            x = randt(rng, 3, 5)
            for f in (ops.tanh, ops.sigmoid, lambda t: ops.leaky_relu(t, 0.01), lambda t: ops.softmax(t, axis=-1), lambda t: ops.log_softmax(t, axis=-1)):
                gradcheck(lambda f=f: ops.tensor_sum(ops.mul(f(x), x)), [x])

    def test_relu_grad_away_from_kink(self):
        with default_dtype(np.float64):
            rng = RngState(37)
            data = rng.uniform(0.2, 1.0, (3, 4)) * np.where(rng.random((3, 4)) < 0.5, -1, 1)
            x = Tensor(data, requires_grad=True)
            gradcheck(lambda: ops.tensor_sum(ops.mul(ops.relu(x), x)), [x])

    def test_max_pool_grad(self):
        with default_dtype(np.float64):
            rng = RngState(38)
            # spread values so no window has a near-tie at h=1e-3
            data = rng.permutation(24).astype(np.float64).reshape(1, 3, 8) * 0.5
            x = Tensor(data, requires_grad=True)
            gradcheck(lambda: ops.tensor_sum(ops.tanh(ops.max_pool_freq(x, 2))), [x])

    def test_dropout_grad_fixed_mask(self):
        with default_dtype(np.float64):
            rng = RngState(39)
            x = randt(rng, 4, 4)
            gradcheck(lambda: ops.tensor_sum(ops.dropout(ops.tanh(x), 0.5, training=True, rng=RngState(123))), [x])

    def test_matmul_embedding_concat_grads(self):
        with default_dtype(np.float64):
            rng = RngState(40)
            a = randt(rng, 2, 3, 4)
            b = randt(rng, 2, 4, 3)
            gradcheck(lambda: ops.tensor_sum(ops.tanh(ops.matmul(a, b))), [a, b])
            w = randt(rng, 4, 6)
            bias = randt(rng, 4)
            toks = np.array([1, 5, 0, 5])
            gradcheck(lambda: ops.tensor_sum(ops.tanh(ops.embedding(toks, w, bias))), [w, bias])
            c1, c2 = randt(rng, 2, 3), randt(rng, 2, 2)
            gradcheck(lambda: ops.tensor_sum(ops.sigmoid(ops.concat([c1, c2], axis=1))), [c1, c2])

    def test_softmax_masked_grad(self):
        with default_dtype(np.float64):
            rng = RngState(41)
            x = randt(rng, 3, 3)
            mask = ops.causal_mask(3, dtype=np.float64)
            gradcheck(lambda: ops.tensor_sum(ops.mul(ops.softmax(x, axis=-1, mask=mask), x)), [x])
