"""Forward-value and gradient checks for the tensor op layer.

Forward values come from spec'd tiny cases (hand arithmetic) or from
direct-summation reference implementations in helpers.py.  Gradients are
checked against central finite differences in float64 mode, where the
1e-3 tolerance is meaningful.
"""
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wavetransformer
from wavetransformer.errors import ConfigError, DimensionError, UsageError
from wavetransformer.tensor import (
    AdamState, ParameterStore, RngState, Tape, Tensor, adam_step, backward, default_dtype,
)
from wavetransformer.tensor import ops, pool

from helpers import conv1d_reference, conv2d_reference, gradcheck, record_pooled_jobs


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
    """The conv VJP rebuilds its tap buffers over chunks of clips; no chunk
    size may change a bit of any gradient."""

    # op, input shape, weight shape, options, floats of one clip's VJP tap
    # buffers: per tap, the input's kw taps C_in * kw * (H + 2*pad) * W_out
    # plus those of the spread gradient C_out * kw * (H + max(dil*(kh-1), pad)) * W;
    # single input channel, the kh*kw taps kh * kw * H_out * W_out
    CASES = {
        "depthwise": (ops.conv2d, (5, 8, 12, 6), (8, 1, 5, 5),
                      dict(padding=2, groups=8), 8 * 5 * 16 * 6 + 8 * 5 * 16 * 6),
        "dense": (ops.conv2d, (5, 4, 12, 6), (6, 4, 5, 5),
                  dict(padding=2), 4 * 5 * 16 * 6 + 6 * 5 * 16 * 6),
        "stride2": (ops.conv2d, (5, 4, 13, 7), (6, 2, 5, 5),
                    dict(stride=2, padding=1, groups=2), 4 * 5 * 15 * 3 + 6 * 5 * 17 * 7),
        "dilated_conv1d": (ops.conv1d, (5, 4, 30), (6, 4, 3),
                           dict(padding=3, dilation=3), 4 * 1 * 36 * 1 + 6 * 1 * 36 * 1),
        "single_channel": (ops.conv2d, (5, 1, 12, 6), (6, 1, 5, 5),
                           dict(padding=2), 5 * 5 * 12 * 6),
    }

    def _grads(self, case, monkeypatch):
        op, x_shape, w_shape, options, _ = self.CASES[case]
        rng = RngState(70)
        x, w, b = (Tensor(rng.uniform(-1, 1, shape).astype(np.float32), requires_grad=True)
                   for shape in (x_shape, w_shape, w_shape[:1]))
        chunks = []
        tap_cols = ops._tap_cols

        def spy(xp, *args):
            chunks.append(len(xp))
            return tap_cols(xp, *args)

        monkeypatch.setattr(ops, "_tap_cols", spy)
        with Tape() as tape:
            loss = ops.tensor_sum(ops.tanh(op(x, w, b, **options)))
        backward(loss, tape)
        monkeypatch.setattr(ops, "_tap_cols", tap_cols)
        # the first call is the forward; a per-tap chunk builds the taps of
        # its input and of its spread gradient, a single-channel chunk one buffer
        per_chunk = 1 if case == "single_channel" else 2
        sizes = chunks[1::per_chunk]
        assert chunks[1:] == [n for n in sizes for _ in range(per_chunk)]
        return (x.grad, w.grad, b.grad), sizes

    @pytest.mark.parametrize("clips", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_chunked_vjp_is_bit_equal(self, case, clips, monkeypatch):
        whole, chunks = self._grads(case, monkeypatch)
        assert chunks == [5]
        monkeypatch.setattr(ops, "VJP_CHUNK_BYTES", max(1, clips * 4 * self.CASES[case][-1]))
        chunked, chunks = self._grads(case, monkeypatch)
        assert chunks == {1: [1] * 5, 2: [2, 2, 1]}[clips]
        for a, b in zip(whole, chunked):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestConvWorkers:
    """The conv GEMMs run as tiles on a thread pool.  Tiles follow from the
    conv's shapes alone, so no worker count may change a bit of the output
    or of either gradient."""

    # op, input shape, weight shape, options; each case runs at the default
    # tile size and at 128 columns, where all but "tiny" run in tiles
    CASES = {
        "tiny": (ops.conv2d, (2, 3, 9, 7), (4, 3, 3, 3), dict(padding=1)),
        "stride2": (ops.conv2d, (4, 8, 37, 16), (6, 8, 5, 5), dict(stride=2, padding=2)),
        "stride2_groups": (ops.conv2d, (4, 8, 37, 16), (6, 4, 5, 5),
                           dict(stride=2, padding=1, groups=2)),
        "long_dense": (ops.conv2d, (1, 8, 1100, 16), (8, 8, 5, 5), dict(padding=2)),
        "long_depthwise": (ops.conv2d, (1, 40, 1300, 16), (40, 1, 5, 5),
                           dict(padding=2, groups=40)),
        "batch12": (ops.conv2d, (12, 8, 40, 16), (8, 8, 5, 5), dict(padding=2)),
        "single_channel": (ops.conv2d, (2, 1, 300, 16), (8, 1, 5, 5), dict(padding=2)),
        "single_channel_1to1": (ops.conv2d, (2, 1, 1300, 16), (1, 1, 5, 5), dict(padding=2)),
        "dilated_conv1d": (ops.conv1d, (2, 4, 5000), (6, 4, 3), dict(padding=3, dilation=3)),
        "strided_dilated_conv1d": (ops.conv1d, (1, 4, 13001), (4, 4, 7),
                                   dict(stride=3, padding=3, dilation=2)),
    }
    # below the default tile size: one tile, inline
    INLINE = {"tiny", "stride2", "stride2_groups"}
    # convs of 4 or more clips, whose VJP runs one chunk per clip when
    # VJP_CHUNK_BYTES is tiny
    MANY_CHUNKS = {
        "batch12": CASES["batch12"],
        "batch12_depthwise": (ops.conv2d, (12, 16, 40, 16), (16, 1, 5, 5),
                              dict(padding=2, groups=16)),
        "stride2": CASES["stride2"],
        "single_channel_b6": (ops.conv2d, (6, 1, 60, 16), (8, 1, 5, 5), dict(padding=2)),
    }

    def _run(self, spec, workers, monkeypatch):
        op, x_shape, w_shape, options = spec
        monkeypatch.setattr(pool, "WORKERS", workers)
        pooled = record_pooled_jobs(monkeypatch)
        rng = RngState(71)
        x, w, b = (Tensor(rng.uniform(-1, 1, shape).astype(np.float32), requires_grad=True)
                   for shape in (x_shape, w_shape, w_shape[:1]))
        with Tape() as tape:
            out = op(x, w, b, **options)
            loss = ops.tensor_sum(ops.tanh(out))
        backward(loss, tape)
        return [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)], pooled

    @pytest.mark.parametrize("tile_cols", [None, 128])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_do_not_depend_on_the_worker_count(self, case, tile_cols, monkeypatch):
        if tile_cols is not None:
            monkeypatch.setattr(pool, "TILE_COLS", tile_cols)
        spec = self.CASES[case]
        one, pooled = self._run(spec, 1, monkeypatch)
        assert (pooled == []) == (case == "tiny" or tile_cols is None and case in self.INLINE)
        assert self._run(spec, 2, monkeypatch) == (one, pooled)
        # more workers than cores, switching threads often: a task writing
        # outside its own slice would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert self._run(spec, 3, monkeypatch) == (one, pooled)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("case", sorted(MANY_CHUNKS))
    def test_vjp_chunks_run_on_the_pool_with_the_same_bits(self, case, monkeypatch):
        spec = self.MANY_CHUNKS[case]
        clips = spec[1][0]
        whole, _ = self._run(spec, 1, monkeypatch)
        monkeypatch.setattr(ops, "VJP_CHUNK_BYTES", 1)  # one clip per chunk
        monkeypatch.setattr(pool, "TILE_COLS", 128)  # every chunk job leaves the caller
        one, pooled = self._run(spec, 1, monkeypatch)
        assert one == whole
        assert clips in pooled and pooled.chunks_on_pool == 0
        interval = sys.getswitchinterval()
        try:
            for workers in (2, 3):
                if workers == 3:
                    sys.setswitchinterval(1e-5)
                bits, jobs = self._run(spec, workers, monkeypatch)
                assert (bits, jobs) == (one, pooled)
                assert jobs.chunks_on_pool == clips
                assert 1 <= jobs.most_in_flight <= workers
        finally:
            sys.setswitchinterval(interval)

    def test_a_failing_chunk_raises_after_the_chunks_in_flight_stop(self, monkeypatch):
        # the third tap copy (the forward makes the first) fails inside a
        # pool task; backward raises that error, and only after the other
        # chunks in flight have finished with the caller's buffers
        monkeypatch.setattr(pool, "WORKERS", 2)
        monkeypatch.setattr(ops, "VJP_CHUNK_BYTES", 1)
        jobs = record_pooled_jobs(monkeypatch)
        tap_cols, calls, lock = ops._tap_cols, [], threading.Lock()

        class ChunkFault(Exception):
            pass

        def faulty(*args, **kwargs):
            with lock:
                calls.append(threading.current_thread().name)
                n = len(calls)
            time.sleep(0.02)  # long enough for the other chunks to be in flight
            if n == 3:
                raise ChunkFault("third tap copy")
            return tap_cols(*args, **kwargs)

        monkeypatch.setattr(ops, "_tap_cols", faulty)
        op, x_shape, w_shape, options = self.CASES["batch12"]
        rng = RngState(73)
        x, w = (Tensor(rng.uniform(-1, 1, shape).astype(np.float32), requires_grad=True)
                for shape in (x_shape, w_shape))
        with Tape() as tape:
            loss = ops.tensor_sum(op(x, w, **options))
        with pytest.raises(ChunkFault, match="third tap copy"):
            backward(loss, tape)
        seen, running = len(calls), jobs.running
        time.sleep(0.1)  # a chunk still queued or running would copy taps meanwhile
        assert running == 0 and len(calls) == seen
        assert calls[2].startswith("conv-tile") and jobs.chunks_on_pool >= 2
        assert len(calls) < 1 + 2 * x_shape[0]  # the chunks after the fault never ran

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
    def test_vjp_chunks_in_flight_do_not_grow_peak_memory(self):
        # a block-2-shaped conv at the paper's batch: a second worker adds
        # one slot of caller-owned buffers (about 6 MB); chunks that
        # allocated their own buffers inside the pool threads added about
        # 15 MB
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from wavetransformer.tensor import RngState, Tape, Tensor, backward, ops, pool\n"
            "pool.WORKERS = int(sys.argv[1])\n"
            "rng = RngState(0)\n"
            "x = Tensor(rng.uniform(-1, 1, (12, 128, 100, 16)).astype(np.float32), requires_grad=True)\n"
            "w = Tensor(rng.uniform(-0.05, 0.05, (128, 128, 5, 5)).astype(np.float32), requires_grad=True)\n"
            "for _ in range(5):\n"
            "    with Tape() as tape:\n"
            "        loss = ops.tensor_sum(ops.conv2d(x, w, padding=2))\n"
            "    backward(loss, tape)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(wavetransformer.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        peak_kib = [int(subprocess.run([sys.executable, "-c", script, str(workers)], env=env,
                                       capture_output=True, text=True, check=True).stdout)
                    for workers in (1, 2)]
        assert peak_kib[1] <= peak_kib[0] + 8 * 1024, f"peak RSS {peak_kib} KiB at 1 and 2 workers"

    def test_a_batch_in_one_chunk_splits_for_a_second_worker(self, monkeypatch):
        # six clips fit one VJP_CHUNK_BYTES chunk; a VJP job large enough
        # to leave the caller's thread still runs as two chunks of three
        # clips, one per worker, with the bits of the whole batch in one
        spec = self.MANY_CHUNKS["single_channel_b6"]
        clips = ops.VJP_CHUNK_BYTES // (5 * 5 * 60 * 16 * 4)
        assert clips >= spec[1][0]
        monkeypatch.setattr(pool, "TILE_COLS", 1 << 30)  # nothing leaves the caller
        whole, _ = self._run(spec, 2, monkeypatch)
        monkeypatch.undo()
        for workers in (1, 2):
            bits, jobs = self._run(spec, workers, monkeypatch)
            assert bits == whole
            assert jobs.chunks_on_pool == (2 if workers == 2 else 0)
            assert jobs.most_in_flight == workers

    def test_conv_inside_a_pool_task_runs_inline_and_finishes(self, monkeypatch):
        # a conv called from a pool task must not queue tiles behind itself:
        # with every worker busy that would wait forever
        monkeypatch.setattr(pool, "WORKERS", 2)
        op, x_shape, w_shape, options = self.CASES["long_dense"]
        rng = RngState(72)
        x, w, b = (Tensor(rng.uniform(-1, 1, shape).astype(np.float32))
                   for shape in (x_shape, w_shape, w_shape[:1]))
        expected = op(x, w, b, **options).data
        done = []

        def task(_):
            done.append((threading.current_thread().name, op(x, w, b, **options).data.tobytes()))

        # three convs on two workers, in a thread of its own so that a hang fails
        runner = threading.Thread(target=pool.run, args=(task, [0, 1, 2], pool.TILE_COLS),
                                  daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive()
        assert [bits for _, bits in done] == [expected.tobytes()] * 3
        assert all(name.startswith("conv-tile") for name, _ in done)


class TestPassWorkers:
    """Batch norm, max-pool, leaky ReLU, dropout and Adam run as tiles on
    the conv pool.  The tiles follow from shapes alone and a per-channel
    reduction never splits a (clip, channel) row, so neither the worker
    count nor the tile size may change a bit of a value, a gradient, a
    running statistic or an optimizer moment."""

    SHAPE = (5, 6, 7, 12)

    @staticmethod
    def _tensors(*shapes, seed=80, lo=-1.0, hi=1.0):
        rng = RngState(seed)
        return [Tensor(rng.uniform(lo, hi, s).astype(np.float32), requires_grad=True)
                for s in shapes]

    @staticmethod
    def _grad_of(f, x, seed=81):
        """f(x) and the gradient of sum(f(x) * a fixed random array)."""
        with Tape() as tape:
            out = f(x)
            g = RngState(seed).uniform(-1, 1, out.shape).astype(np.float32)
            loss = ops.tensor_sum(ops.mul_const(out, g))
        backward(loss, tape)
        return out.data

    def _batch_norm(self, training):
        x, gamma, beta = self._tensors(self.SHAPE, (6,), (6,))
        stats = RngState(82).uniform(0.5, 1.5, (2, 6)).astype(np.float32)
        out = self._grad_of(lambda t: ops.batch_norm(t, gamma, beta, stats[0], stats[1],
                                                     training, channel_axis=1), x)
        return [out, stats, x.grad, gamma.grad, beta.grad]

    def _max_pool(self):
        (x,) = self._tensors(self.SHAPE)
        x.data[...] = np.round(x.data * 2) / 2  # five values: most windows tie
        return [self._grad_of(lambda t: ops.max_pool_freq(t, 4), x), x.grad]

    def _leaky_relu(self):
        (x,) = self._tensors(self.SHAPE)
        x.data[0, 0, 0, :3] = [0.0, -0.0, np.nan]
        return [self._grad_of(lambda t: ops.leaky_relu(t, 0.1), x), x.grad]

    def _dropout(self):
        (x,) = self._tensors(self.SHAPE)
        rng = RngState(83, 17)
        return [self._grad_of(lambda t: ops.dropout(t, 0.25, True, rng), x), x.grad,
                np.array(rng.counter)]

    def _adam(self):
        store = ParameterStore()
        shapes = [(40, 7), (13,), (3, 3, 5), (9, 2)]
        for i, t in enumerate(self._tensors(*shapes)):
            store.add(f"p{i}", t)
        state = AdamState()
        for step in range(2):
            for i, t in enumerate(store.tensors()):
                t.grad = None if i == 3 else RngState(84 + step).uniform(-1, 1, t.shape).astype(np.float32)
            adam_step(store, state, lr=1e-2)
        return [a for name, t in store.items() for a in (t.data, state.m[name], state.v[name])]

    CASES = ("batch_norm_train", "batch_norm_eval", "max_pool_freq", "leaky_relu", "dropout",
             "adam_step")

    def _run(self, case, workers, tile_bytes, monkeypatch):
        monkeypatch.setattr(pool, "WORKERS", workers)
        if tile_bytes is not None:
            monkeypatch.setattr(pool, "TILE_BYTES", tile_bytes)
            monkeypatch.setattr(pool, "TILE_COLS", 16)  # every tiled pass leaves the caller
        pooled = record_pooled_jobs(monkeypatch)
        run = {"batch_norm_train": lambda: self._batch_norm(True),
               "batch_norm_eval": lambda: self._batch_norm(False),
               "max_pool_freq": self._max_pool, "leaky_relu": self._leaky_relu,
               "dropout": self._dropout, "adam_step": self._adam}[case]
        return [a.tobytes() for a in run()], pooled

    @pytest.mark.parametrize("case", CASES)
    def test_bits_do_not_depend_on_workers_or_tiles(self, case, monkeypatch):
        whole, pooled = self._run(case, 1, None, monkeypatch)
        assert pooled == []  # arrays below one tile: one tile, inline
        # 96 bytes: one (clip, channel) row of batch norm, 24 floats, 12 draws
        tiled, pooled = self._run(case, 1, 96, monkeypatch)
        assert tiled == whole and pooled
        assert self._run(case, 2, 96, monkeypatch) == (whole, pooled)
        # more workers than cores, switching threads often: a tile writing
        # outside its own part, or two sharing a scratch slot, would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert self._run(case, 3, 96, monkeypatch) == (whole, pooled)
        finally:
            sys.setswitchinterval(interval)


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

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_negative_channel_axis(self, training):
        rng = RngState(12)
        arrays = rng.uniform(-1, 1, (2, 5, 3)), rng.uniform(0.5, 1.5, 3), rng.uniform(-1, 1, 3)
        grads = []
        for axis in (2, -1):
            x, gamma, beta = (Tensor(a, requires_grad=True) for a in arrays)
            with Tape() as tape:
                out = ops.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training, channel_axis=axis)
                loss = ops.tensor_sum(ops.tanh(out))
            backward(loss, tape)
            grads.append((out.data, x.grad, gamma.grad, beta.grad))
        for a, b in zip(*grads):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-12)

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

    @pytest.mark.parametrize("tile_bytes", [None, 8 * 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.25, 1 / 3, 0.5])
    def test_dropout_mask_is_the_uniform_draw_at_least_p(self, p, dtype, tile_bytes, monkeypatch):
        # the integer-domain keep test against the float draw it stands for,
        # over 231 draws, which tiles of 64 draws do not divide
        if tile_bytes is not None:
            monkeypatch.setattr(pool, "TILE_BYTES", tile_bytes)
        shape = (3, 7, 11)
        x = Tensor(RngState(4).uniform(0.5, 1.5, shape).astype(dtype), requires_grad=True)
        rng, reference = RngState(21, 5), RngState(21, 5)
        with Tape() as tape:
            out = ops.dropout(x, p, training=True, rng=rng)
            loss = ops.tensor_sum(out)
        backward(loss, tape)
        mask = (reference.random(shape) >= p).astype(dtype) / dtype(1.0 - p)
        assert out.data.dtype == dtype and out.data.tobytes() == (x.data * mask).tobytes()
        assert x.grad.tobytes() == mask.tobytes()
        assert rng.counter == reference.counter == 5 + x.size

    def test_leaky_relu_slope(self):
        out = ops.leaky_relu(Tensor([-2.0, 2.0]), slope=0.01)
        np.testing.assert_allclose(out.data, [-0.02, 2.0], rtol=1e-6)

    @pytest.mark.parametrize("slope", [0.01, 0.5, 1.0])
    def test_leaky_relu_matches_select_reference(self, slope):
        # max(a, slope*a) against the select form, bit for bit, gradient too
        data = RngState(6).uniform(-2, 2, (5, 7)).astype(np.float32)
        data[0, :2] = [0.0, -0.0]
        s = np.float32(slope)
        edges = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
        for d in (data, edges):
            assert ops.leaky_relu(Tensor(d), slope).data.tobytes() == np.where(d >= 0, d, d * s).tobytes()
        x = Tensor(data, requires_grad=True)
        g = RngState(7).uniform(-1, 1, data.shape).astype(np.float32)
        with Tape() as tape:
            loss = ops.tensor_sum(ops.mul_const(ops.leaky_relu(x, slope), g))
        backward(loss, tape)
        assert x.grad.tobytes() == (g * np.where(data >= 0, 1.0, s).astype(np.float32)).tobytes()

    @pytest.mark.parametrize("slope", [-0.1, 0.0, 1.5])
    def test_leaky_relu_slope_outside_unit_interval_raises(self, slope):
        with pytest.raises(ConfigError):
            ops.leaky_relu(Tensor([1.0]), slope=slope)


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

    @pytest.mark.parametrize("c_in,c_out,groups,stride", [
        pytest.param(*case, stride, id="-".join(map(str, case)) + ("" if stride == 1 else "-stride2"))
        for stride in (1, 2) for case in ((3, 3, 3), (1, 3, 1), (3, 3, 1))
    ])
    def test_conv2d_model_geometry_grad(self, c_in, c_out, groups, stride):
        with default_dtype(np.float64):
            rng = RngState(42 + c_in + groups)
            x = randt(rng, 2, c_in, 7, 4)
            w = randt(rng, c_out, c_in // groups, 5, 5)
            b = randt(rng, c_out)
            gradcheck(lambda: ops.tensor_sum(ops.sigmoid(
                ops.conv2d(x, w, b, stride=stride, padding=2, groups=groups))), [x, w, b])

    def test_linear_grad(self):
        with default_dtype(np.float64):
            rng = RngState(33)
            x = randt(rng, 3, 4)
            w = randt(rng, 5, 4)
            b = randt(rng, 5)
            gradcheck(lambda: ops.tensor_sum(ops.tanh(ops.linear(x, w, b))), [x, w, b])

    def test_batch_norm_training_grad(self):
        # (C, N) with channel axis 0, and the model's (B, C, T, F) with axis 1
        with default_dtype(np.float64):
            rng = RngState(34)
            for shape, channel_axis in (((3, 7), 0), ((2, 3, 4, 5), 1)):
                x = randt(rng, *shape)
                gamma = randt(rng, 3, lo=0.5, hi=1.5)
                beta = randt(rng, 3)

                def fn(x=x, gamma=gamma, beta=beta, channel_axis=channel_axis):
                    rm, rv = np.zeros(3), np.ones(3)  # fresh buffers per eval
                    out = ops.batch_norm(x, gamma, beta, rm, rv, training=True,
                                         channel_axis=channel_axis)
                    return ops.tensor_sum(ops.tanh(out))

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
