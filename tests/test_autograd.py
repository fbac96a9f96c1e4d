"""Tape/backward semantics, optimizer behavior, RNG portability."""
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from wavetransformer.decoder import DecoderConfig
from wavetransformer.encoder import EncoderConfig, TFBlock
from wavetransformer.errors import UsageError
from wavetransformer.layers import ModelSpace
from wavetransformer.model import CaptionModel
from wavetransformer.tensor import (
    AdamState,
    ParameterStore,
    RngState,
    Tape,
    Tensor,
    adam_step,
    backward,
    clip_grad_norm,
    derive_seed,
)
from wavetransformer.tensor import ops
from wavetransformer.training import Batch, batch_loss


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = ops.tensor_sum(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ops.mul(x, x)
        with pytest.raises(UsageError):
            backward(y, tape)

    def test_disconnected_parameter_keeps_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            loss = ops.tensor_sum(ops.mul(x, x))
        backward(loss, tape)
        assert unused.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_repeated_backward_accumulates(self):
        # backward consumes its tape, so accumulating means one tape per pass
        x = Tensor([3.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = ops.tensor_sum(x)
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_second_backward_on_one_tape_raises(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = ops.tensor_sum(x)
        backward(loss, tape)
        with pytest.raises(UsageError, match="consumed"):
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_empty_tape_serves_one_backward(self):
        # a loss that is itself the leaf records nothing on its tape
        x = Tensor([3.0], requires_grad=True)
        tape = Tape()
        backward(x, tape)
        np.testing.assert_array_equal(x.grad, [1.0])
        with pytest.raises(UsageError, match="consumed"):
            backward(x, tape)

    def test_backward_frees_intermediates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ops.tanh(x)
            held = weakref.ref(y.data)
            loss = ops.tensor_sum(ops.mul(y, y))
        del y
        assert held() is not None  # the tape keeps it for backward
        backward(loss, tape)
        assert held() is None and len(tape) == 0
        np.testing.assert_allclose(x.grad, 2 * np.tanh([1.0, 2.0]) * (1 - np.tanh([1.0, 2.0]) ** 2))

    def test_fanout_accumulates_once_per_use(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            y = ops.mul(x, x)          # d/dx = 2x = 4
            loss = ops.add(y, ops.scale(x, 3.0))  # + 3
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        y = ops.mul(x, x)
        assert y.grad is None and x.grad is None  # pure forward

    def test_untracked_subgraph_not_recorded(self):
        a = Tensor([1.0, 2.0])  # no grad required anywhere below
        with Tape() as tape:
            ops.tanh(ops.mul(a, a))
        assert len(tape) == 0


class TestTapeRetention:
    """The tape holds no tensor: an entry is the output's key, a ref per
    input and a VJP closing over only the arrays it reads."""

    def test_an_intermediate_no_vjp_reads_dies_with_the_forward_reference(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ops.add(x, x)  # neither this VJP nor scale's reads y
            held = weakref.ref(y.data)
            loss = ops.tensor_sum(ops.scale(y, 3.0))
        del y
        assert held() is None
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])

    def test_gradients_hold_when_freed_intermediates_ids_are_reused(self):
        # each step frees its intermediates, and a new untracked constant
        # often lands on a freed intermediate's id: keyed by id(), the tape
        # would take the constant for that intermediate
        x = Tensor([1.0, 2.0], requires_grad=True)
        freed, reused = set(), 0
        with Tape() as tape:
            h = x
            for _ in range(200):
                t = ops.scale(h, 1.0)
                freed.add(id(t))
                h = ops.add(t, x)
                del t
                c = Tensor(np.zeros(2))
                reused += id(c) in freed
                h = ops.add(h, c)
                del c
            loss = ops.tensor_sum(h)
        backward(loss, tape)
        assert reused > 0
        np.testing.assert_array_equal(x.grad, [201.0, 201.0])

    def test_a_training_tf_block_keeps_what_its_vjps_read(self):
        # block 1 of the paper's TF branch, 1 -> 128 channels, F = 64, pool 4:
        # kept are the P-CNN output (bn_b's input), the block's output, a
        # byte per pooled element for the max-pool index and the dropout
        # mask, and the one-channel arrays before the P-CNN (leaky ReLU's
        # mask, bn_a's input and output); not bn_b's output or the pooled one
        b, c, t, f, pool = 2, 128, 24, 64, 4
        block = TFBlock(ModelSpace(ParameterStore(), {}, RngState(3)), "tf.block1", 1, c, 5,
                        pool, 0.25)
        x = Tensor(RngState(4).uniform(-1, 1, (b, 1, t, f)).astype(np.float32))
        rng = RngState(5)
        pcnn_out, pooled = 4 * b * c * t * f, b * c * t * (f // pool)
        bound = pcnn_out + 4 * pooled + 2 * pooled + 9 * x.size + (64 << 10)
        with Tape() as tape:  # first-use set-up (the pool's threads) is not kept by a tape
            backward(ops.tensor_sum(block(x, True, rng)), tape)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = block(x, True, rng)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (b, c, t, f // pool)
        assert held <= bound, f"{held / 2**20:.2f} MiB kept, bound {bound / 2**20:.2f} MiB"
        backward(ops.tensor_sum(out), tape)

    @staticmethod
    def _tensors_held(value, seen):
        """The Tensors reachable from `value` through closures, tuples and lists."""
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, Tensor):
            yield value
        elif isinstance(value, types.FunctionType):
            for cell in value.__closure__ or ():
                try:
                    contents = cell.cell_contents
                except ValueError:  # a cell not yet filled
                    continue
                yield from TestTapeRetention._tensors_held(contents, seen)
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from TestTapeRetention._tensors_held(item, seen)

    def test_no_vjp_closes_over_a_tensor_that_is_not_a_parameter(self, monkeypatch):
        # one training step of a tiny two-branch model with dropout: a VJP
        # may keep arrays and shapes, and parameters, which live anyway
        vjps = []
        record = Tape.record

        def spy(tape, out, inputs, vjp):
            vjps.append(vjp)
            return record(tape, out, inputs, vjp)

        monkeypatch.setattr(Tape, "record", spy)
        enc = EncoderConfig(n_temp_blocks=1, n_tf_blocks=2, channels=8, pool_factors=(2, 2),
                            dropout_tf=0.25, n_mels=4)
        model = CaptionModel(enc, DecoderConfig(vocab_size=12, n_blocks=1, n_heads=2, d_model=8,
                                                dropout=0.25, max_len=8), seed=0)
        feats = RngState(1).uniform(-1, 1, (2, 12, 4)).astype(np.float32)
        tokens = np.array([[0, 4, 5, 6, 1], [0, 7, 1, 2, 2]])  # <sos> 0, <eos> 1, <pad> 2
        with Tape() as tape:
            loss = batch_loss(model, Batch(feats, [12, 9], tokens, [5, 3]), 2, training=True,
                              rng=RngState(7))
        backward(loss, tape)
        ops_seen = {vjp.__qualname__.split(".")[0] for vjp in vjps}
        assert {"_conv_taps", "batch_norm", "leaky_relu", "max_pool_freq", "dropout", "relu",
                "linear", "layer_norm", "softmax", "matmul", "embedding"} <= ops_seen
        offenders = {vjp.__qualname__ for vjp in vjps
                     for t in self._tensors_held(vjp, set()) if not t.requires_grad}
        assert not offenders


class TestAdam:
    def _store(self, values):
        store = ParameterStore()
        store.add("p", Tensor(np.array(values, dtype=np.float32)))
        return store

    def test_first_step_moves_by_lr_sign(self):
        # float64 params so the measured delta resolves the 1e-6 algebra check
        store = ParameterStore()
        start = np.array([1.0, -2.0, 3.0])
        store.add("p", Tensor(start.copy()))
        store["p"].grad = np.array([0.5, -0.25, 1.5])
        adam_step(store, AdamState(), lr=1e-3)
        delta = store["p"].data - start
        np.testing.assert_allclose(delta, -1e-3 * np.sign([0.5, -0.25, 1.5]), rtol=1e-6)

    def test_zero_gradient_fresh_state_no_move(self):
        store = self._store([1.0])
        store["p"].grad = np.zeros(1, dtype=np.float32)
        adam_step(store, AdamState(), lr=0.1)
        np.testing.assert_array_equal(store["p"].data, [1.0])

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            store = self._store([0.3, -0.7])
            state = AdamState()
            for step in range(5):
                store["p"].grad = np.array([0.1 * (step + 1), -0.2], dtype=np.float32)
                adam_step(store, state, lr=1e-2)
            results.append(store["p"].data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_bad_step_rejected(self):
        store = self._store([1.0])
        with pytest.raises(UsageError):
            adam_step(store, AdamState(), lr=1e-3, step=0)

    def test_in_place_update_has_the_bits_of_the_expression(self):
        # the update as one expression per array, with its temporaries; the
        # in-place step must reproduce it bit for bit, a parameter with no
        # gradient included
        def reference(params, m, v, grads, step, lr=3e-3, beta1=0.9, beta2=0.999, eps=1e-8):
            c1, c2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
            for name, p in params.items():
                g = grads.get(name, np.zeros_like(p))
                m[name] = m[name] * beta1 + (1.0 - beta1) * g
                v[name] = v[name] * beta2 + (1.0 - beta2) * (g * g)
                p -= (lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)).astype(p.dtype)

        rng = np.random.default_rng(8)
        shapes = {"a": (3, 4), "b": (7,), "c": (2, 2, 5)}
        start = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
        store = ParameterStore()
        for name, value in start.items():
            store.add(name, Tensor(value.copy()))
        ref = {n: value.copy() for n, value in start.items()}
        m = {n: np.zeros_like(value) for n, value in start.items()}
        v = {n: np.zeros_like(value) for n, value in start.items()}
        state = AdamState()
        for step in range(1, 4):
            grads = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()
                     if (n, step) != ("b", 2)}
            for name, t in store.items():
                t.grad = grads.get(name)
            adam_step(store, state, lr=3e-3)
            reference(ref, m, v, grads, step)
            for name, t in store.items():
                assert t.data.dtype == np.float32
                assert t.data.tobytes() == ref[name].tobytes(), (name, step)
                assert state.m[name].tobytes() == m[name].tobytes(), (name, step)
                assert state.v[name].tobytes() == v[name].tobytes(), (name, step)


class TestClipGradNorm:
    def test_three_four_five(self):
        store = ParameterStore()
        store.add("p", Tensor(np.zeros(2, dtype=np.float32)))
        store["p"].grad = np.array([3.0, 4.0], dtype=np.float32)
        norm = clip_grad_norm(store, 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(store["p"].grad, [0.6, 0.8], rtol=1e-6)

    def test_below_threshold_unchanged(self):
        store = ParameterStore()
        store.add("p", Tensor(np.zeros(2, dtype=np.float32)))
        store["p"].grad = np.array([0.3, 0.4], dtype=np.float32)
        norm = clip_grad_norm(store, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(store["p"].grad, np.array([0.3, 0.4], dtype=np.float32))

    def test_post_clip_norm_bounded(self):
        rng = RngState(66)
        store = ParameterStore()
        for i in range(3):
            t = store.add(f"p{i}", Tensor(np.zeros((4, 3), dtype=np.float32)))
            t.grad = rng.uniform(-2, 2, (4, 3)).astype(np.float32)
        clip_grad_norm(store, 1.0)
        after = np.sqrt(sum(float(np.sum(t.grad.astype(np.float64) ** 2))
                            for _, t in store.items()))
        assert after <= 1.0 + 1e-6

    def test_multi_tensor_norm_equals_concatenation(self):
        rng = RngState(55)
        parts = [rng.uniform(-1, 1, (4,)), rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (5,))]
        store = ParameterStore()
        for i, arr in enumerate(parts):
            t = store.add(f"p{i}", Tensor(np.zeros_like(arr, dtype=np.float32)))
            t.grad = arr.astype(np.float32)
        norm = clip_grad_norm(store, 1e9)
        flat = np.concatenate([p.reshape(-1).astype(np.float32) for p in parts])
        assert norm == pytest.approx(float(np.linalg.norm(flat.astype(np.float64))), rel=1e-12)


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = RngState(1234)
        b = RngState(1234)
        np.testing.assert_array_equal(a.random((100,)), b.random((100,)))
        assert a.permutation(17).tolist() == b.permutation(17).tolist()

    def test_golden_values_frozen(self):
        # pins the SplitMix64 stream so portability regressions are loud
        r = RngState(42)
        raw = r._raw(3)
        assert raw.tolist() == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
        ]

    def test_draws_match_python_int_splitmix64(self):
        # the in-place uint64 arithmetic against SplitMix64 in Python ints
        mask = 2**64 - 1

        def splitmix64(seed, k):
            z = (seed + k * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        seed = 2**64 - 3
        r = RngState(seed, counter=5)
        assert r._raw(1000).tolist() == [splitmix64(seed, k) for k in range(6, 1006)]
        assert r.counter == 1005
        assert derive_seed(seed, 7) == splitmix64(seed, 7)

    def test_state_round_trip(self):
        r = RngState(7)
        r.random((10,))
        clone = RngState.from_state(r.state())
        np.testing.assert_array_equal(r.random((5,)), clone.random((5,)))

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)
        assert derive_seed(1, 2) != derive_seed(1, 3)

    def test_uniform_range(self):
        u = RngState(3).uniform(-2.0, 2.0, (1000,))
        assert u.min() >= -2.0 and u.max() < 2.0
        assert abs(u.mean()) < 0.2
