"""Tape/backward semantics, optimizer behavior, RNG portability."""
import weakref

import numpy as np
import pytest

from wavetransformer.errors import UsageError
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
