"""Encoder: wave blocks, TF blocks, merge, modes, receptive field."""
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from wavetransformer.encoder import Encoder, EncoderConfig, MergeNet, TFBlock, WaveBlock
from wavetransformer.errors import ConfigError, DimensionError
from wavetransformer.layers import ModelSpace
from wavetransformer.tensor import ParameterStore, RngState, Tape, Tensor, backward
from wavetransformer.tensor import ops, pool

from helpers import record_pooled_jobs


def make_space(seed=0):
    return ModelSpace(ParameterStore(), {}, RngState(seed))


def small_cfg(mode="full", n_temp=2, n_tf=2, channels=8, mels=4):
    pools = {1: (mels,), 2: (2, mels // 2), 3: (2, 2, mels // 4)}[n_tf]
    return EncoderConfig(
        n_temp_blocks=n_temp, n_tf_blocks=n_tf, channels=channels,
        pool_factors=pools, dropout_tf=0.0, mode=mode, n_mels=mels,
    )


class TestWaveBlock:
    def test_output_nonnegative(self):
        space = make_space(1)
        block = WaveBlock(space, "b", 4, 8)
        x = Tensor(RngState(2).uniform(-1, 1, (1, 4, 10)))
        out = block(x, training=True)
        assert out.shape == (1, 8, 10)
        assert (out.data >= 0).all()

    def test_zero_weights_zero_output(self):
        space = make_space(1)
        block = WaveBlock(space, "b", 3, 5)
        for _, t in space.params.items():
            t.data[...] = 0.0
        x = Tensor(RngState(3).uniform(-1, 1, (1, 3, 7)))
        out = block(x, training=False)
        np.testing.assert_array_equal(out.data, np.zeros((1, 5, 7)))

    def test_single_block_radius_three(self):
        # forward perturbation: output frame t reacts only to frames [t-3, t+3]
        space = make_space(4)
        block = WaveBlock(space, "b", 2, 4)
        rng = RngState(5)
        x = rng.uniform(-1, 1, (1, 2, 15))
        base = block(Tensor(x), training=False).data
        for s in range(15):
            bumped = x.copy()
            bumped[..., s] += 0.5
            out = block(Tensor(bumped), training=False).data
            changed = np.where(np.any(out != base, axis=(0, 1)))[0]
            inside = np.arange(max(0, s - 3), min(15, s + 4))
            assert set(changed) <= set(inside), f"frame {s} leaked to {changed}"


class TestTFBlock:
    def test_geometry(self):
        space = make_space(6)
        block = TFBlock(space, "b", 3, 5, pcnn_kernel=5, pool=4, dropout=0.0)
        x = Tensor(RngState(7).uniform(-1, 1, (1, 3, 6, 8)))
        out = block(x, training=False)
        assert out.shape == (1, 5, 6, 2)

    def test_eval_deterministic(self):
        space = make_space(8)
        block = TFBlock(space, "b", 2, 4, pcnn_kernel=3, pool=2, dropout=0.5)
        x = Tensor(RngState(9).uniform(-1, 1, (1, 2, 5, 4)))
        a = block(x, training=False).data
        b = block(x, training=False).data
        np.testing.assert_array_equal(a, b)

    def test_depthwise_channel_isolation(self):
        space = make_space(10)
        block = TFBlock(space, "b", 3, 4, pcnn_kernel=3, pool=2, dropout=0.0)
        rng = RngState(11)
        x = rng.uniform(-1, 1, (3, 4, 4))
        x_zeroed = x.copy()
        x_zeroed[1] = 0.0
        full = block.scnn(Tensor(x)).data
        part = block.scnn(Tensor(x_zeroed)).data
        # zeroing channel 1 changes exactly the depthwise output channel 1
        np.testing.assert_array_equal(full[0], part[0])
        np.testing.assert_array_equal(full[2], part[2])
        assert not np.array_equal(full[1], part[1])


class TestEvalTFBlockTiles:
    """In eval mode, with no tape recording, bn_b and the frequency pooling
    run inside the P-CNN's output tiles.  The bits are those of pcnn ->
    bn_b -> max_pool_freq, at any worker count."""

    # (c_in, c_out, F, pool) of the paper's three blocks, at 8 channels:
    # block 1's P-CNN has one input channel (the fold regime), blocks 2 and
    # 3 take the per-tap regime
    GEOMETRIES = {"block1": (1, 8, 64, 4), "block2": (8, 8, 16, 4), "block3": (8, 8, 4, 4)}

    def block_and_input(self, geometry, frames=300):
        c_in, c_out, f, pool = self.GEOMETRIES[geometry]
        block = TFBlock(make_space(21), "b", c_in, c_out, pcnn_kernel=5, pool=pool, dropout=0.25)
        rng = RngState(22)
        for bn in (block.bn_a, block.bn_b):
            c = bn.gamma.shape
            bn.gamma.data[...] = rng.uniform(0.5, 2.0, c)
            bn.running_var[...] = rng.uniform(0.2, 3.0, c)
        for t in (block.bn_b.beta.data, block.bn_b.running_mean, block.pcnn.bias.data):
            t[...] = rng.uniform(-1, 1, t.shape)
        x = rng.uniform(-1, 1, (2, c_in, frames, f)).astype(np.float32)
        # zero frames stay zero up to the P-CNN, whose output there is its
        # bias: pooling windows of equal values
        x[:, :, 40:80] = 0.0
        return block, Tensor(x)

    @staticmethod
    def unfused(block, x):
        s = block.bn_a(ops.leaky_relu(block.scnn(x)), False)
        pre = block.bn_b(block.pcnn(s), False)
        return ops.max_pool_freq(pre, block.pool), pre

    def count_pools(self, monkeypatch):
        """A list that grows by one on each `ops.max_pool_freq` call."""
        calls, max_pool = [], ops.max_pool_freq

        def counted(*args):
            calls.append(args)
            return max_pool(*args)

        monkeypatch.setattr(ops, "max_pool_freq", counted)
        return calls

    @pytest.mark.parametrize("tile_cols", [None, 128])
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_bits_are_the_three_ops_at_any_worker_count(self, geometry, tile_cols, monkeypatch):
        if tile_cols is not None:
            monkeypatch.setattr(pool, "TILE_COLS", tile_cols)
        block, x = self.block_and_input(geometry)
        want, pre = self.unfused(block, x)
        windows = pre.data.reshape(-1, block.pool)
        assert ((windows == windows.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()  # ties
        pools = self.count_pools(monkeypatch)
        interval = sys.getswitchinterval()
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(pool, "WORKERS", workers)
                if workers == 3:
                    sys.setswitchinterval(1e-5)  # a tile writing outside its part would show
                jobs = record_pooled_jobs(monkeypatch)
                got = block(x, training=False)
                assert got.shape == want.shape and got.data.tobytes() == want.data.tobytes()
                assert not pools  # no full-size output was pooled
                if workers > 1 and (tile_cols or geometry != "block3"):
                    assert jobs  # the P-CNN tiles ran on the pool
        finally:
            sys.setswitchinterval(interval)

    def test_a_tape_tracking_the_input_runs_the_three_ops(self, monkeypatch):
        block, x = self.block_and_input("block2", frames=40)
        grads = []
        for via_block in (False, True):
            x.zero_grad()
            x.requires_grad = True
            pools = self.count_pools(monkeypatch)
            with Tape() as tape:
                out = block(x, training=False) if via_block else self.unfused(block, x)[0]
                loss = ops.tensor_sum(ops.tanh(out))
            assert pools
            backward(loss, tape)
            grads.append([t.grad.tobytes() for t in (x, block.pcnn.weight, block.bn_b.gamma)])
            for t in block.pcnn.weight, block.bn_b.gamma:
                t.zero_grad()
        assert np.abs(x.grad).sum() > 0
        assert grads[0] == grads[1]

    def test_pool_must_divide_the_frequency_axis(self):
        block, x = self.block_and_input("block3", frames=10)
        block.pool = 3
        with pytest.raises(DimensionError, match="not divisible by pool=3"):
            block(x, training=False)


class TestMerge:
    def test_shape_and_bias_only(self):
        space = make_space(12)
        merge = MergeNet(space, "m", 6)
        for name, t in space.params.items():
            t.data[...] = 0.0
            if name.endswith("fnn.bias"):
                t.data[...] = np.arange(6, dtype=t.data.dtype)
        z = Tensor(RngState(13).uniform(-1, 1, (9, 6)))
        out = merge(z, z)
        assert out.shape == (9, 6)
        np.testing.assert_array_equal(out.data, np.tile(np.arange(6, dtype=np.float32), (9, 1)))

    def test_not_symmetric_in_branches(self):
        space = make_space(14)
        merge = MergeNet(space, "m", 4)
        rng = RngState(15)
        a = Tensor(rng.uniform(-1, 1, (5, 4)))
        b = Tensor(rng.uniform(-1, 1, (5, 4)))
        assert not np.allclose(merge(a, b).data, merge(b, a).data)


class TestEncoderModes:
    @pytest.mark.parametrize("mode", ["full", "temp_only", "tf_only", "avg"])
    @pytest.mark.parametrize("t_a", [1, 7, 64])
    def test_output_shape(self, mode, t_a):
        cfg = small_cfg(mode)
        enc = Encoder(make_space(16), cfg)
        x = Tensor(RngState(17).uniform(-1, 1, (t_a, cfg.n_mels)))
        out = enc.encode(x, training=False)
        assert out.shape == (t_a, cfg.channels)

    def test_avg_identity_when_branches_equal(self):
        cfg = small_cfg("avg")
        enc = Encoder(make_space(18), cfg)
        z = Tensor(RngState(19).uniform(-1, 1, (6, cfg.channels)))
        out = ops.scale(ops.add(z, z), 0.5)
        np.testing.assert_allclose(out.data, z.data, rtol=1e-6)

    def test_temp_only_has_no_tf_parameters(self):
        cfg = small_cfg("temp_only")
        space = make_space(20)
        Encoder(space, cfg)
        names = space.params.names()
        assert names and not any(".tf." in n or ".merge." in n for n in names)

    def test_tf_only_independent_of_temp_parameters(self):
        cfg = small_cfg("tf_only")
        space = make_space(21)
        enc = Encoder(space, cfg)
        assert not any(".temp." in n for n in space.params.names())
        x = Tensor(RngState(22).uniform(-1, 1, (5, cfg.n_mels)))
        assert enc.encode(x, training=False).shape == (5, cfg.channels)

    def test_frequency_fully_collapsed(self):
        cfg = small_cfg("tf_only", n_tf=3, mels=8)
        enc = Encoder(make_space(23), cfg)
        x, _ = Tensor(RngState(24).uniform(-1, 1, (1, 6, 8))), None
        h = ops.reshape(x, (1, 1, 6, 8))
        for block in enc.tf_blocks:
            h = block(h, training=False)
        assert h.shape[-1] == 1

    def test_batched_matches_single(self):
        cfg = small_cfg("full")
        enc = Encoder(make_space(25), cfg)
        rng = RngState(26)
        batch = rng.uniform(-1, 1, (3, 9, cfg.n_mels))
        out_b = enc.encode(Tensor(batch), training=False).data
        for i in range(3):
            single = enc.encode(Tensor(batch[i]), training=False).data
            np.testing.assert_allclose(out_b[i], single, atol=1e-6)

    def test_time_translation_equivariance_of_tf_branch(self):
        # conv stacks commute with time shifts away from the padded borders
        cfg = small_cfg("tf_only", n_tf=2, mels=4)
        enc = Encoder(make_space(27), cfg)
        rng = RngState(28)
        t_a, shift, margin = 40, 5, 12
        x = rng.uniform(-1, 1, (t_a, cfg.n_mels))
        rolled = np.roll(x, shift, axis=0)
        out = enc.encode(Tensor(x), training=False).data
        out_rolled = enc.encode(Tensor(rolled), training=False).data
        np.testing.assert_allclose(
            out_rolled[margin + shift : t_a - margin],
            out[margin : t_a - margin - shift],
            atol=1e-5,
        )

    def test_invalid_pool_product_rejected(self):
        with pytest.raises(ConfigError):
            EncoderConfig(n_tf_blocks=2, pool_factors=(2, 2), n_mels=64)


class TestShapeRule:
    """Entry points treat a leading axis as clips: one clip (T, F) gives
    the same bits as that clip in a batch of one, (1, T, F)."""

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("mode", ["full", "temp_only", "tf_only", "avg"])
    def test_encode_one_clip_equals_batch_of_one(self, mode, training):
        cfg = replace(small_cfg(mode), dropout_tf=0.25)
        enc = Encoder(make_space(29), cfg)
        x = RngState(30).uniform(-1, 1, (9, cfg.n_mels)).astype(np.float32)
        single = enc.encode(Tensor(x), training, RngState(31)).data
        batch = enc.encode(Tensor(x[None]), training, RngState(31)).data
        assert single.shape == (9, cfg.channels) and batch.shape == (1, 9, cfg.channels)
        np.testing.assert_array_equal(single, batch[0])

    def test_branches_one_clip_equal_batch_of_one(self):
        cfg = small_cfg("full")
        enc = Encoder(make_space(32), cfg)
        x = RngState(33).uniform(-1, 1, (7, cfg.n_mels)).astype(np.float32)
        for branch in (enc.temporal_branch, enc.tf_branch):
            single = branch(Tensor(x), training=False).data
            batch = branch(Tensor(x[None]), training=False).data
            assert single.shape == (7, cfg.channels) and batch.shape == (1, 7, cfg.channels)
            np.testing.assert_array_equal(single, batch[0])

    @pytest.mark.parametrize("mode", ["full", "temp_only", "tf_only", "avg"])
    @pytest.mark.parametrize("shape", [(4,), (1, 1, 5, 4)])
    def test_other_ranks_rejected_naming_the_shape(self, mode, shape):
        enc = Encoder(make_space(34), small_cfg(mode))
        with pytest.raises(DimensionError, match=re.escape(str(shape))):
            enc.encode(Tensor(np.zeros(shape, dtype=np.float32)))


def receptive_support(n_temp: int, t_a: int, probe: int) -> np.ndarray:
    """Gradient support of temporal-branch output frame `probe` w.r.t. input.

    Weights are forced positive so no path can cancel, and small so the
    tanh/sigmoid gates stay in their non-saturated regime (a saturated
    float tanh has derivative exactly 0, which would cut paths).  Runs in
    float64 because the edge-of-field products are tiny and would flush
    to zero in float32.
    """
    from wavetransformer.tensor import default_dtype

    with default_dtype(np.float64):
        cfg = small_cfg("temp_only", n_temp=n_temp, channels=6, mels=4)
        space = make_space(60 + n_temp)
        enc = Encoder(space, cfg)
        for name, t in space.params.items():
            if name.endswith(".weight"):
                t.data[...] = np.abs(t.data) * 0.1 + 0.02
            if name.endswith(".bias"):
                t.data[...] = 0.01
        x = Tensor(RngState(n_temp).uniform(0.05, 0.2, (t_a, cfg.n_mels)), requires_grad=True)
        with Tape() as tape:
            out = enc.temporal_branch(x, training=False)
            loss = ops.tensor_sum(
                ops.take_last_axis(ops.transpose(out, (1, 0)), np.full(cfg.channels, probe))
            )
        backward(loss, tape)
    return np.any(x.grad != 0.0, axis=1)


class TestReceptiveField:
    @pytest.mark.parametrize("n_temp", [1, 2, 4])
    def test_gradient_support_exact(self, n_temp):
        radius = 3 * n_temp
        t_a = 2 * radius + 9
        probe = t_a // 2
        support = receptive_support(n_temp, t_a, probe)
        expected = np.zeros(t_a, dtype=bool)
        expected[probe - radius : probe + radius + 1] = True
        np.testing.assert_array_equal(support, expected)
        assert support.sum() == 6 * n_temp + 1  # span 25 at n_temp=4
