"""Decoder: attention arithmetic, causality, parameter accounting."""
import numpy as np
import pytest

from wavetransformer.decoder import Decoder, DecoderConfig, MultiHeadAttention
from wavetransformer.errors import ConfigError, DimensionError, UsageError
from wavetransformer.layers import ModelSpace
from wavetransformer.tensor import ParameterStore, RngState, Tensor
from wavetransformer.tensor import ops


def make_space(seed=0):
    return ModelSpace(ParameterStore(), {}, RngState(seed))


def tiny_decoder(seed=0, vocab=11, n_blocks=2, heads=2, d=8, d_audio=8, max_len=32):
    cfg = DecoderConfig(vocab_size=vocab, n_blocks=n_blocks, n_heads=heads,
                        d_model=d, dropout=0.0, max_len=max_len)
    space = make_space(seed)
    return Decoder(space, cfg, d_audio=d_audio), space, cfg


class TestMultiHeadAttention:
    def test_single_position_returns_value(self):
        space = make_space(1)
        mha = MultiHeadAttention(space, "a", d_model=3, n_heads=1)
        for name, t in space.params.items():
            t.data[...] = np.eye(3) if name.endswith(".weight") else 0.0
        v = Tensor(np.array([[[0.3, -0.7, 2.0]]], dtype=np.float32))
        out = mha(mha.queries(v), *mha.keys_values(v))
        np.testing.assert_allclose(out.data, v.data, rtol=1e-6)

    def test_weight_rows_sum_to_one(self):
        rng = RngState(2)
        mask = ops.causal_mask(7, dtype=np.float64)
        w = ops.softmax(Tensor(rng.uniform(-3, 3, (7, 7))), axis=-1, mask=mask)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_hand_computed_two_by_two(self):
        # one head, d=2; projections chosen so the arithmetic is checkable
        space = make_space(3)
        mha = MultiHeadAttention(space, "a", d_model=2, n_heads=1)
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.0, 1.0], [1.0, 0.0]])
        wv = np.array([[2.0, 0.0], [0.0, 1.0]])
        wo = np.array([[1.0, 0.0], [0.0, 1.0]])
        for name, arr in (("a.q.weight", wq), ("a.k.weight", wk), ("a.v.weight", wv), ("a.out.weight", wo)):
            space.params[name].data[...] = arr
        for name in ("a.q.bias", "a.k.bias", "a.v.bias", "a.out.bias"):
            space.params[name].data[...] = 0.0
        x = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        xb = Tensor(x[None])
        out = mha(mha.queries(xb), *mha.keys_values(xb)).data[0]
        # oracle: brute-force softmax arithmetic in float64
        q = x @ wq.T
        k = x @ wk.T
        v = x @ wv.T
        scores = q @ k.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        expect = (attn @ v) @ wo.T
        np.testing.assert_allclose(out, expect, rtol=1e-5)


class TestDecoderForward:
    def test_output_shape(self):
        dec, _, cfg = tiny_decoder()
        z = Tensor(RngState(5).uniform(-1, 1, (6, 8)))
        logits = dec.forward(np.array([0, 3, 4, 1]), z)
        assert logits.shape == (4, cfg.vocab_size)

    def test_causality_bit_exact(self):
        dec, _, _ = tiny_decoder(seed=7)
        rng = RngState(8)
        z = Tensor(rng.uniform(-1, 1, (5, 8)))
        tokens = np.array([0, 4, 7, 2, 9, 1])
        base = dec.forward(tokens, z).data
        for j in range(1, len(tokens)):
            mutated = tokens.copy()
            mutated[j] = (mutated[j] + 3) % 11
            out = dec.forward(mutated, z).data
            assert np.array_equal(out[:j], base[:j]), f"position {j} leaked backwards"

    def test_token_out_of_range_rejected(self):
        dec, _, _ = tiny_decoder()
        z = Tensor(np.zeros((3, 8), dtype=np.float32))
        with pytest.raises(UsageError):
            dec.forward(np.array([0, 11]), z)

    def test_sequence_longer_than_horizon_rejected(self):
        dec, _, _ = tiny_decoder(max_len=4)
        z = Tensor(np.zeros((3, 8), dtype=np.float32))
        with pytest.raises(UsageError):
            dec.forward(np.zeros(5, dtype=np.int64), z)

    def test_grounded_in_audio(self):
        dec, _, _ = tiny_decoder(seed=9)
        rng = RngState(10)
        z = Tensor(rng.uniform(-1, 1, (5, 8)))
        tokens = np.array([0, 3, 2])
        with_audio = dec.forward(tokens, z).data
        without = dec.forward(tokens, Tensor(np.zeros((5, 8), dtype=np.float32))).data
        assert not np.array_equal(with_audio, without)

    def test_cross_attention_covers_whole_audio_span(self):
        # unmasked cross-attention: gradient support w.r.t. Z spans every frame
        from wavetransformer.tensor import Tape, backward
        from wavetransformer.tensor import ops

        dec, _, _ = tiny_decoder(seed=21)
        z = Tensor(RngState(22).uniform(-1, 1, (9, 8)), requires_grad=True)
        tokens = np.array([0, 4, 6, 2])
        with Tape() as tape:
            logits = dec.forward(tokens, z)
            loss = ops.tensor_sum(ops.tanh(logits))
        backward(loss, tape)
        frame_touched = np.any(z.grad != 0.0, axis=1)
        assert frame_touched.all()

    def test_padded_clips_match_their_own_forward(self):
        # two clips of 5 and 8 frames, padded to 8 and masked: each row's
        # logits equal those of its clip decoded alone, unpadded
        dec, _, _ = tiny_decoder(seed=41)
        rng = RngState(42)
        clips = [rng.uniform(-1, 1, (t, 8)).astype(np.float32) for t in (5, 8)]
        tokens = np.array([[0, 3, 5, 7], [0, 9, 4, 4]])
        z = np.zeros((2, 8, 8), dtype=np.float32)
        for i, clip in enumerate(clips):
            z[i, :len(clip)] = clip
            z[i, len(clip):] = 100.0  # padding that would show if attended
        batched = dec.forward(tokens, Tensor(z), ops.key_padding_mask([5, 8], 8)).data
        for i, clip in enumerate(clips):
            alone = dec.forward(tokens[i], Tensor(clip)).data
            np.testing.assert_allclose(batched[i], alone, rtol=0, atol=1e-6)

    def test_eval_deterministic_despite_dropout_config(self):
        cfg = DecoderConfig(vocab_size=9, n_blocks=1, n_heads=2, d_model=8, dropout=0.5, max_len=16)
        dec = Decoder(make_space(11), cfg, d_audio=8)
        z = Tensor(RngState(12).uniform(-1, 1, (4, 8)))
        tokens = np.array([0, 5, 3])
        a = dec.forward(tokens, z, training=False).data
        b = dec.forward(tokens, z, training=False).data
        np.testing.assert_array_equal(a, b)

    def test_layer_norm_statistics_inside_blocks(self):
        # pre-affine LN output has per-position mean 0 and variance 1
        rng = RngState(13)
        x = Tensor(rng.uniform(-2, 2, (5, 16)))
        gamma, beta = Tensor(np.ones(16)), Tensor(np.zeros(16))
        out = ops.layer_norm(x, gamma, beta).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)


class TestShapeRule:
    def test_one_clip_equals_batch_of_one(self):
        dec, _, cfg = tiny_decoder(seed=33)
        z = RngState(34).uniform(-1, 1, (6, 8)).astype(np.float32)
        tokens = np.array([0, 5, 7, 2])
        single = dec.forward(tokens, Tensor(z)).data
        batch = dec.forward(tokens[None], Tensor(z[None])).data
        assert single.shape == (4, cfg.vocab_size) and batch.shape == (1, 4, cfg.vocab_size)
        np.testing.assert_array_equal(single, batch[0])

    def test_one_clip_for_every_row(self):
        # rows are grouped by clip: with one clip, each row reads it alone
        dec, _, _ = tiny_decoder(seed=35)
        z = Tensor(RngState(36).uniform(-1, 1, (6, 8)).astype(np.float32))
        tokens = np.array([[0, 5, 7], [0, 3, 3]])
        shared = dec.forward(tokens, z).data
        for row in range(2):
            np.testing.assert_allclose(shared[row], dec.forward(tokens[row], z).data,
                                       rtol=0, atol=1e-6)


class TestIncrementalStep:
    def test_cached_logits_match_full_recompute(self):
        # three rows fed different tokens, reordered and duplicated by keep
        # part-way, against the last row of a teacher-forced forward
        dec, _, cfg = tiny_decoder(seed=31, max_len=12)
        rng = RngState(32)
        z = Tensor(rng.uniform(-1, 1, (7, 8)).astype(np.float32))
        seqs = [[0] for _ in range(3)]
        state = dec.begin(z)
        state.keep([0, 0, 0])
        for t in range(10):
            if t == 4:
                state.keep([2, 0, 2])
                seqs = [list(seqs[r]) for r in (2, 0, 2)]
            step = dec.step(state, [s[-1] for s in seqs]).data
            assert step.shape == (3, cfg.vocab_size)
            for row, seq in enumerate(seqs):
                full = dec.forward(np.array(seq), z).data[-1]
                np.testing.assert_allclose(step[row], full, rtol=0, atol=1e-5)
                np.testing.assert_allclose(ops.log_softmax(Tensor(step[row])).data,
                                           ops.log_softmax(Tensor(full)).data, rtol=0, atol=1e-5)
                seq.append(rng.randint(cfg.vocab_size))

    def test_step_past_horizon_rejected(self):
        dec, _, _ = tiny_decoder(max_len=3)
        state = dec.begin(Tensor(np.zeros((3, 8), dtype=np.float32)))
        for _ in range(3):
            dec.step(state, [0])
        with pytest.raises(UsageError, match="exceeds positional horizon 3"):
            dec.step(state, [0])

    def test_one_clip_and_one_token_per_row(self):
        dec, _, _ = tiny_decoder()
        with pytest.raises(DimensionError):
            dec.begin(Tensor(np.zeros((2, 3, 8), dtype=np.float32)))
        state = dec.begin(Tensor(np.zeros((3, 8), dtype=np.float32)))
        with pytest.raises(DimensionError):
            dec.step(state, [0, 0])


def analytic_param_count(cfg: DecoderConfig, d_audio: int) -> int:
    """Counting oracle built from the layer shapes alone."""
    d, w = cfg.d_model, cfg.vocab_size
    emb = d * w + d
    cls = w * d + w
    self_attn = 4 * (d * d + d)
    cross_attn = 2 * (d * d + d) + 2 * (d * d_audio + d)  # q,out vs k,v
    ffn = 2 * (d * d + d)
    lns = 3 * 2 * d
    per_block = self_attn + cross_attn + ffn + lns
    return emb + cls + cfg.n_blocks * per_block


class TestParameterCount:
    def test_matches_counting_oracle(self):
        dec, space, cfg = tiny_decoder(vocab=11, n_blocks=2, heads=2, d=8, d_audio=8)
        assert space.params.count() == analytic_param_count(cfg, 8)

    def test_default_config_frozen_constant(self):
        cfg = DecoderConfig(vocab_size=4368, n_blocks=3, n_heads=4, d_model=128, max_len=32)
        space = make_space(14)
        Decoder(space, cfg, d_audio=128)
        expect = analytic_param_count(cfg, 128)
        # regression pin: computed once from the counting oracle
        assert expect == 1_620_368
        assert space.params.count() == expect

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            DecoderConfig(vocab_size=10, n_heads=3, d_model=8)
