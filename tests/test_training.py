"""Loss arithmetic, early stopping, checkpoint round trips, determinism."""
import json
import mmap
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavetransformer
from wavetransformer.decoder import DecoderConfig
from wavetransformer.encoder import EncoderConfig
from wavetransformer.errors import CheckpointError, TrainingError, UsageError
from wavetransformer.inference import DecodeConfig, decode
from wavetransformer.model import CaptionModel
from wavetransformer.tensor import (
    AdamState, RngState, Tape, Tensor, backward, default_dtype, derive_seed,
)
from wavetransformer.tensor import ops, pool
from wavetransformer.text import build_vocab, encode
from wavetransformer.training import (
    Batch,
    Checkpoint,
    TrainConfig,
    TrainItem,
    batch_loss,
    cross_entropy_loss,
    early_stopping,
    load_checkpoint,
    make_batch,
    save_checkpoint,
    train,
    train_epoch,
)

from helpers import finite_difference_grad, record_pooled_jobs, rel_err


def tiny_model(seed=0, vocab_size=11, mode="full", channels=8, mels=4):
    pools = {"n": 2}
    enc = EncoderConfig(n_temp_blocks=2, n_tf_blocks=2, channels=channels,
                        pool_factors=(2, mels // 2), dropout_tf=0.0, mode=mode, n_mels=mels)
    dec = DecoderConfig(vocab_size=vocab_size, n_blocks=1, n_heads=2, d_model=channels,
                        dropout=0.0, max_len=24)
    return CaptionModel(enc, dec, seed=seed)


def tiny_vocab(words=("dog", "cat", "barks", "naps", "loud", "soft", "a", "the")):
    return build_vocab([list(words)])


def synth_items(vocab, n=4, t_a=8, mels=4, seed=1):
    rng = RngState(seed)
    items = []
    words = vocab.words()[3:]
    for i in range(n):
        feats = rng.uniform(-1.0, 1.0, (t_a, mels)).astype(np.float32)
        caption = [words[i % len(words)], words[(i + 1) % len(words)]]
        items.append(TrainItem(f"f{i}", feats, encode(caption, vocab).indices))
    return items


class TestCrossEntropy:
    def test_uniform_logits_give_log_w(self):
        w = 4
        logits = Tensor(np.zeros((3, w), dtype=np.float32))
        targets = np.array([0, 1, 3])
        loss = cross_entropy_loss(logits, targets, pad_index=99)
        assert loss.item() == pytest.approx(np.log(w), rel=1e-6)

    def test_confident_correct_loss_vanishes(self):
        targets = np.array([2, 0])
        for margin in (5.0, 15.0):
            logits = np.zeros((2, 4), dtype=np.float32)
            logits[0, 2] = margin
            logits[1, 0] = margin
            loss = cross_entropy_loss(Tensor(logits), targets, pad_index=99)
            assert loss.item() < 2 * np.exp(-margin) * 4

    def test_padding_excluded(self):
        logits = Tensor(np.array([[0.0, 3.0], [9.0, -9.0]], dtype=np.float32))
        full = cross_entropy_loss(logits, np.array([1, 0]), pad_index=7)
        masked = cross_entropy_loss(logits, np.array([1, 7]), pad_index=7)
        # with the second position padded, only the first contributes
        one = cross_entropy_loss(Tensor(logits.data[:1]), np.array([1]), pad_index=7)
        assert masked.item() == pytest.approx(one.item(), rel=1e-6)
        assert masked.item() != pytest.approx(full.item(), rel=1e-3)

    def test_all_padding_rejected(self):
        with pytest.raises(UsageError):
            cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([5, 5]), pad_index=5)

    def test_softmax_gradient_identity_and_finite_differences(self):
        # analytic expectation: d loss / d logits = (softmax - onehot) / N
        with default_dtype(np.float64):
            rng = RngState(21)
            logits = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
            targets = np.array([1, 0, 4, 2])

            def fn():
                return cross_entropy_loss(logits, targets, pad_index=99)

            with Tape() as tape:
                loss = fn()
            backward(loss, tape)
            sm = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
            onehot = np.zeros_like(sm)
            onehot[np.arange(4), targets] = 1.0
            np.testing.assert_allclose(logits.grad, (sm - onehot) / 4, atol=1e-9)
            fd = finite_difference_grad(fn, logits, h=1e-4)
            assert rel_err(fd, logits.grad, 1e-5).max() < 1e-3


class TestEarlyStopping:
    def test_spec_counting_case(self):
        history = [3.0] + [2.0] * 11  # epochs 1..12; best at epoch 2
        stop, best = early_stopping(history, patience=10)
        assert stop and best == 2
        stop_before, _ = early_stopping(history[:-1], patience=10)
        assert not stop_before

    def test_strictly_decreasing_never_stops(self):
        history = [10.0 - 0.1 * i for i in range(50)]
        for k in range(1, 51):
            stop, best = early_stopping(history[:k], patience=3)
            assert not stop and best == k

    def test_exhaustive_small_sequences_match_definition(self):
        # every binary improvement pattern of length 7, checked prefix by
        # prefix against the literal "no strict improvement for `patience`
        # consecutive epochs" definition
        patience = 3
        for bits in range(2 ** 6):
            history = [5.0]
            best_val = 5.0
            for i in range(6):
                if (bits >> i) & 1:
                    best_val -= 1.0
                    history.append(best_val)
                else:
                    history.append(best_val + 0.5)
            for k in range(1, len(history) + 1):
                prefix = history[:k]
                best = min(prefix)
                # epochs since the (first) best epoch
                since = k - (prefix.index(best) + 1)
                stop, best_epoch = early_stopping(prefix, patience)
                assert stop == (since >= patience)
                assert best_epoch == prefix.index(best) + 1

    def test_improvement_at_boundary_prevents_stop(self):
        # best at epoch 1; epochs 2..3 flat; an improvement at epoch
        # 1+patience resets the clock exactly when stopping would trigger
        patience = 3
        flat = [2.0, 3.0, 3.0]
        assert early_stopping(flat + [3.0], patience) == (True, 1)
        assert early_stopping(flat + [1.0], patience) == (False, 4)


class TestTrainLoop:
    def test_identical_seeds_identical_trajectories(self):
        vocab = tiny_vocab()
        cfg = TrainConfig(batch_size=3, lr=1e-3, max_epochs=3, seed=5)
        histories = []
        for _ in range(2):
            model = tiny_model(seed=4, vocab_size=vocab.size)
            items = synth_items(vocab, n=5)
            result = train(model, items, [], cfg, vocab)
            histories.append(result.train_history)
        assert histories[0] == histories[1]  # bit-identical floats

    def test_grads_zeroed_between_batches(self):
        vocab = tiny_vocab()
        model = tiny_model(seed=6, vocab_size=vocab.size)
        items = synth_items(vocab, n=2)
        batch = make_batch(items, vocab.pad)
        from wavetransformer.training import batch_loss
        model.params.zero_grad()
        with Tape() as tape:
            loss = batch_loss(model, batch, vocab.pad, training=False, rng=None)
        backward(loss, tape)
        first = {n: t.grad.copy() for n, t in model.params.items() if t.grad is not None}
        model.params.zero_grad()
        with Tape() as tape:
            loss = batch_loss(model, batch, vocab.pad, training=False, rng=None)
        backward(loss, tape)
        for n, t in model.params.items():
            if t.grad is not None:
                np.testing.assert_array_equal(t.grad, first[n])

    def test_non_finite_gradient_stops_before_adam(self):
        # a NaN frame in the first item of batch 2: batch 1 takes its Adam
        # step, batch 2 must stop with every parameter still finite
        vocab = tiny_vocab()
        cfg = TrainConfig(batch_size=2, lr=1e-3, max_epochs=1, seed=5)
        model = tiny_model(seed=4, vocab_size=vocab.size)
        items = synth_items(vocab, n=6)
        epoch = 3
        order = RngState(derive_seed(cfg.seed, epoch)).permutation(len(items))
        items[order[2]].features[1, 2] = np.nan
        optimizer = AdamState()
        with pytest.raises(TrainingError, match="epoch 3, batch 2: gradient norm is nan") as err:
            train_epoch(model, items, optimizer, cfg, epoch, vocab.pad, RngState(1))
        first = next(name for name, t in model.params.items() if not np.isfinite(t.grad).all())
        assert f"first non-finite gradient in {first};" in str(err.value)
        assert optimizer.step == 1
        assert all(np.isfinite(t.data).all() for t in model.params.tensors())

    def test_small_overfit_smoke(self):
        vocab = tiny_vocab()
        cfg = TrainConfig(batch_size=2, lr=3e-3, max_epochs=60, seed=7)
        model = tiny_model(seed=8, vocab_size=vocab.size)
        items = synth_items(vocab, n=2, seed=9)
        result = train(model, items, [], cfg, vocab)
        assert result.train_history[-1] < 0.5
        assert result.train_history[-1] < result.train_history[0]

    def test_padding_invariance_in_eval_mode(self):
        # Token padding is exactly invariant: pad targets are masked from the
        # loss and causal attention keeps real positions from seeing them.
        # Feature padding is only approximately invariant: padded frames are
        # masked out of cross-attention, but convolutions spill into the real
        # frames within one receptive radius of the pad boundary.
        from wavetransformer.training import LOG_PAD_VALUE, Batch, batch_loss, make_batch

        vocab = tiny_vocab()
        model = tiny_model(seed=10, vocab_size=vocab.size)
        item = synth_items(vocab, n=1, t_a=10)[0]
        base = batch_loss(model, make_batch([item], vocab.pad), vocab.pad,
                          training=False, rng=None).item()

        toks_padded = np.array(item.tokens + [vocab.pad, vocab.pad])
        token_pad = Batch(item.features[None], [10], toks_padded[None], [len(item.tokens)])
        assert batch_loss(model, token_pad, vocab.pad, training=False, rng=None).item() == base

        feats_padded = np.full((16, 4), LOG_PAD_VALUE, dtype=np.float32)
        feats_padded[:10] = item.features
        both_pad = Batch(feats_padded[None], [10], toks_padded[None], [len(item.tokens)])
        padded = batch_loss(model, both_pad, vocab.pad, training=False, rng=None).item()
        assert padded == pytest.approx(base, rel=5e-3)


class TestParameterNaming:
    def test_checkpoint_name_conventions_fixed(self):
        # these prefixes are a compatibility contract for stored checkpoints
        vocab = tiny_vocab()
        model = tiny_model(seed=1, vocab_size=vocab.size)
        names = set(model.params.names())
        for expected in (
            "encoder.temp.block1.t1.weight",
            "encoder.temp.block2.t7.bias",
            "encoder.temp.block1.bn.gamma",
            "encoder.tf.block1.scnn.weight",
            "encoder.tf.block2.pcnn.bias",
            "encoder.merge.cnn.weight",
            "encoder.merge.fnn.bias",
            "decoder.emb.weight",
            "decoder.block1.self_attn.q.weight",
            "decoder.block1.cross_attn.out.bias",
            "decoder.block1.ffn.fc1.weight",
            "decoder.block1.ln3.beta",
            "decoder.cls.weight",
        ):
            assert expected in names, expected
        buffers = set(model.buffers)
        assert "encoder.temp.block1.bn.running_mean" in buffers
        assert "encoder.tf.block1.bn_a.running_var" in buffers


class TestCheckpoint:
    def _trained(self, epochs=2):
        vocab = tiny_vocab()
        cfg = TrainConfig(batch_size=2, lr=1e-3, max_epochs=epochs, seed=11)
        model = tiny_model(seed=12, vocab_size=vocab.size)
        items = synth_items(vocab, n=4, seed=13)
        result = train(model, items[:3], items[3:], cfg, vocab)
        return model, vocab, cfg, items, result

    def test_save_load_save_byte_identical(self, tmp_path):
        _, _, _, _, result = self._trained()
        p1, p2 = tmp_path / "a.wtck", tmp_path / "b.wtck"
        save_checkpoint(p1, result.best_checkpoint)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_dim_record_round_trips(self, tmp_path):
        _, _, _, _, result = self._trained(epochs=1)
        arrays = dict(result.best_checkpoint.arrays, scalar=np.array(2.5, np.float32))
        p1, p2 = tmp_path / "a.wtck", tmp_path / "b.wtck"
        save_checkpoint(p1, replace(result.best_checkpoint, arrays=arrays))
        loaded = load_checkpoint(p1)
        assert loaded.arrays["scalar"].shape == () and loaded.arrays["scalar"] == 2.5
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_restored_model_matches(self, tmp_path):
        model, vocab, cfg, items, result = self._trained()
        path = tmp_path / "c.wtck"
        save_checkpoint(path, result.final_checkpoint)
        restored, vocab2 = load_checkpoint(path).build_model()
        assert vocab2.words() == vocab.words()
        for (n1, a1), (n2, a2) in zip(
            sorted(model.state_arrays().items()), sorted(restored.state_arrays().items())
        ):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_wrong_config_names_first_mismatch(self, tmp_path):
        _, _, _, _, result = self._trained()
        path = tmp_path / "d.wtck"
        save_checkpoint(path, result.final_checkpoint)
        ckpt = load_checkpoint(path)
        ckpt.decoder_config["d_model"] = 16  # model widens; shapes now differ
        with pytest.raises(CheckpointError, match="decoder"):
            ckpt.build_model()

    def test_unknown_and_missing_config_keys_named(self, tmp_path):
        from wavetransformer.cli import main

        _, _, _, _, result = self._trained(epochs=1)
        ckpt = result.final_checkpoint
        ckpt.encoder_config["warp_drive"] = 1
        del ckpt.encoder_config["mode"]
        with pytest.raises(CheckpointError, match=r"unknown keys \['warp_drive'\].*"
                                                  r"missing keys \['mode'\]"):
            ckpt.build_model()
        # the caption command reports it as a hard error, not a traceback
        path = tmp_path / "odd.wtck"
        save_checkpoint(path, ckpt)
        code = main(["caption", "--features", str(tmp_path), "--checkpoint", str(path),
                     "--out", str(tmp_path / "preds.csv")])
        assert code == 2

    def test_unknown_and_missing_metadata_keys_named(self, tmp_path):
        from wavetransformer.cli import main

        _, _, _, _, result = self._trained(epochs=1)
        path = tmp_path / "odd.wtck"
        save_checkpoint(path, result.final_checkpoint)
        # rewrite the metadata block: drop "epoch", add "colour"
        blob = path.read_bytes()
        (n,) = struct.unpack("<I", blob[8:12])
        meta = json.loads(blob[12:12 + n])
        del meta["epoch"]
        meta["colour"] = "red"
        new = json.dumps(meta).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + n:])
        with pytest.raises(CheckpointError, match=r"unknown keys \['colour'\], "
                                                  r"missing keys \['epoch'\]"):
            load_checkpoint(path)
        code = main(["caption", "--features", str(tmp_path), "--checkpoint", str(path),
                     "--out", str(tmp_path / "preds.csv")])
        assert code == 2

    @pytest.mark.parametrize("case", ["missing", "unexpected", "misshaped"])
    def test_array_errors_name_the_array(self, tmp_path, capsys, case):
        from wavetransformer.cli import main

        _, _, _, _, result = self._trained(epochs=1)
        ckpt = result.final_checkpoint
        if case == "missing":
            del ckpt.arrays["encoder.tf.block1.bn_a.running_var"]
            message = "checkpoint is missing array 'encoder.tf.block1.bn_a.running_var'"
        elif case == "unexpected":
            ckpt.arrays["decoder.cls.scale"] = np.ones(3, dtype=np.float32)
            message = "checkpoint has unexpected array 'decoder.cls.scale'"
        else:
            ckpt.arrays["decoder.cls.bias"] = ckpt.arrays["decoder.cls.bias"][:-1]
            message = "shape mismatch for 'decoder.cls.bias': model (11,) vs checkpoint (10,)"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            ckpt.build_model()
        if case == "missing":
            # the caption command reports it as a hard error naming the array
            path = tmp_path / "odd.wtck"
            save_checkpoint(path, ckpt)
            code = main(["caption", "--features", str(tmp_path), "--checkpoint", str(path),
                         "--out", str(tmp_path / "preds.csv")])
            assert code == 2
            assert message in capsys.readouterr().err

    def test_built_model_copies_the_arrays(self):
        _, _, _, _, result = self._trained(epochs=1)
        ckpt = result.final_checkpoint
        before = {name: arr.copy() for name, arr in ckpt.arrays.items()}
        model, _ = ckpt.build_model()
        for t in model.params.tensors():
            t.data += 1.0
        for arr in model.buffers.values():
            arr += 1.0
        for name, arr in ckpt.arrays.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_failed_write_keeps_previous_file(self, tmp_path):
        _, _, _, _, result = self._trained(epochs=1)
        path = tmp_path / "last.wtck"
        save_checkpoint(path, result.final_checkpoint)
        before = path.read_bytes()
        # a record that cannot be written as float32, sorted after the others,
        # makes the write fail part-way
        arrays = dict(result.final_checkpoint.arrays, zz=np.array(["x"], dtype=object))
        with pytest.raises(ValueError):
            save_checkpoint(path, replace(result.final_checkpoint, arrays=arrays))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["last.wtck"]

    def test_truncation_detected(self, tmp_path):
        _, _, _, _, result = self._trained()
        path = tmp_path / "e.wtck"
        save_checkpoint(path, result.final_checkpoint)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_oversized_record_fails_before_allocating(self, tmp_path, monkeypatch):
        # a record claiming 2**30 floats (4 GiB) in a file of a few bytes
        meta = b"{}"
        path = tmp_path / "huge.wtck"
        path.write_bytes(b"WTCK" + struct.pack("<II", 1, len(meta)) + meta
                         + struct.pack("<II", 1, 1) + b"w"
                         + struct.pack("<II", 1, 2 ** 30) + bytes(64))
        mapped = []
        monkeypatch.setattr(mmap, "mmap", lambda *args: mapped.append(args))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated while reading record 'w' data"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and mapped == []

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        vocab = tiny_vocab()
        items = synth_items(vocab, n=4, seed=14)
        cfg_full = TrainConfig(batch_size=2, lr=1e-3, max_epochs=4, seed=15)

        model_a = tiny_model(seed=16, vocab_size=vocab.size)
        full = train(model_a, items[:3], items[3:], cfg_full, vocab)

        cfg_half = TrainConfig(batch_size=2, lr=1e-3, max_epochs=2, seed=15)
        model_b = tiny_model(seed=16, vocab_size=vocab.size)
        half = train(model_b, items[:3], items[3:], cfg_half, vocab)
        path = tmp_path / "half.wtck"
        save_checkpoint(path, half.final_checkpoint)

        ckpt = load_checkpoint(path)
        model_c, vocab_c = ckpt.build_model()
        resumed = train(model_c, items[:3], items[3:], cfg_full, vocab_c, resume=ckpt)

        assert resumed.train_history == full.train_history
        assert resumed.val_history == full.val_history
        for (n1, a1), (n2, a2) in zip(
            sorted(model_a.state_arrays().items()), sorted(model_c.state_arrays().items())
        ):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)


class TestFloat64Twin:
    # float32 error relative to the largest float64 magnitude, measured on
    # this model and input as 1.92e-7 (encoder output) and 1.25e-7
    # (logits); the bounds are twice those
    ENCODER_BOUND = 3.9e-7
    LOGITS_BOUND = 2.5e-7

    def test_float32_error_against_float64_twin(self):
        model = tiny_model(seed=0, vocab_size=tiny_vocab().size)
        feats = RngState(1).uniform(-1.0, 1.0, (2, 20, 4)).astype(np.float32)
        model.encode(feats, training=True)  # moves the running statistics off 0 and 1
        with default_dtype(np.float64):
            twin = CaptionModel(model.enc_cfg, model.dec_cfg, stored=model.state_arrays())
        for name, arr in twin.state_arrays().items():
            assert arr.dtype == np.float64, name
            np.testing.assert_array_equal(arr, model.state_arrays()[name])
        tokens = np.array([[1, 4, 5, 6, 7, 8], [1, 9, 3, 4, 5, 6]])

        def rel_to_max(a32, a64):
            return float(np.abs(a32 - a64).max() / np.abs(a64).max())

        feats64 = feats.astype(np.float64)
        enc = rel_to_max(model.encode(feats).data, twin.encode(feats64).data)
        logits = rel_to_max(model.forward(feats, tokens).data, twin.forward(feats64, tokens).data)
        assert 0 < enc < self.ENCODER_BOUND
        assert 0 < logits < self.LOGITS_BOUND

    # worst float32 gradient error of one training step, relative to each
    # live parameter's largest float64 gradient: 1.30e-5 (on
    # encoder.temp.block1.t4.bias) with the conv kernels before the
    # single-channel GEMM and the flipped-kernel input gradient, and the
    # batch norm before the two-reduction form; the bound is twice that
    GRAD_BOUND = 2.6e-5

    def test_training_gradients_against_float64_twin(self):
        tiny = tiny_model(seed=0, vocab_size=tiny_vocab().size)
        enc = replace(tiny.enc_cfg, dropout_tf=0.25)
        dec = replace(tiny.dec_cfg, dropout=0.25)
        model = CaptionModel(enc, dec, seed=0)
        with default_dtype(np.float64):
            twin = CaptionModel(enc, dec, stored=model.state_arrays())
        feats = RngState(1).uniform(-1.0, 1.0, (2, 20, 4)).astype(np.float32)
        vocab = tiny_vocab()
        tokens = np.array([[vocab.sos, 4, 5, 6, 7, 8, vocab.eos],
                           [vocab.sos, 9, 3, 4, vocab.eos, vocab.pad, vocab.pad]])

        def step(m, features):
            batch = Batch(features, [20, 17], tokens, [7, 5])
            m.params.zero_grad()
            with Tape() as tape:  # training-mode batch norm; dropout from a fresh RngState
                loss = batch_loss(m, batch, vocab.pad, training=True, rng=RngState(7))
            backward(loss, tape)
            return {name: t.grad for name, t in m.params.items()}

        g32, g64 = step(model, feats), step(twin, feats.astype(np.float64))
        peak = {name: float(np.abs(g).max()) for name, g in g64.items()}
        top = max(peak.values())
        # a bias ahead of a training batch norm has zero gradient up to rounding
        live = [name for name in g64 if peak[name] > 1e-4 * top]
        assert len(live) > len(g64) // 2
        worst = max(float(np.abs(g32[n] - g64[n]).max()) / peak[n] for n in live)
        assert 0 < worst < self.GRAD_BOUND


class TestWorkerCount:
    """The conv tiles and those of the memory-bound passes follow from
    shapes alone, so a training step's gradients, an encoding and greedy
    and beam captions have the same bits at one and two workers."""

    def _setup(self, workers, monkeypatch):
        monkeypatch.setattr(pool, "WORKERS", workers)
        monkeypatch.setattr(pool, "TILE_COLS", 64)  # the tiny model's convs run in tiles
        monkeypatch.setattr(pool, "TILE_BYTES", 256)  # and its batch norms, pools, dropouts
        pooled = record_pooled_jobs(monkeypatch)
        tiny = tiny_model(seed=0, vocab_size=tiny_vocab().size)
        model = CaptionModel(replace(tiny.enc_cfg, dropout_tf=0.25),
                             replace(tiny.dec_cfg, dropout=0.25), seed=0)
        feats = RngState(1).uniform(-1.0, 1.0, (2, 40, 4)).astype(np.float32)
        return model, feats, pooled

    def _step(self, model, feats) -> list:
        """One training step's loss and every gradient, as bytes."""
        vocab = tiny_vocab()
        tokens = np.array([[vocab.sos, 4, 5, 6, 7, 8, vocab.eos],
                           [vocab.sos, 9, 3, 4, vocab.eos, vocab.pad, vocab.pad]])
        with Tape() as tape:
            loss = batch_loss(model, Batch(feats, [40, 33], tokens, [7, 5]), vocab.pad,
                              training=True, rng=RngState(7))
        backward(loss, tape)
        return [loss.data.tobytes()] + [(name, t.grad.tobytes()) for name, t in model.params.items()]

    def _outputs(self, workers, monkeypatch):
        model, feats, pooled = self._setup(workers, monkeypatch)
        vocab = tiny_vocab()
        out = self._step(model, feats)
        z = model.encode(feats[0])
        out.append(z.data.tobytes())
        out.append(np.asarray(model.next_logprobs(model.begin(z), [vocab.sos])).tobytes())
        out += [decode(z, model, vocab, DecodeConfig(max_words=8, beam_size=beam))
                for beam in (1, 2)]
        return out, pooled

    def test_training_step_encoding_and_captions(self, monkeypatch):
        one, pooled = self._outputs(1, monkeypatch)
        assert pooled, "no conv ran in tiles"
        assert self._outputs(2, monkeypatch) == (one, pooled)

    def test_training_step_in_one_chunk_per_clip(self, monkeypatch):
        model, feats, _ = self._setup(1, monkeypatch)
        whole = self._step(model, feats)
        # every conv VJP splits the batch of two into chunks of one clip,
        # which run on the pool at two workers
        monkeypatch.setattr(ops, "VJP_CHUNK_BYTES", 1)
        for workers in (1, 2):
            model, feats, pooled = self._setup(workers, monkeypatch)
            assert self._step(model, feats) == whole
            assert (pooled.chunks_on_pool > 0) == (workers == 2)


class TestBlasThreadCount:
    """A training step's loss and gradients have the same bits whatever
    number of threads OpenBLAS runs, which is fixed when numpy loads, so
    each count runs in its own process."""

    SCRIPT = (
        "import hashlib, os\n"
        "import numpy as np\n"
        "from wavetransformer.decoder import DecoderConfig\n"
        "from wavetransformer.encoder import EncoderConfig\n"
        "from wavetransformer.model import CaptionModel\n"
        "from wavetransformer.tensor import RngState, Tape, backward\n"
        "from wavetransformer.text import build_vocab\n"
        "from wavetransformer.training import Batch, batch_loss\n"
        "vocab = build_vocab([[f'w{i}' for i in range(20)]])\n"
        # 32 channels: the TF convs' GEMMs are large enough for OpenBLAS to thread
        "enc = EncoderConfig(n_temp_blocks=2, n_tf_blocks=2, channels=32, pool_factors=(2, 4),\n"
        "                    dropout_tf=0.25, n_mels=8)\n"
        "dec = DecoderConfig(vocab_size=vocab.size, n_blocks=1, n_heads=2, d_model=32,\n"
        "                    dropout=0.25, max_len=24)\n"
        "model = CaptionModel(enc, dec, seed=0)\n"
        "feats = RngState(1).uniform(-1.0, 1.0, (3, 48, 8)).astype(np.float32)\n"
        "tokens = np.array([[vocab.sos, 4, 5, 6, 7, 8, vocab.eos],\n"
        "                   [vocab.sos, 9, 3, 4, vocab.eos, vocab.pad, vocab.pad],\n"
        "                   [vocab.sos, 10, 11, 12, 13, vocab.eos, vocab.pad]])\n"
        "with Tape() as tape:\n"
        "    loss = batch_loss(model, Batch(feats, [48, 40, 31], tokens, [7, 5, 6]), vocab.pad,\n"
        "                      training=True, rng=RngState(7))\n"
        "backward(loss, tape)\n"
        "h = hashlib.sha256(loss.data.tobytes())\n"
        "for name, t in model.params.items():\n"
        "    h.update(name.encode() + t.grad.tobytes())\n"
        "print(h.hexdigest(), len(os.listdir('/proc/self/task')))\n"
    )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
    def test_training_step_bits_at_one_and_two_blas_threads(self):
        blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name", "")
        if "openblas" not in blas:
            pytest.skip(f"numpy's BLAS is {blas!r}, not OpenBLAS")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(wavetransformer.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True,
                                  text=True, check=True, timeout=300)
            digest, tasks = done.stdout.split()
            runs.append((digest, int(tasks)))
        assert runs[1][1] > runs[0][1], f"OpenBLAS started no thread of its own: {runs}"
        assert runs[0][0] == runs[1][0]
