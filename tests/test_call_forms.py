"""The public call forms that `perfbench/workloads.py` drives, on a tiny model.

The benchmark does not run in this suite, so these tests keep its calls
working: a checkpoint round trip, `encode` of one (T, F) clip, `decode`,
the teacher-forced loss of a caption on one clip, and a training step on
a padded batch of clips of unequal length.
"""
import numpy as np
import pytest

from wavetransformer import inference, text, training
from wavetransformer.decoder import DecoderConfig
from wavetransformer.encoder import EncoderConfig
from wavetransformer.model import CaptionModel
from wavetransformer.tensor import AdamState, RngState, Tape, adam_step, backward, clip_grad_norm

VOCAB = text.Vocabulary(list(text.RESERVED) + [f"w{i}" for i in range(9)])


def tiny_model(seed=3):
    enc = EncoderConfig(n_temp_blocks=1, n_tf_blocks=2, channels=8, pool_factors=(2, 2),
                        n_mels=4)
    dec = DecoderConfig(vocab_size=VOCAB.size, n_blocks=1, n_heads=2, d_model=8, max_len=12)
    return CaptionModel(enc, dec, seed=seed)


@pytest.mark.parametrize("beam", [1, 2])
def test_caption_workload_calls(tmp_path, beam):
    ckpt = training.Checkpoint.capture(
        tiny_model(), AdamState(), training.TrainConfig(seed=3), VOCAB,
        epoch=0, train_history=[], val_history=[], dropout_rng=RngState(3),
    )
    training.save_checkpoint(tmp_path / "model.wtck", ckpt)
    model, vocab = training.load_checkpoint(tmp_path / "model.wtck").build_model()
    assert vocab.words() == VOCAB.words()

    features = RngState(4).uniform(-1, 1, (13, 4)).astype(np.float32)
    z = model.encode(features)
    assert z.shape == (13, 8)
    words = inference.decode(z, model, vocab, inference.DecodeConfig(max_words=6, beam_size=beam))
    assert len(words) <= 6 and all(w in vocab for w in words)

    tokens = np.asarray(text.encode(words, vocab).indices)
    logits = model.decoder.forward(tokens[:-1], z)
    assert logits.shape == (len(tokens) - 1, vocab.size)
    assert np.isfinite(training.cross_entropy_loss(logits, tokens[1:], vocab.pad).item())


def test_train_workload_calls():
    model = tiny_model()
    rng = RngState(5)
    items = [
        training.TrainItem(f"clip{i}", rng.uniform(-1, 1, (frames, 4)).astype(np.float32),
                           text.encode(words, VOCAB).indices)
        for i, (frames, words) in enumerate([(9, "w1 w2"), (6, "w3"), (11, "w4 w5 w6 w7")])
    ]
    batch = training.make_batch(items, VOCAB.pad)
    assert batch.features.shape == (3, 11, 4) and batch.feature_lengths == [9, 6, 11]
    model.params.zero_grad()
    with Tape() as tape:
        loss = training.batch_loss(model, batch, VOCAB.pad, training=True, rng=RngState(6))
    backward(loss, tape)
    norm = clip_grad_norm(model.params, 1.0)
    before = {name: t.data.copy() for name, t in model.params.items()}
    adam_step(model.params, AdamState(), 1e-3, 0.9, 0.999, 1e-8)
    assert np.isfinite(loss.item()) and np.isfinite(norm) and norm > 0
    assert any(not np.array_equal(before[name], t.data) for name, t in model.params.items())
