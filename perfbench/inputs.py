"""Deterministic synthetic inputs, drawn from the package's own `RngState`.

The counter-based generator is pure 64-bit integer arithmetic, so a seed
yields the same WAVs, captions and model weights on every machine.  The
program under test only ever sees the files and arrays made here.
"""
from __future__ import annotations

import numpy as np

SAMPLE_RATE = 44100
HOP = 512
VOCAB_WORDS = 5000
MAX_WORDS = 22

# sub-stream tags for derive_seed, one per kind of input
TAG_AUDIO, TAG_CAPTIONS, TAG_MODEL, TAG_DROPOUT = 1, 2, 3, 4


def frames_for(samples: int) -> int:
    """Frame count the frontend must produce: T = floor(samples/hop) + 1."""
    return samples // HOP + 1


def samples_for(frames: int, rng) -> int:
    """A sample count whose clip extracts to exactly `frames` frames."""
    return (frames - 1) * HOP + rng.randint(HOP)


def vocabulary(wt, n_words: int):
    """Reserved tokens plus `n_words` synthetic words; seed-independent."""
    words = [f"w{i:04d}" for i in range(n_words)]
    return wt.text.Vocabulary(list(wt.text.RESERVED) + words)


def noise_and_tones(rng, n_samples: int) -> np.ndarray:
    """White noise under three sinusoids, peak-normalised to 0.5."""
    t = np.arange(n_samples) / SAMPLE_RATE
    x = 0.2 * rng.uniform(-1.0, 1.0, (n_samples,))
    for _ in range(3):
        freq = rng.uniform(80.0, 8000.0)
        amp = rng.uniform(0.1, 0.5)
        phase = rng.uniform(0.0, 2 * np.pi)
        x += amp * np.sin(2 * np.pi * freq * t + phase)
    return 0.5 * x / np.max(np.abs(x))


def write_clip(wt, path, rng, n_samples: int) -> None:
    wt.audio.write_wav(path, noise_and_tones(rng, n_samples), SAMPLE_RATE, bits=16)


def caption(rng, vocab, n_words: int) -> list[str]:
    """`n_words` words drawn uniformly from the vocabulary's words."""
    return [vocab.word(3 + rng.randint(vocab.size - 3)) for _ in range(n_words)]


def lengths(rng, n: int, lo: int, hi: int) -> list[int]:
    """`n` lengths in [lo, hi], the first at `hi`, so that every batch of
    clips (frames) or captions (words) pads to the same width."""
    return [hi] + [lo + rng.randint(hi - lo + 1) for _ in range(n - 1)]


def seeded_checkpoint(wt, path, vocab, model_seed: int) -> None:
    """Save an untrained, seeded model as a WTCK checkpoint."""
    enc_cfg = wt.encoder.EncoderConfig()
    dec_cfg = wt.decoder.DecoderConfig(vocab_size=vocab.size)
    model = wt.model.CaptionModel(enc_cfg, dec_cfg, seed=model_seed)
    ckpt = wt.training.Checkpoint.capture(
        model, wt.tensor.AdamState(), wt.training.TrainConfig(seed=model_seed), vocab,
        epoch=0, train_history=[], val_history=[],
        dropout_rng=wt.tensor.RngState(model_seed),
    )
    wt.training.save_checkpoint(path, ckpt)
