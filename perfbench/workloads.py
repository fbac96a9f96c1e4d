"""The three workloads, driven through the package's public functions in
the order the CLI uses them.

Each workload generates its inputs from the seed (untimed), sets up the
program (`setup`, timed for `setup_s`), then runs operations one at a time
in a closed loop (`op`): a training step on `train_b12`, one clip from WAV
to caption on the caption workloads.  `op` times only the program's calls
and checks their outputs afterwards; a failed check raises `CheckFailed`.
"""
from __future__ import annotations

import hashlib
import importlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def import_package(root: Path):
    """Import the package from `root/src`; refuse a copy found elsewhere."""
    names = ("audio", "decoder", "encoder", "fileformats", "inference", "metrics",
             "model", "text", "training", "tensor", "tensor.core", "tensor.ops")
    mods = {n.replace("tensor.", ""): importlib.import_module(f"wavetransformer.{n}")
            for n in names}
    src = (root / "src").resolve()
    if src not in Path(mods["audio"].__file__).resolve().parents:
        raise ImportError(f"wavetransformer was imported from {mods['audio'].__file__}, not {src}")
    return type("Package", (), mods)


@dataclass(frozen=True)
class Size:
    batch: int = 12
    train_t_max: int = 100        # frames of the longest clip in each batch
    train_t_min: int = 76
    words_min: int = 8
    words_max: int = 20
    train_batches: int = 3        # distinct batches, cycled
    vocab_words: int = 5000
    long_clip_s: float = 30.0     # caption_30s_greedy
    short_clip_s: float = 5.0     # caption_5s_beam2
    clip_pool: int = 2            # distinct clips, cycled so each repeats
    setup_reps: int = 3


PAPER = Size()
SMOKE = Size(batch=2, train_t_max=24, train_t_min=16, words_min=3, words_max=6,
             train_batches=1, vocab_words=50, long_clip_s=0.5, short_clip_s=0.25,
             setup_reps=1)


# steps 1..LOSS_STEP (the warm-up is step 1) always run
LOSS_STEP = 3


def digest(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


class TrainB12:
    """Teacher-forced training steps: make_batch, tape, backward, clip, Adam."""

    def __init__(self, wt, size: Size, seed: int, workdir: Path):
        self.wt, self.size, self.seed, self.workdir = wt, size, seed, workdir
        self.vocab = inputs.vocabulary(wt, size.vocab_words)
        self.cfg = wt.training.TrainConfig(batch_size=size.batch, seed=seed)
        self.losses: list[float] = []
        self.op_stats: dict[int, dict] = {}

    def generate(self) -> None:
        wt, size = self.wt, self.size
        rng = wt.tensor.RngState(wt.tensor.derive_seed(self.seed, inputs.TAG_AUDIO))
        crng = wt.tensor.RngState(wt.tensor.derive_seed(self.seed, inputs.TAG_CAPTIONS))
        self.clips = []  # (wav path, frames, words)
        for b in range(size.train_batches):
            frames = inputs.lengths(rng, size.batch, size.train_t_min, size.train_t_max)
            words = inputs.lengths(crng, size.batch, size.words_min, size.words_max)
            for i, (t, n) in enumerate(zip(frames, words)):
                path = self.workdir / f"train{b:02d}_{i:02d}.wav"
                inputs.write_clip(wt, path, rng, inputs.samples_for(t, rng))
                self.clips.append((path, t, inputs.caption(crng, self.vocab, n)))

    def setup(self) -> None:
        """Build the model and load every clip as the CLI's extract and train
        commands would: WAV -> features -> WTF1 -> read back."""
        wt = self.wt
        self.model = wt.model.CaptionModel(
            wt.encoder.EncoderConfig(),
            wt.decoder.DecoderConfig(vocab_size=self.vocab.size),
            seed=wt.tensor.derive_seed(self.seed, inputs.TAG_MODEL),
        )
        audio_cfg = wt.audio.AudioConfig()
        items = []
        for path, frames, words in self.clips:
            fm = wt.audio.extract_features(wt.audio.load_wav(path), audio_cfg)
            feat_path = path.with_suffix(".wtf1")
            wt.fileformats.write_wtf1(feat_path, fm)
            back = wt.fileformats.read_wtf1(feat_path)
            if fm.num_frames != frames or not np.array_equal(back.values, fm.values):
                raise CheckFailed(f"{path.name}: {fm.num_frames} frames (expected {frames}) "
                                  "or WTF1 read-back differs")
            items.append(wt.training.TrainItem(path.stem, back.values,
                                               wt.text.encode(words, self.vocab).indices))
        b = self.size.batch
        self.batches = [items[i : i + b] for i in range(0, len(items), b)]
        self.optimizer = wt.tensor.AdamState()
        self.dropout_rng = wt.tensor.RngState(wt.tensor.derive_seed(self.seed, inputs.TAG_DROPOUT))

    def op(self, index: int) -> tuple[int, float]:
        wt, cfg, pad = self.wt, self.cfg, self.vocab.pad
        items = self.batches[index % len(self.batches)]
        t0 = time.perf_counter()
        batch = wt.training.make_batch(items, pad)
        self.model.params.zero_grad()
        with wt.tensor.Tape() as tape:
            loss = wt.training.batch_loss(self.model, batch, pad, training=True,
                                          rng=self.dropout_rng)
        wt.tensor.backward(loss, tape)
        norm = wt.tensor.clip_grad_norm(self.model.params, cfg.clip_norm)
        wt.tensor.adam_step(self.model.params, self.optimizer, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        seconds = time.perf_counter() - t0
        value = loss.item()
        self.losses.append(value)
        b, t_max, _ = batch.features.shape
        l_max = batch.tokens.shape[1]
        self.op_stats[index] = {
            "training.useful_frame_ratio": sum(batch.feature_lengths) / (b * t_max),
            "training.useful_token_ratio": sum(n - 1 for n in batch.token_lengths) / (b * (l_max - 1)),
        }
        if not (math.isfinite(value) and math.isfinite(norm)):
            raise CheckFailed(f"step {index}: loss {value}, pre-clip grad norm {norm}")
        return len(items), seconds

    def evaluate(self) -> None:
        """Training has no captions to score."""

    def loss_final(self) -> float:
        # a fixed step, so the value repeats exactly at a fixed seed however
        # many steps the time budget allowed
        return self.losses[LOSS_STEP - 1]

    def outputs(self) -> dict:
        trajectory = [float.hex(x) for x in self.losses]
        return {"loss_trajectory": trajectory,
                "loss_digest": digest(trajectory[:LOSS_STEP])}

    def shape(self) -> dict:
        return {"B": self.size.batch, "T": self.size.train_t_max,
                "T_min": self.size.train_t_min, "L_max": self.size.words_max + 2,
                "vocab": self.vocab.size}


class Caption:
    """One clip at a time: WAV -> extract -> WTF1 -> read -> encode -> decode."""

    def __init__(self, wt, size: Size, seed: int, workdir: Path, seconds: float, beam: int):
        self.wt, self.size, self.seed, self.workdir = wt, size, seed, workdir
        self.clip_samples = int(round(seconds * inputs.SAMPLE_RATE))
        self.vocab = inputs.vocabulary(wt, size.vocab_words)
        self.decode_cfg = wt.inference.DecodeConfig(max_words=inputs.MAX_WORDS, beam_size=beam)
        self.audio_cfg = wt.audio.AudioConfig()
        self.captions: list[tuple[int, list[str]]] = []
        self.first: dict[int, list[str]] = {}
        self.encoded: dict[int, object] = {}
        self.op_stats: dict[int, dict] = {}

    def generate(self) -> None:
        wt = self.wt
        rng = wt.tensor.RngState(wt.tensor.derive_seed(self.seed, inputs.TAG_AUDIO))
        self.wavs = []
        for k in range(self.size.clip_pool):
            path = self.workdir / f"clip{k}.wav"
            inputs.write_clip(wt, path, rng, self.clip_samples)
            self.wavs.append(path)
        self.checkpoint = self.workdir / "model.wtck"
        inputs.seeded_checkpoint(wt, self.checkpoint, self.vocab,
                                 wt.tensor.derive_seed(self.seed, inputs.TAG_MODEL))
        crng = wt.tensor.RngState(wt.tensor.derive_seed(self.seed, inputs.TAG_CAPTIONS))
        self.references = [
            [inputs.caption(crng, self.vocab, self.size.words_min + crng.randint(
                self.size.words_max - self.size.words_min + 1)) for _ in range(5)]
            for _ in range(self.size.clip_pool)
        ]

    def setup(self) -> None:
        ckpt = self.wt.training.load_checkpoint(self.checkpoint)
        self.model, vocab = ckpt.build_model()
        if vocab.words() != self.vocab.words():
            raise CheckFailed("checkpoint vocabulary differs from the generated one")

    def op(self, index: int) -> tuple[int, float]:
        wt = self.wt
        k = index % len(self.wavs)
        feat_path = self.wavs[k].with_suffix(".wtf1")
        t0 = time.perf_counter()
        clip = wt.audio.load_wav(self.wavs[k])
        fm = wt.audio.extract_features(clip, self.audio_cfg)
        wt.fileformats.write_wtf1(feat_path, fm)
        back = wt.fileformats.read_wtf1(feat_path)
        z = self.model.encode(back.values)
        words = wt.inference.decode(z, self.model, self.vocab, self.decode_cfg)
        seconds = time.perf_counter() - t0
        self.captions.append((k, words))
        self.encoded[k] = z
        ended = len(words) < self.decode_cfg.max_words
        self.op_stats[index] = {"inference.tokens": len(words) + ended}
        self.check(index, k, fm, back, words)
        return 1, seconds

    def check(self, index, k, fm, back, words) -> None:
        expected = inputs.frames_for(self.clip_samples)
        if fm.num_frames != expected:
            raise CheckFailed(f"clip {index}: {fm.num_frames} frames, expected {expected}")
        if not np.array_equal(back.values, fm.values):
            raise CheckFailed(f"clip {index}: WTF1 read-back differs from the features written")
        if len(words) > self.decode_cfg.max_words:
            raise CheckFailed(f"clip {index}: {len(words)} words > {self.decode_cfg.max_words}")
        reserved = set(self.wt.text.RESERVED)
        bad = [w for w in words if w not in self.vocab or w in reserved]
        if bad:
            raise CheckFailed(f"clip {index}: words outside the vocabulary: {bad[:3]}")
        if self.first.setdefault(k, words) != words:
            raise CheckFailed(f"clip {index}: caption of repeated clip {k} changed")

    def evaluate(self) -> None:
        """Score every caption of the run, as the CLI's evaluate command does."""
        corpus = [self.wt.metrics.EvalPair(words, self.references[k])
                  for k, words in self.captions]
        self.wt.metrics.assemble_report(corpus)

    def loss_final(self) -> float:
        """Mean teacher-forced loss the model assigns to its own captions
        (words then <eos>), over the distinct clips; fixed at a fixed seed."""
        wt, vocab = self.wt, self.vocab
        losses = []
        for k in sorted(self.first):
            tokens = np.asarray(wt.text.encode(self.first[k], vocab).indices)
            logits = self.model.decoder.forward(tokens[:-1], self.encoded[k])
            losses.append(wt.training.cross_entropy_loss(logits, tokens[1:], vocab.pad).item())
        return float(np.mean(losses))

    def outputs(self) -> dict:
        return {"caption_digest": digest([" ".join(w) for _, w in sorted(self.first.items())]),
                "captions": {str(k): " ".join(w) for k, w in sorted(self.first.items())}}

    def shape(self) -> dict:
        return {"clip_seconds": self.clip_samples / inputs.SAMPLE_RATE,
                "T": inputs.frames_for(self.clip_samples),
                "beam": self.decode_cfg.beam_size, "vocab": self.vocab.size}


WORKLOADS = {
    "train_b12": TrainB12,
    "caption_30s_greedy": lambda wt, size, seed, work: Caption(
        wt, size, seed, work, size.long_clip_s, beam=1),
    "caption_5s_beam2": lambda wt, size, seed, work: Caption(
        wt, size, seed, work, size.short_clip_s, beam=2),
}
