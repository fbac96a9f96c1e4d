"""Training loop: teacher forcing, Adam with norm clipping, early stopping,
and bit-exact checkpointing.

Checkpoint file format (WTCK), little-endian throughout:

    bytes 0..3   magic "WTCK"
    u32          format version (currently 1)
    u32          metadata length, then that many bytes of UTF-8 JSON
                 (epoch, histories, configs, vocabulary, optimizer step,
                 RNG state; keys sorted so bytes are reproducible)
    u32          record count, then per record:
                   u32 name length, name (UTF-8),
                   u32 ndim, u32 dims...,
                   float32 data, row-major
                 one record per model parameter, batch-norm buffer, and
                 Adam moment, in lexicographic name order

Floats in the JSON block round-trip exactly (shortest-repr decimal), and
array data is raw float32, so save -> load -> save is byte-identical and a
resumed run continues bit-exactly.
"""
from __future__ import annotations

import json
import math
import mmap
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .audio import LOG_FLOOR, AudioConfig
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import CheckpointError, DataError, TrainingError, UsageError
from .model import CaptionModel
from .tensor import (
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
from .tensor import ops
from .text import Vocabulary

LOG_PAD_VALUE = float(np.log(LOG_FLOOR))  # feature padding = the log floor


@dataclass
class TrainConfig:
    batch_size: int = 12
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    patience: int = 10
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.patience < 1 or self.clip_norm <= 0:
            raise UsageError("batch_size/patience must be >= 1 and clip_norm > 0")
        # Adam divides by 1 - beta ** step, so a beta of 1 turns the parameters to NaN
        for key, ok, rule in (
            ("lr", self.lr > 0, "> 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("eps", self.eps > 0, "> 0"),
            ("max_epochs", self.max_epochs >= 0, ">= 0"),
        ):
            if not ok:
                raise UsageError(f"{key} must be {rule}, got {getattr(self, key)}")


@dataclass
class TrainItem:
    """One (feature matrix, encoded caption) training example."""

    name: str
    features: np.ndarray   # (T_a, F) float32
    tokens: list[int]      # <sos> ... <eos>


@dataclass
class Batch:
    features: np.ndarray        # (B, T_max, F), padded with the log floor
    feature_lengths: list[int]
    tokens: np.ndarray          # (B, L_max), padded with pad_index
    token_lengths: list[int]


def make_batch(items: list[TrainItem], pad_index: int) -> Batch:
    t_max = max(it.features.shape[0] for it in items)
    l_max = max(len(it.tokens) for it in items)
    f = items[0].features.shape[1]
    feats = np.full((len(items), t_max, f), LOG_PAD_VALUE, dtype=np.float32)
    toks = np.full((len(items), l_max), pad_index, dtype=np.int64)
    for i, it in enumerate(items):
        feats[i, : it.features.shape[0]] = it.features
        toks[i, : len(it.tokens)] = it.tokens
    return Batch(feats, [it.features.shape[0] for it in items], toks,
                 [len(it.tokens) for it in items])


def cross_entropy_loss(logits: Tensor, targets: np.ndarray, pad_index: int) -> Tensor:
    """Mean negative log-likelihood over non-pad target positions.

    Teacher forcing happens at the call site: logits come from tokens[..-2]
    and `targets` are tokens[1..].  Padded positions contribute nothing.
    """
    targets = np.asarray(targets)
    mask = (targets != pad_index)
    n = int(mask.sum())
    if n == 0:
        raise UsageError("cross_entropy_loss: every target position is padding")
    logp = ops.log_softmax(logits, axis=-1)
    picked = ops.take_last_axis(logp, np.where(mask, targets, 0))
    total = ops.tensor_sum(ops.mul_const(picked, mask.astype(picked.dtype)))
    return ops.scale(total, -1.0 / n)


def batch_loss(model: CaptionModel, batch: Batch, pad_index: int,
               training: bool, rng: RngState | None) -> Tensor:
    logits = model.forward(
        batch.features, batch.tokens[:, :-1], batch.feature_lengths,
        training=training, rng=rng,
    )
    return cross_entropy_loss(logits, batch.tokens[:, 1:], pad_index)


def train_epoch(
    model: CaptionModel,
    items: list[TrainItem],
    optimizer: AdamState,
    cfg: TrainConfig,
    epoch: int,
    pad_index: int,
    dropout_rng: RngState,
) -> float:
    """One pass: deterministic shuffle by (seed, epoch), then per batch
    forward / loss / backward / clip / Adam.  Returns the mean batch loss."""
    order = RngState(derive_seed(cfg.seed, epoch)).permutation(len(items))
    losses = []
    for start in range(0, len(items), cfg.batch_size):
        chosen = [items[i] for i in order[start : start + cfg.batch_size]]
        batch = make_batch(chosen, pad_index)
        model.params.zero_grad()
        with Tape() as tape:
            loss = batch_loss(model, batch, pad_index, training=True, rng=dropout_rng)
        backward(loss, tape)
        norm = clip_grad_norm(model.params, cfg.clip_norm)
        if not np.isfinite(norm):
            # a NaN norm skips clipping and Adam would spread it into every
            # parameter; stop while the parameters are still the last good ones
            bad = next((name for name, t in model.params.items()
                        if t.grad is not None and not np.isfinite(t.grad).all()), None)
            raise TrainingError(
                f"epoch {epoch}, batch {start // cfg.batch_size + 1}: gradient norm is "
                f"{norm}; first non-finite gradient in {bad}; parameters left unchanged"
            )
        adam_step(model.params, optimizer, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        losses.append(loss.item())
    return float(np.mean(losses))


def validation_loss(model: CaptionModel, items: list[TrainItem], cfg: TrainConfig,
                    pad_index: int) -> float:
    losses = []
    for start in range(0, len(items), cfg.batch_size):
        batch = make_batch(items[start : start + cfg.batch_size], pad_index)
        loss = batch_loss(model, batch, pad_index, training=False, rng=None)
        losses.append(loss.item())
    return float(np.mean(losses))


def early_stopping(history: list[float], patience: int) -> tuple[bool, int]:
    """(stop_now, best_epoch), epochs numbered from 1.

    Stop once `patience` consecutive epochs have passed without a strict
    improvement of the best validation loss.
    """
    if not history:
        return False, 0
    best_epoch = 1 + int(np.argmin(history))  # argmin takes the earliest min
    stop = len(history) - best_epoch >= patience
    return stop, best_epoch


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

WTCK_MAGIC = b"WTCK"
WTCK_VERSION = 1


@dataclass
class Checkpoint:
    arrays: dict[str, np.ndarray]          # params + buffers + adam moments
    epoch: int
    step: int
    train_history: list[float]
    val_history: list[float]
    encoder_config: dict
    decoder_config: dict
    train_config: dict
    vocab_words: list[str]
    rng_state: tuple[int, int]
    # the epoch of val_history[0]; a checkpoint saved without it has one
    # entry per epoch or none
    first_val_epoch: int | None = None
    # the [audio] config of the features the model was trained on, where
    # recorded (`train` records it)
    audio_config: dict | None = None

    @classmethod
    def capture(cls, model: CaptionModel, optimizer: AdamState, cfg: TrainConfig,
                vocab: Vocabulary, epoch: int, train_history: list[float],
                val_history: list[float], dropout_rng: RngState,
                first_val_epoch: int | None = None) -> "Checkpoint":
        # deep copies: a captured checkpoint must not track later training
        arrays = {name: arr.copy() for name, arr in model.state_arrays().items()}
        for name in sorted(optimizer.m):
            arrays[f"adam.m.{name}"] = optimizer.m[name].copy()
            arrays[f"adam.v.{name}"] = optimizer.v[name].copy()
        return cls(
            arrays=arrays,
            epoch=epoch,
            step=optimizer.step,
            train_history=list(train_history),
            val_history=list(val_history),
            encoder_config=asdict(model.enc_cfg),
            decoder_config=asdict(model.dec_cfg),
            train_config=asdict(cfg),
            vocab_words=vocab.words(),
            rng_state=dropout_rng.state(),
            first_val_epoch=first_val_epoch,
        )

    def build_model(self) -> tuple[CaptionModel, Vocabulary]:
        enc_cfg = _stored_config(EncoderConfig, self.encoder_config, "encoder_config")
        dec_cfg = _stored_config(DecoderConfig, self.decoder_config, "decoder_config")
        model = CaptionModel(enc_cfg, dec_cfg, stored={
            n: a for n, a in self.arrays.items() if not n.startswith("adam.")
        })
        return model, Vocabulary(list(self.vocab_words))

    def audio(self) -> AudioConfig | None:
        """The [audio] config of the model's training features, or None for a
        checkpoint that does not record it."""
        if self.audio_config is None:
            return None
        return _stored_config(AudioConfig, self.audio_config, "audio_config")

    def restore_optimizer(self, params: ParameterStore) -> AdamState:
        """The saved Adam state of a model with `params`: two moments per
        parameter, each of its parameter's shape, or no moments at all (a
        checkpoint saved before the first step).  Raises CheckpointError
        naming the first moment that is missing, unknown or of another shape.
        """
        state = AdamState()
        state.step = self.step
        stored = {n: a for n, a in self.arrays.items() if n.startswith("adam.")}
        if not stored:
            return state
        shapes = {f"adam.{k}.{name}": t.shape for name, t in params.items() for k in "mv"}
        for key in sorted(shapes.keys() | stored.keys()):
            if key not in stored:
                raise CheckpointError(f"checkpoint is missing Adam moment {key!r}")
            if key not in shapes:
                raise CheckpointError(f"checkpoint has unexpected Adam moment {key!r}")
            if stored[key].shape != shapes[key]:
                raise CheckpointError(f"shape mismatch for Adam moment {key!r}: model "
                                      f"{shapes[key]} vs checkpoint {stored[key].shape}")
            moments = state.m if key.startswith("adam.m.") else state.v
            moments[key[len("adam.m."):]] = stored[key].copy()
        return state


# every Checkpoint field but the arrays is a metadata key
META_KEYS = [f.name for f in fields(Checkpoint) if f.name != "arrays"]


def _check_keys(stored: dict, expected, what: str) -> None:
    """Raise CheckpointError naming the unknown and missing keys, if any."""
    unknown, missing = sorted(set(stored) - set(expected)), sorted(set(expected) - set(stored))
    if unknown or missing:
        raise CheckpointError(f"{what}: unknown keys {unknown}, missing keys {missing}")


def _stored_config(cls, stored: dict, name: str):
    """Rebuild a config from checkpoint metadata holding exactly its fields."""
    _check_keys(stored, [f.name for f in fields(cls)],
                f"checkpoint {name} does not fit {cls.__name__}")
    return cls(**stored)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    # JSON writes the rng_state tuple as a list
    meta = {key: getattr(ckpt, key) for key in META_KEYS}
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # write a temporary file next to the target and rename it over the
    # target, so a failed write leaves the previous checkpoint intact
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_wtck(fh, meta_bytes, ckpt.arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_wtck(fh, meta_bytes: bytes, arrays: dict[str, np.ndarray]) -> None:
    fh.write(WTCK_MAGIC)
    fh.write(struct.pack("<I", WTCK_VERSION))
    fh.write(struct.pack("<I", len(meta_bytes)))
    fh.write(meta_bytes)
    names = sorted(arrays)
    fh.write(struct.pack("<I", len(names)))
    for name in names:
        # not ascontiguousarray, which turns a 0-d array into shape (1,);
        # tobytes writes C order whatever the layout
        arr = np.asarray(arrays[name], dtype="<f4")
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def load_checkpoint(path) -> Checkpoint:
    # One pass, front to back.  Each declared size is checked against the
    # bytes left before anything is read for it, so nothing larger than the
    # file is ever allocated.  Record data go into one block mapped from the
    # OS at the first record, sized by the rest of the file: the weights are
    # held once, leave no holes in the malloc heap, and go back in one piece.
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0

        def claim(n: int, what: str) -> None:
            nonlocal pos
            if pos + n > size:
                raise CheckpointError(f"{path}: truncated while reading {what}")
            pos += n

        def need(n: int, what: str) -> bytes:
            claim(n, what)
            chunk = fh.read(n)
            if len(chunk) != n:
                raise CheckpointError(f"{path}: truncated while reading {what}")
            return chunk

        if need(4, "magic") != WTCK_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a WTCK checkpoint")
        (version,) = struct.unpack("<I", need(4, "version"))
        if version != WTCK_VERSION:
            raise CheckpointError(f"{path}: unsupported WTCK version {version}")
        (meta_len,) = struct.unpack("<I", need(4, "metadata length"))
        try:
            meta = json.loads(need(meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt metadata block: {exc}") from None
        (count,) = struct.unpack("<I", need(4, "record count"))
        arrays: dict[str, np.ndarray] = {}
        block, start = None, 0
        for _ in range(count):
            (name_len,) = struct.unpack("<I", need(4, "record name length"))
            name = need(name_len, "record name").decode("utf-8")
            (ndim,) = struct.unpack("<I", need(4, "record rank"))
            dims = struct.unpack(f"<{ndim}I", need(4 * ndim, "record dims"))
            n = math.prod(dims)
            claim(4 * n, f"record {name!r} data")
            if block is None:  # this record's data and the whole floats after it
                rest = n + (size - pos) // 4
                block = np.frombuffer(mmap.mmap(-1, max(4 * rest, 1)), dtype="<f4", count=rest)
            arr = block[start : start + n]
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated while reading record {name!r} data")
            arrays[name] = arr.reshape(dims)
            start += arr.size
        if pos != size:
            raise CheckpointError(f"{path}: {size - pos} trailing bytes after records")
    for key in ("first_val_epoch", "audio_config"):
        meta.setdefault(key, None)  # saved before it was recorded
    _check_keys(meta, META_KEYS, f"{path}: metadata does not fit Checkpoint")
    meta["rng_state"] = tuple(meta["rng_state"])
    return Checkpoint(arrays=arrays, **meta)


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    best_epoch: int
    epochs_run: int
    train_history: list[float] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)
    best_checkpoint: Checkpoint | None = None
    final_checkpoint: Checkpoint | None = None  # resume point


def train(
    model: CaptionModel,
    train_items: list[TrainItem],
    val_items: list[TrainItem],
    cfg: TrainConfig,
    vocab: Vocabulary,
    resume: Checkpoint | None = None,
    log=None,
) -> TrainResult:
    """Early-stopped optimization; keeps the best-validation checkpoint.

    With no validation items the loop runs to max_epochs and "best" means
    the final epoch (the overfit/smoke path).  After every epoch, `log` is
    called with (epoch, train loss, validation loss or None, result), the
    result's best and final checkpoints as of that epoch.

    Whenever the result's best_checkpoint is set, it is that of best_epoch.
    A run resumed after its best epoch, which no later epoch beats, has no
    checkpoint of that epoch: its best_checkpoint is None, and the caller
    keeps the best checkpoint it already has.  A resumed run numbers its
    validation losses by epoch, from the checkpoint's first validated epoch
    (or, where it records none, from epoch 1 for a history of one loss per
    epoch and after the resume point for none): when the run goes on with
    validation, the history must run to the resume point.  Raises DataError
    when there are no training items or the resumed validation history
    does not.
    """
    if not train_items:
        raise DataError("no training items: nothing to train on")
    optimizer = resume.restore_optimizer(model.params) if resume else AdamState()
    dropout_rng = RngState.from_state(resume.rng_state) if resume else RngState(derive_seed(cfg.seed, 0xD0))
    train_history = list(resume.train_history) if resume else []
    val_history = list(resume.val_history) if resume else []
    start_epoch = resume.epoch if resume else 0
    # val_history[i] is of epoch first_val + i, where the history ends at
    # the resume point (`numbered`); validation cannot go on from another,
    # and no checkpoint records a first epoch for it
    if resume is not None and resume.first_val_epoch is not None:
        first_val = resume.first_val_epoch
    else:
        first_val = 1 if len(val_history) == start_epoch else start_epoch + 1
    numbered = first_val + len(val_history) - 1 == start_epoch
    if val_items and val_history and not numbered:
        raise DataError(f"cannot resume with validation from a validation history of "
                        f"{len(val_history)} entries for {start_epoch} epochs")
    best_epoch = (first_val - 1 + early_stopping(val_history, cfg.patience)[1]
                  if val_history and numbered else start_epoch)
    result = TrainResult(best_epoch=best_epoch, epochs_run=start_epoch,
                         train_history=train_history, val_history=val_history)

    def capture(epoch):
        """Make the final checkpoint at `epoch`, the best too where it is best_epoch."""
        result.final_checkpoint = Checkpoint.capture(
            model, optimizer, cfg, vocab, epoch, train_history, val_history, dropout_rng,
            first_val if val_history and numbered else None,
        )
        if result.best_epoch == epoch:
            result.best_checkpoint = result.final_checkpoint

    for epoch in range(start_epoch + 1, cfg.max_epochs + 1):
        tr = train_epoch(model, train_items, optimizer, cfg, epoch, vocab.pad, dropout_rng)
        train_history.append(tr)
        vl, stop = None, False
        if val_items:
            vl = validation_loss(model, val_items, cfg, vocab.pad)
            val_history.append(vl)
            stop, best = early_stopping(val_history, cfg.patience)
            result.best_epoch = first_val - 1 + best
        else:
            result.best_epoch = epoch
        result.epochs_run = epoch
        capture(epoch)
        if log:
            log(epoch, tr, vl, result)
        if stop:
            break
    if result.final_checkpoint is None:  # no epoch ran
        capture(start_epoch)
    return result
