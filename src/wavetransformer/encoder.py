"""Audio encoder: temporal branch, time-frequency branch, merge network.

The temporal branch stacks gated residual 1D-convolution blocks ("wave
blocks") along time; the time-frequency branch stacks depthwise-separable
2D-convolution blocks with frequency-only max pooling; the merge network
fuses the two sequences with a 2-channel convolution and a time-shared
linear map.  Four operating modes cover the ablations: full, temp_only,
tf_only, and avg.

Shape conventions: blocks take batch-first, channel-first tensors only,
(B, C, T) for the wave blocks and (B, C, T, F) for the TF blocks, and the
merge network takes (B, T, C).  The entry points (`temporal_branch`,
`tf_branch`, `encode`) take features (T, F) or (B, T, F), treat a leading
axis as clips, and return the same leading axes with C features per frame.

Chunked eval encoding.  In eval mode every layer is local in time: each
"same"-padded conv reaches its padding on each side of a frame, and batch
norm, max-pool and the merge's linear map act per frame.  So a frame's
encoding reads only the `Encoder.radius` frames on each side of it, and
with no tape active `encode` cuts a clip into chunks of at least
CHUNK_FRAMES frames (`pool.blocks`: one chunk under 2 * CHUNK_FRAMES),
encodes each with a halo of `radius` frames on each side, clipped at the
clip's edges, and writes its interior into one output, in memory that does
not grow with the clip beyond its input and output.  At the paper's
configuration the bits are the whole clip's; at some small channel counts
a GEMM's last bits depend on its column count, and a clip's last frames
may differ.  The chunks run one after another in the caller's thread, and
each op inside a chunk tiles on the pool as it does on a whole clip.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .layers import BatchNorm, Conv1d, Conv2d, Linear, ModelSpace
from .tensor import RngState, Tensor, active_tape
from .tensor import ops, pool

MODES = ("full", "temp_only", "tf_only", "avg")
# An eval encode with no tape runs a clip as chunks of at least this many
# frames (see the module docstring)
CHUNK_FRAMES = 512


@dataclass
class EncoderConfig:
    n_temp_blocks: int = 4
    n_tf_blocks: int = 3
    channels: int = 128          # C_out of every block, and F' of the output
    pcnn_kernel: int = 5
    pool_factors: tuple = (4, 4, 4)
    dropout_tf: float = 0.25
    mode: str = "full"
    n_mels: int = 64             # F of the input features

    def __post_init__(self):
        self.pool_factors = tuple(int(p) for p in self.pool_factors)
        if self.mode not in MODES:
            raise ConfigError(f"encoder mode must be one of {MODES}, got {self.mode!r}")
        if self.n_temp_blocks < 1 or self.n_tf_blocks < 1:
            raise ConfigError("block counts must be >= 1")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.pcnn_kernel <= 1 or self.pcnn_kernel % 2 == 0:
            raise ConfigError(f"pcnn_kernel must be odd and > 1, got {self.pcnn_kernel}")
        if len(self.pool_factors) != self.n_tf_blocks:
            raise ConfigError(
                f"need one pool factor per tf block: {len(self.pool_factors)} != {self.n_tf_blocks}"
            )
        if int(np.prod(self.pool_factors)) != self.n_mels:
            raise ConfigError(
                f"pool factors {self.pool_factors} must multiply to F={self.n_mels} "
                "so the frequency axis collapses to 1"
            )


def _clips(features: Tensor) -> Tensor:
    """Features (T, F) or (B, T, F) as a batch of clips (B, T, F)."""
    if features.ndim not in (2, 3):
        raise DimensionError(f"features must be (T, F) or (B, T, F), got shape {features.shape}")
    return ops.reshape(features, (-1, *features.shape[-2:]))


class WaveBlock:
    """Gated residual block of seven time convolutions.

    t1/t4/t7 are 1x1; t2/t3 are k=3 dilation-1 gates; t5/t6 are k=3
    dilation-2 gates.  All are length-preserving along time.  The final
    residual adds the intermediate gated output (the dilation-1 stage
    result), and the block closes with batch norm and a ReLU.
    """

    def __init__(self, space: ModelSpace, name: str, c_in: int, c_out: int):
        self.t1 = Conv1d(space, f"{name}.t1", c_in, c_out, k=1)
        self.t2 = Conv1d(space, f"{name}.t2", c_out, c_out, k=3)
        self.t3 = Conv1d(space, f"{name}.t3", c_out, c_out, k=3)
        self.t4 = Conv1d(space, f"{name}.t4", c_out, c_out, k=1)
        self.t5 = Conv1d(space, f"{name}.t5", c_out, c_out, k=3, dilation=2)
        self.t6 = Conv1d(space, f"{name}.t6", c_out, c_out, k=3, dilation=2)
        self.t7 = Conv1d(space, f"{name}.t7", c_out, c_out, k=1)
        self.bn = BatchNorm(space, f"{name}.bn", c_out)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h2 = self.t1(x)
        s2 = ops.mul(ops.tanh(self.t2(h2)), ops.sigmoid(self.t3(h2)))
        h1 = ops.add(self.t4(s2), h2)
        s1 = ops.mul(ops.tanh(self.t5(h1)), ops.sigmoid(self.t6(h1)))
        pre = ops.add(self.t7(s1), h1)
        return ops.relu(self.bn(pre, training))


class TFBlock:
    """Depthwise-separable 2D block with frequency-only pooling.

    S-CNN is one (5,5) kernel per input channel (groups = C_in); the
    "pointwise-role" P-CNN mixes channels with a wider-than-1x1 square
    kernel.  Following the block equations literally there is no extra
    ReLU between the second batch norm and the pooling.
    """

    def __init__(self, space: ModelSpace, name: str, c_in: int, c_out: int,
                 pcnn_kernel: int, pool: int, dropout: float):
        self.scnn = Conv2d(space, f"{name}.scnn", c_in, c_in, k=5, groups=c_in)
        self.bn_a = BatchNorm(space, f"{name}.bn_a", c_in)
        self.pcnn = Conv2d(space, f"{name}.pcnn", c_in, c_out, k=pcnn_kernel)
        self.bn_b = BatchNorm(space, f"{name}.bn_b", c_out)
        self.pool = pool
        self.dropout = dropout

    def __call__(self, x: Tensor, training: bool, rng: RngState | None = None) -> Tensor:
        s = self.bn_a(ops.leaky_relu(self.scnn(x)), training)
        if training:
            out = ops.max_pool_freq(self.bn_b(self.pcnn(s), training), self.pool)
        else:
            # bn_b and the pooling run inside the P-CNN's output tiles unless a tape records
            bn = self.bn_b
            out = ops.conv2d_bn_pool(s, self.pcnn.weight, self.pcnn.bias, self.pcnn.padding,
                                     bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                                     bn.eps, self.pool)
        return ops.dropout(out, self.dropout, training, rng)


class MergeNet:
    """Fuse the two branch outputs: stack as 2 channels, convolve to 1,
    then apply a time-shared linear map."""

    def __init__(self, space: ModelSpace, name: str, channels: int):
        self.cnn = Conv2d(space, f"{name}.cnn", 2, 1, k=5)
        self.fnn = Linear(space, f"{name}.fnn", channels, channels)

    def __call__(self, z_t: Tensor, z_tf: Tensor) -> Tensor:
        if z_t.shape != z_tf.shape:
            raise DimensionError(f"merge inputs differ: {z_t.shape} vs {z_tf.shape}")
        stacked = ops.concat([ops.reshape(z, (-1, 1, *z.shape[-2:])) for z in (z_t, z_tf)], axis=1)
        return self.fnn(ops.reshape(self.cnn(stacked), z_t.shape))


class Encoder:
    """Mode-aware assembly of the two branches and the merge network.

    Only the branches a mode uses are built, so ablated checkpoints carry
    no dead parameters.
    """

    def __init__(self, space: ModelSpace, cfg: EncoderConfig, name: str = "encoder"):
        self.cfg = cfg
        self.wave_blocks: list[WaveBlock] = []
        self.tf_blocks: list[TFBlock] = []
        self.merge: MergeNet | None = None
        if cfg.mode in ("full", "temp_only", "avg"):
            c_in = cfg.n_mels
            for i in range(cfg.n_temp_blocks):
                self.wave_blocks.append(
                    WaveBlock(space, f"{name}.temp.block{i + 1}", c_in, cfg.channels)
                )
                c_in = cfg.channels
        if cfg.mode in ("full", "tf_only", "avg"):
            c_in = 1
            for i, pool in enumerate(cfg.pool_factors):
                self.tf_blocks.append(
                    TFBlock(space, f"{name}.tf.block{i + 1}", c_in, cfg.channels,
                            cfg.pcnn_kernel, pool, cfg.dropout_tf)
                )
                c_in = cfg.channels
        if cfg.mode == "full":
            self.merge = MergeNet(space, f"{name}.merge", cfg.channels)
        # frames on each side of a frame that its eval encoding reads: each
        # "same"-padded conv reaches its padding (a wave block's gates 1 and
        # 2, a TF block's S-CNN and P-CNN 2 each, the merge conv 2)
        temp = sum(b.t2.padding + b.t5.padding for b in self.wave_blocks)
        tf = sum(b.scnn.padding + b.pcnn.padding for b in self.tf_blocks)
        self.radius = max(temp, tf) + (self.merge.cnn.padding if self.merge else 0)

    def temporal_branch(self, features: Tensor, training: bool) -> Tensor:
        """(..., T, F) -> (..., T, C): mel bands become conv channels."""
        h = ops.transpose(_clips(features), (0, 2, 1))  # (B, F, T)
        for block in self.wave_blocks:
            h = block(h, training)
        return ops.reshape(ops.transpose(h, (0, 2, 1)), (*features.shape[:-1], -1))

    def tf_branch(self, features: Tensor, training: bool, rng: RngState | None = None) -> Tensor:
        """(..., T, F) -> (..., T, C): 1-channel image in, frequency pooled to 1."""
        h = ops.reshape(_clips(features), (-1, 1, *features.shape[-2:]))
        for block in self.tf_blocks:
            h = block(h, training, rng)
        if h.shape[-1] != 1:
            raise DimensionError(f"frequency axis not collapsed: {h.shape}")
        out = ops.transpose(ops.reshape(h, h.shape[:-1]), (0, 2, 1))
        return ops.reshape(out, (*features.shape[:-1], -1))

    def encode(self, features: Tensor, training: bool = False,
               rng: RngState | None = None) -> Tensor:
        """(..., T, F) -> (..., T, C); in chunks in eval mode with no tape
        active (see the module docstring)."""
        clips = _clips(features)
        if training or active_tape() is not None:
            return self._encode(features, training, rng)
        frames = clips.shape[1]
        out = None
        for part in pool.blocks(frames, CHUNK_FRAMES):
            lo, hi = max(0, part.start - self.radius), min(frames, part.stop + self.radius)
            z = self._encode(Tensor(clips.data[:, lo:hi]), False).data
            if out is None:
                out = np.empty((*clips.shape[:2], z.shape[-1]), dtype=z.dtype)
            out[:, part] = z[:, part.start - lo : part.stop - lo]
        return Tensor(out.reshape(*features.shape[:-1], -1))

    def _encode(self, features: Tensor, training: bool, rng: RngState | None = None) -> Tensor:
        """The whole clip at once."""
        mode = self.cfg.mode
        if mode == "temp_only":
            return self.temporal_branch(features, training)
        if mode == "tf_only":
            return self.tf_branch(features, training, rng)
        z_t = self.temporal_branch(features, training)
        z_tf = self.tf_branch(features, training, rng)
        if mode == "avg":
            return ops.scale(ops.add(z_t, z_tf), 0.5)
        return self.merge(z_t, z_tf)
