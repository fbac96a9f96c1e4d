"""Audio frontend: WAV decoding and log mel-band energy extraction.

The WAV reader is hand-rolled rather than delegated so that malformed files
fail with the exact byte offset of the problem and a truncated data chunk
never yields a partial clip.

The STFT runs as tiles of whole frames on the op pool (`pool.run`), each
in a scratch slot of its lane that the pool allocates: a tile is
windowed, transformed (`rfft(out=)`) and squared there, and feature
extraction takes it on through the mel product and the log floor into the
float32 feature matrix, so no whole-clip spectrum or power array is ever
made.  Every tile has at least a fixed number of frames, set by the frame's
bytes alone, and every step is per frame, so the features have the bits of
one pass over the whole clip whatever the tile or worker count.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import AudioFormatError, ConfigError
from .tensor import pool

LOG_FLOOR = 1e-10  # power floor before the natural log; keeps features finite


@dataclass
class AudioClip:
    """Mono audio in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise AudioFormatError("empty audio clip")
        if not np.isfinite(self.samples).all():
            raise AudioFormatError("non-finite samples in audio clip")


@dataclass
class FeatureMatrix:
    """T_a x F log mel-band energies plus the frame geometry that made them."""

    values: np.ndarray
    sample_rate: float
    frame_hop: int
    window_length: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ConfigError(f"feature matrix must be T_a x F, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ConfigError("non-finite values in feature matrix")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def num_bands(self) -> int:
        return self.values.shape[1]


@dataclass
class MelFilterbank:
    """Triangular, unit-peak filters on the HTK mel scale."""

    weights: np.ndarray  # (n_mels, n_fft//2 + 1)
    f_min: float
    f_max: float
    centers_hz: np.ndarray = field(default=None)

    def __post_init__(self):
        rows_nonzero = (self.weights > 0).any(axis=1)
        if not rows_nonzero.all():
            bad = int(np.argmin(rows_nonzero))
            raise ConfigError(
                f"mel filter {bad} has no nonzero FFT-bin support; "
                "increase n_fft or reduce n_mels"
            )


@dataclass
class AudioConfig:
    sample_rate: int = 44100
    window_ms: float = 46.0
    n_fft: int = 2048
    hop: int = 512
    n_mels: int = 64
    f_min: float = 0.0
    f_max: float | None = None  # defaults to sample_rate / 2

    @property
    def window_length(self) -> int:
        return int(round(self.window_ms * self.sample_rate / 1000.0))


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file: PCM 16-bit int or IEEE 32-bit float.

    Multi-channel audio is averaged to mono; 16-bit samples are scaled by
    1/32768 (exactly: the scale is a power of two).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise AudioFormatError("file too short for a RIFF header", 0)
    if blob[0:4] != b"RIFF":
        raise AudioFormatError("missing RIFF magic", 0)
    if blob[8:12] != b"WAVE":
        raise AudioFormatError("missing WAVE form type", 8)

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", blob, pos + 4)
        body = pos + 8
        if body + chunk_size > len(blob):
            raise AudioFormatError(
                f"chunk {chunk_id!r} declares {chunk_size} bytes past end of file", pos
            )
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise AudioFormatError("fmt chunk shorter than 16 bytes", pos)
            fmt = struct.unpack_from("<HHIIHH", blob, body)
        elif chunk_id == b"data":
            data = (body, chunk_size)
        pos = body + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise AudioFormatError("no fmt chunk found", 12)
    if data is None:
        raise AudioFormatError("no data chunk found", 12)

    audio_format, channels, sample_rate, _, _, bits = fmt
    offset, size = data
    if channels < 1:
        raise AudioFormatError("fmt declares zero channels", offset)

    if audio_format == 1 and bits == 16:
        dtype, bytes_per = np.dtype("<i2"), 2
    elif audio_format == 3 and bits == 32:
        dtype, bytes_per = np.dtype("<f4"), 4
    else:
        raise AudioFormatError(
            f"unsupported codec: format={audio_format}, bits={bits} "
            "(PCM 16-bit or IEEE float 32-bit required)",
            offset,
        )

    frame_bytes = bytes_per * channels
    if size % frame_bytes:
        raise AudioFormatError(
            f"data chunk size {size} is not a whole number of {channels}-channel frames",
            offset,
        )
    raw = np.frombuffer(blob, dtype=dtype, count=size // bytes_per, offset=offset)
    scale = 2.0**-15 if audio_format == 1 else 1.0
    if channels == 1:
        return AudioClip(np.multiply(raw, scale, dtype=np.float64), sample_rate)
    frames = np.multiply(raw.reshape(-1, channels), scale, dtype=np.float64)
    return AudioClip(frames.mean(axis=1), sample_rate)


def write_wav(path, samples: np.ndarray, sample_rate: int, bits: int = 16) -> None:
    """Write mono or multi-channel PCM-16 / float-32 WAV (test/data tooling)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    channels = arr.shape[1]
    if bits == 16:
        payload = np.clip(np.round(arr * 32768.0), -32768, 32767).astype("<i2").tobytes()
        audio_format, block = 1, 2 * channels
    elif bits == 32:
        payload = arr.astype("<f4").tobytes()
        audio_format, block = 3, 4 * channels
    else:
        raise ConfigError(f"unsupported bit depth {bits}")
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, channels, sample_rate,
        sample_rate * block, block, bits,
        b"data", len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(hdr + payload)


# ---------------------------------------------------------------------------
# spectral analysis
# ---------------------------------------------------------------------------

def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming window, 0.54 - 0.46 cos(2 pi k / (n-1))."""
    if n == 1:
        return np.ones(1)
    k = np.arange(n, dtype=np.float64)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def _framing(clip: AudioClip, window_length: int, hop: int, n_fft: int) -> tuple:
    """The clip's centered frames, a (T_a, n_fft) view, and the window."""
    if window_length > n_fft:
        raise ConfigError(f"window_length {window_length} exceeds n_fft {n_fft}")
    if window_length < 1:
        raise ConfigError(f"window_length must be >= 1 sample, got {window_length}")
    if hop < 1:
        raise ConfigError(f"hop must be >= 1, got {hop}")
    x = clip.samples
    if x.size < hop:
        raise AudioFormatError(
            f"clip of {x.size} samples is shorter than one hop ({hop})"
        )
    pad = n_fft // 2
    if x.size <= pad:
        raise AudioFormatError(
            f"clip of {x.size} samples is too short to center {n_fft}-point frames"
        )
    padded = np.pad(x, pad, mode="reflect")
    n_frames = x.size // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop][:n_frames]
    window = np.zeros(n_fft)
    left = (n_fft - window_length) // 2
    window[left : left + window_length] = hamming_window(window_length)
    return frames, window


def _power_tiles(frames: np.ndarray, window: np.ndarray, extra: int, finish) -> None:
    """Call finish(tile, power, rest) for every tile of whole frames of
    `frames` (T_a, n_fft), on the op pool: `power` holds the tile's power
    spectra, (rows, n_fft//2 + 1) float64, and `rest` room for `extra`
    float64 values per frame, both in the tile's scratch slot.

    A tile has as many frames as fit pool.TILE_BYTES of scratch, and the
    last one also takes the remainder (`pool.blocks`), so no tile is shorter
    than that unless the clip is: a GEMM of few rows may run on other BLAS
    kernels, which round differently (OpenBLAS gives its small-matrix kernel
    a mel product of 15 frames at the paper's geometry, where a tile has 31).
    """
    n, n_fft = frames.shape
    bins = n_fft // 2 + 1
    frame_bytes = 8 * (2 * bins + n_fft + extra)
    tiles = pool.blocks(n, max(1, pool.TILE_BYTES // frame_bytes))

    def tile(t, slot):
        k = len(frames[t])
        buf = pool.carve(slot, (k * frame_bytes // 8,), np.float64)
        spectra = buf[: 2 * k * bins].view(np.complex128).reshape(k, bins)
        windowed = buf[2 * k * bins : (2 * bins + n_fft) * k].reshape(k, n_fft)
        np.multiply(frames[t], window, out=windowed)
        np.fft.rfft(windowed, n=n_fft, axis=1, out=spectra)
        # real**2 + imag**2, on the front of the windowed frames
        power = windowed.reshape(-1)[: k * bins].reshape(k, bins)
        np.multiply(spectra.real, spectra.real, out=power)
        np.multiply(spectra.imag, spectra.imag, out=spectra.imag)
        np.add(power, spectra.imag, out=power)
        finish(t, power, buf[(2 * bins + n_fft) * k :])

    pool.run(tile, tiles, n * n_fft, scratch=(frame_bytes * max(len(frames[t]) for t in tiles),))


def stft_power(clip: AudioClip, window_length: int, hop: int, n_fft: int) -> np.ndarray:
    """Magnitude-squared single-sided spectrum of centered, windowed frames.

    Frames are centered at t*hop via reflection padding, the Hamming window
    of `window_length` samples sits centered inside the n_fft buffer, and
    the frame count is exactly floor(len / hop) + 1.
    """
    frames, window = _framing(clip, window_length, hop, n_fft)
    out = np.empty((len(frames), n_fft // 2 + 1))
    _power_tiles(frames, window, 0, lambda t, power, _: np.copyto(out[t], power))
    return out


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int,
    n_fft: int,
    sample_rate: float,
    f_min: float = 0.0,
    f_max: float | None = None,
) -> MelFilterbank:
    """Unit-peak triangular filters spaced uniformly on the mel scale."""
    if f_max is None:
        f_max = sample_rate / 2.0
    if n_mels < 1:
        raise ConfigError("n_mels must be >= 1")
    if not 0 <= f_min < f_max <= sample_rate / 2.0 + 1e-9:
        raise ConfigError(f"bad mel band edges: f_min={f_min}, f_max={f_max}")
    edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))
    bins_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    weights = np.zeros((n_mels, bins_hz.size))
    for i in range(n_mels):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (bins_hz - lo) / (center - lo)
        falling = (hi - bins_hz) / (hi - center)
        weights[i] = np.maximum(0.0, np.minimum(rising, falling))
    return MelFilterbank(weights, f_min, f_max, centers_hz=edges[1:-1])


def log_mel(power: np.ndarray, fb: MelFilterbank) -> np.ndarray:
    """Natural-log mel energies with a fixed floor: ln(max(P Wᵀ, 1e-10))."""
    return _log_mel(power, fb.weights, np.empty((len(power), len(fb.weights))))


def _log_mel(power: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log_mel of `power` into the float64 array `out`."""
    np.matmul(power, weights.T, out=out)
    np.maximum(out, LOG_FLOOR, out=out)
    return np.log(out, out=out)


def extract_features(clip: AudioClip, cfg: AudioConfig) -> FeatureMatrix:
    """Full pipeline: centered Hamming STFT -> mel energies -> natural log,
    frame tile by frame tile (see the module docstring).

    The clip must be at `cfg.sample_rate`: hop and window are set in its
    samples, so another rate would yield other bands and frame times.
    """
    if clip.sample_rate != cfg.sample_rate:
        raise ConfigError(f"clip sample rate is {clip.sample_rate} Hz but the [audio] "
                          f"sample_rate is {cfg.sample_rate} Hz")
    frames, window = _framing(clip, cfg.window_length, cfg.hop, cfg.n_fft)
    fb = mel_filterbank(cfg.n_mels, cfg.n_fft, cfg.sample_rate, cfg.f_min, cfg.f_max)
    feats = np.empty((len(frames), cfg.n_mels), dtype=np.float32)

    def finish(t, power, rest):
        mel = rest[: power.shape[0] * cfg.n_mels].reshape(-1, cfg.n_mels)
        np.copyto(feats[t], _log_mel(power, fb.weights, mel))

    _power_tiles(frames, window, cfg.n_mels, finish)
    return FeatureMatrix(
        feats,
        sample_rate=float(clip.sample_rate),
        frame_hop=cfg.hop,
        window_length=cfg.window_length,
    )
