"""Binary feature-file format (WTF1).

Layout, little-endian throughout:

    bytes 0..3    magic "WTF1"
    u32           format version (currently 1)
    u32           T_a (frame count)
    u32           F (mel band count)
    f32           sample rate in Hz
    u32           frame hop in samples
    u32           window length in samples
    then          T_a * F float32 values, row-major

The reader validates the magic and the exact byte length, so truncated or
padded files are rejected outright, and names the first non-finite value
by frame and band.
"""
from __future__ import annotations

import struct

import numpy as np

from .audio import FeatureMatrix
from .errors import DataError

WTF1_MAGIC = b"WTF1"
WTF1_VERSION = 1
_HEADER = struct.Struct("<4sIIIfII")


def write_wtf1(path, fm: FeatureMatrix) -> None:
    t_a, f = fm.values.shape
    header = _HEADER.pack(
        WTF1_MAGIC, WTF1_VERSION, t_a, f,
        float(fm.sample_rate), fm.frame_hop, fm.window_length,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(fm.values, dtype="<f4").tobytes())


def read_wtf1(path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DataError(f"{path}: too short for a WTF1 header")
    magic, version, t_a, f, rate, hop, window = _HEADER.unpack_from(blob)
    if magic != WTF1_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if version != WTF1_VERSION:
        raise DataError(f"{path}: unsupported WTF1 version {version}")
    expected = _HEADER.size + 4 * t_a * f
    if len(blob) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for {t_a}x{f} features, got {len(blob)}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(t_a, f)
    finite = np.isfinite(values)
    if not finite.all():
        frame, band = np.argwhere(~finite)[0]
        raise DataError(f"{path}: non-finite value {values[frame, band]} at frame {frame}, "
                        f"band {band}")
    return FeatureMatrix(values.copy(), sample_rate=rate, frame_hop=hop, window_length=window)
