"""Error taxonomy shared across the package.

Every failure mode falls into one of a few buckets so that callers (and the
CLI exit-code policy) can react uniformly.
"""


class DimensionError(ValueError):
    """Tensor shapes incompatible with the requested operation."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration values."""


class UsageError(ValueError):
    """API misuse: wrong call order, wrong argument kind."""


class DataError(ValueError):
    """Problems in user-supplied corpora or manifests."""


class AudioFormatError(ValueError):
    """Malformed or unsupported audio file."""

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint file."""


class TrainingError(ValueError):
    """Training cannot continue, e.g. a gradient is not finite."""


class DecodeError(ValueError):
    """Decoding cannot continue, e.g. the log-probabilities are NaN."""
