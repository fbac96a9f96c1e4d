"""Run configuration: one flat `key = value` file with section headers.

`SECTIONS` is the whole file format: each section names the dataclass it
fills and the keys a file may set, each key being one field of that
dataclass ([run] keys are fields of `RunConfig` itself).  Unknown sections
or keys are rejected so typos cannot silently fall back to defaults.
Fields listed in `DERIVED` are worked out from another key, never read, so
no value can be set in two places.  Defaults follow the published
hyper-parameters wherever a value is stated; everything else is a
documented engineering choice.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .audio import AudioConfig
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import ConfigError
from .inference import DecodeConfig
from .training import TrainConfig

WT_SEED_ENV = "WT_SEED"


@dataclass
class RunConfig:
    audio: AudioConfig = field(default_factory=AudioConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)  # vocab_size: from the corpus
    train: TrainConfig = field(default_factory=TrainConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    seed: int = 0
    val_size: int = 100
    rarity_threshold: int = 10


# section -> (dataclass it fills, keys a config file may set)
SECTIONS = {
    "audio": (AudioConfig, ("sample_rate", "window_ms", "n_fft", "hop", "n_mels",
                            "f_min", "f_max")),
    "encoder": (EncoderConfig, ("n_temp_blocks", "n_tf_blocks", "channels", "pcnn_kernel",
                                "pool_factors", "dropout_tf", "mode")),
    "decoder": (DecoderConfig, ("n_blocks", "n_heads", "dropout", "max_len")),
    "train": (TrainConfig, ("batch_size", "lr", "beta1", "beta2", "eps", "clip_norm",
                            "patience", "max_epochs")),
    "decode": (DecodeConfig, ("max_words", "beam_size", "length_norm_alpha")),
    "run": (RunConfig, ("seed", "val_size", "rarity_threshold")),
}

# (section, field) <- (section, key): fields set from another key's value
DERIVED = {
    ("encoder", "n_mels"): ("audio", "n_mels"),
    ("decoder", "d_model"): ("encoder", "channels"),
    ("train", "seed"): ("run", "seed"),
}


def _parse_value(raw: str, default):
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float) or default is None:  # None: optional float (f_max)
        return float(raw)
    if isinstance(default, tuple):
        return tuple(int(p.strip()) for p in raw.split(",") if p.strip())
    return raw.strip()


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, WT_SEED and overrides.

    Each source wins over the ones before it: the file over the defaults,
    the WT_SEED environment variable over the file, and `overrides`
    ({(section, key): value}, None meaning unset) over everything.  Every
    dataclass is constructed once from the merged values, so its own
    checks validate the result.
    """
    settings = []  # (where, section, key, raw)
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            settings += [(f"[{section}] {key}", section, key, raw)
                         for key, raw in parser.items(section)]
    env_seed = os.environ.get(WT_SEED_ENV)
    if env_seed is not None:
        settings.append((WT_SEED_ENV, "run", "seed", env_seed))
    settings += [(f"[{section}] {key}", section, key, str(value))
                 for (section, key), value in (overrides or {}).items() if value is not None]

    values = {section: {} for section in SECTIONS}
    for where, section, key, raw in settings:
        cls, keys = SECTIONS[section]
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        try:
            values[section][key] = _parse_value(raw, getattr(cls, key))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    for (section, name), (source, key) in DERIVED.items():
        values[section][name] = values[source].get(key, getattr(SECTIONS[source][0], key))
    parts = {}
    for section, (cls, _) in SECTIONS.items():
        if cls is not RunConfig:
            try:
                parts[section] = cls(**values[section])
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}") from None
    return RunConfig(**parts, **values["run"])
