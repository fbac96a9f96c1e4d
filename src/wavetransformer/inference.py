"""Caption generation: greedy decoding and beam search.

Both decoders drive a model through `step_logprobs(prefix, z)`, so any
object with that method works (the real model, or a lookup-table stub in
tests).  Scores accumulate in float64: step log-probabilities are float32,
and float64 accumulation keeps the "beam of one equals greedy" equivalence
safe from addition-rounding ties.

Generation stops on <eos> or after `max_words` emitted tokens.  Finished
hypotheses compete by log_prob / len(tokens)^alpha, ties broken by score
then lexicographic token sequence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import Tensor
from .text import Vocabulary


@dataclass
class DecodeConfig:
    max_words: int = 22
    beam_size: int = 2
    length_norm_alpha: float = 1.0

    def __post_init__(self):
        if self.max_words < 1 or self.beam_size < 1:
            raise ConfigError("max_words and beam_size must be >= 1")


@dataclass
class Hypothesis:
    """Token prefix (starting at <sos>) with its accumulated log-probability."""

    tokens: list[int]
    log_prob: float

    def emitted(self) -> int:
        """Tokens generated so far (everything after <sos>)."""
        return len(self.tokens) - 1

    def normalized_score(self, alpha: float) -> float:
        length = max(self.emitted(), 1)
        return self.log_prob / (length ** alpha)


def _to_words(tokens: list[int], vocab: Vocabulary) -> list[str]:
    words = []
    for idx in tokens[1:]:
        if idx == vocab.eos:
            break
        words.append(vocab.word(idx))
    return words


def greedy_decode(z: Tensor, model, vocab: Vocabulary, cfg: DecodeConfig) -> list[str]:
    """Argmax continuation per step, ties to the lowest index."""
    tokens = [vocab.sos]
    for _ in range(cfg.max_words):
        logprobs = model.step_logprobs(tokens, z)
        nxt = int(np.argmax(logprobs))
        if nxt == vocab.eos:
            break
        tokens.append(nxt)
    return _to_words(tokens + [vocab.eos], vocab)


def beam_search(z: Tensor, model, vocab: Vocabulary, cfg: DecodeConfig) -> list[str]:
    """Breadth-limited search over token sequences.

    Per step, every live hypothesis expands over the whole vocabulary; the
    top `beam_size` candidates by accumulated log-probability stay live.
    Emitting <eos> (or exhausting the word budget) freezes a hypothesis
    into the finished pool, which competes by length-normalized score.
    """
    live = [Hypothesis([vocab.sos], 0.0)]
    finished: list[Hypothesis] = []
    for _ in range(cfg.max_words):
        candidates: list[tuple[float, list[int]]] = []
        for hyp in live:
            logprobs = model.step_logprobs(hyp.tokens, z)
            for tok in range(len(logprobs)):
                candidates.append((hyp.log_prob + float(logprobs[tok]), hyp.tokens + [tok]))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        next_live = []
        for score, tokens in candidates[: cfg.beam_size]:
            if tokens[-1] == vocab.eos:
                finished.append(Hypothesis(tokens, score))
            else:
                next_live.append(Hypothesis(tokens, score))
        live = next_live
        if not live:
            break
    finished.extend(live)
    best = min(
        finished,
        key=lambda h: (-h.normalized_score(cfg.length_norm_alpha), h.tokens),
    )
    return _to_words(best.tokens, vocab)


def decode(z: Tensor, model, vocab: Vocabulary, cfg: DecodeConfig) -> list[str]:
    if cfg.beam_size == 1:
        return greedy_decode(z, model, vocab, cfg)
    return beam_search(z, model, vocab, cfg)


def caption_features(features: np.ndarray, model, vocab: Vocabulary,
                     cfg: DecodeConfig) -> list[str]:
    z = model.encode(features, training=False)
    return decode(z, model, vocab, cfg)


def caption_corpus(named_features: list[tuple[str, np.ndarray]], model,
                   vocab: Vocabulary, cfg: DecodeConfig) -> list[tuple[str, str]]:
    """Caption every (name, features) pair, sorted by name, eval mode."""
    manifest = []
    for name, feats in sorted(named_features, key=lambda nf: nf[0]):
        words = caption_features(feats, model, vocab, cfg)
        manifest.append((name, " ".join(words)))
    return manifest
