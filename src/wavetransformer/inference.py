"""Caption generation: greedy decoding and beam search.

Both decoders drive a model through two calls, so any object with them
works (the real model, or a lookup-table stub in tests):

* `model.begin(z)` returns a decoding state for the encoded clip `z`, with
  one row; `state.keep(rows)` continues with the given rows, in order.
* `model.next_logprobs(state, tokens)` extends every row by its token and
  returns the next-token log-probabilities, one row each (rows, W).

Beam search runs all live hypotheses as the rows of one state, so each
step is one call.  Scores accumulate in float64: step log-probabilities are
float32, and float64 accumulation keeps the "beam of one equals greedy"
equivalence safe from addition-rounding ties.

Generation stops on <eos> or after `max_words` emitted tokens.  Finished
hypotheses compete by log_prob / len(tokens)^alpha, ties broken by score
then lexicographic token sequence.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import Tensor
from .text import Vocabulary, decode as to_words


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


def greedy_decode(z: Tensor, model, vocab: Vocabulary, cfg: DecodeConfig) -> list[str]:
    """Argmax continuation per step, ties to the lowest index."""
    state = model.begin(z)
    tokens = [vocab.sos]
    for _ in range(cfg.max_words):
        nxt = int(np.argmax(model.next_logprobs(state, tokens[-1:])[0]))
        if nxt == vocab.eos:
            break
        tokens.append(nxt)
    return to_words(tokens, vocab)


def beam_search(z: Tensor, model, vocab: Vocabulary, cfg: DecodeConfig) -> list[str]:
    """Breadth-limited search over token sequences.

    Per step, every live hypothesis expands over the whole vocabulary; the
    top `beam_size` candidates by accumulated log-probability stay live,
    ties going to the lexicographically smaller token sequence.  Emitting
    <eos> (or exhausting the word budget) freezes a hypothesis into the
    finished pool, which competes by length-normalized score.
    """
    state = model.begin(z)
    live = [Hypothesis([vocab.sos], 0.0)]
    finished: list[Hypothesis] = []
    for _ in range(cfg.max_words):
        lp = model.next_logprobs(state, [h.tokens[-1] for h in live])
        scores = np.array([h.log_prob for h in live])[:, None] + lp.astype(np.float64)
        flat = scores.ravel()
        # only candidates at or above the beam_size-th largest score can
        # survive; sorting just those keeps the tie rule of a full sort
        cut = max(flat.size - cfg.beam_size, 0)
        candidates = []
        for i in np.flatnonzero(flat >= np.partition(flat, cut)[cut]):
            row, tok = divmod(int(i), lp.shape[1])
            candidates.append((-flat[i], live[row].tokens + [tok], row))
        candidates.sort()
        rows = []
        next_live = []
        for neg_score, tokens, row in candidates[: cfg.beam_size]:
            hyp = Hypothesis(tokens, float(-neg_score))
            if tokens[-1] == vocab.eos:
                finished.append(hyp)
            else:
                next_live.append(hyp)
                rows.append(row)
        live = next_live
        if not live:
            break
        state.keep(rows)
    finished.extend(live)
    best = min(
        finished,
        key=lambda h: (-h.normalized_score(cfg.length_norm_alpha), h.tokens),
    )
    return to_words(best.tokens, vocab)


def decode(z: Tensor, model, vocab: Vocabulary, cfg: DecodeConfig) -> list[str]:
    if cfg.beam_size == 1:
        return greedy_decode(z, model, vocab, cfg)
    return beam_search(z, model, vocab, cfg)


def caption_corpus(named_features: list[tuple[str, np.ndarray]], model,
                   vocab: Vocabulary, cfg: DecodeConfig, log=None) -> list[tuple[str, str]]:
    """Caption every (name, features) pair, sorted by name, eval mode.

    `log`, if given, receives one line per file with its caption and the
    milliseconds spent encoding and decoding it.
    """
    manifest = []
    for name, feats in sorted(named_features, key=lambda nf: nf[0]):
        start = time.perf_counter()
        z = model.encode(feats, training=False)
        encoded = time.perf_counter()
        caption = " ".join(decode(z, model, vocab, cfg))
        if log is not None:
            log(f"{name}: {caption}  (encode {1e3 * (encoded - start):.1f} ms, "
                f"decode {1e3 * (time.perf_counter() - encoded):.1f} ms)")
        manifest.append((name, caption))
    return manifest
