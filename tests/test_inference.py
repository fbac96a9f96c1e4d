"""Greedy and beam decoding: equivalence, optimality, termination."""
import tracemalloc

import numpy as np
import pytest

from wavetransformer.decoder import DecoderConfig
from wavetransformer.encoder import EncoderConfig
from wavetransformer.errors import DecodeError
from wavetransformer.inference import DecodeConfig, Hypothesis, beam_search, decode, greedy_decode
from wavetransformer.model import NEVER_EMITTED, CaptionModel
from wavetransformer.tensor import RngState, Tensor
from wavetransformer.tensor import ops
from wavetransformer.text import RESERVED, Vocabulary, decode as text_decode


def vocab_of(words):
    return Vocabulary(list(RESERVED) + list(words))


class PrefixState:
    """Decoding state of the lookup stubs: one token prefix per row."""

    def __init__(self, z):
        self.z = z
        self.prefixes = [[]]

    def keep(self, rows):
        self.prefixes = [list(self.prefixes[r]) for r in rows]


class PrefixStub:
    """The decoding protocol over a `step_logprobs(prefix, z)` lookup, which
    the oracles below also use to score whole sequences."""

    def begin(self, z):
        return PrefixState(z)

    def next_logprobs(self, state, tokens):
        assert len(tokens) == len(state.prefixes)
        for prefix, tok in zip(state.prefixes, tokens):
            prefix.append(int(tok))
        return np.stack([self.step_logprobs(p, state.z) for p in state.prefixes])


class TableModel(PrefixStub):
    """Stub decoder: log-probabilities looked up by token prefix.

    Unlisted prefixes fall back to a fixed distribution, so every path is
    well-defined.
    """

    def __init__(self, table, vocab_size, fallback=None):
        self.table = {tuple(k): np.asarray(v, dtype=np.float32) for k, v in table.items()}
        if fallback is None:
            fallback = np.full(vocab_size, -np.log(vocab_size))
        self.fallback = np.asarray(fallback, dtype=np.float32)

    def step_logprobs(self, prefix, z):
        return self.table.get(tuple(prefix), self.fallback)


class RandomModel(PrefixStub):
    """Deterministic random table over all prefixes up to a horizon."""

    def __init__(self, seed, vocab_size):
        self.seed = seed
        self.w = vocab_size

    def step_logprobs(self, prefix, z):
        key = hash((self.seed,) + tuple(prefix)) & 0xFFFFFFFF
        raw = RngState(key).uniform(-4.0, 0.0, (self.w,)).astype(np.float32)
        lse = np.log(np.exp(raw).sum())
        return (raw - lse).astype(np.float32)


def all_probs(model, vocab, length):
    """Exhaustive enumeration of every sequence of exactly `length` steps
    (stopping early on <eos>), with raw accumulated log-probs."""
    results = []

    def walk(prefix, logp, steps):
        if prefix[-1] == vocab.eos or steps == length:
            results.append((logp, prefix))
            return
        lp = model.step_logprobs(prefix, None)
        for tok in range(len(lp)):
            walk(prefix + [tok], logp + float(lp[tok]), steps + 1)

    walk([vocab.sos], 0.0, 0)
    return results


class TestGreedy:
    def test_eos_first_gives_empty_caption(self):
        vocab = vocab_of(["w1", "w2"])
        lp = np.full(vocab.size, -10.0, dtype=np.float32)
        lp[vocab.eos] = -0.01
        model = TableModel({}, vocab.size, fallback=lp)
        assert greedy_decode(None, model, vocab, DecodeConfig(beam_size=1)) == []

    def test_no_eos_caps_at_max_words(self):
        vocab = vocab_of(["w1", "w2"])
        lp = np.full(vocab.size, -3.0, dtype=np.float32)
        lp[vocab.eos] = -np.inf
        lp[3] = -0.5
        model = TableModel({}, vocab.size, fallback=lp)
        words = greedy_decode(None, model, vocab, DecodeConfig(max_words=22, beam_size=1))
        assert len(words) == 22

    def test_argmax_tie_goes_to_lowest_index(self):
        vocab = vocab_of(["w1", "w2"])
        lp = np.full(vocab.size, -5.0, dtype=np.float32)
        lp[3] = lp[4] = -0.5
        model = TableModel({}, vocab.size, fallback=lp)
        words = greedy_decode(None, model, vocab, DecodeConfig(max_words=1, beam_size=1))
        assert words == ["w1"]


class TestBeamEqualsGreedyAtOne:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables(self, seed):
        vocab = vocab_of([f"w{i}" for i in range(5)])
        model = RandomModel(seed, vocab.size)
        cfg = DecodeConfig(max_words=8, beam_size=1)
        assert beam_search(None, model, vocab, cfg) == greedy_decode(None, model, vocab, cfg)


class TestBeamSearch:
    def _greedy_trap(self):
        """Three-step table where the greedy first choice is suboptimal."""
        vocab = vocab_of(["a", "b"])
        A, B = vocab.index("a"), vocab.index("b")
        sos, eos = vocab.sos, vocab.eos
        neg = -50.0
        def dist(pairs):
            lp = np.full(vocab.size, neg, dtype=np.float32)
            for tok, p in pairs:
                lp[tok] = np.log(p)
            return lp
        table = {
            (sos,): dist([(A, 0.6), (B, 0.4)]),
            (sos, A): dist([(eos, 0.2), (A, 0.4), (B, 0.4)]),
            (sos, B): dist([(eos, 0.9), (A, 0.05), (B, 0.05)]),
            (sos, A, A): dist([(eos, 0.5), (A, 0.25), (B, 0.25)]),
            (sos, A, B): dist([(eos, 0.5), (A, 0.25), (B, 0.25)]),
        }
        # greedy: a (0.6) -> a/b (0.4) -> eos (0.5): p = 0.12
        # better: b (0.4) -> eos (0.9): p = 0.36
        return vocab, TableModel(table, vocab.size)

    def test_beam_two_recovers_better_sequence(self):
        vocab, model = self._greedy_trap()
        cfg = DecodeConfig(max_words=3, beam_size=2, length_norm_alpha=0.0)
        greedy = greedy_decode(None, model, vocab, DecodeConfig(max_words=3, beam_size=1))
        beam = beam_search(None, model, vocab, cfg)
        assert greedy == ["a", "a"]
        assert beam == ["b"]

    def test_beam_log_prob_at_least_greedy(self):
        # alpha = 0: the returned sequence's raw log-prob >= greedy's
        for seed in range(10):
            vocab = vocab_of([f"w{i}" for i in range(3)])
            model = RandomModel(seed + 100, vocab.size)
            cfg = DecodeConfig(max_words=4, beam_size=3, length_norm_alpha=0.0)

            def raw_logp(words):
                tokens = [vocab.sos] + [vocab.index(w) for w in words]
                logp = 0.0
                for i in range(1, len(tokens)):
                    logp += float(model.step_logprobs(tokens[:i], None)[tokens[i]])
                # terminal eos if budget not exhausted
                if len(words) < cfg.max_words:
                    logp += float(model.step_logprobs(tokens, None)[vocab.eos])
                return logp

            g = greedy_decode(None, model, vocab, DecodeConfig(max_words=4, beam_size=1))
            b = beam_search(None, model, vocab, cfg)
            assert raw_logp(b) >= raw_logp(g) - 1e-6

    def test_exhaustive_optimality_tiny_scale(self):
        # beam covering the whole candidate space returns the global optimum
        vocab = vocab_of(["x"])  # W = 4 with reserved tokens
        length = 3
        for seed in (7, 8, 9):
            model = RandomModel(seed, vocab.size)
            cfg = DecodeConfig(max_words=length, beam_size=vocab.size ** length,
                               length_norm_alpha=0.0)
            got = beam_search(None, model, vocab, cfg)
            enumerated = all_probs(model, vocab, length)
            best_logp = max(lp for lp, _ in enumerated)
            tokens = [vocab.sos] + [vocab.index(w) for w in got]
            lp = 0.0
            for i in range(1, len(tokens)):
                lp += float(model.step_logprobs(tokens[:i], None)[tokens[i]])
            if len(got) < length:
                lp += float(model.step_logprobs(tokens, None)[vocab.eos])
            assert lp == pytest.approx(best_logp, abs=1e-6)

    def test_monotone_log_prob_and_termination(self):
        vocab = vocab_of(["a", "b", "c"])
        model = RandomModel(3, vocab.size)
        cfg = DecodeConfig(max_words=6, beam_size=2)
        words = beam_search(None, model, vocab, cfg)
        assert len(words) <= 6
        # extending a hypothesis can only lower its score: every step adds a
        # log-probability, which is <= 0 by construction
        prefix = [vocab.sos]
        score = 0.0
        for _ in range(6):
            lp = model.step_logprobs(prefix, None)
            assert (lp <= 0.0).all()
            tok = int(np.argmax(lp))
            new_score = score + float(lp[tok])
            assert new_score <= score
            score = new_score
            prefix.append(tok)

    def test_hypothesis_invariants(self):
        h = Hypothesis([0, 5], -1.5)
        assert h.log_prob <= 0
        assert h.emitted() == 1
        assert h.normalized_score(1.0) == -1.5


def recompute_beam_search(z, model, vocab, cfg):
    """Reference beam search without the decoding state: every step re-runs
    each hypothesis's whole prefix through `Decoder.forward`, one hypothesis
    at a time, and sorts the full Python candidate list."""
    def logprobs(prefix):
        logits = model.decoder.forward(np.asarray(prefix), z).data[-1].copy()
        logits[NEVER_EMITTED] = -np.inf
        return ops.log_softmax(Tensor(logits)).data

    live = [Hypothesis([vocab.sos], 0.0)]
    finished = []
    for _ in range(cfg.max_words):
        candidates = []
        for hyp in live:
            lp = logprobs(hyp.tokens)
            for tok in range(len(lp)):
                candidates.append((hyp.log_prob + float(lp[tok]), hyp.tokens + [tok]))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for score, tokens in candidates[: cfg.beam_size]:
            (finished if tokens[-1] == vocab.eos else live).append(Hypothesis(tokens, score))
        if not live:
            break
    finished.extend(live)
    best = min(finished, key=lambda h: (-h.normalized_score(cfg.length_norm_alpha), h.tokens))
    return text_decode(best.tokens, vocab)


class RecordingModel:
    """Passes the decoding protocol through, recording every `keep`."""

    def __init__(self, model):
        self.model = model
        self.kept = []

    def begin(self, z):
        state = self.model.begin(z)
        keep = state.keep

        def recording_keep(rows):
            self.kept.append(list(rows))
            keep(rows)

        state.keep = recording_keep
        return state

    def next_logprobs(self, state, tokens):
        return self.model.next_logprobs(state, tokens)


class TestCachedDecoding:
    def test_matches_full_recompute_on_random_models(self):
        # an <eos> bias lets hypotheses finish at different steps, so `keep`
        # drops, repeats and reorders rows of the cache
        reordered = 0
        ended_early = 0
        for i in range(40):
            enc = EncoderConfig(n_temp_blocks=1, n_tf_blocks=1, channels=4,
                                pool_factors=(4,), dropout_tf=0.0, n_mels=4)
            w = 8 + i % 4
            dec = DecoderConfig(vocab_size=w, n_blocks=2, n_heads=2, d_model=8,
                                dropout=0.0, max_len=10)
            model = CaptionModel(enc, dec, seed=7000 + i)
            vocab = vocab_of([f"w{k}" for k in range(w - 3)])
            model.decoder.cls.bias.data[vocab.eos] = 0.02 * i
            z = model.encode(RngState(70 + i).uniform(-1, 1, (6, 4)).astype(np.float32))
            for beam in (1, 2, 3, 5):
                cfg = DecodeConfig(max_words=8, beam_size=beam)
                recorder = RecordingModel(model)
                got = decode(z, recorder, vocab, cfg)
                assert got == recompute_beam_search(z, model, vocab, cfg), (i, beam)
                reordered += any(rows != list(range(len(rows))) for rows in recorder.kept)
                ended_early += len(got) < cfg.max_words
        # of 160 decodes: 113 reorder the cache, 92 end before the cap
        assert reordered >= 80 and 40 <= ended_early <= 120

    def test_tie_at_beam_boundary_keeps_smaller_sequence(self):
        # after two steps [sos b c] (row 0) and [sos a c] (row 1) tie for the
        # second place of a beam of two; only the lexicographically smaller
        # one may survive, and it alone can end the caption
        vocab = vocab_of(["a", "b", "c"])
        a, b, c = (vocab.index(x) for x in "abc")
        sos, eos = vocab.sos, vocab.eos

        def dist(pairs):
            lp = np.full(vocab.size, -50.0, dtype=np.float32)
            for tok, value in pairs:
                lp[tok] = value
            return lp

        table = {
            (sos,): dist([(b, -1.0), (a, -2.0)]),
            (sos, b): dist([(b, -0.5), (c, -2.0)]),
            (sos, a): dist([(c, -1.0)]),
            (sos, a, c): dist([(eos, 0.0)]),
            (sos, b, c): dist([(eos, 0.0)]),
        }
        model = TableModel(table, vocab.size, fallback=dist([]))
        cfg = DecodeConfig(max_words=3, beam_size=2, length_norm_alpha=0.0)
        assert beam_search(None, model, vocab, cfg) == ["a", "c"]


def tiny_model_vocab_clip():
    """A real CaptionModel over five words, and one clip it encoded."""
    enc = EncoderConfig(n_temp_blocks=1, n_tf_blocks=1, channels=4,
                        pool_factors=(4,), dropout_tf=0.0, n_mels=4)
    dec = DecoderConfig(vocab_size=8, n_blocks=1, n_heads=2, d_model=4,
                        dropout=0.0, max_len=12)
    model = CaptionModel(enc, dec, seed=5)
    z = model.encode(RngState(2).uniform(-1, 1, (5, 4)).astype(np.float32))
    return model, vocab_of([f"w{k}" for k in range(5)]), z


class TestIncrementalStepMemory:
    @pytest.mark.parametrize("rows", [1, 2])
    def test_a_step_copies_no_cross_attention_keys(self, rows):
        # paper decoder width (d_model 128, 4 heads, 3 blocks) over a 30 s
        # clip: the audio's keys are kept transposed, so a step multiplies
        # them in place instead of copying 1.3 MB of them per block
        enc = EncoderConfig(n_temp_blocks=1, n_tf_blocks=1, channels=128,
                            pool_factors=(4,), n_mels=4)
        model = CaptionModel(enc, DecoderConfig(vocab_size=8), seed=3)
        state = model.begin(Tensor(RngState(4).uniform(-1, 1, (2584, 128)).astype(np.float32)))
        model.next_logprobs(state, [0])
        state.keep([0] * rows)
        keys = state.cross[0][0].data.nbytes  # one block's cross keys
        tracemalloc.start()
        try:
            model.next_logprobs(state, [3] * rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keys == 4 * 32 * 2584 * 4
        assert peak < keys / 2, (peak, keys)


class TestReservedTokens:
    @pytest.mark.parametrize("beam", [1, 2])
    def test_real_model_never_emits_sos_or_pad(self, beam):
        model, vocab, z = tiny_model_vocab_clip()
        # the classifier prefers <pad>, then <sos>, and never ends the caption
        bias = model.decoder.cls.bias.data
        bias[vocab.pad], bias[vocab.sos], bias[vocab.eos] = 50.0, 40.0, -50.0
        words = decode(z, model, vocab, DecodeConfig(max_words=6, beam_size=beam))
        assert len(words) == 6
        assert set(words) <= {f"w{k}" for k in range(5)}


class TestNanLogprobs:
    @pytest.mark.parametrize("beam", [1, 2])
    def test_nan_classifier_bias_is_a_named_error(self, beam):
        model, vocab, z = tiny_model_vocab_clip()
        model.decoder.cls.bias.data[4] = np.nan
        with pytest.raises(DecodeError, match="NaN log-probabilities at decode position 1"):
            decode(z, model, vocab, DecodeConfig(max_words=6, beam_size=beam))


class TestCaptionCorpus:
    def test_sorted_deterministic_and_capped(self):
        from wavetransformer.inference import caption_corpus

        vocab = vocab_of(["w1", "w2"])
        lp = np.full(vocab.size, -3.0, dtype=np.float32)
        lp[vocab.eos] = -np.inf
        lp[3] = -0.5

        class StubModel(TableModel):
            def encode(self, feats, training=False):
                return feats

        model = StubModel({}, vocab.size, fallback=lp)
        named = [("b.wav", np.zeros((2, 2))), ("a.wav", np.zeros((2, 2)))]
        cfg = DecodeConfig(max_words=4, beam_size=1)
        m1 = caption_corpus(named, model, vocab, cfg)
        m2 = caption_corpus(list(reversed(named)), model, vocab, cfg)
        assert m1 == m2
        assert [name for name, _ in m1] == ["a.wav", "b.wav"]
        assert all(len(cap.split()) <= 4 for _, cap in m1)
        assert len(m1) == len(named)
