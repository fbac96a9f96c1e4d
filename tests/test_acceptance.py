"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""
import csv
import functools
import math
import time

import numpy as np
import pytest

from wavetransformer.cli import main as cli_main
from wavetransformer.audio import AudioClip, AudioConfig, stft_power
from wavetransformer.decoder import Decoder, DecoderConfig
from wavetransformer.encoder import Encoder, EncoderConfig
from wavetransformer.inference import DecodeConfig, beam_search, greedy_decode
from wavetransformer.layers import ModelSpace
from wavetransformer.metrics import EvalPair, bleu_n, cider, rouge_l, spider_from_scores
from wavetransformer.model import CaptionModel
from wavetransformer.tensor import (
    ParameterStore,
    RngState,
    Tape,
    Tensor,
    backward,
    default_dtype,
)
from wavetransformer.tensor import ops
from wavetransformer.text import build_vocab, encode
from wavetransformer.training import (
    TrainConfig,
    TrainItem,
    cross_entropy_loss,
    train,
)

from helpers import rel_err
from test_inference import RandomModel, vocab_of
from test_metrics import cider_oracle, exhaustive_lcs


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE {number}] {name}: FAIL ({time.time() - start:.1f}s)")
                raise
            print(f"\n[ACCEPTANCE {number}] {name}: PASS ({time.time() - start:.1f}s)")
        return run
    return wrap


# ---------------------------------------------------------------------------
# criterion 1: gradients
# ---------------------------------------------------------------------------

def _fd_check(fn, wrt, h, rtol, floor):
    """Analytic vs central-difference gradients for scalar fn()."""
    for t in wrt:
        t.zero_grad()
    with Tape() as tape:
        loss = fn()
    backward(loss, tape)
    worst = 0.0
    for t in wrt:
        assert t.grad is not None
        flat = t.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn().item()
            flat[i] = orig - h
            fm = fn().item()
            flat[i] = orig
            fd[i] = (fp - fm) / (2 * h)
        err = rel_err(fd.reshape(t.shape), t.grad.astype(np.float64), floor)
        worst = max(worst, float(err.max()))
    return worst


def _op_cases(rng: RngState):
    """One random configuration per call, for each differentiable op."""
    def rt(*shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    def margin(*shape):
        # keep |x| >= 0.05 so kinked ops stay locally linear at h=1e-3
        sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        return Tensor(sign * rng.uniform(0.05, 1.0, shape), requires_grad=True)

    def spread_rows(rows, d):
        # rows with guaranteed spread: a near-constant row makes the
        # normalization curvature blow up and h=1e-3 differences meaningless
        base = np.linspace(-1.0, 1.0, d)
        data = np.stack([base[rng.permutation(d)] for _ in range(rows)])
        data += rng.uniform(-0.05, 0.05, data.shape)
        return Tensor(data, requires_grad=True)

    k = 1 + rng.randint(3)
    # the conv1d stride was drawn here: the draw stays, so that every later
    # draw, and so every other configuration of the 50, is as it was
    rng.randint(2)
    dil = 1 + rng.randint(2)
    t_len = 6 + rng.randint(6)
    pad = rng.randint(3)
    c_in, c_out = 1 + rng.randint(3), 1 + rng.randint(3)
    x1 = rt(c_in, t_len)
    w1 = rt(c_out, c_in, k)
    b1 = rt(c_out)
    if t_len + 2 * pad - dil * (k - 1) >= 1:
        yield "conv1d", (lambda: ops.tensor_sum(ops.tanh(
            ops.conv1d(x1, w1, b1, padding=pad, dilation=dil)))), [x1, w1, b1]

    g = 1 + rng.randint(2)
    cg_in, cg_out = g * (1 + rng.randint(2)), g * (1 + rng.randint(2))
    hw = 4 + rng.randint(3)
    k2 = 1 + 2 * rng.randint(2)
    x2 = rt(cg_in, hw, hw)
    w2 = rt(cg_out, cg_in // g, k2, k2)
    b2 = rt(cg_out)
    yield "conv2d", (lambda: ops.tensor_sum(ops.sigmoid(
        ops.conv2d(x2, w2, b2, padding=k2 // 2, groups=g)))), [x2, w2, b2]

    d_in, d_out = 2 + rng.randint(4), 2 + rng.randint(4)
    x3, w3, b3 = rt(3, d_in), rt(d_out, d_in), rt(d_out)
    yield "linear", (lambda: ops.tensor_sum(ops.tanh(ops.linear(x3, w3, b3)))), [x3, w3, b3]

    c = 2 + rng.randint(3)
    xb = spread_rows(c, 5 + rng.randint(5))
    gb, bb = rt(c, lo=0.5, hi=1.5), rt(c)
    yield "batch_norm_train", (lambda: ops.tensor_sum(ops.tanh(ops.batch_norm(
        xb, gb, bb, np.zeros(c), np.ones(c), True)))), [xb, gb, bb]
    rm, rv = rng.uniform(-0.5, 0.5, (c,)), rng.uniform(0.5, 1.5, (c,))
    yield "batch_norm_eval", (lambda: ops.tensor_sum(ops.tanh(ops.batch_norm(
        xb, gb, bb, rm, rv, False)))), [xb, gb, bb]

    d = 3 + rng.randint(4)
    xl, gl, bl = spread_rows(4, d), rt(d, lo=0.5, hi=1.5), rt(d)
    yield "layer_norm", (lambda: ops.tensor_sum(ops.sigmoid(
        ops.layer_norm(xl, gl, bl)))), [xl, gl, bl]

    xa = margin(3, 4)
    for opname, f in (
        ("relu", ops.relu),
        ("leaky_relu", lambda t: ops.leaky_relu(t, 0.01)),
        ("sigmoid", ops.sigmoid),
        ("tanh", ops.tanh),
        ("softmax", lambda t: ops.softmax(t, axis=-1)),
        ("log_softmax", lambda t: ops.log_softmax(t, axis=-1)),
    ):
        yield opname, (lambda f=f: ops.tensor_sum(ops.mul(f(xa), xa))), [xa]

    seed = rng.randint(10_000)
    xd = rt(4, 5)
    yield "dropout", (lambda: ops.tensor_sum(ops.dropout(
        ops.tanh(xd), 0.4, True, RngState(seed)))), [xd]

    pool = (2, 4)[rng.randint(2)]
    f_dim = pool * (1 + rng.randint(3))
    vals = rng.permutation(2 * 4 * f_dim).astype(np.float64).reshape(2, 4, f_dim) * 0.3
    xm = Tensor(vals, requires_grad=True)
    yield "max_pool_freq", (lambda: ops.tensor_sum(ops.tanh(
        ops.max_pool_freq(xm, pool)))), [xm]

    m = 2 + rng.randint(3)
    a4, b4 = rt(2, m, m), rt(2, m, m)
    yield "matmul", (lambda: ops.tensor_sum(ops.tanh(ops.matmul(a4, b4)))), [a4, b4]

    w_emb, b_emb = rt(4, 6), rt(4)
    toks = np.array([rng.randint(6) for _ in range(5)])
    yield "embedding", (lambda: ops.tensor_sum(ops.tanh(
        ops.embedding(toks, w_emb, b_emb)))), [w_emb, b_emb]

    c1, c2 = rt(2, 3), rt(2, 2)
    yield "concat", (lambda: ops.tensor_sum(ops.sigmoid(
        ops.concat([c1, c2], axis=1)))), [c1, c2]


@criterion(1, "gradient suite")
def test_criterion_1_gradients():
    # per-op: 50 random configurations, h = 1e-3, rel err <= 1e-3, floor 1e-5
    with default_dtype(np.float64):
        seen = set()
        for config_idx in range(50):
            rng = RngState(1000 + config_idx)
            for name, fn, wrt in _op_cases(rng):
                seen.add(name)
                worst = _fd_check(fn, wrt, h=1e-3, rtol=0.0, floor=1e-5)
                assert worst <= 1e-3, f"{name} config {config_idx}: rel err {worst:.2e}"
        assert {"conv1d", "conv2d", "linear", "batch_norm_train", "batch_norm_eval",
                "layer_norm", "relu", "leaky_relu", "sigmoid", "tanh", "softmax",
                "log_softmax", "dropout", "max_pool_freq", "matmul", "embedding",
                "concat"} <= seen

    # Full model, d=8, N_t=2, N_tf=2, T_a=12, W=11.  The oracle is a single
    # float64 central-difference sweep over every parameter (h=1e-4); a
    # float32 difference at any usable h is dominated by loss rounding and
    # ReLU kink straddling, so both backward passes are checked against the
    # float64 oracle: the 64-bit build at 1e-4, the 32-bit build at 1e-2.
    def build(dtype):
        with default_dtype(dtype):
            enc = EncoderConfig(n_temp_blocks=2, n_tf_blocks=2, channels=8,
                                pool_factors=(2, 2), dropout_tf=0.0, mode="full", n_mels=4)
            dec = DecoderConfig(vocab_size=11, n_blocks=1, n_heads=2, d_model=8,
                                dropout=0.0, max_len=16)
            model = CaptionModel(enc, dec, seed=3)
        feats = RngState(4).uniform(-1.0, 1.0, (12, 4)).astype(dtype)
        tokens = np.array([0, 3, 5, 7, 9, 4, 1])

        def fn():
            logits = model.forward(feats, tokens[:-1], training=False)
            return cross_entropy_loss(logits, tokens[1:], pad_index=2)

        return model, fn

    model64, fn64 = build(np.float64)
    h = 1e-4
    with Tape() as tape:
        loss64 = fn64()
    backward(loss64, tape)
    f0 = loss64.item()

    # the oracle keeps central AND one-sided slopes: a handful of elements
    # straddle a max-pool argmax tie or ReLU kink inside [x-h, x+h], where
    # the true derivative equals one of the one-sided slopes
    fd_oracle = {}
    for name, t in model64.params.items():
        flat = t.data.reshape(-1)
        slopes = np.zeros((flat.size, 3))
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn64().item()
            flat[i] = orig - h
            fm = fn64().item()
            flat[i] = orig
            slopes[i] = ((fp - fm) / (2 * h), (fp - f0) / h, (f0 - fm) / h)
        fd_oracle[name] = slopes

    def check(model, central_tol, onesided_tol, floor):
        kinked = 0
        worst_central = 0.0
        for name, t in model.params.items():
            grads = t.grad.reshape(-1).astype(np.float64)
            slopes = fd_oracle[name]
            for i in range(grads.size):
                central = float(rel_err(slopes[i, 0], grads[i], floor))
                if central <= central_tol:
                    worst_central = max(worst_central, central)
                    continue
                kinked += 1
                one_sided = min(
                    float(rel_err(slopes[i, 1], grads[i], floor)),
                    float(rel_err(slopes[i, 2], grads[i], floor)),
                )
                assert one_sided <= onesided_tol, (
                    f"{name}[{i}]: central rel {central:.2e}, "
                    f"one-sided rel {one_sided:.2e}"
                )
        return worst_central, kinked

    worst64, kinks64 = check(model64, 1e-4, 1e-3, floor=1e-7)
    assert worst64 <= 1e-4
    assert kinks64 <= 20, f"too many kinked elements for a sound check: {kinks64}"

    model32, fn32 = build(np.float32)
    with Tape() as tape:
        loss32 = fn32()
    backward(loss32, tape)
    worst32, _ = check(model32, 1e-2, 1e-2, floor=1e-5)
    assert worst32 <= 1e-2


# ---------------------------------------------------------------------------
# criterion 2: shapes
# ---------------------------------------------------------------------------

@criterion(2, "shape suite")
def test_criterion_2_shapes():
    for mode in ("full", "temp_only", "tf_only", "avg"):
        enc_cfg = EncoderConfig(n_temp_blocks=2, n_tf_blocks=2, channels=8,
                                pool_factors=(2, 2), dropout_tf=0.0, mode=mode, n_mels=4)
        enc = Encoder(ModelSpace(ParameterStore(), {}, RngState(8)), enc_cfg)
        for t_a in (1, 7, 64, 257):
            x = Tensor(RngState(t_a).uniform(-1, 1, (t_a, 4)))
            out = enc.encode(x, training=False)
            assert out.shape == (t_a, 8), (mode, t_a, out.shape)

    dec_cfg = DecoderConfig(vocab_size=11, n_blocks=2, n_heads=2, d_model=8,
                            dropout=0.0, max_len=64)
    dec = Decoder(ModelSpace(ParameterStore(), {}, RngState(9)), dec_cfg, d_audio=8)
    z = Tensor(RngState(10).uniform(-1, 1, (19, 8)))
    for t_w in (1, 2, 9, 33):
        logits = dec.forward(np.zeros(t_w, dtype=np.int64), z)
        assert logits.shape == (t_w, 11)

    # default audio config on 30 s of 44.1 kHz audio: exactly 2584 frames
    cfg = AudioConfig()
    clip = AudioClip(np.sin(np.linspace(0, 5000, 44100 * 30)) * 0.3, 44100)
    power = stft_power(clip, cfg.window_length, cfg.hop, cfg.n_fft)
    assert power.shape[0] == 2584
    clip15 = AudioClip(clip.samples[: 44100 * 15], 44100)
    assert stft_power(clip15, cfg.window_length, cfg.hop, cfg.n_fft).shape[0] == 1292


# ---------------------------------------------------------------------------
# criterion 3: receptive field
# ---------------------------------------------------------------------------

@criterion(3, "receptive-field suite")
def test_criterion_3_receptive_field():
    from test_encoder import receptive_support

    for n_t in (1, 2, 4):
        radius = 3 * n_t
        t_a = 2 * radius + 9
        probe = t_a // 2
        support = receptive_support(n_t, t_a, probe)
        expected = np.zeros(t_a, dtype=bool)
        expected[probe - radius : probe + radius + 1] = True
        np.testing.assert_array_equal(support, expected)
        assert support.sum() == 6 * n_t + 1
    # span at the default depth: 25 frames (6*4 + 1)
    assert 6 * 4 + 1 == 25


# ---------------------------------------------------------------------------
# criterion 4: causality
# ---------------------------------------------------------------------------

@criterion(4, "causality suite")
def test_criterion_4_causality():
    count = 0
    for pair_idx in range(100):
        rng = RngState(4000 + pair_idx)
        w = 7 + rng.randint(6)
        d = (2, 4, 8)[rng.randint(3)]
        cfg = DecoderConfig(vocab_size=w, n_blocks=1 + rng.randint(2), n_heads=2,
                            d_model=d, dropout=0.0, max_len=16)
        dec = Decoder(ModelSpace(ParameterStore(), {}, RngState(pair_idx)), cfg, d_audio=d)
        z = Tensor(rng.uniform(-1, 1, (4 + rng.randint(5), d)).astype(np.float32))
        length = 3 + rng.randint(5)
        tokens = np.array([rng.randint(w) for _ in range(length)])
        base = dec.forward(tokens, z).data
        j = 1 + rng.randint(length - 1)
        mutated = tokens.copy()
        mutated[j:] = [(t + 1 + rng.randint(w - 1)) % w for t in mutated[j:]]
        out = dec.forward(mutated, z).data
        assert np.array_equal(out[:j], base[:j]), f"pair {pair_idx}: leak at < {j}"
        count += 1
    assert count == 100


# ---------------------------------------------------------------------------
# criterion 5: overfit
# ---------------------------------------------------------------------------

@criterion(5, "overfit suite")
def test_criterion_5_overfit():
    captions = [
        "a dog barks loudly", "rain falls on tin", "wind moves dry leaves",
        "a car engine idles", "someone taps a drum", "water drips slowly",
        "birds chirp at dawn", "a door creaks open",
    ]
    vocab = build_vocab([c.split() for c in captions])
    rng = RngState(42)
    t_a, mels = 16, 16
    items, feats_list = [], []
    for i, cap in enumerate(captions):
        t = np.arange(t_a)[:, None]
        f = np.arange(mels)[None, :]
        pattern = np.sin(2 * np.pi * (i + 1) * t / t_a) * np.cos(2 * np.pi * (i + 2) * f / mels)
        feats = (3.0 * pattern + rng.uniform(-0.2, 0.2, (t_a, mels))).astype(np.float32)
        feats_list.append(feats)
        items.append(TrainItem(f"f{i}", feats, encode(cap.split(), vocab).indices))

    enc = EncoderConfig(n_temp_blocks=2, n_tf_blocks=2, channels=64,
                        pool_factors=(4, 4), dropout_tf=0.0, mode="full", n_mels=mels)
    dec = DecoderConfig(vocab_size=vocab.size, n_blocks=2, n_heads=4, d_model=64,
                        dropout=0.0, max_len=16)
    model = CaptionModel(enc, dec, seed=1)
    cfg = TrainConfig(batch_size=8, lr=2e-3, max_epochs=150, seed=5)
    result = train(model, items, [], cfg, vocab)

    below = [i + 1 for i, loss in enumerate(result.train_history) if loss < 0.1]
    assert below and below[0] <= 300, "loss never fell below 0.1 within 300 epochs"

    decode_cfg = DecodeConfig(max_words=22, beam_size=1)
    for i, cap in enumerate(captions):
        z = model.encode(feats_list[i], training=False)
        words = greedy_decode(z, model, vocab, decode_cfg)
        assert words == cap.split(), f"caption {i}: got {words!r}"


# ---------------------------------------------------------------------------
# criterion 6: decoding
# ---------------------------------------------------------------------------

@criterion(6, "decoding suite")
def test_criterion_6_decoding():
    # beam(1) == greedy on 50 random-parameter real models
    for i in range(50):
        enc = EncoderConfig(n_temp_blocks=1, n_tf_blocks=1, channels=4,
                            pool_factors=(4,), dropout_tf=0.0, mode="full", n_mels=4)
        w = 7 + (i % 4)
        dec = DecoderConfig(vocab_size=w, n_blocks=1, n_heads=2, d_model=4,
                            dropout=0.0, max_len=12)
        model = CaptionModel(enc, dec, seed=6000 + i)
        vocab = vocab_of([f"w{k}" for k in range(w - 3)])
        z = model.encode(RngState(i).uniform(-1, 1, (5, 4)).astype(np.float32))
        cfg = DecodeConfig(max_words=6, beam_size=1)
        assert greedy_decode(z, model, vocab, cfg) == beam_search(z, model, vocab, cfg), i

    # constructed counterexample where greedy is suboptimal
    from test_inference import TestBeamSearch
    vocab, model = TestBeamSearch()._greedy_trap()
    greedy = greedy_decode(None, model, vocab, DecodeConfig(max_words=3, beam_size=1))
    beam = beam_search(None, model, vocab,
                       DecodeConfig(max_words=3, beam_size=2, length_norm_alpha=0.0))
    assert greedy == ["a", "a"] and beam == ["b"]

    # exhaustive optimality at W=4, L=3, alpha=0
    from test_inference import all_probs
    vocab4 = vocab_of(["x"])
    assert vocab4.size == 4
    for seed in range(5):
        model = RandomModel(900 + seed, vocab4.size)
        cfg = DecodeConfig(max_words=3, beam_size=4 ** 3, length_norm_alpha=0.0)
        got = beam_search(None, model, vocab4, cfg)
        tokens = [vocab4.sos] + [vocab4.index(wd) for wd in got]
        lp = sum(float(model.step_logprobs(tokens[:k], None)[tokens[k]])
                 for k in range(1, len(tokens)))
        if len(got) < 3:
            lp += float(model.step_logprobs(tokens, None)[vocab4.eos])
        best = max(p for p, _ in all_probs(model, vocab4, 3))
        assert lp == pytest.approx(best, abs=1e-6)


# ---------------------------------------------------------------------------
# criterion 7: metrics
# ---------------------------------------------------------------------------

@criterion(7, "metric suite")
def test_criterion_7_metrics():
    W = lambda s: s.split()
    # BLEU hand-count oracle: clipped precision 1/3, candidate longer than
    # the reference so no brevity penalty
    assert bleu_n([EvalPair(W("the the the"), [W("the cat")])], 1) == pytest.approx(1 / 3, abs=1e-9)
    # brevity side: c=1 <= r=2 -> exp(1 - 2)
    assert bleu_n([EvalPair(W("the"), [W("the cat")])], 1) == pytest.approx(math.exp(-1), abs=1e-9)

    # ROUGE-L vs the exhaustive-subsequence oracle
    cand, ref = W("a b c d"), W("a c b d")
    assert exhaustive_lcs(cand, ref) == 3
    assert rouge_l([EvalPair(cand, [ref])]) == pytest.approx(0.75, abs=1e-9)

    # CIDEr vs the brute-force tf-idf oracle
    corpus = [
        EvalPair(W("a dog barks"), [W("a dog barks"), W("a hound bays")]),
        EvalPair(W("rain falls"), [W("rain falls hard"), W("rain is falling")]),
        EvalPair(W("a dog naps"), [W("the dog sleeps")]),
    ]
    assert cider(corpus) == pytest.approx(cider_oracle(corpus), abs=1e-9)

    # self-evaluation: candidate = first reference
    refs = [W("a dog barks at strangers"), W("water drips in the cave"),
            W("wind moves dry leaves")]
    self_corpus = [EvalPair(list(r), [list(r), W("unrelated words here")]) for r in refs]
    for n in (1, 2, 3, 4):
        assert bleu_n(self_corpus, n) == pytest.approx(1.0, abs=1e-9)
    assert rouge_l(self_corpus) == pytest.approx(1.0, abs=1e-9)

    # SPIDEr assembly from the published component scores
    assert spider_from_scores(24.7, 9.9) == pytest.approx(17.3, abs=1e-9)


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism
# ---------------------------------------------------------------------------

@criterion(8, "determinism suite")
def test_criterion_8_determinism(tmp_path):
    from test_cli import make_corpus_dir

    audio_dir, caps, cfg = make_corpus_dir(tmp_path)
    artifacts = []
    for tag in ("run1", "run2"):
        feat_dir = tmp_path / tag / "features"
        run_dir = tmp_path / tag / "train"
        preds = tmp_path / tag / "preds.csv"
        report = tmp_path / tag / "scores.txt"
        assert cli_main(["extract", "--audio-dir", str(audio_dir),
                         "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        assert cli_main(["train", "--features", str(feat_dir), "--captions", str(caps),
                         "--out", str(run_dir), "--config", str(cfg)]) == 0
        assert cli_main(["caption", "--features", str(feat_dir),
                         "--checkpoint", str(run_dir / "best.wtck"),
                         "--out", str(preds), "--config", str(cfg)]) == 0
        assert cli_main(["evaluate", "--predictions", str(preds),
                         "--references", str(caps), "--out", str(report)]) == 0
        feature_bytes = b"".join(p.read_bytes() for p in sorted(feat_dir.glob("*.wtf1")))
        artifacts.append((
            feature_bytes,
            (run_dir / "best.wtck").read_bytes(),
            (run_dir / "last.wtck").read_bytes(),
            (run_dir / "loss_log.csv").read_bytes(),
            preds.read_bytes(),
            report.read_bytes(),
        ))
    assert artifacts[0] == artifacts[1]


# ---------------------------------------------------------------------------
# criterion 9: ablation contract
# ---------------------------------------------------------------------------

@criterion(9, "ablation contract")
def test_criterion_9_ablations(tmp_path):
    from test_cli import make_corpus_dir
    from wavetransformer.training import load_checkpoint

    audio_dir, caps, cfg = make_corpus_dir(tmp_path)
    feat_dir = tmp_path / "features"
    assert cli_main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
    run_dir = tmp_path / "temp_mode"
    assert cli_main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg),
                     "--mode", "temp", "--max-epochs", "1"]) == 0
    ckpt = load_checkpoint(run_dir / "best.wtck")
    tf_params = [n for n in ckpt.arrays if ".tf." in n or ".merge." in n]
    assert not tf_params, f"temp-mode checkpoint contains {tf_params[:3]}"

    # avg mode: with both branches forced to the same output Z, the mode
    # must return exactly that Z (here: (Z + Z)/2 == Z, and the combination
    # rule matches the two branch outputs)
    enc_cfg = EncoderConfig(n_temp_blocks=1, n_tf_blocks=1, channels=8,
                            pool_factors=(4,), dropout_tf=0.0, mode="avg", n_mels=4)
    enc = Encoder(ModelSpace(ParameterStore(), {}, RngState(99)), enc_cfg)
    x = Tensor(RngState(100).uniform(-1, 1, (6, 4)).astype(np.float32))
    z_t = enc.temporal_branch(x, training=False)
    z_tf = enc.tf_branch(x, training=False)
    combined = enc.encode(x, training=False)
    np.testing.assert_array_equal(
        combined.data, ((z_t.data + z_tf.data) * np.float32(0.5))
    )
    forced = ops.scale(ops.add(z_t, z_t), 0.5)
    np.testing.assert_array_equal(forced.data, z_t.data)
