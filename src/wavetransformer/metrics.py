"""Corpus-level caption metrics: BLEU_1..4, ROUGE_L, CIDEr, SPIDEr assembly.

Conventions, fixed here and documented for anyone comparing to other kits:

* BLEU: corpus-level modified n-gram precision with uniform 1/n weights,
  no smoothing (any zero precision zeroes the score), brevity penalty
  exp(1 - r/c) applied only when the candidate is not longer than the
  effective reference length r (closest length, ties to the shorter).
* ROUGE_L: per pair, F-beta (beta = 1.2) of LCS precision/recall computed
  per reference, best reference kept, then averaged over the corpus.
* CIDEr: the clipped, length-penalized variant: tf-idf n-gram vectors for
  n = 1..4 with idf = max(0, ln(N / (1 + df))) over the N reference sets,
  clipped cosine per reference with a Gaussian length penalty
  exp(-(|c|-|r|)^2 / (2 * 6^2)), averaged over n and references, scaled
  by 10, then averaged over the corpus.  (The idf is floored at zero so
  ubiquitous n-grams cannot push scores negative.)
* SPIDEr: the mean of CIDEr and an externally supplied SPICE value; it is
  reported only when SPICE values are provided.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import DataError

CIDER_SIGMA = 6.0
ROUGE_BETA = 1.2


@dataclass
class EvalPair:
    candidate: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise DataError("evaluation pair needs at least one reference")


def ngram_counts(words: list[str], n: int) -> Counter:
    return Counter(tuple(words[i : i + n]) for i in range(len(words) - n + 1))


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def bleu_n(corpus: list[EvalPair], n: int) -> float:
    if n < 1:
        raise DataError("bleu order must be >= 1")
    clipped = [0] * n
    total = [0] * n
    cand_len = 0
    ref_len = 0
    for pair in corpus:
        c = len(pair.candidate)
        cand_len += c
        # closest reference length; ties broken toward the shorter
        ref_len += min((abs(len(r) - c), len(r)) for r in pair.references)[1]
        for order in range(1, n + 1):
            counts = ngram_counts(pair.candidate, order)
            max_ref = Counter()
            for ref in pair.references:
                for gram, cnt in ngram_counts(ref, order).items():
                    if cnt > max_ref[gram]:
                        max_ref[gram] = cnt
            total[order - 1] += max(c - order + 1, 0)
            clipped[order - 1] += sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
    if any(t == 0 for t in total) or any(c == 0 for c in clipped):
        return 0.0
    log_precision = sum(math.log(c / t) for c, t in zip(clipped, total)) / n
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    return brevity * math.exp(log_precision)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def lcs_length(a: list[str], b: list[str]) -> int:
    """Classic O(len(a)*len(b)) longest-common-subsequence DP."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(corpus: list[EvalPair]) -> float:
    scores = []
    for pair in corpus:
        best = 0.0
        for ref in pair.references:
            ell = lcs_length(pair.candidate, ref)
            if ell == 0:
                continue
            p = ell / len(pair.candidate)
            r = ell / len(ref)
            beta2 = ROUGE_BETA ** 2
            best = max(best, (1 + beta2) * p * r / (r + beta2 * p))
        scores.append(best)
    return sum(scores) / len(scores) if scores else 0.0


# ---------------------------------------------------------------------------
# CIDEr
# ---------------------------------------------------------------------------

def _document_frequencies(corpus: list[EvalPair], max_n: int) -> tuple[list[Counter], int]:
    df = [Counter() for _ in range(max_n)]
    for pair in corpus:
        for order in range(1, max_n + 1):
            grams = set()
            for ref in pair.references:
                grams.update(ngram_counts(ref, order))
            for gram in grams:
                df[order - 1][gram] += 1
    return df, len(corpus)


def _tfidf_vector(words: list[str], order: int, df: Counter, n_items: int) -> dict:
    vec = {}
    for gram, cnt in ngram_counts(words, order).items():
        idf = max(0.0, math.log(n_items / (1.0 + df[gram])))
        vec[gram] = cnt * idf
    return vec


def _norm(vec: dict) -> float:
    return math.sqrt(sum(v * v for v in vec.values()))


def cider(corpus: list[EvalPair], max_n: int = 4) -> float:
    """Corpus mean of per-item scores in [0, 10]."""
    if not corpus:
        return 0.0
    df, n_items = _document_frequencies(corpus, max_n)
    item_scores = []
    for pair in corpus:
        per_ref_total = [0.0] * max_n
        for ref in pair.references:
            penalty = math.exp(
                -((len(pair.candidate) - len(ref)) ** 2) / (2.0 * CIDER_SIGMA ** 2)
            )
            for order in range(1, max_n + 1):
                hyp = _tfidf_vector(pair.candidate, order, df[order - 1], n_items)
                refv = _tfidf_vector(ref, order, df[order - 1], n_items)
                nh, nr = _norm(hyp), _norm(refv)
                if nh == 0.0 or nr == 0.0:
                    continue
                # clipped cosine: candidate counts capped at reference counts
                dot = sum(min(v, refv[g]) * refv[g] for g, v in hyp.items() if g in refv)
                per_ref_total[order - 1] += penalty * dot / (nh * nr)
        item = 10.0 * sum(per_ref_total) / (max_n * len(pair.references))
        item_scores.append(item)
    return sum(item_scores) / len(item_scores)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class ScoreReport:
    bleu_1: float
    bleu_2: float
    bleu_3: float
    bleu_4: float
    rouge_l: float
    cider: float
    spice: float | None = None
    spider: float | None = None

    def lines(self) -> list[str]:
        """`metric=value` lines, natural scale then a x100 block."""
        pairs = [
            ("bleu_1", self.bleu_1), ("bleu_2", self.bleu_2),
            ("bleu_3", self.bleu_3), ("bleu_4", self.bleu_4),
            ("rouge_l", self.rouge_l), ("cider", self.cider),
        ]
        if self.spice is not None:
            pairs += [("spice", self.spice), ("spider", self.spider)]
        out = [f"{k}={v:.4f}" for k, v in pairs]
        out += [f"{k}_x100={100.0 * v:.4f}" for k, v in pairs]
        return out


def assemble_report(corpus: list[EvalPair], spice: float | None = None) -> ScoreReport:
    c = cider(corpus)
    report = ScoreReport(
        bleu_1=bleu_n(corpus, 1),
        bleu_2=bleu_n(corpus, 2),
        bleu_3=bleu_n(corpus, 3),
        bleu_4=bleu_n(corpus, 4),
        rouge_l=rouge_l(corpus),
        cider=c,
    )
    if spice is not None:
        report.spice = spice
        report.spider = spider_from_scores(c, spice)
    return report


def spider_from_scores(cider_score: float, spice_score: float) -> float:
    """SPIDEr assembly for externally computed component scores."""
    return (cider_score + spice_score) / 2.0
