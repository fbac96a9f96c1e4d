"""Caption text pipeline: tokenization, vocabulary, encoding, data splits.

Tokenization rule (fixed, documented): lowercase, drop every Unicode
punctuation character (categories P*), split on whitespace.  Published
metric comparisons against other toolkits are indicative only, since
tokenizers differ.
"""
from __future__ import annotations

import csv
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError
from .tensor import RngState

SOS = "<sos>"
EOS = "<eos>"
PAD = "<pad>"
RESERVED = (SOS, EOS, PAD)


def _strip_punct(text: str) -> str:
    return "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))


def clean_words(raw: str) -> list[str]:
    """Lowercase, punctuation-stripped, whitespace-split word list, which
    may be empty."""
    return _strip_punct(raw.lower()).split()


def tokenize(raw: str) -> list[str]:
    """The clean_words of a caption, which must have some."""
    words = clean_words(raw)
    if not words:
        raise DataError(f"caption empty after cleaning: {raw!r}")
    return words


class Vocabulary:
    """Bijective word <-> index map with <sos>/<eos>/<pad> at indices 0..2."""

    def __init__(self, words: list[str]):
        if list(words[:3]) != list(RESERVED):
            raise DataError(f"vocabulary must start with {RESERVED}")
        if len(set(words)) != len(words):
            raise DataError("duplicate words in vocabulary")
        self._words = list(words)
        self._index = {w: i for i, w in enumerate(self._words)}

    @property
    def size(self) -> int:
        return len(self._words)

    @property
    def sos(self) -> int:
        return self._index[SOS]

    @property
    def eos(self) -> int:
        return self._index[EOS]

    @property
    def pad(self) -> int:
        return self._index[PAD]

    def word(self, idx: int) -> str:
        return self._words[idx]

    def index(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise DataError(f"out-of-vocabulary word: {word!r}") from None

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def words(self) -> list[str]:
        return list(self._words)


def build_vocab(captions: list[list[str]]) -> Vocabulary:
    """Vocabulary over tokenized captions.

    Words are ordered by (descending frequency, lexicographic) after the
    three reserved tokens, so identical corpora always index identically.
    """
    counts = Counter()
    for words in captions:
        counts.update(words)
    return Vocabulary(list(RESERVED) + sorted(counts, key=lambda w: (-counts[w], w)))


@dataclass
class TokenSequence:
    """<sos> ... <eos> caption encoding."""

    indices: list[int]

    def __len__(self) -> int:
        return len(self.indices)


def encode(caption: str | list[str], vocab: Vocabulary) -> TokenSequence:
    words = tokenize(caption) if isinstance(caption, str) else list(caption)
    return TokenSequence([vocab.sos] + [vocab.index(w) for w in words] + [vocab.eos])


def decode(seq: TokenSequence | list[int], vocab: Vocabulary) -> list[str]:
    """Words between <sos> and <eos>, ignoring padding."""
    indices = seq.indices if isinstance(seq, TokenSequence) else list(seq)
    words = []
    for idx in indices:
        if idx == vocab.sos or idx == vocab.pad:
            continue
        if idx == vocab.eos:
            break
        words.append(vocab.word(idx))
    return words


# ---------------------------------------------------------------------------
# corpora and splits
# ---------------------------------------------------------------------------

@dataclass
class CaptionEntry:
    file_name: str
    captions: list[str]
    tokens: list[list[str]] = field(default=None)

    def __post_init__(self):
        if not self.captions:
            raise DataError(f"{self.file_name}: entry has no captions")
        if self.tokens is None:
            try:
                self.tokens = [tokenize(c) for c in self.captions]
            except DataError as exc:
                raise DataError(f"{self.file_name}: {exc}") from None


@dataclass
class CaptionCorpus:
    entries: list[CaptionEntry]

    def __post_init__(self):
        names = [e.file_name for e in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate file names in corpus: {dupes[:3]}")

    def __len__(self) -> int:
        return len(self.entries)

    def all_token_lists(self) -> list[list[str]]:
        return [words for e in self.entries for words in e.tokens]


CSV_HEADER = ["file_name", "caption_1", "caption_2", "caption_3", "caption_4", "caption_5"]


def csv_rows(path, header: list[str]):
    """(`path:line`, row) of each non-blank row under exactly `header` in the
    UTF-8, RFC-4180 CSV file at `path`, at the line on which the row ends.  A
    bad header, width or row raises DataError there; non-UTF-8 bytes, naming the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first != header:
                raise DataError(f"{path}: expected header {header}, got {first}")
            for row in filter(None, reader):
                where = f"{path}:{reader.line_num}"
                if len(row) != len(header):
                    raise DataError(f"{where}: expected {len(header)} columns, got {len(row)}")
                yield where, row
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_caption_csv(path) -> CaptionCorpus:
    """`file_name,caption_1,...,caption_5` rows (`csv_rows`); empty caption
    cells are dropped, and an entry must keep at least one, each with words."""
    entries = []
    for where, row in csv_rows(path, CSV_HEADER):
        captions = [c for c in row[1:] if c.strip()]
        if not captions:
            raise DataError(f"{where}: entry {row[0]!r} has no captions")
        try:
            entries.append(CaptionEntry(row[0], captions))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    return CaptionCorpus(entries)


def write_caption_csv(path, corpus: CaptionCorpus) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for e in corpus.entries:
            caps = list(e.captions[:5])
            caps += [""] * (5 - len(caps))
            writer.writerow([e.file_name] + caps)


def document_frequencies(corpus: CaptionCorpus) -> dict[str, int]:
    """word -> number of distinct audio entries whose captions contain it."""
    df = Counter()
    for e in corpus.entries:
        seen = set()
        for words in e.tokens:
            seen.update(words)
        df.update(seen)
    return dict(df)


def eligible_for_validation(corpus: CaptionCorpus, rarity_threshold: int = 10) -> list[int]:
    """Indices of entries containing no word that appears in fewer than
    `rarity_threshold` distinct audio entries."""
    df = document_frequencies(corpus)
    out = []
    for i, e in enumerate(corpus.entries):
        rare = any(df[w] < rarity_threshold for words in e.tokens for w in words)
        if not rare:
            out.append(i)
    return out


def make_validation_split(
    corpus: CaptionCorpus,
    n: int = 100,
    rarity_threshold: int = 10,
    rng: RngState | None = None,
) -> tuple[CaptionCorpus, CaptionCorpus]:
    """Reserve n eligible entries, chosen uniformly at random, as validation.

    Eligibility excludes any entry with a word occurring in fewer than
    `rarity_threshold` distinct entries, so validation never sees rare words.
    """
    if rng is None:
        rng = RngState(0)
    eligible = eligible_for_validation(corpus, rarity_threshold)
    if len(eligible) < n:
        raise DataError(
            f"only {len(eligible)} entries eligible for validation, need {n}"
        )
    perm = rng.permutation(len(eligible))
    chosen = sorted(eligible[perm[i]] for i in range(n))
    chosen_set = set(chosen)
    val = CaptionCorpus([corpus.entries[i] for i in chosen])
    train = CaptionCorpus([e for i, e in enumerate(corpus.entries) if i not in chosen_set])
    return train, val


def write_split_manifest(path, corpus: CaptionCorpus) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in corpus.entries:
            fh.write(e.file_name + "\n")
