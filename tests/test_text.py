"""Text pipeline: tokenizer, vocabulary, encoding, validation split."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetransformer.errors import DataError
from wavetransformer.tensor import RngState
from wavetransformer.text import (
    CaptionCorpus,
    CaptionEntry,
    Vocabulary,
    build_vocab,
    csv_rows,
    decode,
    eligible_for_validation,
    encode,
    load_caption_csv,
    make_validation_split,
    tokenize,
    write_caption_csv,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("A Dog barks!") == ["a", "dog", "barks"]

    def test_contractions_lose_apostrophe(self):
        assert tokenize("it's raining") == ["its", "raining"]

    def test_empty_after_cleaning_raises(self):
        with pytest.raises(DataError):
            tokenize("!!! ...")

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, s):
        try:
            first = tokenize(s)
        except DataError:
            return
        assert tokenize(" ".join(first)) == first


class TestVocabulary:
    def test_small_corpus(self):
        vocab = build_vocab([tokenize("a a b")])
        assert vocab.size == 5
        assert vocab.words() == ["<sos>", "<eos>", "<pad>", "a", "b"]

    def test_deterministic_assignment(self):
        caps = [tokenize(c) for c in ("dog barks loud", "cat naps", "dog naps")]
        v1 = build_vocab(caps)
        v2 = build_vocab([list(c) for c in caps])
        assert v1.words() == v2.words()

    def test_size_is_unique_words_plus_three(self):
        caps = [tokenize(c) for c in ("a dog and a cat", "the cat ran", "a bird")]
        unique = {w for c in caps for w in c}
        assert build_vocab(caps).size == len(unique) + 3

    def test_round_trip_indexing(self):
        vocab = build_vocab([tokenize("one two three two")])
        for i in range(vocab.size):
            assert vocab.index(vocab.word(i)) == i

    def test_frequency_then_lexicographic(self):
        vocab = build_vocab([tokenize("b b a a c")])
        # a and b tie at 2 -> lexicographic; c has 1
        assert vocab.words()[3:] == ["a", "b", "c"]


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocab([tokenize("a dog barks"), tokenize("a cat naps")])

    def test_framing(self, vocab):
        seq = encode("a dog", vocab)
        assert seq.indices[0] == vocab.sos and seq.indices[-1] == vocab.eos
        assert len(seq) == 4

    def test_round_trip(self, vocab):
        for cap in ("a dog barks", "a cat"):
            assert decode(encode(cap, vocab), vocab) == tokenize(cap)

    def test_oov_raises(self, vocab):
        with pytest.raises(DataError, match="out-of-vocabulary"):
            encode("a zebra", vocab)


def make_corpus(specs):
    return CaptionCorpus([CaptionEntry(name, caps) for name, caps in specs])


class TestValidationSplit:
    def _twelve_entry_corpus(self):
        # 9 entries share a common word pool; 3 carry a unique rare word
        common = [(f"common_{i}.wav", ["water flows over rocks"]) for i in range(9)]
        rare = [(f"rare_{i}.wav", [f"water flows over rocks uniqueword{i}"]) for i in range(3)]
        return make_corpus(common + rare)

    def test_eligibility_oracle(self):
        corpus = self._twelve_entry_corpus()
        # brute force: word document frequencies by hand
        eligible = eligible_for_validation(corpus, rarity_threshold=10)
        # common words appear in 12 entries; uniqueword{i} in exactly 1
        assert len(eligible) == 9
        assert all(corpus.entries[i].file_name.startswith("common") for i in eligible)

    def test_partition(self):
        corpus = self._twelve_entry_corpus()
        train, val = make_validation_split(corpus, n=4, rarity_threshold=10, rng=RngState(3))
        names = lambda c: {e.file_name for e in c.entries}
        assert names(train) | names(val) == names(corpus)
        assert not names(train) & names(val)
        assert len(val) == 4

    def test_no_rare_words_in_validation(self):
        corpus = self._twelve_entry_corpus()
        _, val = make_validation_split(corpus, n=5, rarity_threshold=10, rng=RngState(9))
        from wavetransformer.text import document_frequencies
        df = document_frequencies(corpus)
        for e in val.entries:
            for words in e.tokens:
                assert all(df[w] >= 10 for w in words)

    def test_seed_deterministic(self):
        corpus = self._twelve_entry_corpus()
        s1 = make_validation_split(corpus, n=4, rarity_threshold=10, rng=RngState(7))
        s2 = make_validation_split(corpus, n=4, rarity_threshold=10, rng=RngState(7))
        assert [e.file_name for e in s1[1].entries] == [e.file_name for e in s2[1].entries]

    def test_too_few_eligible_reports_count(self):
        corpus = self._twelve_entry_corpus()
        with pytest.raises(DataError, match="9 entries eligible"):
            make_validation_split(corpus, n=10, rarity_threshold=10, rng=RngState(0))


class TestCsv:
    def test_round_trip(self, tmp_path):
        corpus = make_corpus([
            ("a.wav", ["a dog barks", "a hound speaks", "dog sounds", "barking", "a dog"]),
            ("b, with comma.wav", ['she said "hello" loudly']),
        ])
        path = tmp_path / "caps.csv"
        write_caption_csv(path, corpus)
        back = load_caption_csv(path)
        assert back.entries[0].captions == corpus.entries[0].captions
        assert back.entries[1].file_name == "b, with comma.wav"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "caps.csv"
        path.write_text("file,cap\nx.wav,hello\n")
        with pytest.raises(DataError, match="header"):
            load_caption_csv(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "caps.csv"
        path.write_text(
            "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
            "x.wav,a dog,,,,\nx.wav,a cat,,,,\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            load_caption_csv(path)

    def test_a_row_is_located_at_the_line_on_which_it_ends(self, tmp_path):
        # row 2 holds a quoted two-line caption, so the short row is on line 4
        path = tmp_path / "caps.csv"
        path.write_text(
            "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
            'x.wav,"a dog\nbarks",,,,\ny.wav,a cat\n', encoding="utf-8"
        )
        with pytest.raises(DataError, match=re.escape(f"{path}:4: expected 6 columns, got 2")):
            load_caption_csv(path)

    def test_rows_skip_blank_lines_and_keep_their_line_numbers(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text('name,value\n\na,"one\ntwo"\n\nb,3\n', encoding="utf-8")
        assert list(csv_rows(path, ["name", "value"])) == [
            (f"{path}:4", ["a", "one\ntwo"]), (f"{path}:6", ["b", "3"]),
        ]

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: expected header")):
            list(csv_rows(path, ["name", "value"]))
