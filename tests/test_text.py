import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retforge.data import Corpus
from retforge.errors import FormatError
from retforge.text import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Vocabulary,
    contains_answer,
    normalize_answer,
    segment_sentences,
    word_split,
)


def test_reserved_ids():
    vocab = Vocabulary([])
    assert PAD_ID == 0 and CLS_ID == 1
    assert vocab.token(0) == "[PAD]"
    assert vocab.token(4) == "[UNK]"
    assert len(vocab) == len(RESERVED_TOKENS)


def test_tokenize_splits_punctuation_and_lowercases():
    vocab = Vocabulary.build(["Hello, world"])
    ids = vocab.encode("Hello, world")
    assert [vocab.token(i) for i in ids] == ["hello", ",", "world"]


def test_tokenize_empty_and_unknown():
    vocab = Vocabulary.build(["known words"])
    assert vocab.encode("") == []
    assert vocab.encode("unseen") == [UNK_ID]


def test_vocab_ids_sorted_and_stable():
    vocab = Vocabulary.build(["b a", "c a"])
    base = len(RESERVED_TOKENS)
    assert vocab.id("a") == base
    assert vocab.id("b") == base + 1
    assert vocab.id("c") == base + 2


def test_vocab_save_load_round_trip(tmp_path):
    vocab = Vocabulary.build(["the quick brown fox. It jumped!"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert len(loaded) == len(vocab)
    for tok in ("quick", "fox", ".", "!"):
        assert loaded.id(tok) == vocab.id(tok)


def test_vocab_rejects_duplicates():
    with pytest.raises(FormatError):
        Vocabulary(["dup", "dup"])


def test_segment_sentences_examples():
    assert segment_sentences("A b. C d.") == ["A b.", "C d."]
    assert segment_sentences("No terminator") == ["No terminator"]
    assert segment_sentences("") == []
    assert segment_sentences("One! Two? Three.") == ["One!", "Two?", "Three."]


def test_segment_does_not_split_inside_numbers():
    # '.' not followed by whitespace is not a sentence end
    assert segment_sentences("Pi is 3.14 roughly. Yes.") == ["Pi is 3.14 roughly.", "Yes."]


def test_normalize_answer():
    assert normalize_answer("The Quick, Brown Fox!") == "quick brown fox"
    assert normalize_answer("a cat") == "cat"
    assert normalize_answer("  spaced   out  ") == "spaced out"
    assert normalize_answer("U.S.A.") == "usa"


def test_contains_answer_word_boundaries():
    assert contains_answer("The category is animals", ["cat"]) is False
    assert contains_answer("The cat sat", ["cat"]) is True
    assert contains_answer("Born on 19 June 2018 in Paris", ["19 june 2018"]) is True
    assert contains_answer("Born in PARIS!", ["Paris"]) is True
    assert contains_answer("anything", [""]) is False


@given(st.lists(st.sampled_from("alpha beta gamma , . !".split()), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_tokenize_detokenize_round_trip(words):
    # in-vocab lowercase text: ids -> text -> ids is the identity
    vocab = Vocabulary.build([" ".join(words)])
    ids = vocab.encode(" ".join(words))
    assert vocab.encode(vocab.decode(ids)) == ids


@given(st.text(max_size=80))
@settings(max_examples=80, deadline=None)
def test_word_split_never_produces_whitespace_or_uppercase(text):
    for w in word_split(text):
        assert w == w.lower()
        assert not any(ch.isspace() for ch in w)


@given(st.text(max_size=80))
@settings(max_examples=80, deadline=None)
def test_segmentation_preserves_tokens(text):
    joined = []
    for sentence in segment_sentences(text):
        joined.extend(word_split(sentence))
    assert joined == word_split(text)
    if text:
        # a built document's sentence offsets tile its tokens
        corpus = Corpus.build([{"id": 0, "title": "t", "text": text}])
        doc = corpus.documents[0]
        ranges = doc.sentence_ranges
        ends = [0] + [end for _, end in ranges]
        assert [start for start, _ in ranges] == ends[:-1]
        assert ends[-1] == len(doc.tokens)
        assert [list(doc.tokens[s:e]) for s, e in ranges] == [
            corpus.vocab.encode(sentence) for sentence in segment_sentences(text)
        ]
