import math
from collections import Counter

import numpy as np
import pytest

from retforge import data as D
from retforge.errors import DomainError, InputError
from retforge.text import MASK_ID, Vocabulary, contains_answer
from retforge.toy import ToySpec, generate_toy


@pytest.fixture()
def toy_corpus():
    return D.Corpus.build([
        {"id": 0, "title": "mat", "text": "The cat sat on the mat."},
        {"id": 1, "title": "dog", "text": "A dog barked."},
        {"id": 2, "title": "cats", "text": "Cat cat everywhere!"},
    ])


def test_corpus_build_and_lookup(toy_corpus):
    assert len(toy_corpus) == 3
    assert toy_corpus.by_id[1].title == "dog"
    doc = toy_corpus.by_id[0]
    assert [toy_corpus.vocab.token(t) for t in doc.tokens] == [
        "the", "cat", "sat", "on", "the", "mat", ".",
    ]


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(InputError):
        D.Corpus.build([
            {"id": 0, "title": "a", "text": "x"},
            {"id": 0, "title": "b", "text": "y"},
        ])


def test_document_validation():
    with pytest.raises(InputError):
        D.Document(id=-1, title="t", text="x", tokens=())
    with pytest.raises(InputError):  # ids are stored as int64
        D.Document(id=2**63, title="t", text="x", tokens=())
    with pytest.raises(InputError):
        D.Document(id=0, title="t", text="", tokens=())


def test_corpus_jsonl_round_trip(tmp_path, toy_corpus):
    path = tmp_path / "corpus.jsonl"
    D.save_corpus(toy_corpus, path)
    loaded = D.load_corpus(path)
    assert len(loaded) == 3
    assert loaded.by_id[2].text == "Cat cat everywhere!"
    assert loaded.by_id[0].tokens == toy_corpus.by_id[0].tokens


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": 0, "title": "a", "text": "x"}\nnot json\n')
    with pytest.raises(InputError, match="bad.jsonl:2"):
        D.load_corpus(path)
    path.write_text('{"id": 0, "title": "a"}\n')
    with pytest.raises(InputError, match="text"):
        D.load_corpus(path)


def test_qa_jsonl_round_trip(tmp_path):
    examples = [
        D.QAExample(question="who?", answers=("me",)),
        D.QAExample(
            question="where?", answers=("paris", "france"),
            positive_ctx=3, hard_negatives=(1, 2), filtered=False,
        ),
    ]
    path = tmp_path / "qa.jsonl"
    D.save_qa(examples, path)
    loaded = D.load_qa(path)
    assert loaded == examples


def test_qa_requires_answers(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"question": "q", "answers": []}\n')
    with pytest.raises(InputError):
        D.load_qa(path)


def test_span_annotation_validation():
    ann = D.SpanAnnotation(doc_id=0, spans=((5, 6, "x"), (1, 2, "y")))
    assert ann.spans == ((1, 2, "y"), (5, 6, "x"))  # normalized order
    with pytest.raises(InputError):
        D.SpanAnnotation(doc_id=0, spans=((3, 2, "bad"),))
    with pytest.raises(InputError):
        D.SpanAnnotation(doc_id=0, spans=((1, 3, "a"), (2, 4, "b")))


def test_span_jsonl_round_trip(tmp_path):
    path = tmp_path / "spans.jsonl"
    D.save_spans([D.SpanAnnotation(doc_id=4, spans=((0, 1, "PER"),))], path)
    loaded = D.load_spans(path)
    assert loaded[4].spans == ((0, 1, "PER"),)


# BM25 ----------------------------------------------------------------------


def test_bm25_hand_oracle(toy_corpus):
    # frozen from an independent hand evaluation of the Okapi formula
    stats = D.build_corpus_stats(toy_corpus)
    cat = toy_corpus.vocab.encode("cat")
    assert D.bm25_score(cat, toy_corpus.by_id[0], stats) == pytest.approx(
        0.40390936888305407, abs=1e-9
    )
    assert D.bm25_score(cat, toy_corpus.by_id[1], stats) == 0.0
    assert D.bm25_score(cat, toy_corpus.by_id[2], stats) == pytest.approx(
        0.6847734995633235, abs=1e-9
    )
    the_cat = toy_corpus.vocab.encode("the cat")
    assert D.bm25_score(the_cat, toy_corpus.by_id[0], stats) == pytest.approx(
        1.6161702433919292, abs=1e-9
    )


def test_bm25_duplicate_query_terms_accumulate(toy_corpus):
    stats = D.build_corpus_stats(toy_corpus)
    once = D.bm25_score(toy_corpus.vocab.encode("cat"), toy_corpus.by_id[0], stats)
    twice = D.bm25_score(toy_corpus.vocab.encode("cat cat"), toy_corpus.by_id[0], stats)
    assert twice == pytest.approx(2 * once, abs=1e-12)


def test_bm25_empty_query_is_zero(toy_corpus):
    stats = D.build_corpus_stats(toy_corpus)
    assert D.bm25_score([], toy_corpus.by_id[0], stats) == 0.0


def test_bm25_matches_brute_force_oracle(toy_corpus):
    """Independent re-derivation of the formula over every doc and token."""
    stats = D.build_corpus_stats(toy_corpus)
    k1, b = 1.2, 0.75
    n = len(toy_corpus)
    avgdl = sum(len(d.tokens) for d in toy_corpus) / n
    for query_text in ("cat", "the mat", "dog barked !", "cat dog everywhere"):
        query = toy_corpus.vocab.encode(query_text)
        for doc in toy_corpus:
            expected = 0.0
            for t in query:
                f = list(doc.tokens).count(t)
                if f == 0:
                    continue
                df = sum(1 for d in toy_corpus if t in d.tokens)
                idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
                expected += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(doc.tokens) / avgdl))
            assert D.bm25_score(query, doc, stats) == pytest.approx(expected, abs=1e-12)


def test_rank_bm25_orders_by_score_then_id(toy_corpus):
    stats = D.build_corpus_stats(toy_corpus)
    ranking = D.rank_bm25(toy_corpus.vocab.encode("cat"), toy_corpus, stats)
    assert [doc_id for doc_id, _ in ranking] == [2, 0, 1]
    scores = [s for _, s in ranking]
    assert scores == sorted(scores, reverse=True)


# The per-document scorer that the inverted index replaced, kept as the
# bitwise reference: a Counter per (query, document), summed in query order.


def reference_stats(corpus):
    doc_freqs = Counter()
    for doc in corpus:
        doc_freqs.update(set(doc.tokens))
    avg_doc_len = sum(len(doc.tokens) for doc in corpus) / len(corpus)
    return len(corpus), dict(doc_freqs), avg_doc_len


def reference_bm25_score(query_tokens, doc, ref_stats, k1=1.2, b=0.75):
    n_docs, doc_freqs, avg_doc_len = ref_stats
    if not query_tokens:
        return 0.0
    tf = Counter(doc.tokens)
    norm = k1 * (1.0 - b + b * len(doc.tokens) / avg_doc_len)
    score = 0.0
    for t in query_tokens:
        f = tf.get(t, 0)
        if f == 0:
            continue
        df = doc_freqs.get(t, 0)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        score += idf * f * (k1 + 1.0) / (f + norm)
    return score


def reference_rank_bm25(query_tokens, corpus, ref_stats):
    scored = [(doc.id, reference_bm25_score(query_tokens, doc, ref_stats)) for doc in corpus]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def reference_mine(example, corpus, ranking, n_candidates, n_hard_negatives):
    positive, negatives = None, []
    for doc_id, _ in ranking[:n_candidates]:
        if contains_answer(corpus.by_id[doc_id].text, example.answers):
            if positive is None:
                positive = doc_id
        elif len(negatives) < n_hard_negatives:
            negatives.append(doc_id)
        if positive is not None and len(negatives) >= n_hard_negatives:
            break
    if positive is None:
        return D.QAExample(example.question, example.answers, None, (), True)
    return D.QAExample(example.question, example.answers, positive, tuple(negatives), False)


def hexed(ranking):
    return [(doc_id, score.hex()) for doc_id, score in ranking]


@pytest.fixture(scope="module")
def shuffled_toy():
    """320 toy documents in a shuffled order, so that row order is not id
    order and only the id tie-break can give ascending ids on ties."""
    data = generate_toy(ToySpec(n_docs=320, n_train=60, n_dev=0, seed=23))
    records = list(data.corpus)
    order = np.random.default_rng(5).permutation(len(records))
    corpus = D.Corpus.build([records[int(i)] for i in order])
    assert [doc.id for doc in corpus] != sorted(doc.id for doc in corpus)
    examples = [
        D.QAExample(question=r["question"], answers=tuple(r["answers"]))
        for r in data.train
    ]
    examples.append(D.QAExample(question=examples[0].question, answers=("zanzibar",)))
    return corpus, examples


def test_rank_bm25_matches_per_document_reference_bitwise(shuffled_toy):
    corpus, examples = shuffled_toy
    stats = D.build_corpus_stats(corpus)
    ref_stats = reference_stats(corpus)
    assert (stats.n_docs, stats.doc_freqs, stats.avg_doc_len) == ref_stats
    absent = [MASK_ID, len(corpus.vocab) + 7]
    assert not any(t in doc.tokens for doc in corpus for t in absent)
    queries = [corpus.vocab.encode(ex.question) for ex in examples]
    queries += [q + q[::-1] + q for q in queries[:10]]  # repeated tokens
    queries += [absent[:1] + queries[0] + absent[1:], absent]  # absent tokens
    positive_ties = 0
    for query in queries:
        ranking = D.rank_bm25(query, corpus, stats)
        assert hexed(ranking) == hexed(reference_rank_bm25(query, corpus, ref_stats))
        positive_ties += sum(
            s1 == s2 > 0.0 for (_, s1), (_, s2) in zip(ranking, ranking[1:])
        )
    assert positive_ties > 0  # the oracle covers ties above zero
    assert D.rank_bm25(absent, corpus, stats) == [
        (doc_id, 0.0) for doc_id in sorted(doc.id for doc in corpus)
    ]
    assert D.rank_bm25([], corpus, stats) == [
        (doc_id, 0.0) for doc_id in sorted(doc.id for doc in corpus)
    ]
    for query in queries[:2] + queries[-12:] + [[]]:
        for doc in corpus:
            got = D.bm25_score(query, doc, stats)
            assert got.hex() == reference_bm25_score(query, doc, ref_stats).hex()


def test_mining_matches_per_document_reference(shuffled_toy):
    corpus, examples = shuffled_toy
    stats = D.build_corpus_stats(corpus)
    ref_stats = reference_stats(corpus)
    outcomes = set()
    for ex in examples:
        ranking = reference_rank_bm25(corpus.vocab.encode(ex.question), corpus, ref_stats)
        for n_candidates in (1, 3, 100):
            for n_hard_negatives in (0, 1, 3):
                mined = D.mine_distant_supervision(
                    ex, corpus, stats,
                    n_candidates=n_candidates, n_hard_negatives=n_hard_negatives,
                )
                expected = reference_mine(ex, corpus, ranking, n_candidates, n_hard_negatives)
                assert mined == expected
                outcomes.add((mined.filtered, len(mined.hard_negatives)))
    assert {(True, 0), (False, 0), (False, 1), (False, 3)} <= outcomes


def test_ranked_rows_first_k_equal_the_full_lexsort():
    rng = np.random.default_rng(8)
    scores = rng.integers(-3, 4, size=300).astype(np.float64)
    scores[::7] = -0.0  # equal to +0.0 in the order, as in a sort
    ids = rng.permutation(10_000)[:300]
    full = np.lexsort((ids, -scores))
    for k in (0, 1, 2, 5, 43, 44, 150, 299, 300, 301):
        np.testing.assert_array_equal(D.ranked_rows(scores, ids, k), full[:k])
    np.testing.assert_array_equal(D.ranked_rows(scores, ids), full)


def test_stats_from_another_corpus_rejected(toy_corpus):
    other = D.Corpus.build([
        {"id": 5, "title": "mat", "text": "The cat sat on the mat."},
        {"id": 6, "title": "dog", "text": "A dog barked."},
        {"id": 7, "title": "cats", "text": "Cat cat everywhere!"},
    ])
    stats = D.build_corpus_stats(other)
    ex = D.QAExample(question="where did the cat sit?", answers=("the mat",))
    with pytest.raises(DomainError, match="different corpus"):
        D.mine_distant_supervision(ex, toy_corpus, stats)
    with pytest.raises(DomainError, match="different corpus"):
        D.rank_bm25(toy_corpus.vocab.encode("cat"), toy_corpus, stats)


def test_bm25_score_rejects_document_outside_stats(toy_corpus):
    stats = D.build_corpus_stats(toy_corpus)
    stranger = D.Document(id=9, title="t", text="the cat", tokens=toy_corpus.vocab.encode("the cat"))
    with pytest.raises(DomainError, match="document 9"):
        D.bm25_score(toy_corpus.vocab.encode("cat"), stranger, stats)


def test_empty_corpus_stats_rejected():
    corpus = D.Corpus([], Vocabulary([]))
    with pytest.raises(DomainError):
        D.build_corpus_stats(corpus)


# Distant supervision --------------------------------------------------------


def test_mining_fills_positive_and_negative(toy_corpus):
    stats = D.build_corpus_stats(toy_corpus)
    ex = D.QAExample(question="where did the cat sit?", answers=("the mat",))
    mined = D.mine_distant_supervision(ex, toy_corpus, stats)
    assert mined.positive_ctx == 0
    assert mined.filtered is False
    assert len(mined.hard_negatives) == 1
    positive_doc = toy_corpus.by_id[mined.positive_ctx]
    assert contains_answer(positive_doc.text, mined.answers)
    for neg in mined.hard_negatives:
        assert not contains_answer(toy_corpus.by_id[neg].text, mined.answers)


def test_mining_marks_filtered_when_no_answer(toy_corpus):
    stats = D.build_corpus_stats(toy_corpus)
    ex = D.QAExample(question="what cat?", answers=("zanzibar",))
    mined = D.mine_distant_supervision(ex, toy_corpus, stats)
    assert mined.filtered is True
    assert mined.positive_ctx is None
    assert mined.hard_negatives == ()


def test_mining_respects_candidate_budget(toy_corpus):
    stats = D.build_corpus_stats(toy_corpus)
    # ranking for "cat" is [2, 0, 1]; answer lives in doc 0, outside a top-1 budget
    ex = D.QAExample(question="cat", answers=("mat",))
    mined = D.mine_distant_supervision(ex, toy_corpus, stats, n_candidates=1)
    assert mined.filtered is True
    mined_full = D.mine_distant_supervision(ex, toy_corpus, stats, n_candidates=3)
    assert mined_full.positive_ctx == 0


def test_mining_empty_corpus_rejected(toy_corpus):
    stats = D.build_corpus_stats(toy_corpus)
    empty = D.Corpus([], toy_corpus.vocab)
    with pytest.raises(DomainError):
        D.mine_distant_supervision(
            D.QAExample(question="q", answers=("a",)), empty, stats
        )


# Inverse cloze sampling ------------------------------------------------------


@pytest.fixture()
def multi_sentence_doc():
    corpus = D.Corpus.build([
        {"id": 0, "title": "t", "text": "Alpha beta. Gamma delta. Epsilon zeta."},
    ])
    return corpus.by_id[0], corpus.vocab


def test_ict_pair_query_excluded_by_default(multi_sentence_doc):
    doc, vocab = multi_sentence_doc
    pair = D.sample_ict_pair(doc, vocab, np.random.default_rng(0), keep_prob=0.0)
    query, context = pair
    sentences = [vocab.encode(s) for s in ["Alpha beta.", "Gamma delta.", "Epsilon zeta."]]
    assert query in sentences
    # context is the other sentences, in order
    expected = [t for s in sentences if s != query for t in s]
    assert context == expected


def test_ict_keep_prob_extremes(multi_sentence_doc):
    doc, vocab = multi_sentence_doc
    all_tokens = list(doc.tokens)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        query, context = D.sample_ict_pair(doc, vocab, rng, keep_prob=1.0)
        assert context == all_tokens  # query kept: context is the whole paragraph
    rng = np.random.default_rng(43)
    for _ in range(1000):
        query, context = D.sample_ict_pair(doc, vocab, rng, keep_prob=0.0)
        assert len(context) == len(all_tokens) - len(query)


def test_ict_single_sentence_skipped():
    corpus = D.Corpus.build([{"id": 0, "title": "t", "text": "Only one sentence."}])
    out = D.sample_ict_pair(corpus.by_id[0], corpus.vocab, np.random.default_rng(0))
    assert out is None


def test_ict_sentence_selection_is_uniform(multi_sentence_doc):
    doc, vocab = multi_sentence_doc
    sentences = [tuple(vocab.encode(s)) for s in ["Alpha beta.", "Gamma delta.", "Epsilon zeta."]]
    rng = np.random.default_rng(7)
    counts = {s: 0 for s in sentences}
    n = 3000
    for _ in range(n):
        query, _ = D.sample_ict_pair(doc, vocab, rng, keep_prob=0.0)
        counts[tuple(query)] += 1
    p = 1 / 3
    sigma = math.sqrt(n * p * (1 - p))
    for s in sentences:
        assert abs(counts[s] - n * p) <= 3 * sigma


def test_ict_context_truncated():
    long_text = " ".join(f"word{i} token filler." for i in range(200))
    corpus = D.Corpus.build([{"id": 0, "title": "t", "text": long_text}])
    _, context = D.sample_ict_pair(
        corpus.by_id[0], corpus.vocab, np.random.default_rng(1)
    )
    assert len(context) <= 256


def test_ict_deterministic_under_seed(multi_sentence_doc):
    doc, vocab = multi_sentence_doc
    a = D.sample_ict_pair(doc, vocab, np.random.default_rng(5))
    b = D.sample_ict_pair(doc, vocab, np.random.default_rng(5))
    assert a == b


# Salient span masking ---------------------------------------------------------


def test_mask_salient_span_example():
    corpus = D.Corpus.build([
        {"id": 0, "title": "x", "text": "X was born in Paris. X died young."},
    ])
    doc, vocab = corpus.by_id[0], corpus.vocab
    # tokens: x was born in paris . x died young .
    ann = D.SpanAnnotation(doc_id=0, spans=((4, 4, "GPE"),))
    query, target = D.mask_salient_spans(doc, ann, vocab, np.random.default_rng(0))
    assert [vocab.token(t) if t != MASK_ID else "[MASK]" for t in query] == [
        "x", "was", "born", "in", "[MASK]", ".",
    ]
    assert [vocab.token(t) for t in target] == ["paris"]


def test_mask_salient_span_no_annotations_skips():
    corpus = D.Corpus.build([{"id": 0, "title": "x", "text": "Some text here."}])
    ann = D.SpanAnnotation(doc_id=0, spans=())
    out = D.mask_salient_spans(
        corpus.by_id[0], ann, corpus.vocab, np.random.default_rng(0)
    )
    assert out is None


def test_mask_salient_span_out_of_range_errors():
    corpus = D.Corpus.build([{"id": 0, "title": "x", "text": "Two words."}])
    ann = D.SpanAnnotation(doc_id=0, spans=((10, 12, "X"),))
    with pytest.raises(InputError):
        D.mask_salient_spans(corpus.by_id[0], ann, corpus.vocab, np.random.default_rng(0))


def test_mask_salient_span_crossing_sentences_errors():
    corpus = D.Corpus.build([{"id": 0, "title": "x", "text": "One two. Three four."}])
    # span (2, 3) covers the final '.' of sentence 1 and 'three' of sentence 2
    ann = D.SpanAnnotation(doc_id=0, spans=((2, 3, "X"),))
    with pytest.raises(InputError):
        D.mask_salient_spans(corpus.by_id[0], ann, corpus.vocab, np.random.default_rng(0))


def test_mask_salient_span_wrong_doc_errors():
    corpus = D.Corpus.build([
        {"id": 0, "title": "x", "text": "One two."},
        {"id": 1, "title": "y", "text": "Three four."},
    ])
    ann = D.SpanAnnotation(doc_id=1, spans=((0, 0, "X"),))
    with pytest.raises(InputError):
        D.mask_salient_spans(corpus.by_id[0], ann, corpus.vocab, np.random.default_rng(0))
