"""Corpus and QA ingestion, BM25 distant supervision, and the two
unsupervised example generators (inverse cloze and masked salient spans).

BM25 scores come from an inverted index that build_corpus_stats builds once
per corpus: scoring a query adds each of its tokens' postings into one score
vector over all documents.

All sampling takes an explicit numpy Generator, so pipelines are pure
functions of (data, seed) and safe to parallelize across examples.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InputError
from .files import jsonl, write_atomic
from .text import MASK_ID, Vocabulary, contains_answer, segment_sentences

BM25_K1 = 1.2
BM25_B = 0.75


@dataclass(frozen=True)
class Document:
    id: int
    title: str
    text: str
    tokens: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.id < 2**63:
            raise InputError(f"document id must be in [0, 2**63), got {self.id}")
        if not self.text:
            raise InputError(f"document {self.id}: empty text")


@dataclass(frozen=True)
class QAExample:
    question: str
    answers: tuple[str, ...]
    positive_ctx: int | None = None
    hard_negatives: tuple[int, ...] = ()
    filtered: bool = False

    def __post_init__(self):
        if not self.answers:
            raise InputError(f"question {self.question!r}: no answers")


@dataclass(frozen=True)
class SpanAnnotation:
    """Token-offset spans over one document; offsets are inclusive."""

    doc_id: int
    spans: tuple[tuple[int, int, str], ...]

    def __post_init__(self):
        norm = tuple(sorted(self.spans))
        for start, end, _ in norm:
            if start < 0 or end < start:
                raise InputError(
                    f"doc {self.doc_id}: bad span ({start}, {end}); need 0 <= start <= end"
                )
        for (_, e1, _), (s2, _, _) in zip(norm, norm[1:]):
            if s2 <= e1:
                raise InputError(f"doc {self.doc_id}: overlapping spans")
        object.__setattr__(self, "spans", norm)


class Corpus:
    """Immutable document collection with a shared vocabulary."""

    def __init__(self, documents: Sequence[Document], vocab: Vocabulary):
        self.documents = list(documents)
        self.vocab = vocab
        self.by_id: dict[int, Document] = {}
        for doc in self.documents:
            if doc.id in self.by_id:
                raise InputError(f"duplicate document id {doc.id}")
            self.by_id[doc.id] = doc
        self.ids = np.array([doc.id for doc in self.documents], dtype=np.int64)
        self.ids.flags.writeable = False

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    @classmethod
    def build(cls, raw: Iterable[dict], vocab: Vocabulary | None = None) -> "Corpus":
        """Construct from {"id", "title", "text"} records, building the
        vocabulary from titles and texts when one is not supplied."""
        raw = list(raw)
        if vocab is None:
            vocab = Vocabulary.build(
                [r["title"] for r in raw] + [r["text"] for r in raw]
            )
        docs = [
            Document(
                id=int(r["id"]),
                title=str(r["title"]),
                text=str(r["text"]),
                tokens=tuple(vocab.encode(str(r["text"]))),
            )
            for r in raw
        ]
        return cls(docs, vocab)


# JSON-lines I/O ----------------------------------------------------------


def _read_jsonl(path) -> Iterable[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise InputError(f"{path}:{lineno}: expected an object")
            yield lineno, obj


def load_corpus(path, vocab: Vocabulary | None = None) -> Corpus:
    raw = []
    for lineno, obj in _read_jsonl(path):
        for key in ("id", "title", "text"):
            if key not in obj:
                raise InputError(f"{path}:{lineno}: missing field {key!r}")
        raw.append(obj)
    if not raw:
        raise InputError(f"{path}: empty corpus")
    return Corpus.build(raw, vocab)


def save_corpus(corpus: Corpus, path) -> None:
    records = ({"id": doc.id, "title": doc.title, "text": doc.text} for doc in corpus)
    write_atomic(path, jsonl(records))


def load_qa(path) -> list[QAExample]:
    out = []
    for lineno, obj in _read_jsonl(path):
        if "question" not in obj or "answers" not in obj:
            raise InputError(f"{path}:{lineno}: need question and answers fields")
        answers = obj["answers"]
        if not isinstance(answers, list) or not answers:
            raise InputError(f"{path}:{lineno}: answers must be a non-empty list")
        out.append(QAExample(
            question=str(obj["question"]),
            answers=tuple(str(a) for a in answers),
            positive_ctx=obj.get("positive_ctx"),
            hard_negatives=tuple(obj.get("hard_negatives", ())),
            filtered=bool(obj.get("filtered", False)),
        ))
    return out


def save_qa(examples: Sequence[QAExample], path) -> None:
    records = []
    for ex in examples:
        record: dict = {"question": ex.question, "answers": list(ex.answers)}
        if ex.positive_ctx is not None:
            record["positive_ctx"] = ex.positive_ctx
        if ex.hard_negatives:
            record["hard_negatives"] = list(ex.hard_negatives)
        if ex.filtered:
            record["filtered"] = True
        records.append(record)
    write_atomic(path, jsonl(records))


def load_spans(path) -> dict[int, SpanAnnotation]:
    out: dict[int, SpanAnnotation] = {}
    for lineno, obj in _read_jsonl(path):
        if "doc_id" not in obj or "spans" not in obj:
            raise InputError(f"{path}:{lineno}: need doc_id and spans fields")
        doc_id = int(obj["doc_id"])
        if doc_id in out:
            raise InputError(f"{path}:{lineno}: duplicate annotation for doc {doc_id}")
        spans = tuple(
            (int(s[0]), int(s[1]), str(s[2])) for s in obj["spans"]
        )
        try:
            out[doc_id] = SpanAnnotation(doc_id=doc_id, spans=spans)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return out


def save_spans(annotations: Sequence[SpanAnnotation], path) -> None:
    write_atomic(path, jsonl(
        {"doc_id": ann.doc_id, "spans": [list(s) for s in ann.spans]} for ann in annotations
    ))


# BM25 and distant supervision ---------------------------------------------


@dataclass(frozen=True)
class CorpusStats:
    """BM25 statistics and the inverted index of one corpus.

    Row r is the corpus's r-th document, doc_ids[r]. postings maps a term to
    the rows that contain it, ascending, and to what one query occurrence of
    the term adds to each of those rows' scores.
    """

    n_docs: int
    doc_freqs: dict[int, int]
    avg_doc_len: float
    doc_ids: np.ndarray = field(repr=False)
    postings: dict[int, tuple[np.ndarray, np.ndarray]] = field(repr=False)


def build_corpus_stats(corpus: Corpus) -> CorpusStats:
    """Index the corpus once; every BM25 score is then read from it."""
    if len(corpus) == 0:
        raise DomainError("corpus statistics over an empty corpus")
    k1, b = BM25_K1, BM25_B
    n_docs = len(corpus)
    lens = [len(doc.tokens) for doc in corpus]
    avg_doc_len = sum(lens) / n_docs
    norm = k1 * (1.0 - b + b * np.array(lens) / avg_doc_len)
    by_term: dict[int, tuple[list[int], list[int]]] = {}
    for row, doc in enumerate(corpus):
        for t, f in Counter(doc.tokens).items():
            rows, freqs = by_term.setdefault(t, ([], []))
            rows.append(row)
            freqs.append(f)
    postings = {}
    for t, (rows, freqs) in by_term.items():
        df = len(rows)
        # a math.log scalar: np.log may round differently
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        r, f = np.array(rows), np.array(freqs)
        postings[t] = (r, idf * f * (k1 + 1.0) / (f + norm[r]))
    return CorpusStats(
        n_docs=n_docs,
        doc_freqs={t: len(rows) for t, (rows, _) in by_term.items()},
        avg_doc_len=avg_doc_len,
        doc_ids=corpus.ids,
        postings=postings,
    )


def _bm25_scores(query_tokens: Sequence[int], stats: CorpusStats) -> np.ndarray:
    """Okapi BM25 of every row; each query-token occurrence contributes
    separately, added in query order as a per-document sum would."""
    scores = np.zeros(stats.n_docs)
    for t in query_tokens:
        posting = stats.postings.get(t)
        if posting is not None:
            rows, contrib = posting
            scores[rows] += contrib  # one term's rows are distinct
    return scores


def ranked_rows(scores: np.ndarray, ids: np.ndarray, k: int | None = None) -> np.ndarray:
    """Rows by descending score, ascending id on ties: the first k of that
    order, or all rows. With k, a partition at the k-th score keeps the rows
    at or above it, ties included, and only those are sorted."""
    keys = -scores
    if k is not None and k < keys.size:
        kth = np.partition(keys, k - 1)[k - 1]
        rows = np.flatnonzero(~(keys > kth))  # NaN sorts last either way
        return rows[np.lexsort((ids[rows], keys[rows]))[:k]]
    return np.lexsort((ids, keys))[:k]


def _check_same_corpus(corpus: Corpus, stats: CorpusStats) -> None:
    if not np.array_equal(stats.doc_ids, corpus.ids):
        raise DomainError("BM25 statistics were built from a different corpus")


def bm25_score(query_tokens: Sequence[int], doc: Document, stats: CorpusStats) -> float:
    """Okapi BM25 of one indexed document."""
    rows = np.flatnonzero(stats.doc_ids == doc.id)
    if rows.size == 0:
        raise DomainError(f"document {doc.id} is not in the BM25 statistics")
    return float(_bm25_scores(query_tokens, stats)[rows[0]])


def rank_bm25(
    query_tokens: Sequence[int], corpus: Corpus, stats: CorpusStats
) -> list[tuple[int, float]]:
    """All documents sorted by descending score, ascending id on ties."""
    _check_same_corpus(corpus, stats)
    scores = _bm25_scores(query_tokens, stats)
    return [
        (int(stats.doc_ids[r]), float(scores[r])) for r in ranked_rows(scores, stats.doc_ids)
    ]


def mine_distant_supervision(
    example: QAExample,
    corpus: Corpus,
    stats: CorpusStats,
    n_candidates: int = 100,
    n_hard_negatives: int = 1,
) -> QAExample:
    """Fill positive_ctx and hard_negatives from a BM25 ranking.

    The positive is the highest-ranked candidate containing an answer; hard
    negatives are the top answer-free candidates. An example with no
    answer-bearing candidate is marked filtered instead of raising.
    """
    if len(corpus) == 0:
        raise DomainError("distant supervision over an empty corpus")
    _check_same_corpus(corpus, stats)
    scores = _bm25_scores(corpus.vocab.encode(example.question), stats)
    positive: int | None = None
    negatives: list[int] = []
    # All rows: BM25 scores often tie in bulk at the n_candidates-th row (most
    # documents match only common terms), where a partition saves nothing.
    for row in ranked_rows(scores, stats.doc_ids)[:n_candidates]:
        doc = corpus.documents[row]
        if contains_answer(doc.text, example.answers):
            if positive is None:
                positive = doc.id
        elif len(negatives) < n_hard_negatives:
            negatives.append(doc.id)
        if positive is not None and len(negatives) >= n_hard_negatives:
            break
    if positive is None:
        return replace(example, positive_ctx=None, hard_negatives=(), filtered=True)
    return replace(
        example,
        positive_ctx=positive,
        hard_negatives=tuple(negatives),
        filtered=False,
    )


# Unsupervised example generation -------------------------------------------

ICT_MAX_CONTEXT_TOKENS = 256
ICT_KEEP_PROB = 0.1


def sentence_token_ranges(
    doc: Document, vocab: Vocabulary
) -> list[tuple[str, int, int]]:
    """Sentences with their [start, end) offsets into doc.tokens.

    Whitespace carries no tokens, so per-sentence encodings concatenate to
    exactly the document token sequence.
    """
    out = []
    offset = 0
    for sentence in segment_sentences(doc.text):
        n = len(vocab.encode(sentence))
        out.append((sentence, offset, offset + n))
        offset += n
    return out


def sample_ict_pair(
    doc: Document,
    vocab: Vocabulary,
    rng: np.random.Generator,
    keep_prob: float = ICT_KEEP_PROB,
    max_context_tokens: int = ICT_MAX_CONTEXT_TOKENS,
) -> tuple[list[int], list[int]] | None:
    """Inverse cloze pair: one sentence as query, the rest as context.

    With probability keep_prob the query sentence stays in the context.
    Returns None for single-sentence paragraphs (skip, not an error). Draw
    order is fixed: sentence index first, then the keep decision.
    """
    sentences = segment_sentences(doc.text)
    if len(sentences) < 2:
        return None
    idx = int(rng.integers(len(sentences)))
    keep = bool(rng.random() < keep_prob)
    query = vocab.encode(sentences[idx])
    context_sentences = sentences if keep else sentences[:idx] + sentences[idx + 1:]
    context: list[int] = []
    for s in context_sentences:
        context.extend(vocab.encode(s))
    return query, context[:max_context_tokens]


def mask_salient_spans(
    doc: Document,
    annotation: SpanAnnotation,
    vocab: Vocabulary,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]] | None:
    """Pick one annotated span uniformly, replace it with [MASK] inside its
    sentence, and return (masked sentence tokens, span tokens).

    Returns None when the document has no spans. Spans must lie inside one
    sentence of the document's token sequence.
    """
    if not annotation.spans:
        return None
    if annotation.doc_id != doc.id:
        raise InputError(
            f"annotation for doc {annotation.doc_id} applied to doc {doc.id}"
        )
    start, end, _ = annotation.spans[int(rng.integers(len(annotation.spans)))]
    if end >= len(doc.tokens):
        raise InputError(
            f"doc {doc.id}: span ({start}, {end}) outside {len(doc.tokens)} tokens"
        )
    for _, s_start, s_end in sentence_token_ranges(doc, vocab):
        if s_start <= start and end < s_end:
            sentence_tokens = list(doc.tokens[s_start:s_end])
            lo, hi = start - s_start, end - s_start
            masked = sentence_tokens[:lo] + [MASK_ID] + sentence_tokens[hi + 1:]
            target = list(doc.tokens[start:end + 1])
            return masked, target
    raise InputError(f"doc {doc.id}: span ({start}, {end}) crosses a sentence boundary")
