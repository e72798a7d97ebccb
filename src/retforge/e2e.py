"""End-to-end reader+retriever training and inference.

Two objectives over the k retrieved documents:
  individual: marginal likelihood, -log sum_i p(a|q,z_i) p(z_i|q,K),
  joint: one fused decode over all k contexts with retrieval-prob bias.

Retrieval probabilities in both losses come from the live question tower
scored against the k retrieved documents (the snapshot only selects which
documents participate), so gradients reach the query tower. A trainable
context tower re-encodes each document with a graph, so gradients reach it
too. A frozen one (always in joint mode) is read from its store of float64
document rows (`DualEncoder.embed_documents`, keyed by the corpus object and
its parameter bytes), which the index build before training filled, so a
frozen step embeds nothing. The rows enter the losses as constants, bit for
bit the frozen tower's graph forward. Snapshot embeddings stay constants.

A training step (`topk_batch_loss`) builds one graph for all its questions.
The questions, the (question, document) reader inputs and, when that tower
trains, the documents go through their encoders as graph-mode forwards of
equal-length rows (`TransformerEncoder.encode_rows`); the two retriever
towers' forwards are pooled, so each runs its last layer's queries and
everything past the attention mix on the pooled rows only
(`encoder.pooled_layer`). Answers are scored
in one teacher-forced decoder call per (answer length, memory length) chunk
(`Reader.log_likelihoods`). The questions are encoded once: the search reads
the values of the loss's own question rows, which equal `embed_questions`'s
bit for bit. Each row's parameter gradients are added in (example, context)
order (`autodiff.RowOrder`), so losses and parameters equal those of one
graph per question bit for bit. `individual_topk_loss` and `joint_topk_loss`
are the one-question calls of the batched losses.

Inference (`answer_questions`) encodes all questions in one call, searches
each, and hands every question to the mode's reader pass at once; both
passes read across questions through `Reader`'s one inference pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .data import Corpus, QAExample
from .encoder import DualEncoder, document_input, question_input
from .errors import ConfigError, DomainError
from .evaluation import exact_match, topk_accuracy
from .index import EvidenceIndex, IndexSnapshot, RetrievalResult, top_k
from .optim import ParamGroup, check_run_settings, descend, linear_schedule, make_optimizer
from .reader import Reader, with_eos


@dataclass(frozen=True)
class E2EConfig:
    mode: str = "individual"
    top_k: int = 4
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 2e-5
    tau_multiple: float = 1.0
    weight_decay: float = 0.1
    warmup_ratio: float = 0.01
    update_query_encoder: bool = True
    update_context_encoder: bool = True
    refresh_every: int = 500
    seed: int = 0
    max_answer_len: int = 16
    target_train_em: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        check_run_settings(self)
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.mode == "joint" and self.update_context_encoder:
            # the joint objective trains with a frozen context tower
            object.__setattr__(self, "update_context_encoder", False)


def tau_value(config_tau_multiple: float, hidden_size: int) -> float:
    """Score scaling: tau = multiple * sqrt(d)."""
    return config_tau_multiple * math.sqrt(hidden_size)


def marginal_log_likelihood(log_likelihoods: ad.Tensor, log_probs: ad.Tensor) -> ad.Tensor:
    """log sum_i exp(log p(a|q,z_i) + log p(z_i|q,K)), evaluated in log space."""
    if log_likelihoods.ndim != 1 or log_likelihoods.shape != log_probs.shape:
        raise DomainError(
            f"need matching vectors, got {log_likelihoods.shape} and {log_probs.shape}"
        )
    if log_likelihoods.shape[0] < 1:
        raise DomainError("marginal over zero documents")
    return ad.logsumexp(log_likelihoods + log_probs)


def _live_log_probs(
    q_rows: Sequence[ad.Tensor], found: Sequence[RetrievalResult], corpus: Corpus,
    retriever: DualEncoder, tau: float, order: ad.RowOrder,
) -> list[ad.Tensor]:
    """Per question, the top-k-normalized log p(z_i|q,K) of its live
    question row `q_rows[i]` against its documents. A trainable context tower
    encodes them row-ordered, document c of question i keyed (i, c); a frozen
    one is read from its store of document rows (`DualEncoder.embed_documents`),
    whose rows enter as constants."""
    if any(len(r.doc_ids) < 1 for r in found):
        raise DomainError("retrieved set is empty")
    doc_ids = [i for r in found for i in r.doc_ids]
    if any(p.requires_grad for p in retriever.context_encoder.parameters()):
        z_rows = iter(retriever.context_encoder.encode_rows(
            [document_input(corpus.by_id[i], corpus) for i in doc_ids], order,
            _pair_keys(found), pooled=True,
        ))
        docs = [ad.concat([next(z_rows) for _ in r.doc_ids]) for r in found]
    else:
        vecs = iter(retriever.embed_documents(corpus, doc_ids))
        docs = [ad.Tensor(np.stack([next(vecs) for _ in r.doc_ids])) for r in found]
    log_probs = []
    for q_vec, z in zip(q_rows, docs):
        scores = ad.reshape(ad.matmul(q_vec, ad.transpose(z, (1, 0))), (z.shape[0],))
        scaled = ad.scale(scores, 1.0 / tau)
        log_probs.append(scaled - ad.logsumexp(scaled))
    return log_probs


def _pair_keys(found: Sequence[RetrievalResult]) -> list[tuple[int, int]]:
    """(question, rank) of every retrieved document, in order."""
    return [(i, c) for i, r in enumerate(found) for c in range(len(r.doc_ids))]


def individual_losses(
    questions: Sequence[Sequence[int]], answers: Sequence[Sequence[int]],
    found: Sequence[RetrievalResult], log_probs: Sequence[ad.Tensor], corpus: Corpus,
    reader: Reader, order: ad.RowOrder,
) -> list[ad.Tensor]:
    """Per question, the negative marginal log-likelihood over its retrieved
    set, given its `_live_log_probs`, in the row-ordered graph of `order`:
    each (question, document) pair's likelihood is keyed (question, rank)."""
    log_liks = iter(reader.log_likelihoods(
        [(q, [corpus.by_id[i].tokens], None) for q, r in zip(questions, found) for i in r.doc_ids],
        [with_eos(a) for a, r in zip(answers, found) for _ in r.doc_ids],
        _pair_keys(found), order,
    ))
    return [
        ad.neg(marginal_log_likelihood(ad.concat([next(log_liks) for _ in r.doc_ids]), lp))
        for r, lp in zip(found, log_probs)
    ]


def joint_losses(
    questions: Sequence[Sequence[int]], answers: Sequence[Sequence[int]],
    found: Sequence[RetrievalResult], log_probs: Sequence[ad.Tensor], corpus: Corpus,
    reader: Reader, order: ad.RowOrder,
) -> list[ad.Tensor]:
    """Per question, the negative fused log-likelihood, with the retrieval
    probs of its `_live_log_probs` biasing cross-attention, in the row-ordered
    graph of `order`: each question's fused memory is keyed (question,)."""
    log_liks = reader.log_likelihoods(
        [
            (q, [corpus.by_id[i].tokens for i in r.doc_ids], ad.exp(lp))
            for q, r, lp in zip(questions, found, log_probs)
        ],
        [with_eos(a) for a in answers], [(i,) for i in range(len(questions))], order,
    )
    return [ad.neg(ad.reshape(ll, ())) for ll in log_liks]


def _step_losses(
    loss_fn, questions: Sequence[Sequence[int]], answers: Sequence[Sequence[int]], search,
    corpus: Corpus, retriever: DualEncoder, reader: Reader, tau: float,
) -> list[ad.Tensor]:
    """`loss_fn` (a `MODES` training loss) of each question against
    `search(v)`, the retrieved set of its question vector v. The live
    question tower encodes the questions once, with a graph, question i's row
    keyed (i,): `search` reads the rows' values, each bit for bit
    `DualEncoder.embed_questions`'s, and `_live_log_probs` scores the rows."""
    order = ad.RowOrder()
    q_rows = retriever.question_encoder.encode_rows(
        [question_input(q) for q in questions], order, [(i,) for i in range(len(questions))],
        pooled=True,
    )
    found = [search(row.data[0]) for row in q_rows]
    log_probs = _live_log_probs(q_rows, found, corpus, retriever, tau, order)
    return loss_fn(questions, answers, found, log_probs, corpus, reader, order)


def individual_topk_loss(
    question_tokens: Sequence[int], answer_tokens: Sequence[int], retrieved: RetrievalResult,
    corpus: Corpus, retriever: DualEncoder, reader: Reader, tau: float,
) -> ad.Tensor:
    """Negative marginal log-likelihood over the retrieved set: a one-question
    `individual_losses`."""
    return _step_losses(
        individual_losses, [question_tokens], [answer_tokens], lambda _: retrieved, corpus,
        retriever, reader, tau,
    )[0]


def joint_topk_loss(
    question_tokens: Sequence[int], answer_tokens: Sequence[int], retrieved: RetrievalResult,
    corpus: Corpus, retriever: DualEncoder, reader: Reader, tau: float,
) -> ad.Tensor:
    """Negative fused log-likelihood; retrieval probs bias cross-attention.
    A one-question `joint_losses`."""
    return _step_losses(
        joint_losses, [question_tokens], [answer_tokens], lambda _: retrieved, corpus,
        retriever, reader, tau,
    )[0]


# Inference -----------------------------------------------------------------


@dataclass(frozen=True)
class InferenceResult:
    answer: str
    candidates: tuple[str, ...]
    marginals: tuple[float, ...]
    retrieved: RetrievalResult
    all_empty: bool = False


# (question, document) pairs per slice of the individual pass; bounds the
# cross K/V and candidates it holds at once, whatever the question count
READ_SLICE_PAIRS = 16


def _read_individually(
    questions: Sequence[Sequence[int]], retrieved: Sequence[RetrievalResult], reader: Reader,
    corpus: Corpus, max_len: int | None,
) -> list[InferenceResult]:
    """Per question, the candidate of highest marginal likelihood over its
    retrieved set, among one greedy candidate per document. The (question,
    document) pairs of a slice of consecutive questions, at most
    READ_SLICE_PAIRS (or one question's), are encoded, decoded and scored
    together, bit for bit as one pair at a time. A question's duplicate
    candidates are scored once; ties go to the candidate a higher-ranked
    document produced."""
    n = max(1, READ_SLICE_PAIRS // max([1] + [len(found.doc_ids) for found in retrieved]))
    results = []
    for lo in range(0, len(questions), n):
        own = retrieved[lo:lo + n]
        # decoding and scoring both walk the slice's chunks
        chunks = list(reader.memory_chunks([
            (q, [corpus.by_id[i].tokens], None) for q, found in zip(questions[lo:lo + n], own)
            for i in found.doc_ids
        ]))
        decoded = iter(reader.decode_chunks(chunks, max_len))
        per_question = [
            list(dict.fromkeys(tuple(next(decoded)) for _ in found.doc_ids)) for found in own
        ]
        scored = iter(reader.score_chunks(chunks, [
            [with_eos(list(c)) for c in candidates]
            for candidates, found in zip(per_question, own) for _ in found.doc_ids
        ]))
        for candidates, found in zip(per_question, own):
            log_liks = np.stack([next(scored) for _ in found.doc_ids]).T  # (candidates, documents)
            marginals = []
            for row in log_liks:
                total = 0.0
                for ll, prob in zip(row.tolist(), found.probs):
                    total += math.exp(ll) * prob
                marginals.append(total)
            best = max(range(len(candidates)), key=lambda i: (marginals[i], -i))
            strings = tuple(corpus.vocab.decode(c) for c in candidates)
            results.append(InferenceResult(strings[best], strings, tuple(marginals), found,
                                           all_empty=all(not c for c in candidates)))
    return results


def _read_jointly(
    questions: Sequence[Sequence[int]], retrieved: Sequence[RetrievalResult], reader: Reader,
    corpus: Corpus, max_len: int | None,
) -> list[InferenceResult]:
    """One greedy decode per question fused over its k retrieved contexts, all
    questions' fused memories read in one pass of `Reader.memory_chunks`,
    one chunk of equal-length memories at a time."""
    answers = reader.decode_chunks(reader.memory_chunks([
        (question, [corpus.by_id[doc_id].tokens for doc_id in found.doc_ids], list(found.probs))
        for question, found in zip(questions, retrieved)
    ]), max_len)
    results = []
    for tokens, found in zip(answers, retrieved):
        answer = corpus.vocab.decode(tokens)
        results.append(InferenceResult(answer, (answer,), (), found, all_empty=not tokens))
    return results


# How the reader takes in the retrieved documents: mode -> (training losses of
# a batch, reader pass over a list of questions at inference).
MODES = {
    "individual": (individual_losses, _read_individually),
    "joint": (joint_losses, _read_jointly),
}


def retrieve(
    questions: Sequence[Sequence[int]], retriever: DualEncoder, snapshot: IndexSnapshot,
    k: int, tau: float,
) -> list[RetrievalResult]:
    """Each question's top-k documents in `snapshot`. The questions are
    encoded in one call; each row equals encoding its question alone."""
    return [top_k(snapshot, q_vec, k=k, tau=tau) for q_vec in retriever.embed_questions(questions)]


@ad.no_grad()
def read_retrieved(
    questions: Sequence[Sequence[int]], retrieved: Sequence[RetrievalResult], reader: Reader,
    corpus: Corpus, mode: str, max_len: int | None = None,
) -> list[InferenceResult]:
    """The reader pass of `mode` over each question's retrieved documents.
    Records no graph."""
    _, read_pass = MODES[mode]
    return read_pass(questions, retrieved, reader, corpus, max_len)


def answer_questions(
    questions: Sequence[Sequence[int]], retriever: DualEncoder, reader: Reader,
    snapshot: IndexSnapshot, corpus: Corpus, mode: str, k: int, tau: float,
    max_len: int | None = None,
) -> list[InferenceResult]:
    """Answer each question from its top-k documents in `snapshot` with the
    reader pass of `mode`: `retrieve`, then `read_retrieved`. Records no
    graph."""
    found = retrieve(questions, retriever, snapshot, k, tau)
    return read_retrieved(questions, found, reader, corpus, mode, max_len)


def individual_topk_infer(
    question_tokens: Sequence[int], retriever: DualEncoder, reader: Reader,
    snapshot: IndexSnapshot, corpus: Corpus, k: int, tau: float, max_len: int | None = None,
) -> InferenceResult:
    """`answer_questions` for one question in individual mode."""
    return answer_questions(
        [question_tokens], retriever, reader, snapshot, corpus, "individual", k, tau, max_len
    )[0]


def joint_topk_infer(
    question_tokens: Sequence[int], retriever: DualEncoder, reader: Reader,
    snapshot: IndexSnapshot, corpus: Corpus, k: int, tau: float, max_len: int | None = None,
) -> InferenceResult:
    """`answer_questions` for one question in joint mode."""
    return answer_questions(
        [question_tokens], retriever, reader, snapshot, corpus, "joint", k, tau, max_len
    )[0]


# Training --------------------------------------------------------------------


def topk_batch_loss(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    snapshot: IndexSnapshot,
    k: int,
    tau: float,
    loss_fn,
    corpus: Corpus,
    retriever: DualEncoder,
    reader: Reader,
) -> ad.Tensor:
    """Mean of the `loss_fn` losses (a `MODES` training loss) of (question
    tokens, answer tokens) pairs, each against its top-k documents in the
    (possibly stale) snapshot.

    The questions are encoded once, with a graph, and searched by their own
    rows (`_step_losses`), so gradients reach every enabled parameter. A
    context tower with no trainable parameter is read from its store of
    document rows, as constants; a trainable one re-encodes each (question,
    document) pair's document with a graph (`_live_log_probs`).
    """
    losses = _step_losses(
        loss_fn, [question for question, _ in pairs], [answer for _, answer in pairs],
        lambda q_vec: top_k(snapshot, q_vec, k=k, tau=tau), corpus, retriever, reader, tau,
    )
    return ad.reduce_mean(ad.stack_scalars(losses))


def train_e2e(
    dataset: Sequence[QAExample],
    corpus: Corpus,
    retriever: DualEncoder,
    reader: Reader,
    index: EvidenceIndex,
    config: E2EConfig,
    dev: Sequence[QAExample] | None = None,
) -> list[dict]:
    """Joint optimization of reader and retriever against a periodically
    refreshed evidence index. Returns per-epoch metrics records."""
    if not dataset:
        raise DomainError("empty training dataset")
    encoded = [
        (corpus.vocab.encode(ex.question), [corpus.vocab.encode(a) for a in ex.answers])
        for ex in dataset
    ]
    rng = np.random.default_rng(config.seed)
    tau = tau_value(config.tau_multiple, retriever.config.hidden_size)
    loss_fn, _ = MODES[config.mode]
    optimizer = make_optimizer(retriever, config, extra=[ParamGroup(reader.parameters())])
    n = len(dataset)
    batches_per_epoch = max(1, math.ceil(n / config.batch_size))
    total_steps = config.epochs * batches_per_epoch
    k = min(config.top_k, index.snapshot.size)
    metrics: list[dict] = []
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for b in range(batches_per_epoch):
            step += 1
            # refresh first so a boundary step retrieves from the newest snapshot
            snapshot = index.refresh(retriever, step, config.refresh_every)
            pairs = []
            for row in order[b * config.batch_size:(b + 1) * config.batch_size]:
                question, answers = encoded[int(row)]
                pairs.append((question, answers[int(rng.integers(len(answers)))]))
            loss = topk_batch_loss(pairs, snapshot, k, tau, loss_fn, corpus, retriever, reader)
            epoch_losses.append(descend(optimizer, loss, step, total_steps, config.warmup_ratio))
        record: dict = {
            "epoch": epoch,
            "step": step,
            "loss": float(np.mean(epoch_losses)),
            "lr": config.learning_rate * linear_schedule(step, total_steps, config.warmup_ratio),
            "k": k,
        }
        if dev is not None or config.target_train_em is not None:
            record["em"] = evaluate_em(
                dev if dev is not None else dataset, corpus, retriever, reader,
                index.snapshot, config.mode, k, tau, config.max_answer_len,
            )
        metrics.append(record)
        if (
            config.target_train_em is not None
            and record.get("em", 0.0) >= config.target_train_em
        ):
            break
    return metrics


def exact_match_rate(
    results: Sequence[InferenceResult], examples: Sequence[QAExample]
) -> float:
    """Fraction of results whose answer exactly matches a gold answer."""
    hits = sum(exact_match(r.answer, ex.answers) for r, ex in zip(results, examples))
    return hits / len(examples)


def evaluate_em(
    examples: Sequence[QAExample], corpus: Corpus, retriever: DualEncoder, reader: Reader,
    snapshot: IndexSnapshot, mode: str, k: int, tau: float, max_len: int | None,
) -> float:
    """Exact-match fraction of the answers `answer_questions` gives, with k
    capped at the snapshot size."""
    if not examples:
        raise DomainError("cannot evaluate zero examples")
    results = answer_questions(
        [corpus.vocab.encode(example.question) for example in examples],
        retriever, reader, snapshot, corpus, mode, min(k, snapshot.size), tau, max_len,
    )
    return exact_match_rate(results, examples)


def evaluate_retrieval(
    examples: Sequence[QAExample],
    corpus: Corpus,
    retriever: DualEncoder,
    snapshot,
    ks: Sequence[int],
    tau: float,
) -> dict[int, float]:
    """Top-k answer-containment accuracy for the current retriever."""
    questions = [corpus.vocab.encode(ex.question) for ex in examples]
    return topk_accuracy(retrieve(questions, retriever, snapshot, max(ks), tau), examples, corpus, ks)
