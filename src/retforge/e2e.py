"""End-to-end reader+retriever training and inference.

Two objectives over the k retrieved documents:
  individual: marginal likelihood, -log sum_i p(a|q,z_i) p(z_i|q,K),
  joint: one fused decode over all k contexts with retrieval-prob bias.

Retrieval probabilities in both losses come from re-encoding the k retrieved
documents with the live encoders (the snapshot only selects which documents
participate), so gradients reach the query tower and, switch permitting, the
context tower. Snapshot embeddings stay constants.
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
from .optim import ParamGroup, descend, linear_schedule, make_optimizer
from .reader import Reader, with_eos

MODES = ("individual", "joint")


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
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.tau_multiple <= 0:
            raise ConfigError(f"tau_multiple must be positive, got {self.tau_multiple}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.refresh_every < 1:
            raise ConfigError(f"refresh_every must be >= 1, got {self.refresh_every}")
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
    question_tokens: Sequence[int],
    doc_ids: Sequence[int],
    corpus: Corpus,
    retriever: DualEncoder,
    tau: float,
) -> ad.Tensor:
    """Top-k-normalized log p(z_i|q,K) from freshly encoded representations."""
    q_vec = retriever.question_encoder.encode_batch([question_input(question_tokens)])
    z_rows = [
        retriever.context_encoder.encode_batch([document_input(corpus.by_id[i], corpus.vocab)])
        for i in doc_ids
    ]
    z = ad.concat(z_rows, axis=0) if len(z_rows) > 1 else z_rows[0]
    scores = ad.reshape(ad.matmul(q_vec, ad.transpose(z, (1, 0))), (len(z_rows),))
    scaled = ad.scale(scores, 1.0 / tau)
    return scaled - ad.logsumexp(scaled)


def individual_topk_loss(
    question_tokens: Sequence[int],
    answer_tokens: Sequence[int],
    retrieved: RetrievalResult,
    corpus: Corpus,
    retriever: DualEncoder,
    reader: Reader,
    tau: float,
) -> ad.Tensor:
    """Negative marginal log-likelihood over the retrieved set."""
    if len(retrieved.doc_ids) < 1:
        raise DomainError("retrieved set is empty")
    answer = with_eos(answer_tokens)
    log_liks = ad.stack_scalars([
        reader.answer_log_likelihood(
            question_tokens, corpus.by_id[doc_id].tokens, answer
        )
        for doc_id in retrieved.doc_ids
    ])
    log_probs = _live_log_probs(
        question_tokens, retrieved.doc_ids, corpus, retriever, tau
    )
    return ad.neg(marginal_log_likelihood(log_liks, log_probs))


def joint_topk_loss(
    question_tokens: Sequence[int],
    answer_tokens: Sequence[int],
    retrieved: RetrievalResult,
    corpus: Corpus,
    retriever: DualEncoder,
    reader: Reader,
    tau: float,
) -> ad.Tensor:
    """Negative fused log-likelihood; retrieval probs bias cross-attention."""
    if len(retrieved.doc_ids) < 1:
        raise DomainError("retrieved set is empty")
    answer = with_eos(answer_tokens)
    log_probs = _live_log_probs(
        question_tokens, retrieved.doc_ids, corpus, retriever, tau
    )
    probs = ad.exp(log_probs)
    contexts = [corpus.by_id[doc_id].tokens for doc_id in retrieved.doc_ids]
    return ad.neg(reader.joint_forward(question_tokens, contexts, probs, answer))


# Inference -----------------------------------------------------------------


@dataclass(frozen=True)
class InferenceResult:
    answer: str
    candidates: tuple[str, ...]
    marginals: tuple[float, ...]
    retrieved: RetrievalResult
    all_empty: bool = False


@ad.no_grad()
def individual_topk_infer(
    question_tokens: Sequence[int],
    retriever: DualEncoder,
    reader: Reader,
    snapshot,
    corpus: Corpus,
    k: int,
    tau: float,
    max_len: int | None = None,
) -> InferenceResult:
    """Greedy-decode one candidate per retrieved document, then pick the
    candidate with the highest marginal likelihood over the whole set.

    Each retrieved document is encoded once: greedy decoding runs every
    document in one decoder call per step, and scoring every (candidate,
    document) pair in one call per length group, with results equal bit for
    bit to decoding and scoring each pair on its own. Duplicate candidates
    are scored once; ties go to the candidate first produced by a
    higher-ranked document. Records no graph.
    """
    q_vec = retriever.encode_question(question_tokens).data
    retrieved = top_k(snapshot, q_vec, k=k, tau=tau)
    contexts = [corpus.by_id[doc_id].tokens for doc_id in retrieved.doc_ids]
    groups = reader.memory_groups(question_tokens, contexts)
    candidates: list[tuple[int, ...]] = []
    for tokens in map(tuple, reader.decode_groups(groups, max_len)):
        if tokens not in candidates:
            candidates.append(tokens)
    log_liks = reader.score_groups(groups, [with_eos(list(c)) for c in candidates])
    marginals = []
    for row in log_liks:
        total = 0.0
        for ll, prob in zip(row.tolist(), retrieved.probs):
            total += math.exp(ll) * prob
        marginals.append(total)
    best = max(range(len(candidates)), key=lambda i: (marginals[i], -i))
    strings = tuple(corpus.vocab.decode(c) for c in candidates)
    return InferenceResult(
        answer=strings[best],
        candidates=strings,
        marginals=tuple(marginals),
        retrieved=retrieved,
        all_empty=all(not c for c in candidates),
    )


@ad.no_grad()
def joint_topk_infer(
    question_tokens: Sequence[int],
    retriever: DualEncoder,
    reader: Reader,
    snapshot,
    corpus: Corpus,
    k: int,
    tau: float,
    max_len: int | None = None,
) -> InferenceResult:
    """One greedy decode fused over all k retrieved contexts; records no graph."""
    q_vec = retriever.encode_question(question_tokens).data
    retrieved = top_k(snapshot, q_vec, k=k, tau=tau)
    contexts = [corpus.by_id[doc_id].tokens for doc_id in retrieved.doc_ids]
    tokens = reader.joint_greedy_decode(
        question_tokens, contexts, list(retrieved.probs), max_len
    )
    answer = corpus.vocab.decode(tokens)
    return InferenceResult(
        answer=answer,
        candidates=(answer,),
        marginals=(),
        retrieved=retrieved,
        all_empty=not tokens,
    )


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
    """Mean `loss_fn` over (question tokens, answer tokens) pairs, each
    against its top-k documents in the (possibly stale) snapshot.

    The search reads graph-free question vectors; the loss re-encodes with the
    live towers, so gradients reach every enabled parameter.
    """
    q_vecs = retriever.embed_questions([question for question, _ in pairs])
    losses = [
        loss_fn(question, answer, top_k(snapshot, q_vec, k=k, tau=tau),
                corpus, retriever, reader, tau)
        for (question, answer), q_vec in zip(pairs, q_vecs)
    ]
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
    rng = np.random.default_rng(config.seed)
    tau = tau_value(config.tau_multiple, retriever.config.hidden_size)
    loss_fn = individual_topk_loss if config.mode == "individual" else joint_topk_loss
    optimizer = make_optimizer(
        retriever, config, extra=[ParamGroup(reader.parameters(), name="reader")]
    )
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
                example = dataset[int(row)]
                answer = example.answers[int(rng.integers(len(example.answers)))]
                pairs.append((corpus.vocab.encode(example.question), corpus.vocab.encode(answer)))
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
            eval_set = list(dev) if dev is not None else list(dataset)
            em = evaluate_em(eval_set, corpus, retriever, reader, index.snapshot, config)
            record["em"] = em
        metrics.append(record)
        if (
            config.target_train_em is not None
            and record.get("em", 0.0) >= config.target_train_em
        ):
            break
    return metrics


def evaluate_em(
    examples: Sequence[QAExample],
    corpus: Corpus,
    retriever: DualEncoder,
    reader: Reader,
    snapshot,
    config: E2EConfig,
) -> float:
    """Exact-match fraction under the configured inference mode."""
    if not examples:
        raise DomainError("cannot evaluate zero examples")
    infer = individual_topk_infer if config.mode == "individual" else joint_topk_infer
    tau = tau_value(config.tau_multiple, retriever.config.hidden_size)
    k = min(config.top_k, snapshot.size)
    hits = 0
    for example in examples:
        result = infer(
            corpus.vocab.encode(example.question),
            retriever,
            reader,
            snapshot,
            corpus,
            k=k,
            tau=tau,
            max_len=config.max_answer_len,
        )
        if exact_match(result.answer, example.answers):
            hits += 1
    return hits / len(examples)


def evaluate_retrieval(
    examples: Sequence[QAExample],
    corpus: Corpus,
    retriever: DualEncoder,
    snapshot,
    ks: Sequence[int],
    tau: float,
) -> dict[int, float]:
    """Top-k answer-containment accuracy for the current retriever."""
    q_vecs = retriever.embed_questions([corpus.vocab.encode(ex.question) for ex in examples])
    results = [top_k(snapshot, q_vec, k=max(ks), tau=tau) for q_vec in q_vecs]
    return topk_accuracy(results, examples, corpus, ks)
