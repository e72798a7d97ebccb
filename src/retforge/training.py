"""Retriever training: supervised finetuning with in-batch and hard
negatives, inverse-cloze pretraining, and masked-salient-span training
against a refreshing evidence index.

All loops are pure functions of (data, parameters, config.seed): rerunning
with the same inputs reproduces the same loss curve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .data import (
    Corpus,
    Document,
    QAExample,
    SpanAnnotation,
    check_document_ids,
    mask_salient_spans,
    sample_ict_pair,
)
from .e2e import evaluate_retrieval, individual_losses, tau_value, topk_batch_loss
from .encoder import DualEncoder, context_input, document_input, question_input
from .errors import ConfigError, DomainError
from .evaluation import DEFAULT_KS
from .index import EvidenceIndex, IndexSnapshot, build_snapshot, top_k
from .optim import ParamGroup, check_run_settings, descend, linear_schedule, make_optimizer
from .reader import Reader


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    learning_rate: float = 2e-5
    epochs: int = 80
    steps: int = 2000
    tau_multiple: float = 1.0
    hard_negatives_per_example: int = 1
    update_query_encoder: bool = True
    update_context_encoder: bool = True
    seed: int = 0
    refresh_every: int = 500
    weight_decay: float = 0.01
    warmup_ratio: float = 0.01
    keep_prob: float = 0.1
    top_k: int = 4
    eval_ks: tuple[int, ...] = DEFAULT_KS
    target_train_top1: float | None = None

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError(
                f"batch_size must be >= 2 for in-batch negatives, got {self.batch_size}"
            )
        check_run_settings(self)
        if self.epochs < 1 or self.steps < 1:
            raise ConfigError("epochs and steps must be >= 1")
        if self.hard_negatives_per_example < 0:
            raise ConfigError("hard_negatives_per_example must be >= 0")
        if not (0.0 <= self.keep_prob <= 1.0):
            raise ConfigError(f"keep_prob must lie in [0, 1], got {self.keep_prob}")
        if not self.eval_ks or min(self.eval_ks) < 1:
            raise ConfigError(f"eval_ks must name cutoffs >= 1, got {self.eval_ks}")
        target = self.target_train_top1
        if target is not None and not 0 <= target <= 1:  # NaN fails too
            raise ConfigError(f"target_train_top1 must lie in [0, 1], got {target}")


def in_batch_loss(
    dual: DualEncoder, questions: Sequence[Sequence[int]], contexts: Sequence[Sequence[int]],
    tau: float,
) -> ad.Tensor:
    """The one in-batch softmax (inverse cloze, supervised finetuning): mean
    over questions of -log softmax(q . z / tau)[own column]. `contexts[i]` is
    question i's own context, any further entries extra negatives; equal
    contexts share one column, in order of first appearance."""
    column_of: dict[tuple[int, ...], int] = {}
    for seq in contexts:
        column_of.setdefault(tuple(seq), len(column_of))
    targets = np.array([column_of[tuple(seq)] for seq in contexts[: len(questions)]])
    q = dual.question_encoder.encode_batch(questions)
    z = dual.context_encoder.encode_batch(list(column_of))
    return ad.cross_entropy_rows(ad.matmul(q, ad.transpose(z, (1, 0))), targets, tau=tau)


def batch_loss_supervised(
    dual: DualEncoder,
    batch: Sequence[tuple[Sequence[int], Document, Sequence[Document]]],
    corpus: Corpus,
    tau: float,
) -> ad.Tensor:
    """`in_batch_loss` over the positives, then the hard negatives; a warning
    counts the contexts that share a column (equal title and text)."""
    if len(batch) < 2:
        raise ConfigError(f"supervised batch needs >= 2 examples, got {len(batch)}")
    docs = [positive for _, positive, _ in batch]
    docs += [doc for _, _, negatives in batch for doc in negatives]
    contexts = [document_input(doc, corpus) for doc in docs]
    duplicates = len(contexts) - len(set(map(tuple, contexts)))
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate context(s) in batch de-duplicated to avoid "
            "treating a question's own positive as a negative",
            stacklevel=2,
        )
    return in_batch_loss(dual, [question_input(q) for q, _, _ in batch], contexts, tau)


def _positive_rank_accuracy(
    dataset: Sequence[QAExample],
    questions: Sequence[Sequence[int]],
    dual: DualEncoder,
    snapshot: IndexSnapshot,
    tau: float,
) -> float:
    """Fraction of examples whose own positive document ranks first in
    `snapshot`; `questions` holds each example's encoded question."""
    q_vecs = dual.embed_questions(questions)
    hits = 0
    for example, q_vec in zip(dataset, q_vecs):
        result = top_k(snapshot, q_vec, k=1, tau=tau)
        hits += int(result.doc_ids[0] == example.positive_ctx)
    return hits / len(dataset)


def train_supervised(
    dataset: Sequence[QAExample],
    corpus: Corpus,
    dual: DualEncoder,
    config: TrainConfig,
    dev: Sequence[QAExample] | None = None,
) -> list[dict]:
    """Finetune on mined (question, positive, hard negatives) examples.

    Returns one metrics record per epoch; dev retrieval accuracy is appended
    when a dev set is supplied.
    """
    usable = [ex for ex in dataset if ex.positive_ctx is not None and not ex.filtered]
    if not usable:
        raise DomainError("no usable examples: every example is unmined or filtered")
    check_document_ids(usable, corpus)
    questions = [corpus.vocab.encode(ex.question) for ex in usable]
    rng = np.random.default_rng(config.seed)
    tau = tau_value(config.tau_multiple, dual.config.hidden_size)
    optimizer = make_optimizer(dual, config)
    n = len(usable)
    batches_per_epoch = math.ceil(n / config.batch_size)
    # the schedule counts only the batches that train: a size-1 tail is skipped
    trained_per_epoch = n // config.batch_size + (n % config.batch_size > 1)
    total_steps = config.epochs * max(1, trained_per_epoch)
    metrics: list[dict] = []
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for b in range(batches_per_epoch):
            rows = order[b * config.batch_size:(b + 1) * config.batch_size]
            if len(rows) < 2:
                continue  # a size-1 tail batch has no in-batch negatives
            step += 1
            batch = []
            for row in rows:
                example = usable[int(row)]
                negatives = [
                    corpus.by_id[i]
                    for i in example.hard_negatives[: config.hard_negatives_per_example]
                ]
                batch.append((questions[int(row)], corpus.by_id[example.positive_ctx], negatives))
            loss = batch_loss_supervised(dual, batch, corpus, tau)
            epoch_losses.append(descend(optimizer, loss, step, total_steps, config.warmup_ratio))
        record: dict = {
            "step": step,
            "epoch": epoch,
            "loss": float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            "lr": config.learning_rate * linear_schedule(max(step, 1), total_steps, config.warmup_ratio),
        }
        if dev is not None or config.target_train_top1 is not None:
            snapshot = build_snapshot(dual, corpus)
        if dev is not None:
            ks = [k for k in config.eval_ks if k <= snapshot.size]
            for k, v in evaluate_retrieval(dev, corpus, dual, snapshot, ks, tau).items():
                record[f"top{k}"] = v
        metrics.append(record)
        if config.target_train_top1 is not None:
            train_top1 = _positive_rank_accuracy(usable, questions, dual, snapshot, tau)
            record["train_top1"] = train_top1
            if train_top1 >= config.target_train_top1:
                break
    return metrics


def train_ict(
    corpus: Corpus,
    dual: DualEncoder,
    config: TrainConfig,
) -> list[dict]:
    """Inverse cloze pretraining: query sentence against in-batch contexts.

    Pseudo-contexts keep their source document's title so the format matches
    real indexed contexts. The pairs are slices of the documents' tokens, and
    the titles' tokens are the corpus's (`Corpus.title_tokens`). Each step is
    one `in_batch_loss`, where a repeated pseudo-context shares one column.
    """
    eligible = [doc for doc in corpus if len(doc.sentence_ranges) >= 2]
    if not eligible:
        raise DomainError("no paragraphs with >= 2 sentences for inverse cloze training")
    rng = np.random.default_rng(config.seed)
    tau = tau_value(config.tau_multiple, dual.config.hidden_size)
    optimizer = make_optimizer(dual, config)
    metrics: list[dict] = []
    for step in range(1, config.steps + 1):
        picks = rng.integers(len(eligible), size=config.batch_size)
        questions, contexts = [], []
        for pick in map(int, picks):
            query, context = sample_ict_pair(eligible[pick], rng, keep_prob=config.keep_prob)
            questions.append(question_input(query))
            contexts.append(context_input(corpus.title_tokens[eligible[pick].id], context))
        loss = in_batch_loss(dual, questions, contexts, tau)
        metrics.append({
            "step": step,
            "loss": descend(optimizer, loss, step, config.steps, config.warmup_ratio),
            "lr": config.learning_rate * linear_schedule(step, config.steps, config.warmup_ratio),
        })
    return metrics


def train_salient_spans(
    corpus: Corpus,
    annotations: dict[int, SpanAnnotation],
    retriever: DualEncoder,
    reader: Reader,
    index: EvidenceIndex,
    config: TrainConfig,
) -> list[dict]:
    """Masked-salient-span training: a masked sentence retrieves top-k
    evidence and the marginal likelihood of the masked span is maximized.

    The index refreshes on the configured schedule; between refreshes,
    retrieval runs against the stale snapshot by design.
    """
    annotated = [
        (corpus.by_id[doc_id], ann)
        for doc_id, ann in sorted(annotations.items())
        if ann.spans and doc_id in corpus.by_id
    ]
    if not annotated:
        raise DomainError("no annotated spans to train on")
    rng = np.random.default_rng(config.seed)
    tau = tau_value(config.tau_multiple, retriever.config.hidden_size)
    optimizer = make_optimizer(retriever, config, extra=[ParamGroup(reader.parameters())])
    k = min(config.top_k, index.snapshot.size)
    metrics: list[dict] = []
    for step in range(1, config.steps + 1):
        snapshot = index.refresh(retriever, step, config.refresh_every)
        pairs = [
            mask_salient_spans(*annotated[int(pick)], rng)
            for pick in rng.integers(len(annotated), size=config.batch_size)
        ]
        loss = topk_batch_loss(pairs, snapshot, k, tau, individual_losses, corpus, retriever, reader)
        metrics.append({
            "step": step,
            "loss": descend(optimizer, loss, step, config.steps, config.warmup_ratio),
            "lr": config.learning_rate * linear_schedule(step, config.steps, config.warmup_ratio),
            "index_version": snapshot.version,
        })
    return metrics
