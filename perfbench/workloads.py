"""The benchmark's workloads, each a closed loop with one client.

A workload has a set-up (data generation, model construction and, for
`answer`, the snapshot build) and a pass: the measured work. The library is
driven in process, in the order `retforge.cli.run_training` and
`retforge.cli.cmd_answer` use, and it only ever sees the generated inputs.
Checks run after a pass, outside its timed and traced region.

All calls into `retforge` go through module attributes (`index.top_k`, not a
local name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from retforge import cli, data, e2e, encoder, evaluation, index, reader, toy, training

ENCODER = {"layers": 1, "hidden_size": 32, "heads": 4, "max_seq_len": 64}
TAU = e2e.tau_value(1.0, ENCODER["hidden_size"])
clock = time.perf_counter


@dataclass
class Pass:
    """What one pass did, measured, and what it produced."""

    steps: int = 0
    examples: int = 0  # training examples, or questions on `answer`
    # clock() at the start and end of the recipe: mining, training, in-loop
    # eval, artifact writes
    train: tuple[float, float] = (0.0, 0.0)
    asked: list[tuple[float, float]] = field(default_factory=list)  # clock() around each question
    records: list[dict] = field(default_factory=list)
    snapshot: index.IndexSnapshot | None = None  # the final index of the pass
    questions: list[list[int]] = field(default_factory=list)
    golds: list[tuple[str, ...]] = field(default_factory=list)
    results: list = field(default_factory=list)  # RetrievalResult or InferenceResult
    q_vecs: list[np.ndarray] = field(default_factory=list)

    def counts(self) -> Pass:
        """The pass without its outputs: what the timings and call counts read."""
        return Pass(steps=self.steps, examples=self.examples, train=self.train,
                    asked=self.asked)

    @property
    def measured_s(self) -> float:
        return self.train[1] - self.train[0] + sum(end - start for start, end in self.asked)

    @property
    def operations(self) -> int:
        return self.steps + len(self.asked)

    def retrieved(self, i: int) -> index.RetrievalResult:
        result = self.results[i]
        return getattr(result, "retrieved", result)


def span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _qa(rows, keep_positive: bool = True) -> list[data.QAExample]:
    return [
        data.QAExample(
            question=r["question"],
            answers=tuple(r["answers"]),
            positive_ctx=r["positive_ctx"] if keep_positive else None,
        )
        for r in rows
    ]


# e2e-train and answer run on a fixed deployment: corpus and initial weights
# from DEPLOYMENT_SEED, with the workload seed drawing the questions. Untrained
# towers send almost every question to the same few hub documents, so decode
# lengths and candidate counts, which set the cost, belong to the corpus and
# weights; re-drawing those per seed moved questions/s by 25-100% between
# seeds, more than any bound can absorb.
DEPLOYMENT_SEED = 0


def _fixed_corpus(n_docs: int):
    """The deployment corpus and every question it answers."""
    spec = toy.ToySpec(
        n_docs=n_docs, n_train=0, n_dev=n_docs * len(toy.ATTRIBUTES), seed=DEPLOYMENT_SEED
    )
    generated = toy.generate_toy(spec)
    return data.Corpus.build(generated.corpus), generated.dev


def _draw(questions, seed: int, n: int | None = None) -> list[data.QAExample]:
    order = np.random.default_rng(seed).permutation(len(questions))[:n]
    return _qa([questions[int(i)] for i in order])


def _dual(corpus, seed: int) -> encoder.DualEncoder:
    config = encoder.EncoderConfig(vocab_size=len(corpus.vocab), **ENCODER)
    return encoder.DualEncoder(config, seed=seed)


def _reader(corpus, seed: int, max_answer_len: int) -> reader.Reader:
    config = reader.ReaderConfig(
        vocab_size=len(corpus.vocab),
        enc_layers=1,
        dec_layers=1,
        hidden_size=ENCODER["hidden_size"],
        heads=ENCODER["heads"],
        max_seq_len=ENCODER["max_seq_len"],
        max_answer_len=max_answer_len,
    )
    return reader.Reader(config, seed=seed)


def _write_metrics(path: Path, records) -> None:
    """metrics.jsonl as `retforge train` writes it."""
    path.write_text(
        "".join(json.dumps(cli._json_safe(r), sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


def _param_bytes(params) -> dict[str, bytes]:
    return {p.name: p.data.tobytes() for p in params}


# Checks ----------------------------------------------------------------------


def brute_force_mismatch(snapshot, q_vec, result, tau: float) -> str | None:
    """Compare one top_k result with an independent sort; None when equal.

    The reference orders by descending float64 score with ties broken by
    ascending id, using two stable argsorts instead of top_k's lexsort.
    """
    scores = snapshot.embeddings.astype(np.float64) @ np.asarray(q_vec, dtype=np.float64)
    by_id = np.argsort(snapshot.doc_ids, kind="stable")
    order = by_id[np.argsort(-scores[by_id], kind="stable")][: len(result.doc_ids)]
    if tuple(int(i) for i in snapshot.doc_ids[order]) != tuple(result.doc_ids):
        return "top_k ids differ from brute force"
    if not np.allclose(scores[order], result.scores, rtol=1e-12, atol=1e-12):
        return "top_k scores differ from brute force"
    probs = np.asarray(result.probs)
    if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
        return f"retrieval probabilities sum to {probs.sum()!r}"
    z = (scores[order] - scores[order].max()) / tau
    expected = np.exp(z) / np.exp(z).sum()
    if not np.allclose(probs, expected, rtol=1e-9, atol=1e-12):
        return "retrieval probabilities differ from softmax(scores / tau)"
    return None


def question_failures(p: Pass, snapshot, tau: float) -> list[str]:
    return [
        f"question {i}: {msg}"
        for i, q_vec in enumerate(p.q_vecs)
        if (msg := brute_force_mismatch(snapshot, q_vec, p.retrieved(i), tau)) is not None
    ]


def artifact_failures(work: Path, snapshot, models: dict) -> list[str]:
    """Saved index and checkpoints must reload equal to the in-memory objects."""
    failures = []
    loaded = index.load_index(work / "index.ridx")
    if not (
        loaded.version == snapshot.version
        and np.array_equal(loaded.doc_ids, snapshot.doc_ids)
        and loaded.embeddings.tobytes() == snapshot.embeddings.tobytes()
    ):
        failures.append("index.ridx does not reload equal to the snapshot")
    for filename, (cls, model) in models.items():
        if _param_bytes(cls.load(work / filename).parameters()) != _param_bytes(model.parameters()):
            failures.append(f"{filename} does not reload equal to the model")
    return failures


def loss_failures(records) -> list[str]:
    # an epoch mean is finite only if every step loss in it is
    return [f"epoch {r['epoch']}: loss {r['loss']!r}" for r in records if not math.isfinite(r["loss"])]


def digest(p: Pass) -> str:
    """sha256 of the metrics records, the final embeddings and the answers
    or retrieval results with their ids."""
    h = hashlib.sha256()
    h.update(json.dumps([cli._json_safe(r) for r in p.records], sort_keys=True).encode())
    if p.snapshot is not None:
        h.update(p.snapshot.doc_ids.tobytes())
        h.update(p.snapshot.embeddings.tobytes())
    outputs = []
    for i, result in enumerate(p.results):
        retrieved = p.retrieved(i)
        outputs.append({
            "doc_ids": list(retrieved.doc_ids),
            "scores": [repr(s) for s in retrieved.scores],
            "answer": getattr(result, "answer", None),
            "candidates": list(getattr(result, "candidates", ())),
        })
    h.update(json.dumps(outputs, sort_keys=True).encode())
    return h.hexdigest()


def top1(p: Pass, corpus) -> float:
    examples = [data.QAExample(question="", answers=g) for g in p.golds]
    results = [p.retrieved(i) for i in range(len(p.results))]
    return evaluation.topk_accuracy(results, examples, corpus, (1,))[1]


# Workloads -------------------------------------------------------------------


@dataclass
class State:
    work: Path
    corpus: data.Corpus
    dual: encoder.DualEncoder
    reader: reader.Reader | None = None
    snapshot: index.IndexSnapshot | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """A pass after its checks."""

    failures: list[str]  # messages; each failed check fails `failed_ops` operations
    failed_ops: int
    final_loss: float
    dev_top1: float
    em: float | None
    digest: str


class RetrieverFinetune:
    """`retforge train supervised`, then `retforge retrieve` over a stream of
    held-out questions. Everything, the corpus included, comes from the seed."""

    name = "retriever-finetune"
    fresh_state_per_pass = True  # training changes the towers
    config_kwargs = {"batch_size": 16, "epochs": 2, "eval_ks": (1, 5, 20)}
    n_dev = 128
    n_queries = 2000  # ~1 ms each: seconds per pass, so one slow second sets no percentile

    def setup(self, seed: int, work: Path) -> State:
        spec = toy.ToySpec(n_docs=2000, n_train=256, n_dev=self.n_dev + self.n_queries, seed=seed)
        generated = toy.generate_toy(spec)
        corpus = data.Corpus.build(generated.corpus)
        state = State(work, corpus, _dual(corpus, seed))
        # the gold positive is removed so every run mines, as on real QA data
        state.extra["train"] = _qa(generated.train, keep_positive=False)
        state.extra["dev"] = _qa(generated.dev[: self.n_dev])
        state.extra["queries"] = _qa(generated.dev[self.n_dev:])
        state.extra["config"] = training.TrainConfig(seed=seed, **self.config_kwargs)
        return state

    def run_pass(self, state: State, number: int, tracer=None) -> Pass:
        config = state.extra["config"]
        corpus, dual, work = state.corpus, state.dual, state.work
        start = clock()
        stats = data.build_corpus_stats(corpus)
        mined = [
            data.mine_distant_supervision(
                ex, corpus, stats, n_hard_negatives=config.hard_negatives_per_example
            )
            for ex in state.extra["train"]
        ]
        records = training.train_supervised(mined, corpus, dual, config, dev=state.extra["dev"])
        dual.save(work / "retriever.ckpt")
        snapshot = index.build_snapshot(dual, corpus)
        index.save_index(snapshot, work / "index.ridx")
        _write_metrics(work / "metrics.jsonl", records)
        p = Pass(train=(start, clock()), records=records, snapshot=snapshot)
        usable = sum(1 for ex in mined if ex.positive_ctx is not None and not ex.filtered)
        full, tail = divmod(usable, config.batch_size)
        p.steps = config.epochs * (full + (tail >= 2))
        p.examples = config.epochs * (full * config.batch_size + (tail if tail >= 2 else 0))

        depth = max(config.eval_ks)
        for ex in state.extra["queries"]:
            tokens = corpus.vocab.encode(ex.question)
            began = clock()
            with span(tracer, "bench.retrieve_infer"):
                q_vec = dual.encode_question(tokens).data
                result = index.top_k(snapshot, q_vec, k=depth, tau=TAU)
            p.asked.append((began, clock()))
            p.results.append(result)
            p.q_vecs.append(q_vec)
        return p

    def check(self, state: State, p: Pass) -> Outcome:
        failures = loss_failures(p.records)
        failures += artifact_failures(
            state.work, p.snapshot, {"retriever.ckpt": (encoder.DualEncoder, state.dual)}
        )
        if p.records[-1]["step"] != p.steps:
            failures.append(f"{p.records[-1]['step']} steps recorded, {p.steps} expected")
        failed_ops = p.steps if failures else 0
        per_question = question_failures(p, p.snapshot, TAU)
        return Outcome(
            failures + per_question,
            failed_ops + len(per_question),
            final_loss=p.records[-1]["loss"],
            dev_top1=p.records[-1]["top1"],
            em=None,
            digest=digest(p),
        )

    def expected_calls(self, state: State, p: Pass) -> dict[str, int]:
        return {
            "optim.step_calls": p.steps,
            "index.build_calls": state.extra["config"].epochs + 1,
        }


class E2ETrain:
    """`retforge train e2e-joint`, then `retforge answer --mode joint` over a
    stream of held-out questions.

    The corpus and initial weights are the fixed deployment; the seed draws
    the train, dev and held-out questions and the training order.
    """

    name = "e2e-train"
    fresh_state_per_pass = True
    max_answer_len = 8
    n_train, n_dev = 128, 64
    n_queries = 256  # ~20 ms each: seconds per pass, so one slow second sets no percentile

    def setup(self, seed: int, work: Path) -> State:
        corpus, pool = _fixed_corpus(256)
        questions = _draw(pool, seed, self.n_train + self.n_dev + self.n_queries)
        state = State(work, corpus, _dual(corpus, DEPLOYMENT_SEED))
        state.reader = _reader(corpus, DEPLOYMENT_SEED + 1, self.max_answer_len)
        state.extra["index"] = index.EvidenceIndex(corpus)
        state.extra["index"].build(state.dual)
        state.extra["train"] = questions[: self.n_train]
        state.extra["dev"] = questions[self.n_train:self.n_train + self.n_dev]
        state.extra["queries"] = questions[self.n_train + self.n_dev:]
        state.extra["config"] = e2e.E2EConfig(
            mode="joint", top_k=4, batch_size=8, epochs=1, seed=seed,
            max_answer_len=self.max_answer_len,
        )
        state.extra["context_tower"] = _param_bytes(state.dual.context_encoder.parameters())
        return state

    def run_pass(self, state: State, number: int, tracer=None) -> Pass:
        config = state.extra["config"]
        corpus, dual, work = state.corpus, state.dual, state.work
        start = clock()
        records = e2e.train_e2e(
            state.extra["train"], corpus, dual, state.reader, state.extra["index"], config,
            dev=state.extra["dev"],
        )
        dual.save(work / "retriever.ckpt")
        state.reader.save(work / "reader.ckpt")
        snapshot = index.build_snapshot(dual, corpus)
        index.save_index(snapshot, work / "index.ridx")
        _write_metrics(work / "metrics.jsonl", records)
        p = Pass(train=(start, clock()), records=records, snapshot=snapshot)
        n = len(state.extra["train"])
        p.steps = config.epochs * math.ceil(n / config.batch_size)
        p.examples = config.epochs * n

        for ex in state.extra["queries"]:
            tokens = corpus.vocab.encode(ex.question)
            began = clock()
            result = e2e.joint_topk_infer(
                tokens, dual, state.reader, snapshot, corpus,
                k=config.top_k, tau=TAU, max_len=config.max_answer_len,
            )
            p.asked.append((began, clock()))
            p.questions.append(tokens)
            p.golds.append(ex.answers)
            p.results.append(result)
        return p

    def check(self, state: State, p: Pass) -> Outcome:
        failures = loss_failures(p.records)
        failures += artifact_failures(state.work, p.snapshot, {
            "retriever.ckpt": (encoder.DualEncoder, state.dual),
            "reader.ckpt": (reader.Reader, state.reader),
        })
        if _param_bytes(state.dual.context_encoder.parameters()) != state.extra["context_tower"]:
            failures.append("the frozen context tower changed during joint training")
        if p.records[-1]["step"] != p.steps:
            failures.append(f"{p.records[-1]['step']} steps recorded, {p.steps} expected")
        failed_ops = p.steps if failures else 0
        p.q_vecs = [state.dual.encode_question(q).data for q in p.questions]
        per_question = question_failures(p, p.snapshot, TAU)
        return Outcome(
            failures + per_question,
            failed_ops + len(per_question),
            final_loss=p.records[-1]["loss"],
            dev_top1=top1(p, state.corpus),
            em=_em(p),
            digest=digest(p),
        )

    def expected_calls(self, state: State, p: Pass) -> dict[str, int]:
        # the refresh period exceeds the run, so only the final artifact is built
        return {"optim.step_calls": p.steps, "index.build_calls": 1}


class Answer:
    """`retforge answer --mode individual` over a stream of questions drawn
    by the seed from the fixed 2000-document deployment."""

    name = "answer"
    fresh_state_per_pass = False
    questions_per_pass = 100
    k = 4
    max_len = 2  # the longest toy answer is two tokens

    def setup(self, seed: int, work: Path) -> State:
        corpus, pool = _fixed_corpus(2000)
        state = State(work, corpus, _dual(corpus, DEPLOYMENT_SEED))
        state.reader = _reader(corpus, DEPLOYMENT_SEED + 1, max_answer_len=8)
        state.snapshot = index.build_snapshot(state.dual, corpus)
        state.extra["stream"] = _draw(pool, seed)
        return state

    def run_pass(self, state: State, number: int, tracer=None) -> Pass:
        corpus, stream = state.corpus, state.extra["stream"]
        lo = number * self.questions_per_pass
        p = Pass()
        for j in range(lo, lo + self.questions_per_pass):
            ex = stream[j % len(stream)]  # a long run goes round the stream again
            tokens = corpus.vocab.encode(ex.question)
            began = clock()
            result = e2e.individual_topk_infer(
                tokens, state.dual, state.reader, state.snapshot, corpus,
                k=self.k, tau=TAU, max_len=self.max_len,
            )
            p.asked.append((began, clock()))
            p.questions.append(tokens)
            p.golds.append(ex.answers)
            p.results.append(result)
        p.examples = len(p.asked)
        return p

    def check(self, state: State, p: Pass) -> Outcome:
        p.q_vecs = [state.dual.encode_question(q).data for q in p.questions]
        per_question = question_failures(p, state.snapshot, TAU)
        chosen = [max(r.marginals) for r in p.results]
        return Outcome(
            per_question,
            len(per_question),
            # the loss of an answer pass: mean -log marginal of the chosen answers
            final_loss=float(np.mean([-math.log(m) for m in chosen])),
            dev_top1=top1(p, state.corpus),
            em=_em(p),
            digest=digest(p),
        )

    def expected_calls(self, state: State, p: Pass) -> dict[str, int]:
        return {"index.top_k_calls": len(p.asked), "optim.step_calls": 0,
                "index.build_calls": 0}


def _em(p: Pass) -> float:
    hits = sum(evaluation.exact_match(r.answer, g) for r, g in zip(p.results, p.golds))
    return hits / len(p.results)


WORKLOADS = {w.name: w for w in (RetrieverFinetune(), E2ETrain(), Answer())}
