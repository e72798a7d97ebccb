import math
import warnings

import numpy as np
import pytest

from retforge import autodiff as ad
from retforge import optim
from retforge import training as T
from retforge.data import Corpus, QAExample, SpanAnnotation, sample_ict_pair
from retforge.encoder import (
    DualEncoder,
    EncoderConfig,
    context_input,
    document_input,
    question_input,
)
from retforge.errors import ConfigError, DomainError
from retforge.index import EvidenceIndex, build_snapshot
from retforge.reader import Reader, ReaderConfig
from retforge.text import Vocabulary

DOCS = [
    {"id": 0, "title": "rivers", "text": "The long river flows north. It passes three towns. Fish swim in it."},
    {"id": 1, "title": "mountains", "text": "The tall mountain rises east. Snow covers the peak. Climbers visit in summer."},
    {"id": 2, "title": "deserts", "text": "The dry desert spreads south. Sand dunes shift daily. Few plants survive there."},
    {"id": 3, "title": "forests", "text": "The dark forest grows west. Tall pines block the sun. Owls nest in the branches."},
    {"id": 4, "title": "oceans", "text": "The deep ocean surrounds the island. Waves crash on the shore. Whales pass in spring."},
    {"id": 5, "title": "cities", "text": "The old city sits by the bay. Markets open at dawn. Bells ring at noon."},
    # documents 6-11 only ever appear as hard negatives, so batches built from
    # QA below never contain a duplicate context id
    {"id": 6, "title": "glaciers", "text": "The slow glacier carves the valley. Ice cracks loudly. Melt water pools below."},
    {"id": 7, "title": "volcanoes", "text": "The red volcano smokes all year. Ash settles on roofs. Lava cools into rock."},
    {"id": 8, "title": "caves", "text": "The deep cave stays cold. Bats sleep on the ceiling. Water drips from stone."},
    {"id": 9, "title": "plains", "text": "The wide plain stretches far. Grass bends in the wind. Herds graze at dusk."},
    {"id": 10, "title": "swamps", "text": "The green swamp smells of mud. Frogs call at night. Roots twist underwater."},
    {"id": 11, "title": "islands", "text": "The small island has one hill. Boats land on the beach. Gulls circle the cliffs."},
]

QA = [
    QAExample(question="where does the long river flow ?", answers=("north",),
              positive_ctx=0, hard_negatives=(6,)),
    QAExample(question="what covers the tall mountain peak ?", answers=("snow",),
              positive_ctx=1, hard_negatives=(7,)),
    QAExample(question="what shifts daily in the dry desert ?", answers=("sand dunes",),
              positive_ctx=2, hard_negatives=(8,)),
    QAExample(question="what blocks the sun in the dark forest ?", answers=("tall pines",),
              positive_ctx=3, hard_negatives=(9,)),
    QAExample(question="what surrounds the island ?", answers=("the deep ocean",),
              positive_ctx=4, hard_negatives=(10,)),
    QAExample(question="when do the markets open in the old city ?", answers=("dawn",),
              positive_ctx=5, hard_negatives=(11,)),
]


def make_corpus():
    return Corpus.build(DOCS)


def make_dual(corpus, seed=1, hidden=16):
    return DualEncoder(
        EncoderConfig(vocab_size=len(corpus.vocab), layers=1, hidden_size=hidden,
                      heads=2, max_seq_len=64),
        seed=seed,
    )


def small_config(**overrides):
    base = dict(
        batch_size=3,
        learning_rate=1e-3,
        epochs=2,
        steps=4,
        seed=7,
        weight_decay=0.0,
        eval_ks=(1, 2),
    )
    base.update(overrides)
    return T.TrainConfig(**base)


def param_bytes(params):
    return [p.data.tobytes() for p in params]


# Loss ------------------------------------------------------------------------


def test_supervised_loss_hand_value():
    scores = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    targets = np.array([0, 1])
    loss = ad.cross_entropy_rows(scores, targets, tau=2.0)
    # each row: -ln(e^{1/2} / (e^{1/2} + e^0)) = ln(1 + e^{-1/2})
    assert abs(loss.item() - 0.4740769841801067) < 1e-14
    loss1 = ad.cross_entropy_rows(scores, targets, tau=1.0)
    assert abs(loss1.item() - 0.31326168751822286) < 1e-14


def batch_for(corpus, examples, n_negatives=1):
    out = []
    for ex in examples:
        negatives = [corpus.by_id[i] for i in ex.hard_negatives[:n_negatives]]
        out.append((corpus.vocab.encode(ex.question), corpus.by_id[ex.positive_ctx], negatives))
    return out


def test_batch_loss_matches_composed_scores():
    corpus = make_corpus()
    dual = make_dual(corpus)
    batch = batch_for(corpus, QA[:3])
    tau = 4.0
    loss = T.batch_loss_supervised(dual, batch, corpus, tau)

    # columns: positives in batch order, then unseen negatives in batch order
    docs = [p for _, p, _ in batch]
    for _, _, negs in batch:
        for d in negs:
            if all(d.id != c.id for c in docs):
                docs.append(d)
    questions = dual.question_encoder.encode_batch([question_input(q) for q, _, _ in batch])
    contexts = dual.context_encoder.encode_batch(
        [context_input(corpus.vocab.encode(d.title), d.tokens) for d in docs]
    )
    scores = ad.matmul(questions, ad.transpose(contexts, (1, 0)))
    composed = ad.cross_entropy_rows(scores, np.arange(3), tau=tau)
    assert loss.item() == composed.item()


def test_batch_loss_warns_on_duplicate_contexts():
    corpus = make_corpus()
    dual = make_dual(corpus)
    # two questions share document 0 as their positive
    batch = [
        (corpus.vocab.encode(QA[0].question), corpus.by_id[0], []),
        (corpus.vocab.encode(QA[2].question), corpus.by_id[0], []),
        (corpus.vocab.encode(QA[1].question), corpus.by_id[1], []),
    ]
    with pytest.warns(UserWarning, match="duplicate"):
        loss = T.batch_loss_supervised(dual, batch, corpus, tau=4.0)
    assert math.isfinite(loss.item())


def test_batch_loss_rejects_single_example():
    corpus = make_corpus()
    dual = make_dual(corpus)
    with pytest.raises(ConfigError):
        T.batch_loss_supervised(dual, batch_for(corpus, QA[:1]), corpus, tau=4.0)


def test_batch_loss_reorder_invariance():
    corpus = make_corpus()
    dual = make_dual(corpus)
    tau = 4.0
    a = T.batch_loss_supervised(dual, batch_for(corpus, QA[:3]), corpus, tau).item()
    shuffled = [QA[2], QA[0], QA[1]]
    b = T.batch_loss_supervised(dual, batch_for(corpus, shuffled), corpus, tau).item()
    assert abs(a - b) <= 1e-9


# In-batch columns: bitwise oracle -----------------------------------------------


def former_ict_columns(contexts):
    """The columns and targets of the former inverse-cloze rule: equal
    pseudo-contexts share a column, in order of first appearance."""
    column_of, columns, targets = {}, [], []
    for ctx in contexts:
        if tuple(ctx) not in column_of:
            column_of[tuple(ctx)] = len(columns)
            columns.append(list(ctx))
        targets.append(column_of[tuple(ctx)])
    return columns, targets


def former_supervised_columns(batch, corpus):
    """The columns, targets and duplicate count of the former supervised rule:
    documents share a column by id, positives first, then hard negatives."""
    column_of, docs, duplicates = {}, [], 0

    def admit(doc):
        nonlocal duplicates
        if doc.id in column_of:
            duplicates += 1
        else:
            column_of[doc.id] = len(docs)
            docs.append(doc)
        return column_of[doc.id]

    targets = [admit(positive) for _, positive, _ in batch]
    for _, _, negatives in batch:
        for doc in negatives:
            admit(doc)
    return [document_input(d, corpus) for d in docs], targets, duplicates


def ict_batches(corpus):
    """Seeded inverse-cloze batches: 10 picks over 12 documents of 3 sentences
    repeat documents, and a repeat often repeats the pseudo-context too."""
    docs = list(corpus)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        questions, contexts = [], []
        for pick in rng.integers(len(docs), size=10):
            query, context = sample_ict_pair(docs[int(pick)], rng, keep_prob=0.5)
            questions.append(question_input(query))
            contexts.append(context_input(corpus.title_tokens[docs[int(pick)].id], context))
        yield questions, contexts


def supervised_batches(corpus):
    """A shared positive, a positive that is another example's hard negative,
    then seeded batches drawing positives from 6 documents and 0-2 hard
    negatives from all 12."""
    by_id = corpus.by_id

    def q(i):
        return corpus.vocab.encode(QA[i].question)

    yield [(q(0), by_id[0], [by_id[6]]), (q(2), by_id[0], [by_id[1]]), (q(1), by_id[1], [])]
    yield [(q(0), by_id[0], [by_id[1], by_id[2]]), (q(1), by_id[1], [by_id[0]]),
           (q(2), by_id[2], [by_id[6], by_id[6]])]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        yield [
            (q(int(i)), by_id[int(rng.integers(6))],
             [by_id[int(n)] for n in rng.integers(12, size=int(rng.integers(3)))])
            for i in rng.integers(len(QA), size=5)
        ]


def in_batch_outcome(dual, call):
    """Columns, targets, duplicate count, loss `float.hex` and parameter
    gradient bytes of the in-batch loss that `call()` builds, read through
    spies on the context tower and the cross-entropy."""
    seen = {}
    encode, cross_entropy = dual.context_encoder.encode_batch, ad.cross_entropy_rows

    def spy_encode(seqs):
        seen["columns"] = [list(s) for s in seqs]
        return encode(seqs)

    def spy_cross_entropy(scores, targets, tau):
        seen["targets"] = [int(t) for t in targets]
        return cross_entropy(scores, targets, tau=tau)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        patch.setattr(dual.context_encoder, "encode_batch", spy_encode)
        patch.setattr(ad, "cross_entropy_rows", spy_cross_entropy)
        for p in dual.parameters():
            p.zero_grad()
        loss = call()
        loss.backward()
    counts = [int(str(w.message).split()[0]) for w in caught if "duplicate" in str(w.message)]
    return (seen["columns"], seen["targets"], sum(counts), loss.item().hex(),
            [p.grad.tobytes() for p in dual.parameters()])


def former_outcome(dual, questions, columns, targets, duplicates, tau):
    """The same record from the former loss over the former rule's columns."""
    for p in dual.parameters():
        p.zero_grad()
    q = dual.question_encoder.encode_batch(questions)
    z = dual.context_encoder.encode_batch(columns)
    loss = ad.cross_entropy_rows(ad.matmul(q, ad.transpose(z, (1, 0))), np.array(targets), tau=tau)
    loss.backward()
    return (columns, targets, duplicates, loss.item().hex(),
            [p.grad.tobytes() for p in dual.parameters()])


def in_batch_trials(former):
    """One record per ICT and supervised batch, from the live code or, with
    `former`, from the former two column rules."""
    corpus = make_corpus()
    dual = make_dual(corpus)
    tau = 4.0
    out = []
    for questions, contexts in ict_batches(corpus):
        if former:
            out.append(former_outcome(dual, questions, *former_ict_columns(contexts), 0, tau))
        else:
            out.append(in_batch_outcome(
                dual, lambda: T.in_batch_loss(dual, questions, contexts, tau)))
    for batch in supervised_batches(corpus):
        if former:
            questions = [question_input(q) for q, _, _ in batch]
            out.append(former_outcome(
                dual, questions, *former_supervised_columns(batch, corpus), tau))
        else:
            out.append(in_batch_outcome(
                dual, lambda: T.batch_loss_supervised(dual, batch, corpus, tau)))
    return out


def test_in_batch_columns_match_the_former_rules_bitwise():
    want = in_batch_trials(former=True)
    # the batches exercise the rule: shared ICT and supervised columns alike
    assert sum(len(c) < len(t) for c, t, *_ in want[:4]) >= 2
    assert all(w[2] > 0 for w in want[4:6])
    assert in_batch_trials(former=False) == want


def test_in_batch_loss_without_dedupe_fails_the_oracle(monkeypatch):
    def every_context_a_column(dual, questions, contexts, tau):
        q = dual.question_encoder.encode_batch(questions)
        z = dual.context_encoder.encode_batch(contexts)
        scores = ad.matmul(q, ad.transpose(z, (1, 0)))
        return ad.cross_entropy_rows(scores, np.arange(len(questions)), tau=tau)

    want = in_batch_trials(former=True)
    monkeypatch.setattr(T, "in_batch_loss", every_context_a_column)
    got = in_batch_trials(former=False)
    assert [g[3] for g in got] != [w[3] for w in want]  # the losses differ, not only the columns


def test_documents_with_equal_title_and_text_share_a_column():
    twin = dict(DOCS[0], id=12)
    corpus = Corpus.build(DOCS + [twin])
    dual = make_dual(corpus)
    batch = [
        (corpus.vocab.encode(QA[0].question), corpus.by_id[0], []),
        (corpus.vocab.encode(QA[1].question), corpus.by_id[1], [corpus.by_id[12]]),
    ]
    columns, targets, duplicates, *_ = in_batch_outcome(
        dual, lambda: T.batch_loss_supervised(dual, batch, corpus, tau=4.0))
    assert columns == [document_input(corpus.by_id[0], corpus),
                       document_input(corpus.by_id[1], corpus)]
    assert targets == [0, 1]
    assert duplicates == 1


# Supervised loop ---------------------------------------------------------------


def test_train_supervised_switches_bit_exact():
    corpus = make_corpus()

    dual = make_dual(corpus)
    q0 = param_bytes(dual.question_encoder.parameters())
    T.train_supervised(QA, corpus, dual, small_config(update_query_encoder=False))
    assert param_bytes(dual.question_encoder.parameters()) == q0
    assert param_bytes(dual.context_encoder.parameters()) != param_bytes(
        make_dual(corpus).context_encoder.parameters()
    )

    dual = make_dual(corpus)
    z0 = param_bytes(dual.context_encoder.parameters())
    T.train_supervised(QA, corpus, dual, small_config(update_context_encoder=False))
    assert param_bytes(dual.context_encoder.parameters()) == z0
    assert param_bytes(dual.question_encoder.parameters()) != q0


def test_train_supervised_seeded_rerun_identical():
    corpus = make_corpus()
    runs = []
    for _ in range(2):
        dual = make_dual(corpus)
        runs.append(T.train_supervised(QA, corpus, dual, small_config()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n, steps", [(17, 2), (18, 4), (16, 2)])
def test_supervised_schedule_reaches_its_last_step(n, steps, monkeypatch):
    """The schedule counts only the batches that train: 17 questions at
    batch 16 train one batch per epoch (the size-1 tail is skipped), so the
    second epoch's step is the schedule's last."""
    scheduled = []
    schedule = optim.linear_schedule

    def spy(step, total_steps, warmup_ratio=0.01):
        scheduled.append((step, total_steps))
        return schedule(step, total_steps, warmup_ratio)

    monkeypatch.setattr(optim, "linear_schedule", spy)
    corpus = make_corpus()
    dataset = [QA[i % len(QA)] for i in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a batch of 16 repeats contexts
        T.train_supervised(dataset, corpus, make_dual(corpus), small_config(batch_size=16))
    assert scheduled == [(step, steps) for step in range(1, steps + 1)]


def test_train_supervised_requires_usable_examples():
    corpus = make_corpus()
    dual = make_dual(corpus)
    unmined = [QAExample(question="q ?", answers=("north",))]
    with pytest.raises(DomainError):
        T.train_supervised(unmined, corpus, dual, small_config())
    flagged = [
        QAExample(question="q ?", answers=("north",), positive_ctx=0, filtered=True)
    ]
    with pytest.raises(DomainError):
        T.train_supervised(flagged, corpus, dual, small_config())


def test_train_supervised_dev_metrics_and_early_stop():
    corpus = make_corpus()
    dual = make_dual(corpus)
    config = small_config(epochs=5, target_train_top1=0.0)
    metrics = T.train_supervised(QA, corpus, dual, config, dev=QA)
    assert len(metrics) == 1  # any accuracy satisfies a 0.0 target
    record = metrics[0]
    assert "top1" in record and "top2" in record and "train_top1" in record
    assert 0.0 <= record["top1"] <= record["top2"] <= 1.0


def test_train_supervised_builds_one_snapshot_per_epoch(monkeypatch):
    # dev accuracy and the train-accuracy target read the same snapshot
    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return build_snapshot(*args, **kwargs)

    monkeypatch.setattr(T, "build_snapshot", counted)
    corpus = make_corpus()
    config = small_config(epochs=3, target_train_top1=1.0)
    metrics = T.train_supervised(QA, corpus, make_dual(corpus), config, dev=QA)
    assert all("top1" in r and "train_top1" in r for r in metrics)
    assert len(built) == len(metrics)


def test_train_supervised_encodes_each_question_once_and_nothing_per_step(monkeypatch):
    corpus = make_corpus()
    dual = make_dual(corpus)
    encoded = spy_on_encode(monkeypatch)
    T.train_supervised(QA, corpus, dual, small_config(epochs=3))
    # the questions once per run, then, at the first batch, each title once
    # per corpus
    assert encoded == [ex.question for ex in QA] + [doc["title"] for doc in DOCS]
    del encoded[:]
    T.train_supervised(QA, corpus, dual, small_config(epochs=2))
    assert encoded == [ex.question for ex in QA]


def test_train_accuracy_target_reads_the_runs_encoded_questions(monkeypatch):
    corpus = make_corpus()
    encoded = spy_on_encode(monkeypatch)
    config = small_config(epochs=3, target_train_top1=1.0)
    metrics = T.train_supervised(QA, corpus, make_dual(corpus), config)
    assert len(metrics) == 3 and all("train_top1" in r for r in metrics)
    # each epoch's target reads the questions the run encoded once
    assert encoded == [ex.question for ex in QA] + [doc["title"] for doc in DOCS]


def test_train_supervised_learns_tiny_task():
    corpus = make_corpus()
    dual = make_dual(corpus, seed=3)
    config = small_config(
        batch_size=6, epochs=80, learning_rate=3e-3, target_train_top1=1.0
    )
    metrics = T.train_supervised(QA, corpus, dual, config)
    assert metrics[-1]["train_top1"] == 1.0
    assert len(metrics) < 80  # the accuracy target stops training early
    assert metrics[-1]["loss"] < metrics[0]["loss"]


# Inverse cloze -----------------------------------------------------------------


def test_train_ict_requires_multisentence_docs():
    corpus = Corpus.build([{"id": 0, "title": "t", "text": "One sentence only."}])
    dual = make_dual(corpus)
    with pytest.raises(DomainError):
        T.train_ict(corpus, dual, small_config())


def test_train_ict_loss_decreases():
    corpus = make_corpus()
    dual = make_dual(corpus, seed=5)
    config = small_config(batch_size=8, steps=80, learning_rate=1e-2)
    metrics = T.train_ict(corpus, dual, config)
    assert len(metrics) == 80
    first = np.mean([m["loss"] for m in metrics[:10]])
    last = np.mean([m["loss"] for m in metrics[-10:]])
    assert last <= 0.7 * first
    assert [m["step"] for m in metrics] == list(range(1, 81))


def test_train_ict_seeded_rerun_identical():
    corpus = make_corpus()
    a = T.train_ict(corpus, make_dual(corpus), small_config(steps=3))
    b = T.train_ict(corpus, make_dual(corpus), small_config(steps=3))
    assert a == b


def spy_on_encode(monkeypatch):
    """The texts every `Vocabulary.encode` call is given, in call order."""
    encoded = []
    encode = Vocabulary.encode

    def spy(vocab, text):
        encoded.append(text)
        return encode(vocab, text)

    monkeypatch.setattr(Vocabulary, "encode", spy)
    return encoded


@pytest.mark.parametrize("steps", [1, 3])
def test_train_ict_encodes_each_title_once_and_nothing_per_step(monkeypatch, steps):
    docs = DOCS + [{"id": 12, "title": "lone", "text": "One sentence only."}]
    corpus = Corpus.build(docs)
    encoded = spy_on_encode(monkeypatch)
    T.train_ict(corpus, make_dual(corpus), small_config(steps=steps))
    # the corpus's titles, each once, at the first pick
    assert encoded == [doc["title"] for doc in docs]


# Masked salient spans ------------------------------------------------------------


def make_annotations():
    # inclusive token offsets into each document's token sequence
    return {
        0: SpanAnnotation(doc_id=0, spans=((4, 4, "north"),)),
        1: SpanAnnotation(doc_id=1, spans=((6, 6, "snow"),)),
        2: SpanAnnotation(doc_id=2, spans=((6, 7, "sand dunes"),)),
    }


def salient_world(seed=9):
    corpus = make_corpus()
    retriever = make_dual(corpus, seed=seed)
    reader = Reader(
        ReaderConfig(vocab_size=len(corpus.vocab), enc_layers=1, dec_layers=1,
                     hidden_size=16, heads=2, max_seq_len=64, max_answer_len=8),
        seed=seed + 1,
    )
    index = EvidenceIndex(corpus)
    index.build(retriever)
    return corpus, retriever, reader, index


def test_salient_span_version_schedule():
    corpus, retriever, reader, index = salient_world()
    config = small_config(batch_size=2, steps=4, refresh_every=2, top_k=2)
    metrics = T.train_salient_spans(corpus, make_annotations(), retriever, reader, index, config)
    assert [m["index_version"] for m in metrics] == [0, 1, 1, 2]
    assert all(math.isfinite(m["loss"]) for m in metrics)


def test_salient_span_refresh_every_step():
    corpus, retriever, reader, index = salient_world()
    config = small_config(batch_size=2, steps=3, refresh_every=1, top_k=2)
    metrics = T.train_salient_spans(corpus, make_annotations(), retriever, reader, index, config)
    assert [m["index_version"] for m in metrics] == [1, 2, 3]


def test_salient_span_loss_decreases():
    corpus, retriever, reader, index = salient_world(seed=13)
    config = small_config(batch_size=3, steps=8, refresh_every=4, top_k=2,
                          learning_rate=1e-2)
    metrics = T.train_salient_spans(corpus, make_annotations(), retriever, reader, index, config)
    assert metrics[-1]["loss"] < metrics[0]["loss"]


@pytest.mark.parametrize("update_context_encoder", [True, False])
def test_salient_span_steps_encode_no_sentence(monkeypatch, update_context_encoder):
    corpus, retriever, reader, index = salient_world()
    encoded = spy_on_encode(monkeypatch)
    config = small_config(batch_size=3, steps=3, refresh_every=100, top_k=2,
                          update_context_encoder=update_context_encoder)
    T.train_salient_spans(corpus, make_annotations(), retriever, reader, index, config)
    # a trainable context tower reads each retrieved document's title tokens
    # from the corpus too
    assert encoded == []


def test_salient_span_requires_annotations():
    corpus, retriever, reader, index = salient_world()
    with pytest.raises(DomainError):
        T.train_salient_spans(corpus, {}, retriever, reader, index, small_config())


# Config --------------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        T.TrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        T.TrainConfig(tau_multiple=0.0)
    with pytest.raises(ConfigError):
        T.TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        T.TrainConfig(warmup_ratio=1.5)
    with pytest.raises(ConfigError):
        T.TrainConfig(keep_prob=1.5)
    with pytest.raises(ConfigError):
        T.TrainConfig(hard_negatives_per_example=-1)
    with pytest.raises(ConfigError):
        T.TrainConfig(refresh_every=0)
    with pytest.raises(ConfigError):
        T.TrainConfig(top_k=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="tau_multiple"):
            T.TrainConfig(tau_multiple=bad)
        with pytest.raises(ConfigError, match="learning_rate"):
            T.TrainConfig(learning_rate=bad)
    for ks in ((), (0,), (1, -5)):
        with pytest.raises(ConfigError, match="eval_ks"):
            T.TrainConfig(eval_ks=ks)
    with pytest.raises(ConfigError, match="seed"):
        T.TrainConfig(seed=-1)
    for bad in (math.nan, math.inf, -5.0):
        with pytest.raises(ConfigError, match="weight_decay"):
            T.TrainConfig(weight_decay=bad)
    for bad in (math.nan, 2.0, -0.5, math.inf):
        with pytest.raises(ConfigError, match="target_train_top1"):
            T.TrainConfig(target_train_top1=bad)
