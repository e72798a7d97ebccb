import math

import numpy as np
import pytest

from retforge import autodiff as ad
from retforge import training as T
from retforge.data import Corpus, QAExample, SpanAnnotation
from retforge.encoder import DualEncoder, EncoderConfig, context_input, question_input
from retforge.errors import ConfigError, DomainError
from retforge.index import EvidenceIndex
from retforge.reader import Reader, ReaderConfig

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
        T.TrainConfig(keep_prob=1.5)
    with pytest.raises(ConfigError):
        T.TrainConfig(hard_negatives_per_example=-1)
    with pytest.raises(ConfigError):
        T.TrainConfig(refresh_every=0)
    with pytest.raises(ConfigError):
        T.TrainConfig(top_k=0)
