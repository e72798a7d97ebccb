"""Acceptance gates for the whole package, one test per criterion.

Each test is self-contained and seeded; `pytest -v tests/test_acceptance.py`
reads as a twelve-line checklist. Wall-clock budgets are asserted inside the
tests that carry one.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

import retforge.autodiff as ad
from retforge.data import (
    Corpus,
    QAExample,
    bm25_score,
    build_corpus_stats,
    mine_distant_supervision,
)
from retforge.e2e import (
    E2EConfig,
    evaluate_retrieval,
    individual_topk_loss,
    joint_topk_loss,
    marginal_log_likelihood,
    tau_value,
    train_e2e,
)
from retforge.encoder import DualEncoder, EncoderConfig
from retforge.evaluation import exact_match
from retforge.index import EvidenceIndex, IndexSnapshot, build_snapshot, top_k
from retforge.reader import Reader, ReaderConfig
from retforge.text import contains_answer, segment_sentences
from retforge.toy import ToySpec, generate_toy
from retforge.training import TrainConfig, train_ict, train_supervised

IGNORE_DUP = "ignore:.*duplicate context.*:UserWarning"


def small_encoder(vocab_size: int, hidden: int = 16, heads: int = 2) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=vocab_size, layers=1, hidden_size=hidden, heads=heads, max_seq_len=64
    )


def small_reader(vocab_size: int, hidden: int = 16, heads: int = 2) -> ReaderConfig:
    return ReaderConfig(
        vocab_size=vocab_size,
        enc_layers=1,
        dec_layers=1,
        hidden_size=hidden,
        heads=heads,
        max_seq_len=64,
        max_answer_len=8,
    )


def toy_world(n_docs, n_train, n_dev, seed, hidden=16, heads=2, enc_seed=0, reader_seed=1):
    data = generate_toy(ToySpec(n_docs=n_docs, n_train=n_train, n_dev=n_dev, seed=seed))
    corpus = Corpus.build(list(data.corpus))
    train = [QAExample(**r) for r in data.train]
    dev = [QAExample(**r) for r in data.dev]
    dual = DualEncoder(small_encoder(len(corpus.vocab), hidden, heads), seed=enc_seed)
    reader = Reader(small_reader(len(corpus.vocab), hidden, heads), seed=reader_seed)
    return corpus, train, dev, dual, reader


# criterion 1 ---------------------------------------------------------------


def _op_cases():
    """One seeded grad-check case per differentiable op."""
    rng = np.random.default_rng(3)
    counter = iter(range(1000))

    def P(*shape, positive=False):
        data = rng.uniform(-1.0, 1.0, size=shape)
        if positive:
            data = np.abs(data) + 0.5
        return ad.Parameter(data, name=f"case{next(counter)}")

    def C(*shape):
        return ad.Tensor(rng.uniform(-1.0, 1.0, size=shape))

    a34, b4 = P(3, 4), P(4)
    m34, m45 = P(3, 4), P(4, 5)
    t34 = P(3, 4)
    r26 = P(2, 6)
    c1, c2 = P(2, 3), P(2, 2)
    s1, s2 = P(2, 2), P(3)
    pos53 = P(5, 3)
    table = P(7, 4)
    red = P(3, 4)
    logp = P(3, 4, positive=True)
    expp = P(3, 4)
    powp = P(3, 4, positive=True)
    gelup, tanhp = P(3, 4), P(3, 4)
    sm25 = P(2, 5)
    smm = P(2, 5)
    mask = np.zeros((2, 5))
    mask[:, 3:] = ad.MASK_NEG
    ssm = P(6)
    nllp = P(5)
    lsep = P(3, 4)
    xent = P(4, 6)
    seq = P(2, 3, 7)
    q23, k43, v42, bias4 = P(2, 3), P(4, 3), P(4, 2), P(4)
    w25, w6, w3, w34, w22 = C(2, 5), C(6), C(3), C(3, 4), C(2, 2)
    # the fused layer ops, drawn last so the cases above keep their values
    ln_x, ln_g, ln_b = P(2, 3, 4), P(4), P(4)
    lin_x, lin_w, lin_b = P(2, 3, 4), P(4, 5), P(5)
    att_q, att_k, att_v, att_bias = P(2, 3, 4), P(2, 5, 4), P(2, 5, 4), P(5)
    w234, w235 = C(2, 3, 4), C(2, 3, 5)
    att_mask = np.zeros((2, 1, 1, 5))
    att_mask[1, ..., 3:] = ad.MASK_NEG  # the second row's last two keys are padding

    return [
        ("add", [a34, b4], lambda: ad.reduce_sum(ad.add(a34, b4))),
        ("neg", [a34], lambda: ad.reduce_sum(ad.neg(a34))),
        ("mul", [a34, b4], lambda: ad.reduce_sum(ad.mul(a34, b4))),
        ("scale", [a34], lambda: ad.reduce_sum(ad.scale(a34, 1.7))),
        ("matmul", [m34, m45], lambda: ad.reduce_sum(ad.matmul(m34, m45))),
        (
            "transpose",
            [t34],
            lambda: ad.reduce_sum(ad.matmul(ad.transpose(t34, (1, 0)), t34)),
        ),
        (
            "reshape",
            [r26],
            lambda: ad.reduce_sum(ad.mul(ad.reshape(r26, (3, 4)), w34)),
        ),
        (
            "concat",
            [c1, c2],
            lambda: ad.reduce_sum(ad.power(ad.concat([c1, c2], axis=1), 2.0)),
        ),
        (
            "stack_scalars",
            [s1, s2],
            lambda: ad.reduce_sum(
                ad.stack_scalars([ad.reduce_mean(s1), ad.reduce_sum(s2)])
            ),
        ),
        (
            "take_position",
            [pos53],
            lambda: ad.reduce_sum(ad.mul(ad.take_position(pos53, 2), w3)),
        ),
        (
            "embedding",
            [table],
            lambda: ad.reduce_sum(ad.embedding(table, np.array([1, 3, 3, 0]))),
        ),
        ("reduce_sum", [red], lambda: ad.reduce_sum(ad.power(ad.reduce_sum(red, axis=0), 2.0))),
        ("reduce_mean", [red], lambda: ad.reduce_sum(ad.power(ad.reduce_mean(red, axis=1, keepdims=True), 2.0))),
        ("log", [logp], lambda: ad.reduce_sum(ad.log(logp))),
        ("exp", [expp], lambda: ad.reduce_sum(ad.exp(expp))),
        ("power", [powp], lambda: ad.reduce_sum(ad.power(powp, 3.0))),
        ("gelu", [gelup], lambda: ad.reduce_sum(ad.gelu(gelup))),
        ("tanh", [tanhp], lambda: ad.reduce_sum(ad.tanh(tanhp))),
        ("softmax", [sm25], lambda: ad.reduce_sum(ad.mul(ad.softmax(sm25, tau=1.3), w25))),
        (
            "softmax_masked",
            [smm],
            lambda: ad.reduce_sum(ad.mul(ad.softmax(smm, tau=0.7, mask=mask), w25)),
        ),
        ("scaled_softmax", [ssm], lambda: ad.reduce_sum(ad.mul(ad.scaled_softmax(ssm, 2.0), w6))),
        ("nll", [nllp], lambda: ad.nll(ad.softmax(nllp), 2)),
        ("logsumexp", [lsep], lambda: ad.reduce_sum(ad.mul(ad.logsumexp(lsep, axis=-1), w3))),
        (
            "cross_entropy_rows",
            [xent],
            lambda: ad.cross_entropy_rows(xent, np.array([1, 0, 5, 2]), tau=1.5),
        ),
        (
            "sequence_log_prob",
            [seq],
            lambda: ad.neg(ad.reduce_sum(ad.sequence_log_prob(seq, np.array([[1, 0, 6], [2, 2, 3]])))),
        ),
        (
            "biased_attention",
            [q23, k43, v42, bias4],
            lambda: ad.reduce_sum(ad.mul(ad.biased_attention(q23, k43, v42, bias4), w22)),
        ),
        (
            "layer_norm",
            [ln_x, ln_g, ln_b],
            lambda: ad.reduce_sum(ad.mul(ad.layer_norm(ln_x, ln_g, ln_b, 1e-5), w234)),
        ),
        (
            "linear",
            [lin_x, lin_w, lin_b],
            lambda: ad.reduce_sum(ad.mul(ad.linear(lin_x, lin_w, lin_b), w235)),
        ),
        (
            "attention_masked_biased",
            [att_q, att_k, att_v, att_bias],
            lambda: ad.reduce_sum(
                ad.mul(ad.attention(att_q, att_k, att_v, 2, mask=att_mask, bias=att_bias), w234)
            ),
        ),
    ]


def test_criterion_01_gradient_integrity():
    start = time.monotonic()
    failures = []
    for name, params, loss_fn in _op_cases():
        err = ad.grad_check(loss_fn, params)
        if not err < 1e-4:
            failures.append((name, err))
    assert not failures, f"op-level gradient failures: {failures}"

    corpus, train, _, dual, reader = toy_world(12, 6, 0, seed=53)
    tau = tau_value(1.0, dual.config.hidden_size)

    batch = [
        (
            corpus.vocab.encode(ex.question),
            corpus.by_id[ex.positive_ctx],
            [],
        )
        for ex in train[:3]
    ]
    from retforge.training import batch_loss_supervised

    rng = np.random.default_rng(11)
    err_dual = ad.grad_check(
        lambda: batch_loss_supervised(dual, batch, corpus, tau),
        dual.parameters(),
        eps=2e-4,
        max_elements_per_param=3,
        rng=rng,
    )
    assert err_dual < 1e-4, f"dual-encoder loss gradient error {err_dual}"

    snapshot = build_snapshot(dual, corpus)
    question = corpus.vocab.encode(train[0].question)
    answer = corpus.vocab.encode(train[0].answers[0])
    # sharp scaling keeps the question-tower gradients above the fp64
    # noise floor of the central differences
    sharp_tau = 1.0
    retrieved = top_k(snapshot, dual.encode_question(question).data, k=2, tau=sharp_tau)

    # the question tower feeds both losses through live re-scored probabilities
    live_params = (
        dual.question_encoder.parameters()
        + dual.context_encoder.parameters()[:2]
        + reader.parameters()[:4]
    )
    err_ind = ad.grad_check(
        lambda: individual_topk_loss(
            question, answer, retrieved, corpus, dual, reader, sharp_tau
        ),
        live_params,
        eps=3e-4,
        max_elements_per_param=2,
        rng=np.random.default_rng(12),
    )
    assert err_ind < 1e-4, f"individual objective gradient error {err_ind}"

    # a zero mixing weight would zero out the question-tower path entirely,
    # and a small one leaves it within measurement noise, so set it high
    reader.lambda_bias.data = np.asarray(12.0)
    joint_params = (
        dual.question_encoder.parameters()
        + [reader.lambda_bias]
        + reader.parameters()[:4]
    )
    err_joint = ad.grad_check(
        lambda: joint_topk_loss(
            question, answer, retrieved, corpus, dual, reader, sharp_tau
        ),
        joint_params,
        eps=3e-4,
        max_elements_per_param=2,
        rng=np.random.default_rng(13),
    )
    assert err_joint < 1e-4, f"joint objective gradient error {err_joint}"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient integrity took {elapsed:.1f}s, budget 60s"
    print(
        f"PASS criterion 1: {len(_op_cases())} ops + dual {err_dual:.2e} + "
        f"individual {err_ind:.2e} + joint {err_joint:.2e} in {elapsed:.1f}s"
    )


# criterion 2 ---------------------------------------------------------------


def test_criterion_02_exact_search_matches_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    m, d = 1000, 64
    emb = rng.standard_normal((m, d)).astype(np.float32)
    # duplicate rows guarantee exact score ties on every query
    emb[51] = emb[50]
    emb[202] = emb[201] = emb[200]
    emb[773] = emb[772]
    doc_ids = rng.permutation(m).astype(np.int64)
    snapshot = IndexSnapshot(version=0, doc_ids=doc_ids, embeddings=emb)
    queries = rng.standard_normal((1000, d))

    ks = (1, 5, 20, 100)
    ties_seen = 0
    for q in queries:
        scores = snapshot.embeddings @ q
        order = sorted(range(m), key=lambda i: (-scores[i], doc_ids[i]))
        ties_seen += sum(
            scores[order[i]] == scores[order[i + 1]] for i in range(m - 1)
        )
        for k in ks:
            result = top_k(snapshot, q, k=k, tau=8.0)
            expect_ids = tuple(int(doc_ids[i]) for i in order[:k])
            expect_scores = tuple(float(scores[i]) for i in order[:k])
            assert result.doc_ids == expect_ids
            assert result.scores == expect_scores
    assert ties_seen > 0, "tie-break path never exercised"

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"exact-search check took {elapsed:.1f}s, budget 30s"
    print(
        f"PASS criterion 2: 1000 queries x k{list(ks)} exact, "
        f"{ties_seen} score ties broken by id, {elapsed:.1f}s"
    )


# criterion 3 ---------------------------------------------------------------


def test_criterion_03_marginal_likelihood_log_space():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        ll = rng.uniform(-5.0, 0.0, size=k)
        p = rng.uniform(0.1, 1.0, size=k)
        p = p / p.sum()
        got = marginal_log_likelihood(ad.Tensor(ll), ad.Tensor(np.log(p))).item()
        direct = math.log(float(np.sum(np.exp(ll) * p)))
        worst = max(worst, abs(got - direct))
    assert worst <= 1e-12, f"log-space marginal drifted {worst} from direct sum"

    hand = marginal_log_likelihood(
        ad.Tensor(np.log([0.5, 0.1])), ad.Tensor(np.log([0.8, 0.2]))
    ).item()
    assert abs(math.exp(hand) - 0.42) <= 1e-12
    assert abs(hand - math.log(0.42)) <= 1e-12
    print(f"PASS criterion 3: 100 instances worst |log-space - direct| = {worst:.2e}, hand value 0.42 exact")


# criterion 4 ---------------------------------------------------------------


def test_criterion_04_score_scaling_entropy():
    d = 64
    grid = [mult * math.sqrt(d) for mult in (0.25, 0.5, 1.0, 2.0, 4.0)]
    rng = np.random.default_rng(9)
    score_sets = [
        rng.standard_normal(5) * 3.0,
        rng.standard_normal(17),
        np.array([2.0, 2.0, 1.0, 0.0]),
        np.array([3.0, 3.0, 3.0]),
    ]
    checked = 0
    for scores in score_sets:
        entropies = []
        argmaxes = []
        for tau in grid:
            p = ad.scaled_softmax(scores, tau).data
            entropies.append(float(-(p * np.log(p)).sum()))
            argmaxes.append(int(np.argmax(p)))
        for lo, hi in zip(entropies, entropies[1:]):
            assert hi >= lo, f"entropy decreased on grid: {entropies}"
        assert len(set(argmaxes)) == 1, f"argmax moved across scales: {argmaxes}"
        checked += 1
    print(f"PASS criterion 4: entropy non-decreasing and argmax fixed over {grid} for {checked} score sets")


# criterion 5 ---------------------------------------------------------------


def _zero_shot_top1(dual, corpus, n_eval=200):
    """Top-1 rate at recovering a sentence's source paragraph, whole corpus in play."""
    snapshot = build_snapshot(dual, corpus)
    tau = tau_value(1.0, dual.config.hidden_size)
    hits = 0
    for doc in corpus.documents[:n_eval]:
        sentences = segment_sentences(doc.text)
        query = corpus.vocab.encode(sentences[doc.id % len(sentences)])
        result = top_k(snapshot, dual.encode_question(query).data, k=1, tau=tau)
        hits += int(result.doc_ids[0] == doc.id)
    return hits / n_eval


def test_criterion_05_ict_zero_shot_beats_random():
    start = time.monotonic()
    data = generate_toy(ToySpec(n_docs=2000, n_train=0, n_dev=0, seed=11))
    corpus = Corpus.build(list(data.corpus))
    config = small_encoder(len(corpus.vocab), hidden=32, heads=4)

    random_top1 = _zero_shot_top1(DualEncoder(config, seed=0), corpus)

    dual = DualEncoder(config, seed=0)
    train_ict(
        corpus,
        dual,
        TrainConfig(batch_size=32, steps=600, learning_rate=3e-2, seed=0, weight_decay=0.0),
    )
    ict_top1 = _zero_shot_top1(dual, corpus)

    elapsed = time.monotonic() - start
    assert ict_top1 >= 3.0 * random_top1, f"ict {ict_top1} < 3x random {random_top1}"
    assert ict_top1 >= 0.03, f"ict top-1 {ict_top1} too weak to count as working"
    assert elapsed < 600.0, f"zero-shot check took {elapsed:.1f}s, budget 600s"
    print(
        f"PASS criterion 5: 2000-doc zero-shot top-1 ict {ict_top1:.3f} vs "
        f"random {random_top1:.3f} in {elapsed:.0f}s"
    )


# criterion 6 ---------------------------------------------------------------


@pytest.mark.filterwarnings(IGNORE_DUP)
def test_criterion_06_pretraining_improves_finetune():
    data = generate_toy(ToySpec(n_docs=192, n_train=96, n_dev=48, seed=29))
    corpus = Corpus.build(list(data.corpus))
    train = [QAExample(**r) for r in data.train]
    dev = [QAExample(**r) for r in data.dev]
    config = small_encoder(len(corpus.vocab), hidden=32, heads=4)

    def finetuned_dev_top1(dual, seed):
        cfg = TrainConfig(
            batch_size=16,
            learning_rate=3e-3,
            epochs=3,
            seed=seed,
            weight_decay=0.0,
            eval_ks=(1,),
        )
        return train_supervised(train, corpus, dual, cfg, dev=dev)[-1]["top1"]

    outcomes = []
    for seed in (0, 1, 2):
        baseline = finetuned_dev_top1(DualEncoder(config, seed=seed), seed)
        warm = DualEncoder(config, seed=seed)
        train_ict(
            corpus,
            warm,
            TrainConfig(batch_size=32, steps=300, learning_rate=3e-2, seed=seed, weight_decay=0.0),
        )
        pretrained = finetuned_dev_top1(warm, seed)
        outcomes.append((seed, baseline, pretrained))

    wins = sum(pretrained >= baseline for _, baseline, pretrained in outcomes)
    assert wins >= 2, f"pretraining lost the majority: {outcomes}"
    summary = ", ".join(f"seed {s}: {b:.3f}->{p:.3f}" for s, b, p in outcomes)
    print(f"PASS criterion 6: pretrain-then-finetune wins {wins}/3 ({summary})")


# criterion 7 ---------------------------------------------------------------


@pytest.mark.filterwarnings(IGNORE_DUP)
def test_criterion_07_overfit_sanity():
    start = time.monotonic()

    data = generate_toy(ToySpec(n_docs=256, n_train=128, n_dev=0, seed=41))
    corpus = Corpus.build(list(data.corpus))
    train = [QAExample(**r) for r in data.train]
    dual = DualEncoder(small_encoder(len(corpus.vocab), hidden=32, heads=4), seed=0)
    retriever_metrics = train_supervised(
        train,
        corpus,
        dual,
        TrainConfig(
            batch_size=16,
            learning_rate=3e-3,
            epochs=200,
            seed=0,
            weight_decay=0.0,
            eval_ks=(1,),
            target_train_top1=0.95,
        ),
    )
    epochs_used = len(retriever_metrics)
    train_top1 = retriever_metrics[-1]["train_top1"]
    assert epochs_used <= 200
    assert train_top1 >= 0.95, f"train top-1 stalled at {train_top1} after {epochs_used} epochs"

    data = generate_toy(ToySpec(n_docs=64, n_train=64, n_dev=0, seed=47))
    corpus = Corpus.build(list(data.corpus))
    pairs = [QAExample(**r) for r in data.train]
    dual = DualEncoder(small_encoder(len(corpus.vocab), hidden=32, heads=4), seed=0)
    reader = Reader(small_reader(len(corpus.vocab), hidden=32, heads=4), seed=1)
    index = EvidenceIndex(corpus)
    index.build(dual)
    reader_metrics = train_e2e(
        pairs,
        corpus,
        dual,
        reader,
        index,
        E2EConfig(
            mode="joint",
            top_k=2,
            epochs=100,
            batch_size=4,
            learning_rate=1e-2,
            weight_decay=0.0,
            refresh_every=100000,
            seed=0,
            max_answer_len=8,
            target_train_em=0.9,
        ),
    )
    train_em = reader_metrics[-1]["em"]
    assert train_em >= 0.9, f"memorization stalled at EM {train_em} after {len(reader_metrics)} epochs"

    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"overfit checks took {elapsed:.1f}s, budget 900s"
    print(
        f"PASS criterion 7: retriever train top-1 {train_top1:.3f} in {epochs_used} epochs, "
        f"reader train EM {train_em:.3f} in {len(reader_metrics)} epochs, {elapsed:.0f}s total"
    )


# criterion 8 ---------------------------------------------------------------


def _one_epoch_param_bytes(update_query, update_context):
    corpus, train, _, dual, reader = toy_world(12, 6, 0, seed=53)
    index = EvidenceIndex(corpus)
    index.build(dual)
    before_q = [p.data.tobytes() for p in dual.question_encoder.parameters()]
    before_z = [p.data.tobytes() for p in dual.context_encoder.parameters()]
    train_e2e(
        train,
        corpus,
        dual,
        reader,
        index,
        E2EConfig(
            mode="individual",
            top_k=2,
            epochs=1,
            batch_size=4,
            learning_rate=1e-3,
            weight_decay=0.0,
            refresh_every=1000,
            seed=0,
            max_answer_len=4,
            update_query_encoder=update_query,
            update_context_encoder=update_context,
        ),
    )
    after_q = [p.data.tobytes() for p in dual.question_encoder.parameters()]
    after_z = [p.data.tobytes() for p in dual.context_encoder.parameters()]
    return before_q == after_q, before_z == after_z


def test_criterion_08_encoder_update_switches():
    q_frozen, z_frozen = _one_epoch_param_bytes(update_query=False, update_context=True)
    assert q_frozen, "question tower moved despite its update switch being off"
    assert not z_frozen, "context tower should have trained in this configuration"

    q_frozen, z_frozen = _one_epoch_param_bytes(update_query=True, update_context=False)
    assert z_frozen, "context tower moved despite its update switch being off"
    assert not q_frozen, "question tower should have trained in this configuration"

    q_frozen, z_frozen = _one_epoch_param_bytes(update_query=True, update_context=True)
    assert not z_frozen, "full training must reach the context tower, not only the question tower"
    assert not q_frozen
    print("PASS criterion 8: tower switches are bitwise (off stays frozen, on trains, both-on reaches the context tower)")


# criterion 9 ---------------------------------------------------------------


def test_criterion_09_index_refresh_schedule():
    corpus, _, _, dual, _ = toy_world(12, 0, 0, seed=53)
    index = EvidenceIndex(corpus)
    index.build(dual)
    tau = tau_value(1.0, dual.config.hidden_size)
    query = dual.encode_question(corpus.vocab.encode("where does sample live ?")).data

    rng = np.random.default_rng(17)
    versions = [index.snapshot.version]
    rankings = [top_k(index.snapshot, query, k=5, tau=tau)]
    for step in range(1, 11):
        for p in dual.context_encoder.parameters():
            p.data += 0.3 * rng.standard_normal(p.data.shape)
        index.refresh(dual, step, refresh_every=5)
        versions.append(index.snapshot.version)
        rankings.append(top_k(index.snapshot, query, k=5, tau=tau))

    assert versions == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2], f"refresh schedule off: {versions}"
    for step in (1, 2, 3, 4):
        assert rankings[step].doc_ids == rankings[0].doc_ids
        assert rankings[step].scores == rankings[0].scores
    assert (
        rankings[5].doc_ids != rankings[4].doc_ids
        or rankings[5].scores != rankings[4].scores
    ), "rankings did not change at the refresh boundary"
    print(f"PASS criterion 9: versions {versions}, rankings bit-stable through step 4, changed at step 5")


# criterion 10 --------------------------------------------------------------


def test_criterion_10_bm25_oracle_and_mining():
    raw = [
        {"id": 0, "title": "tides", "text": "the tide rises and the tide falls twice a day ."},
        {"id": 1, "title": "moons", "text": "the moon pulls the tide with steady force ."},
        {"id": 2, "title": "reefs", "text": "coral reefs shelter fish from the open sea ."},
        {"id": 3, "title": "rivers", "text": "a river carries sediment toward the sea all year ."},
        {"id": 4, "title": "storms", "text": "storm winds drive waves against the shore ."},
        {"id": 5, "title": "deserts", "text": "sand and wind shape the dunes over centuries ."},
    ]
    corpus = Corpus.build(raw)
    stats = build_corpus_stats(corpus)
    k1, b = 1.2, 0.75

    def hand_score(query_tokens, doc):
        counts = Counter(doc.tokens)
        norm = k1 * (1.0 - b + b * len(doc.tokens) / stats.avg_doc_len)
        total = 0.0
        for token in query_tokens:
            f = counts.get(token, 0)
            if f == 0:
                continue
            df = stats.doc_freqs[token]
            idf = math.log(1.0 + (stats.n_docs - df + 0.5) / (df + 0.5))
            total += idf * f * (k1 + 1.0) / (f + norm)
        return total

    checked = 0
    for query in ("the tide", "sea storm waves", "sand over the sea", "coral"):
        tokens = corpus.vocab.encode(query)
        for doc in corpus:
            assert abs(bm25_score(tokens, doc, stats) - hand_score(tokens, doc)) <= 1e-9
            checked += 1
    assert checked == 24

    data = generate_toy(ToySpec(n_docs=64, n_train=40, n_dev=0, seed=61))
    toy_corpus = Corpus.build(list(data.corpus))
    toy_stats = build_corpus_stats(toy_corpus)
    mined_ok = 0
    negatives_seen = 0
    for record in data.train:
        bare = QAExample(question=record["question"], answers=tuple(record["answers"]))
        mined = mine_distant_supervision(
            bare, toy_corpus, toy_stats, n_candidates=64, n_hard_negatives=3
        )
        if mined.filtered:
            continue
        assert contains_answer(toy_corpus.by_id[mined.positive_ctx].text, mined.answers)
        for neg_id in mined.hard_negatives:
            assert not contains_answer(toy_corpus.by_id[neg_id].text, mined.answers)
            negatives_seen += 1
        mined_ok += 1
    assert mined_ok >= 30, f"mining filtered too aggressively: {mined_ok}/40 kept"
    assert negatives_seen > 0
    print(
        f"PASS criterion 10: 24 hand-checked scores within 1e-9; "
        f"{mined_ok} mined positives all answer-bearing, {negatives_seen} hard negatives all answer-free"
    )


# criterion 11 --------------------------------------------------------------


def test_criterion_11_metric_monotonicity_and_em():
    data = generate_toy(ToySpec(n_docs=64, n_train=32, n_dev=0, seed=67))
    corpus = Corpus.build(list(data.corpus))
    examples = [QAExample(**r) for r in data.train]
    config = small_encoder(len(corpus.vocab))
    tau = tau_value(1.0, config.hidden_size)
    ks = (1, 2, 5, 20, 64)

    for label, dual in (
        ("random", DualEncoder(config, seed=0)),
        ("trained", DualEncoder(config, seed=0)),
    ):
        if label == "trained":
            train_ict(
                corpus,
                dual,
                TrainConfig(batch_size=8, steps=50, learning_rate=1e-2, seed=0, weight_decay=0.0),
            )
        snapshot = build_snapshot(dual, corpus)
        accuracies = evaluate_retrieval(examples, corpus, dual, snapshot, ks, tau)
        values = [accuracies[k] for k in ks]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo, f"{label} accuracy not monotone in k: {accuracies}"

    em_cases = [
        ("The Beatles", ("beatles",), True),
        ("u.s. army!", ("US Army",), True),
        ("  19 June 2018 ", ("19 june 2018",), True),
        ("an apple", ("apple",), True),
        ("1998", ("1999",), False),
        ("nineteen", ("nineteen ninety",), False),
    ]
    for prediction, golds, expected in em_cases:
        assert exact_match(prediction, golds) is expected, (prediction, golds)
    print(f"PASS criterion 11: top-k accuracy monotone for random and trained retrievers; {len(em_cases)} normalization cases")


# criterion 12 --------------------------------------------------------------


def test_criterion_12_cli_determinism(tmp_path):
    from retforge import cli

    def run(argv):
        code = cli.main(argv)
        assert code == 0, f"command failed: {argv}"

    data = tmp_path / "data"
    run(
        [
            "make-toy",
            "--out-dir", str(data),
            "--docs", "24", "--train", "8", "--dev", "4", "--seed", "0",
        ]
    )
    shard = tmp_path / "shard"
    run(["ingest", str(data / "corpus.jsonl"), "--out-dir", str(shard)])

    config = tmp_path / "run.cfg"
    config.write_text(
        "\n".join(
            [
                f"corpus={data / 'corpus.jsonl'}",
                f"train={data / 'train.jsonl'}",
                "layers=1", "hidden_size=16", "heads=2", "max_seq_len=64",
                "epochs=2", "batch_size=8", "learning_rate=0.001",
                "seed=3", "weight_decay=0.0",
            ]
        )
        + "\n"
    )

    artifacts = {}
    for attempt in ("first", "second"):
        out = tmp_path / f"train-{attempt}"
        run(["train", "supervised", "--config", str(config), "--out-dir", str(out)])
        eval_dir = tmp_path / f"eval-{attempt}"
        eval_dir.mkdir()
        run(
            [
                "eval",
                "--corpus", str(data / "corpus.jsonl"),
                "--dataset", str(data / "dev.jsonl"),
                "--index", str(out / "index.ridx"),
                "--checkpoint", str(out / "retriever.ckpt"),
                "--ks", "1,5",
                "--out-dir", str(eval_dir),
            ]
        )
        questions = tmp_path / "questions.txt"
        questions.write_text("where does someone live ?\nwhat pet does someone keep ?\n")
        hits = tmp_path / f"hits-{attempt}.jsonl"
        run(
            [
                "retrieve",
                "--corpus", str(data / "corpus.jsonl"),
                "--file", str(questions),
                "--index", str(out / "index.ridx"),
                "--checkpoint", str(out / "retriever.ckpt"),
                "--k", "3",
                "--out", str(hits),
            ]
        )
        artifacts[attempt] = {
            "metrics": (out / "metrics.jsonl").read_bytes(),
            "checkpoint": (out / "retriever.ckpt").read_bytes(),
            "report": (eval_dir / "report.json").read_bytes(),
            "csv": (eval_dir / "report.csv").read_bytes(),
            "hits": hits.read_bytes(),
        }

    for name in artifacts["first"]:
        assert artifacts["first"][name] == artifacts["second"][name], f"{name} differs across reruns"
    print("PASS criterion 12: train, eval, and retrieve reruns are byte-identical (metrics, checkpoint, report, csv, hits)")
