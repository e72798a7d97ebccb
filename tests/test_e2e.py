import math

import numpy as np
import pytest

from retforge import autodiff as ad
from retforge import e2e
from retforge.data import Corpus, QAExample
from retforge.encoder import DualEncoder, EncoderConfig
from retforge.errors import ConfigError, DomainError
from retforge.index import EvidenceIndex, top_k
from retforge.reader import Reader, ReaderConfig, with_eos

DOCS = [
    {"id": 0, "title": "red stone", "text": "The red stone rests in the north tower."},
    {"id": 1, "title": "blue gem", "text": "The blue gem sits in the south vault."},
    {"id": 2, "title": "green leaf", "text": "A green leaf fell near the east gate."},
    {"id": 3, "title": "white bird", "text": "The white bird nests on the west wall."},
]

DATASET = [
    QAExample(question="where is the red stone ?", answers=("north tower",)),
    QAExample(question="where is the blue gem ?", answers=("south vault",)),
    QAExample(question="where does the white bird nest ?", answers=("west wall",)),
]


def make_world(enc_seed=1, reader_seed=2):
    corpus = Corpus.build(DOCS)
    v = len(corpus.vocab)
    retriever = DualEncoder(
        EncoderConfig(vocab_size=v, layers=1, hidden_size=16, heads=2, max_seq_len=64),
        seed=enc_seed,
    )
    reader = Reader(
        ReaderConfig(
            vocab_size=v,
            enc_layers=1,
            dec_layers=1,
            hidden_size=16,
            heads=2,
            max_seq_len=64,
            max_answer_len=8,
        ),
        seed=reader_seed,
    )
    index = EvidenceIndex(corpus)
    index.build(retriever)
    return corpus, retriever, reader, index


def param_bytes(params):
    return [p.data.tobytes() for p in params]


# Marginal likelihood ---------------------------------------------------------


def test_marginal_log_likelihood_hand_value():
    # two documents: likelihoods 0.5 / 0.1, retrieval probs 0.8 / 0.2
    log_liks = ad.Tensor(np.log([0.5, 0.1]))
    log_probs = ad.Tensor(np.log([0.8, 0.2]))
    mll = e2e.marginal_log_likelihood(log_liks, log_probs)
    assert abs(math.exp(mll.item()) - 0.42) <= 1e-12
    direct = math.log(0.5 * 0.8 + 0.1 * 0.2)
    assert abs(mll.item() - direct) <= 1e-12


def test_marginal_log_space_survives_underflow():
    # direct likelihood sum underflows to 0.0 in float64; log space must not
    log_liks = ad.Tensor(np.array([-800.0, -805.0]))
    log_probs = ad.Tensor(np.log([0.7, 0.3]))
    mll = e2e.marginal_log_likelihood(log_liks, log_probs)
    expected = np.logaddexp(-800.0 + math.log(0.7), -805.0 + math.log(0.3))
    assert math.isfinite(mll.item())
    assert abs(mll.item() - expected) <= 1e-12
    assert math.exp(log_liks.data[0]) == 0.0  # the direct route really is dead


def test_marginal_validation():
    a = ad.Tensor(np.zeros(3))
    b = ad.Tensor(np.zeros(2))
    with pytest.raises(DomainError):
        e2e.marginal_log_likelihood(a, b)
    with pytest.raises(DomainError):
        e2e.marginal_log_likelihood(ad.Tensor(np.zeros(0)), ad.Tensor(np.zeros(0)))
    with pytest.raises(DomainError):
        e2e.marginal_log_likelihood(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 2))))


# Individual objective --------------------------------------------------------


def test_individual_loss_k1_is_plain_nll():
    corpus, retriever, reader, index = make_world()
    question = corpus.vocab.encode(DATASET[0].question)
    answer = corpus.vocab.encode(DATASET[0].answers[0])
    tau = e2e.tau_value(1.0, 16)
    retrieved = top_k(
        index.snapshot, retriever.encode_question(question).data, k=1, tau=tau
    )
    loss = e2e.individual_topk_loss(
        question, answer, retrieved, corpus, retriever, reader, tau
    )
    doc = corpus.by_id[retrieved.doc_ids[0]]
    ll = reader.answer_log_likelihood(question, doc.tokens, with_eos(answer))
    # single retrieved doc: log p(z|q) == 0, so the loss is exactly -log p(a|q,z)
    assert loss.item() == -ll.item()


def test_individual_loss_bounded_by_per_doc_nll():
    corpus, retriever, reader, index = make_world()
    question = corpus.vocab.encode(DATASET[1].question)
    answer = corpus.vocab.encode(DATASET[1].answers[0])
    tau = e2e.tau_value(1.0, 16)
    retrieved = top_k(
        index.snapshot, retriever.encode_question(question).data, k=3, tau=tau
    )
    loss = e2e.individual_topk_loss(
        question, answer, retrieved, corpus, retriever, reader, tau
    ).item()
    nlls = [
        -reader.answer_log_likelihood(
            question, corpus.by_id[i].tokens, with_eos(answer)
        ).item()
        for i in retrieved.doc_ids
    ]
    # the marginal is a convex combination of per-document likelihoods
    assert min(nlls) - 1e-9 <= loss <= max(nlls) + 1e-9


def test_individual_loss_rejects_empty_retrieval():
    corpus, retriever, reader, index = make_world()
    from retforge.index import RetrievalResult

    empty = RetrievalResult(doc_ids=(), scores=(), probs=())
    with pytest.raises(DomainError):
        e2e.individual_topk_loss([1, 2], [3], empty, corpus, retriever, reader, 4.0)


# Gradient routing through the encoder switches -------------------------------


def train_one_epoch(mode, update_q, update_z):
    corpus, retriever, reader, index = make_world()
    # at the init point lambda == 0 and the joint bias passes no gradient to
    # the retriever; start it off zero so one step exercises the full path
    reader.lambda_bias.data = np.asarray(0.25)
    config = e2e.E2EConfig(
        mode=mode,
        top_k=2,
        epochs=1,
        batch_size=4,
        learning_rate=1e-3,
        weight_decay=0.0,
        refresh_every=97,
        update_query_encoder=update_q,
        update_context_encoder=update_z,
        seed=5,
        max_answer_len=4,
    )
    q_before = param_bytes(retriever.question_encoder.parameters())
    z_before = param_bytes(retriever.context_encoder.parameters())
    lam_before = reader.lambda_bias.data.copy()
    metrics = e2e.train_e2e(DATASET, corpus, retriever, reader, index, config)
    q_after = param_bytes(retriever.question_encoder.parameters())
    z_after = param_bytes(retriever.context_encoder.parameters())
    return q_before, q_after, z_before, z_after, lam_before, reader, metrics


def test_individual_mode_updates_both_towers():
    q0, q1, z0, z1, _, _, metrics = train_one_epoch("individual", True, True)
    assert any(a != b for a, b in zip(q0, q1))
    assert any(a != b for a, b in zip(z0, z1))
    assert len(metrics) == 1 and math.isfinite(metrics[0]["loss"])


def test_context_switch_off_is_bit_exact():
    q0, q1, z0, z1, _, _, _ = train_one_epoch("individual", True, False)
    assert all(a == b for a, b in zip(z0, z1))
    assert any(a != b for a, b in zip(q0, q1))


def test_query_switch_off_is_bit_exact():
    q0, q1, z0, z1, _, _, _ = train_one_epoch("individual", False, True)
    assert all(a == b for a, b in zip(q0, q1))
    assert any(a != b for a, b in zip(z0, z1))


def test_joint_mode_freezes_context_tower():
    q0, q1, z0, z1, lam0, reader, _ = train_one_epoch("joint", True, True)
    assert all(a == b for a, b in zip(z0, z1))  # coerced off
    assert any(a != b for a, b in zip(q0, q1))
    assert not np.array_equal(reader.lambda_bias.data, lam0)


def test_joint_config_coerces_context_switch():
    config = e2e.E2EConfig(mode="joint", update_context_encoder=True)
    assert config.update_context_encoder is False
    kept = e2e.E2EConfig(mode="individual", update_context_encoder=True)
    assert kept.update_context_encoder is True


def test_config_validation():
    with pytest.raises(ConfigError):
        e2e.E2EConfig(mode="fused")
    with pytest.raises(ConfigError):
        e2e.E2EConfig(top_k=0)
    with pytest.raises(ConfigError):
        e2e.E2EConfig(tau_multiple=0.0)
    with pytest.raises(ConfigError):
        e2e.E2EConfig(refresh_every=0)


def joint_loss_grads(lambda_value):
    corpus, retriever, reader, index = make_world()
    reader.lambda_bias.data = np.asarray(lambda_value)
    question = corpus.vocab.encode(DATASET[0].question)
    answer = corpus.vocab.encode(DATASET[0].answers[0])
    tau = e2e.tau_value(1.0, 16)
    retrieved = top_k(
        index.snapshot, retriever.encode_question(question).data, k=2, tau=tau
    )
    loss = e2e.joint_topk_loss(
        question, answer, retrieved, corpus, retriever, reader, tau
    )
    loss.backward()
    lam_grad = float(np.abs(reader.lambda_bias.grad).max())
    q_grad = max(
        float(np.abs(p.grad).max())
        for p in retriever.question_encoder.parameters()
    )
    return lam_grad, q_grad


def test_joint_loss_reaches_lambda_and_query_tower():
    lam_grad, q_grad = joint_loss_grads(0.5)
    assert lam_grad > 0.0
    assert q_grad > 0.0


def test_joint_loss_zero_lambda_blocks_retriever_gradient():
    # bias is lambda * p, so at lambda == 0 the probs get an exact zero grad
    lam_grad, q_grad = joint_loss_grads(0.0)
    assert lam_grad > 0.0  # lambda itself still learns
    assert q_grad == 0.0


# Inference -------------------------------------------------------------------


def test_individual_infer_contract():
    corpus, retriever, reader, index = make_world()
    question = corpus.vocab.encode(DATASET[2].question)
    tau = e2e.tau_value(1.0, 16)
    result = e2e.individual_topk_infer(
        question, retriever, reader, index.snapshot, corpus, k=3, tau=tau, max_len=4
    )
    assert len(result.candidates) == len(set(result.candidates))
    assert len(result.marginals) == len(result.candidates)
    best = max(
        range(len(result.candidates)), key=lambda i: (result.marginals[i], -i)
    )
    assert result.answer == result.candidates[best]
    assert result.all_empty == all(c == "" for c in result.candidates)
    assert len(result.retrieved.doc_ids) == 3


def test_individual_infer_k1_matches_single_greedy():
    corpus, retriever, reader, index = make_world()
    question = corpus.vocab.encode(DATASET[0].question)
    tau = e2e.tau_value(1.0, 16)
    result = e2e.individual_topk_infer(
        question, retriever, reader, index.snapshot, corpus, k=1, tau=tau, max_len=4
    )
    doc = corpus.by_id[result.retrieved.doc_ids[0]]
    expected = reader.greedy_decode(question, doc.tokens, 4)
    assert result.answer == corpus.vocab.decode(expected)


def test_joint_infer_k1_matches_single_greedy():
    corpus, retriever, reader, index = make_world()
    question = corpus.vocab.encode(DATASET[1].question)
    tau = e2e.tau_value(1.0, 16)
    result = e2e.joint_topk_infer(
        question, retriever, reader, index.snapshot, corpus, k=1, tau=tau, max_len=4
    )
    doc = corpus.by_id[result.retrieved.doc_ids[0]]
    expected = reader.greedy_decode(question, doc.tokens, 4)
    assert result.answer == corpus.vocab.decode(expected)
    assert result.candidates == (result.answer,)


def test_inference_entry_points_record_no_graph(monkeypatch):
    corpus, retriever, reader, index = make_world()
    seen = []
    for name in ("greedy_decode", "answer_log_likelihood", "joint_greedy_decode"):
        def recording(*args, _original=getattr(reader, name), **kwargs):
            seen.append(ad.grad_enabled())
            return _original(*args, **kwargs)

        monkeypatch.setattr(reader, name, recording)
    question = corpus.vocab.encode(DATASET[0].question)
    tau = e2e.tau_value(1.0, 16)
    for infer in (e2e.individual_topk_infer, e2e.joint_topk_infer):
        result = infer(question, retriever, reader, index.snapshot, corpus, k=2, tau=tau)
        q_vec = retriever.encode_question(question).data  # with a graph, outside
        assert result.retrieved == top_k(index.snapshot, q_vec, k=2, tau=tau)
    assert len(seen) >= 3 and not any(seen)
    assert ad.grad_enabled()


# Training loop ---------------------------------------------------------------


def run_training(mode):
    corpus, retriever, reader, index = make_world()
    config = e2e.E2EConfig(
        mode=mode,
        top_k=2,
        epochs=2,
        batch_size=2,
        learning_rate=1e-3,
        weight_decay=0.0,
        refresh_every=97,
        seed=11,
        max_answer_len=4,
    )
    return e2e.train_e2e(DATASET, corpus, retriever, reader, index, config)


@pytest.mark.parametrize("mode", ["individual", "joint"])
def test_seeded_rerun_reproduces_metrics(mode):
    assert run_training(mode) == run_training(mode)


def test_train_metrics_shape():
    metrics = run_training("individual")
    assert [m["epoch"] for m in metrics] == [1, 2]
    assert metrics[-1]["step"] == 4  # 3 examples, batches of 2, two epochs
    assert all(m["k"] == 2 for m in metrics)
    assert all(math.isfinite(m["loss"]) for m in metrics)
    assert all(m["lr"] > 0 for m in metrics)


def test_train_rejects_empty_dataset():
    corpus, retriever, reader, index = make_world()
    with pytest.raises(DomainError):
        e2e.train_e2e([], corpus, retriever, reader, index, e2e.E2EConfig())


def test_evaluate_em_range_and_validation():
    corpus, retriever, reader, index = make_world()
    config = e2e.E2EConfig(top_k=2, max_answer_len=4)
    em = e2e.evaluate_em(DATASET, corpus, retriever, reader, index.snapshot, config)
    assert 0.0 <= em <= 1.0
    with pytest.raises(DomainError):
        e2e.evaluate_em([], corpus, retriever, reader, index.snapshot, config)


def test_evaluate_retrieval_uses_answer_containment():
    corpus, retriever, reader, index = make_world()
    tau = e2e.tau_value(1.0, 16)
    acc = e2e.evaluate_retrieval(DATASET, corpus, retriever, index.snapshot, (1, 4), tau)
    assert set(acc) == {1, 4}
    assert acc[4] == 1.0  # every answer string appears in some document
    assert 0.0 <= acc[1] <= acc[4]
