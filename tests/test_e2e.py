import math
import tracemalloc

import numpy as np
import pytest

import composed

from retforge import autodiff as ad
from retforge import e2e, optim
from retforge import encoder as encoder_module
from retforge import reader as reader_module
from retforge.data import Corpus, QAExample, SpanAnnotation
from retforge.encoder import LN_EPS, DualEncoder, EncoderConfig, length_chunks
from retforge.errors import ConfigError, DomainError
from retforge.index import EvidenceIndex, top_k
from retforge.reader import Reader, ReaderConfig, with_eos
from retforge.text import BOS_ID, EOS_ID, Vocabulary
from retforge.training import TrainConfig, train_salient_spans

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
    with pytest.raises(ConfigError):
        e2e.E2EConfig(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        e2e.E2EConfig(warmup_ratio=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="tau_multiple"):
            e2e.E2EConfig(tau_multiple=bad)
        with pytest.raises(ConfigError, match="learning_rate"):
            e2e.E2EConfig(learning_rate=bad)
    with pytest.raises(ConfigError, match="seed"):
        e2e.E2EConfig(seed=-1)
    for bad in (math.nan, math.inf, -5.0):
        with pytest.raises(ConfigError, match="weight_decay"):
            e2e.E2EConfig(weight_decay=bad)


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
    spied = {"infer": reader.encoder, "_decode_logits": reader}
    seen = {name: [] for name in spied}
    for name, calls in seen.items():
        def recording(*args, _original=getattr(spied[name], name), _calls=calls, **kwargs):
            _calls.append(ad.grad_enabled())
            return _original(*args, **kwargs)

        monkeypatch.setattr(spied[name], name, recording)
    question = corpus.vocab.encode(DATASET[0].question)
    tau = e2e.tau_value(1.0, 16)
    for infer in (e2e.individual_topk_infer, e2e.joint_topk_infer):
        before = {name: len(calls) for name, calls in seen.items()}
        result = infer(question, retriever, reader, index.snapshot, corpus, k=2, tau=tau)
        q_vec = retriever.encode_question(question).data  # with a graph, outside
        assert result.retrieved == top_k(index.snapshot, q_vec, k=2, tau=tau)
        # each mode reaches the chunked encode and the shared decoder
        assert all(len(calls) > before[name] for name, calls in seen.items())
    assert not any(any(calls) for calls in seen.values())
    assert ad.grad_enabled()


# Bitwise oracles for the reader ------------------------------------------------


def reference_decode_logits(reader, memory, bias, decoder_input):
    """The one-row decoder that the batched one replaced: (T_mem, d) memory,
    (T_dec,) ids -> (T_dec, vocab) logits, projecting the memory through
    ck/cv in every layer of every call."""
    cfg = reader.config
    p = reader.dec_params
    dh = cfg.hidden_size // cfg.heads

    def heads(x):
        return ad.transpose(ad.reshape(x, (x.shape[0], cfg.heads, dh)), (1, 0, 2))

    def merge(x):
        h, t, dh = x.shape
        return ad.reshape(ad.transpose(x, (1, 0, 2)), (t, h * dh))

    t_dec = len(decoder_input)
    ids = np.asarray(decoder_input, dtype=np.int64)
    h = ad.embedding(p["token_emb"], ids) + ad.embedding(p["pos_emb"], np.arange(t_dec))
    causal = np.where(np.triu(np.ones((t_dec, t_dec), dtype=bool), k=1), ad.MASK_NEG, 0.0)
    for i in range(cfg.dec_layers):
        x = composed.layer_norm(h, p[f"layer{i}.ln1_g"], p[f"layer{i}.ln1_b"], LN_EPS)
        q = heads(ad.matmul(x, p[f"layer{i}.wq"]) + p[f"layer{i}.wq_b"])
        k = heads(ad.matmul(x, p[f"layer{i}.wk"]) + p[f"layer{i}.wk_b"])
        v = heads(ad.matmul(x, p[f"layer{i}.wv"]) + p[f"layer{i}.wv_b"])
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
        self_out = merge(ad.matmul(ad.softmax(scores, mask=causal), v))
        h = h + (ad.matmul(self_out, p[f"layer{i}.wo"]) + p[f"layer{i}.wo_b"])

        x = composed.layer_norm(h, p[f"layer{i}.lnc_g"], p[f"layer{i}.lnc_b"], LN_EPS)
        q = heads(ad.matmul(x, p[f"layer{i}.cq"]) + p[f"layer{i}.cq_b"])
        k = heads(ad.matmul(memory, p[f"layer{i}.ck"]) + p[f"layer{i}.ck_b"])
        v = heads(ad.matmul(memory, p[f"layer{i}.cv"]) + p[f"layer{i}.cv_b"])
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
        if bias is not None:
            scores = scores + bias
        cross_out = merge(ad.matmul(ad.softmax(scores), v))
        h = h + (ad.matmul(cross_out, p[f"layer{i}.co"]) + p[f"layer{i}.co_b"])

        x = composed.layer_norm(h, p[f"layer{i}.ln2_g"], p[f"layer{i}.ln2_b"], LN_EPS)
        inner = ad.gelu(ad.matmul(x, p[f"layer{i}.w1"]) + p[f"layer{i}.w1_b"])
        h = h + (ad.matmul(inner, p[f"layer{i}.w2"]) + p[f"layer{i}.w2_b"])
    h = composed.layer_norm(h, p["final_ln_g"], p["final_ln_b"], LN_EPS)
    return ad.matmul(h, p["out_proj"]) + p["out_proj_b"]


def reference_log_likelihood(reader, memory, bias, answer):
    logits = reference_decode_logits(reader, memory, bias, [BOS_ID] + list(answer[:-1]))
    t, v = logits.shape
    out = ad.sequence_log_prob(ad.reshape(logits, (1, t, v)), np.asarray([answer]))
    return ad.reshape(out, ())


def reference_greedy(reader, memory, bias, max_len):
    cap = reader.config.max_answer_len - 1 if max_len is None else max_len
    generated = []
    for _ in range(min(cap, reader.config.max_answer_len - 1)):
        logits = reference_decode_logits(reader, memory, bias, [BOS_ID] + generated)
        next_id = int(np.argmax(logits.data[-1]))
        if next_id == EOS_ID:
            break
        generated.append(next_id)
    return generated


def reference_fusion_memory(reader, question, contexts, probs):
    """Fused memory from one encode per context, with the lambda * p bias."""
    encoded = [reader.encode_pair(question, z) for z in contexts]
    memory = ad.concat(encoded, axis=0) if len(encoded) > 1 else encoded[0]
    lengths = [e.shape[0] for e in encoded]
    spread = np.zeros((sum(lengths), len(contexts)))
    lo = 0
    for i, n in enumerate(lengths):
        spread[lo:lo + n, i] = 1.0
        lo += n
    probs_t = probs if isinstance(probs, ad.Tensor) else ad.Tensor(np.asarray(probs))
    per_position = ad.matmul(
        ad.Tensor(spread),
        ad.reshape(ad.mul(reader.lambda_bias, probs_t), (len(contexts), 1)),
    )
    shift = float(-(float(reader.lambda_bias.data) * probs_t.data).max())
    bias = ad.reshape(per_position, (sum(lengths),)) + ad.Tensor(np.array(shift))
    return memory, bias


def reference_joint_answer(reader, question, contexts, probs, max_len):
    """The joint reader path as it ran one question at a time: one encode per
    context, the lambda * p bias over one fused memory, and the one-row
    greedy decoder."""
    with ad.no_grad():
        memory, bias = reference_fusion_memory(reader, question, contexts, probs)
        return reference_greedy(reader, memory, bias, max_len)


def reference_individual_infer(question, retriever, reader, snapshot, corpus, k, tau, max_len):
    """The per-pair loop: one greedy decode per document, then one
    likelihood per (candidate, document), each encoding its pair afresh."""
    retrieved = top_k(snapshot, retriever.encode_question(question).data, k=k, tau=tau)
    contexts = [corpus.by_id[doc_id].tokens for doc_id in retrieved.doc_ids]
    candidates = []
    for z in contexts:
        tokens = tuple(reference_greedy(reader, reader.encode_pair(question, z), None, max_len))
        if tokens not in candidates:
            candidates.append(tokens)
    marginals = []
    for cand in candidates:
        total = 0.0
        for z, prob in zip(contexts, retrieved.probs):
            memory = reader.encode_pair(question, z)
            ll = reference_log_likelihood(reader, memory, None, with_eos(list(cand)))
            total += math.exp(ll.item()) * prob
        marginals.append(total)
    best = max(range(len(candidates)), key=lambda i: (marginals[i], -i))
    strings = tuple(corpus.vocab.decode(c) for c in candidates)
    return strings[best], strings, tuple(marginals), retrieved


WORDS = "amber birch cedar dune ember fjord grove heron iris jade kelp lark moss".split()
# token counts 2..31 against a reader max_seq_len of 20: the longer inputs are
# cut to one shared length, the shorter ones keep lengths of their own
MIXED_DOCS = [
    {
        "id": i,
        "title": f"{WORDS[i]} {WORDS[-1 - i]}",
        "text": " ".join(WORDS[(3 * i + j) % len(WORDS)] for j in range(n)),
    }
    for i, n in enumerate([2, 5, 9, 13, 13, 18, 26, 31])
]
MIXED_QUESTIONS = ["where is the amber birch ?", "what kelp grows by the jade dune ?", "heron"]
# an [EOS] logit bias at which the sharpened random reader stops some
# documents early and runs others to the cap
EOS_BIAS = {1: 2.0, 2: 1.9}


def make_mixed_world(dec_layers):
    corpus = Corpus.build(MIXED_DOCS)
    v = len(corpus.vocab)
    retriever = DualEncoder(
        EncoderConfig(vocab_size=v, layers=1, hidden_size=16, heads=2, max_seq_len=32), seed=3
    )
    reader = Reader(
        ReaderConfig(
            vocab_size=v, enc_layers=1, dec_layers=dec_layers, hidden_size=16, heads=2,
            max_seq_len=20, max_answer_len=6,
        ),
        seed=dec_layers,
    )
    reader.dec_params["out_proj"].data *= 30
    reader.dec_params["out_proj_b"].data[EOS_ID] = EOS_BIAS[dec_layers]
    reader.lambda_bias.data = np.asarray(0.7)
    index = EvidenceIndex(corpus)
    index.build(retriever)
    return corpus, retriever, reader, index


@pytest.mark.parametrize("dec_layers", [1, 2])
def test_individual_infer_matches_per_pair_reference_bitwise(dec_layers):
    corpus, retriever, reader, index = make_mixed_world(dec_layers)
    tau = e2e.tau_value(1.0, 16)
    input_lengths, early_stops = set(), 0
    for k in (1, 3, 6):
        for max_len in (None, 3):
            cap = 5 if max_len is None else max_len
            for text in MIXED_QUESTIONS:
                question = corpus.vocab.encode(text)
                got = e2e.individual_topk_infer(
                    question, retriever, reader, index.snapshot, corpus, k, tau, max_len
                )
                answer, candidates, marginals, retrieved = reference_individual_infer(
                    question, retriever, reader, index.snapshot, corpus, k, tau, max_len
                )
                assert got.retrieved == retrieved
                assert (got.answer, got.candidates) == (answer, candidates)
                assert [m.hex() for m in got.marginals] == [m.hex() for m in marginals]
                for doc_id in retrieved.doc_ids:
                    z = corpus.by_id[doc_id].tokens
                    input_lengths.add(min(len(question) + 1 + len(z), 20))
                    early_stops += len(reader.greedy_decode(question, z, max_len)) < cap
    # the fixture covers truncated and untruncated inputs and early [EOS] stops
    assert 20 in input_lengths and len(input_lengths) >= 4
    assert early_stops > 0


@pytest.mark.parametrize("dec_layers", [1, 2])
def test_joint_infer_matches_per_context_reference_bitwise(dec_layers):
    corpus, retriever, reader, index = make_mixed_world(dec_layers)
    tau = e2e.tau_value(1.0, 16)
    for k in (1, 3, 6):
        for max_len in (None, 3):
            for text in MIXED_QUESTIONS:
                question = corpus.vocab.encode(text)
                got = e2e.joint_topk_infer(
                    question, retriever, reader, index.snapshot, corpus, k, tau, max_len
                )
                contexts = [corpus.by_id[i].tokens for i in got.retrieved.doc_ids]
                want = reference_joint_answer(
                    reader, question, contexts, got.retrieved.probs, max_len
                )
                assert got.answer == corpus.vocab.decode(want)


def reference_per_question(mode, question, retriever, reader, snapshot, corpus, k, tau, max_len):
    """One question encoded and searched on its own, then the mode's reader
    pass over that question alone: the per-pair loop, or one fused memory."""
    if mode == "individual":
        answer, candidates, marginals, retrieved = reference_individual_infer(
            question, retriever, reader, snapshot, corpus, k, tau, max_len
        )
        # a candidate decodes to "" only when it has no tokens
        return answer, candidates, marginals, retrieved, all(not c for c in candidates)
    retrieved = top_k(snapshot, retriever.encode_question(question).data, k=k, tau=tau)
    contexts = [corpus.by_id[doc_id].tokens for doc_id in retrieved.doc_ids]
    tokens = reference_joint_answer(reader, question, contexts, retrieved.probs, max_len)
    answer = corpus.vocab.decode(tokens)
    return answer, (answer,), (), retrieved, not tokens


# five more of 6 tokens, whose fused memories can share a length with the
# first question's, and four of 19 to 24 tokens, every input of which is cut to
# the reader's max_seq_len of 20, so that their memories share a length at each k
MORE_QUESTIONS = [
    "where is the jade heron ?", "where is the moss lark ?", "where is the iris grove ?",
    "where is the kelp fjord ?", "what is the cedar dune ?",
] + [
    " ".join(WORDS[(5 * j + i) % len(WORDS)] for i in range(n))
    for j, n in enumerate([19, 21, 24, 19])
]


def check_joint_decoder_rows(reader, questions, results, corpus, batches):
    """Every row of every joint decoder call gives the logits of the one-row
    reference decoder over its own question's fused memory and bias, bit for
    bit. `batches` holds, per greedy batch, the (ids, logits) of its decoder
    calls. Returns (a group split over several batches, a row left on [EOS]
    while two or more decoded on)."""
    with ad.no_grad():
        refs = [
            reference_fusion_memory(
                reader, q, [corpus.by_id[i].tokens for i in r.retrieved.doc_ids],
                r.retrieved.probs,
            )
            for q, r in zip(questions, results)
        ]
        lengths = [memory.shape[0] for memory, _ in refs]
        chunks = list(length_chunks(lengths, reader_module.DECODE_MEMORY_TOKENS))
        assert len(chunks) == len(batches)
        early_stop = False
        for active, calls in zip(chunks, batches):
            for ids, logits in calls:
                assert len(ids) == len(active)
                for row, q in enumerate(active):
                    want = reference_decode_logits(reader, *refs[q], ids[row])
                    assert logits[row].tobytes() == want.data.tobytes()
                going = [q for row, q in enumerate(active) if logits[row, -1].argmax() != EOS_ID]
                early_stop |= 1 < len(going) < len(active)
                active = going
    return len(chunks) > len(set(lengths)), early_stop


@pytest.mark.parametrize("mode", sorted(e2e.MODES))
def test_answer_questions_matches_one_question_at_a_time_bitwise(mode, monkeypatch):
    corpus, retriever, reader, index = make_mixed_world(2)
    # two 120-token memories fill a decoder call, so the k=6 group of the
    # long questions splits into chunks; an encoder forward takes at most 100
    # tokens, an individual slice 24 pairs
    monkeypatch.setattr(reader_module, "DECODE_MEMORY_TOKENS", 250)
    monkeypatch.setattr(encoder_module, "CHUNK_TOKENS", 100)
    monkeypatch.setattr(e2e, "READ_SLICE_PAIRS", 24)
    encoded = []  # the inputs of each `encoder.infer` call
    batches = []  # per greedy batch, the (ids, logits) of each decoder call
    greedy_groups = []  # per greedy batch, (encode calls before it, its memory length)
    encode, greedy, decode = reader.encoder.infer, reader._greedy, reader._decode_logits

    def recording_encode(inputs):
        encoded.append(inputs)
        return encode(inputs)

    def recording_greedy(cross, bias, max_len):
        batches.append([])
        greedy_groups.append((len(encoded), cross[0][0].shape[1]))
        return greedy(cross, bias, max_len)

    def recording_decode(ids, cross, bias, rows=None):
        # every decoder call, greedy or scoring, keeps to the memory bound
        memory_tokens = len(ids) * cross[0][0].shape[1]
        assert len(ids) == 1 or memory_tokens <= reader_module.DECODE_MEMORY_TOKENS
        logits = decode(ids, cross, bias, rows)
        batches[-1].append((ids, logits.data))
        return logits

    monkeypatch.setattr(reader, "_greedy", recording_greedy)
    tau = e2e.tau_value(1.0, 16)
    questions = [corpus.vocab.encode(text) for text in MIXED_QUESTIONS + MORE_QUESTIONS]
    assert len({len(q) for q in questions}) >= 6  # mixed lengths
    split = early_stop = False
    for k in (1, 3, 6):
        for max_len in (None, 3):
            del encoded[:], batches[:], greedy_groups[:]
            with monkeypatch.context() as patch:
                patch.setattr(reader.encoder, "infer", recording_encode)
                patch.setattr(reader, "_decode_logits", recording_decode)
                got = e2e.answer_questions(
                    questions, retriever, reader, index.snapshot, corpus, mode, k, tau, max_len
                )
            # the reader encodes the memories of one decoder chunk, inside one
            # individual slice, at a time; one question (its k inputs) may
            # exceed the bound
            for inputs in encoded:
                one_question = len(inputs) <= k
                if mode == "individual":
                    assert len(inputs) <= e2e.READ_SLICE_PAIRS or one_question
                memory_tokens = sum(map(len, inputs))  # each cut to max_seq_len 20
                assert memory_tokens <= reader_module.DECODE_MEMORY_TOKENS or one_question
            assert len(encoded) > 1 or k == 1  # 12 questions of 3 or 6 pairs cross a bound
            if mode == "joint":
                coverage = check_joint_decoder_rows(reader, questions, got, corpus, batches)
                split |= coverage[0]
                early_stop |= coverage[1]
            else:
                # a memory-length group of one slice decoded over several chunks
                split |= len(set(greedy_groups)) < len(greedy_groups)
            assert len(got) == len(questions)
            for result, question in zip(got, questions):
                answer, candidates, marginals, retrieved, all_empty = reference_per_question(
                    mode, question, retriever, reader, index.snapshot, corpus, k, tau, max_len
                )
                assert result.retrieved == retrieved
                assert (result.answer, result.candidates) == (answer, candidates)
                assert [m.hex() for m in result.marginals] == [m.hex() for m in marginals]
                assert result.all_empty == all_empty
                infer = e2e.individual_topk_infer if mode == "individual" else e2e.joint_topk_infer
                assert infer(
                    question, retriever, reader, index.snapshot, corpus, k, tau, max_len
                ) == result
    # the pass crossed a chunk boundary inside a memory-length group
    assert split
    if mode == "joint":
        # some batch row left on [EOS] while two or more decoded on
        assert early_stop


@pytest.mark.parametrize("mode", sorted(e2e.MODES))
def test_answer_questions_memory_does_not_grow_with_the_question_count(mode, monkeypatch):
    corpus, retriever, reader, index = make_mixed_world(2)
    # two 120-token memories fill a joint decoder call, so that the first
    # question count already fills the chunks of its memory lengths
    monkeypatch.setattr(reader_module, "DECODE_MEMORY_TOKENS", 250)
    texts = MIXED_QUESTIONS + MORE_QUESTIONS
    tau = e2e.tau_value(1.0, 16)
    peaks = []
    for n in (len(texts), 8 * len(texts)):
        questions = [corpus.vocab.encode(texts[i % len(texts)]) for i in range(n)]
        tracemalloc.start()
        try:
            e2e.answer_questions(questions, retriever, reader, index.snapshot, corpus, mode, 6, tau)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the reader holds one individual slice or joint decoder chunk at a time;
    # only the results grow
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_joint_answers_take_one_decoder_call_per_step(monkeypatch):
    corpus, retriever, reader, index = make_world()
    questions = [corpus.vocab.encode(ex.question) for ex in DATASET[:2]]
    # equal-length documents and questions: one input length, one memory length
    assert len({len(doc.tokens) for doc in corpus}) == 1 == len({len(q) for q in questions})
    calls = {"forward": 0, "decode": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(reader.encoder, "forward", counted("forward", reader.encoder.forward))
    monkeypatch.setattr(reader, "_decode_logits", counted("decode", reader._decode_logits))
    tau = e2e.tau_value(1.0, 16)
    results = e2e.answer_questions(
        questions, retriever, reader, index.snapshot, corpus, "joint", 4, tau, 4
    )
    counts = dict(calls)
    decoded = [
        reader.joint_greedy_decode(
            q, [corpus.by_id[i].tokens for i in r.retrieved.doc_ids], r.retrieved.probs, 4
        )
        for q, r in zip(questions, results)
    ]
    memory_tokens = 4 * (len(questions[0]) + 1 + len(corpus.by_id[0].tokens))
    assert len(questions) * memory_tokens <= encoder_module.CHUNK_TOKENS
    assert len(questions) * memory_tokens <= reader_module.DECODE_MEMORY_TOKENS
    assert counts == {"forward": 1, "decode": max(len(t) + (len(t) < 4) for t in decoded)}


def test_individual_answers_take_one_decoder_call_per_step(monkeypatch):
    corpus, retriever, reader, index = make_world()
    questions = [corpus.vocab.encode(ex.question) for ex in DATASET[:2]]
    # equal-length documents and questions: one input length, one memory length
    assert len({len(doc.tokens) for doc in corpus}) == 1 == len({len(q) for q in questions})
    memory_tokens = len(questions[0]) + 1 + len(corpus.by_id[0].tokens)
    calls = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    tau = e2e.tau_value(1.0, 16)
    # the default encoder chunk takes the 8 pairs in one forward; one of 3
    # pairs' tokens takes three, and must not cut the decoder's calls
    for pairs_per_forward in (None, 3):
        calls.update(forward=0, decode=0)
        with monkeypatch.context() as patch:
            if pairs_per_forward:
                patch.setattr(encoder_module, "CHUNK_TOKENS", pairs_per_forward * memory_tokens)
            patch.setattr(reader.encoder, "forward", counted("forward", reader.encoder.forward))
            patch.setattr(reader, "_decode_logits", counted("decode", reader._decode_logits))
            results = e2e.answer_questions(
                questions, retriever, reader, index.snapshot, corpus, "individual", 4, tau, 4
            )
            chunk_tokens = encoder_module.CHUNK_TOKENS
        decoded = [
            reader.greedy_decode(q, corpus.by_id[i].tokens, 4)
            for q, r in zip(questions, results) for i in r.retrieved.doc_ids
        ]
        # the 8 pairs share one slice and one memory chunk, and even 8
        # candidates per question scored on its 4 documents would fit in one
        # decoder call per answer length
        assert len(decoded) == 8 <= e2e.READ_SLICE_PAIRS
        forwards = math.ceil(len(decoded) / (pairs_per_forward or len(decoded)))
        assert (len(decoded) * memory_tokens <= chunk_tokens) == (forwards == 1)
        assert len(decoded) * 4 * memory_tokens <= reader_module.DECODE_MEMORY_TOKENS
        steps = max(len(t) + (len(t) < 4) for t in decoded)
        assert calls == {"forward": forwards, "decode": steps + len({len(t) for t in decoded})}


def reader_grads(reader, extra=()):
    return [p.grad.tobytes() for p in reader.parameters() + list(extra)]


@pytest.mark.parametrize("dec_layers", [1, 2])
def test_training_loss_and_gradients_match_one_row_decoder_bitwise(dec_layers):
    corpus, retriever, reader, _ = make_mixed_world(dec_layers)
    question = corpus.vocab.encode(MIXED_QUESTIONS[1])
    contexts = [corpus.by_id[i].tokens for i in (0, 7, 3)]  # 2, 31 and 13 tokens
    for answer in ([EOS_ID], with_eos([9]), with_eos([9, 11, 12])):
        for z in contexts:
            runs = []
            for score in (
                lambda: reader.answer_log_likelihood(question, z, answer),
                lambda: reference_log_likelihood(
                    reader, reader.encode_pair(question, z), None, answer
                ),
            ):
                for p in reader.parameters():
                    p.zero_grad()
                loss = ad.neg(score())
                loss.backward()
                runs.append((loss.item().hex(), reader_grads(reader)))
            assert runs[0] == runs[1]

        runs = []
        for fused in (
            lambda probs: reader.joint_forward(question, contexts, probs, answer),
            lambda probs: reference_log_likelihood(
                reader, *reference_fusion_memory(reader, question, contexts, probs), answer
            ),
        ):
            probs = ad.Parameter(np.array([0.2, 0.5, 0.3]), name="probs")
            for p in reader.parameters():
                p.zero_grad()
            loss = ad.neg(fused(probs))
            loss.backward()
            runs.append((loss.item().hex(), reader_grads(reader, [probs])))
        assert runs[0] == runs[1]


def test_individual_infer_encodes_once_and_batches_the_decoder(monkeypatch):
    corpus, retriever, reader, index = make_world()
    assert len({len(doc.tokens) for doc in corpus}) == 1  # equal-length inputs
    calls = {"forward": 0, "decode": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(reader.encoder, "forward", counted("forward", reader.encoder.forward))
    monkeypatch.setattr(reader, "_decode_logits", counted("decode", reader._decode_logits))
    question = corpus.vocab.encode(DATASET[2].question)
    tau = e2e.tau_value(1.0, 16)
    result = e2e.individual_topk_infer(
        question, retriever, reader, index.snapshot, corpus, k=4, tau=tau, max_len=4
    )
    counts = dict(calls)
    assert len(result.retrieved.doc_ids) == 4
    decoded = [
        reader.greedy_decode(question, corpus.by_id[i].tokens, 4) for i in result.retrieved.doc_ids
    ]
    steps = max(len(t) + (len(t) < 4) for t in decoded)
    scoring_groups = len({len(t) for t in decoded})
    assert counts == {"forward": 1, "decode": steps + scoring_groups}


# Frozen towers leave the graph -------------------------------------------------


class FrozenGroupsRecordGraph(optim.AdamW):
    """Reference optimizer: disabled groups keep `requires_grad=True`, so their
    towers still record a graph whose gradient the step then ignores."""

    def __init__(self, groups, **kwargs):
        super().__init__(groups, **kwargs)
        for group in groups:
            for p in group.params:
                p.requires_grad = True


def run_e2e(mode, update_q, update_z):
    corpus, retriever, reader, index = make_world()
    reader.lambda_bias.data = np.asarray(0.25)  # so the joint bias passes a gradient
    config = e2e.E2EConfig(
        mode=mode, top_k=2, epochs=2, batch_size=2, learning_rate=1e-3,
        weight_decay=0.0, refresh_every=3, update_query_encoder=update_q,
        update_context_encoder=update_z, seed=5, max_answer_len=4,
    )
    records = e2e.train_e2e(DATASET, corpus, retriever, reader, index, config)
    return [r["loss"].hex() for r in records], retriever, reader


def run_salient(update_q, update_z):
    corpus, retriever, reader, index = make_world()
    config = TrainConfig(
        batch_size=2, steps=4, refresh_every=2, top_k=2, learning_rate=1e-3,
        weight_decay=0.0, update_query_encoder=update_q,
        update_context_encoder=update_z, seed=5,
    )
    # each document is one sentence ending "<place> <noun> ."
    annotations = {doc.id: SpanAnnotation(doc.id, ((6, 7, ""),)) for doc in corpus}
    records = train_salient_spans(corpus, annotations, retriever, reader, index, config)
    return [r["loss"].hex() for r in records], retriever, reader


FROZEN_RUNS = {
    "e2e-joint": lambda: run_e2e("joint", True, False),
    "e2e-individual-query-off": lambda: run_e2e("individual", False, True),
    "e2e-individual-context-off": lambda: run_e2e("individual", True, False),
    "salient-query-off": lambda: run_salient(False, True),
    "salient-context-off": lambda: run_salient(True, False),
}


@pytest.mark.parametrize("run", sorted(FROZEN_RUNS))
def test_frozen_tower_out_of_graph_is_bit_exact(run, monkeypatch):
    losses, retriever, reader = FROZEN_RUNS[run]()
    monkeypatch.setattr(optim, "AdamW", FrozenGroupsRecordGraph)
    ref_losses, ref_retriever, ref_reader = FROZEN_RUNS[run]()
    assert losses == ref_losses
    assert param_bytes(retriever.parameters() + reader.parameters()) == param_bytes(
        ref_retriever.parameters() + ref_reader.parameters()
    )


def reference_live_log_probs(q_rows, found, corpus, retriever, tau, order):
    """`_live_log_probs` as it was: every document re-encoded by a graph
    forward of the context tower, frozen or not."""
    z_rows = iter(retriever.context_encoder.encode_rows(
        [encoder_module.document_input(corpus.by_id[i], corpus)
         for r in found for i in r.doc_ids],
        order, [(i, c) for i, r in enumerate(found) for c in range(len(r.doc_ids))], pooled=True,
    ))
    log_probs = []
    for q_vec, r in zip(q_rows, found):
        z = ad.concat([next(z_rows) for _ in r.doc_ids])
        scaled = ad.scale(ad.reshape(ad.matmul(q_vec, ad.transpose(z, (1, 0))), (z.shape[0],)),
                          1.0 / tau)
        log_probs.append(scaled - ad.logsumexp(scaled))
    return log_probs


@pytest.mark.parametrize("run", sorted(FROZEN_RUNS))
def test_context_vectors_match_per_document_encode_bitwise(run, monkeypatch):
    losses, retriever, reader = FROZEN_RUNS[run]()
    monkeypatch.setattr(e2e, "_live_log_probs", reference_live_log_probs)
    ref_losses, ref_retriever, ref_reader = FROZEN_RUNS[run]()
    assert losses == ref_losses
    assert param_bytes(retriever.parameters() + reader.parameters()) == param_bytes(
        ref_retriever.parameters() + ref_reader.parameters()
    )


@pytest.mark.parametrize("recipe, update_z", [
    ("e2e-joint", False), ("e2e-individual", False), ("e2e-individual", True),
    ("salient", False), ("salient", True),
])
def test_frozen_context_tower_is_embedded_once_per_step(recipe, update_z, monkeypatch):
    corpus, retriever, reader, index = make_world()
    tower = retriever.context_encoder
    embeds, graph_forwards = [], []
    question_embeds, question_forwards = [], []

    def patch(encoder, embeds, forwards):
        def embed(sequences, _original=encoder.embed):
            embeds.append(len(sequences))
            return _original(sequences)

        def forward(*args, _original=encoder.forward, **kwargs):
            forwards.append(ad.grad_enabled())
            return _original(*args, **kwargs)

        monkeypatch.setattr(encoder, "embed", embed)
        monkeypatch.setattr(encoder, "forward", forward)

    patch(tower, embeds, graph_forwards)
    patch(retriever.question_encoder, question_embeds, question_forwards)
    if recipe == "salient":
        config = TrainConfig(batch_size=2, steps=3, refresh_every=1000, top_k=2,
                             update_context_encoder=update_z, seed=5)
        annotations = {doc.id: SpanAnnotation(doc.id, ((6, 7, ""),)) for doc in corpus}
        steps = len(train_salient_spans(corpus, annotations, retriever, reader, index, config))
    else:
        config = e2e.E2EConfig(
            mode=recipe[4:], top_k=2, epochs=2, batch_size=2, refresh_every=1000,
            update_context_encoder=update_z, seed=5, max_answer_len=4,
        )
        steps = e2e.train_e2e(DATASET, corpus, retriever, reader, index, config)[-1]["step"]
    if config.update_context_encoder:
        assert not embeds and any(graph_forwards)
    else:
        # the index built before training filled the tower's store of rows,
        # so no step embeds
        assert steps >= 3 and not embeds
        assert not any(graph_forwards)
    # the search reads the loss's own question rows: the question tower makes
    # no `embed` call and no graph-free forward
    assert not question_embeds and question_forwards and all(question_forwards)


def test_a_frozen_step_that_misses_the_store_embeds_the_corpus_once(monkeypatch):
    config = e2e.E2EConfig(mode="joint", top_k=1, epochs=2, batch_size=1, refresh_every=1000,
                           seed=5, max_answer_len=4)
    corpus, retriever, reader, index = make_world()
    losses = [r["loss"].hex() for r in e2e.train_e2e(DATASET, corpus, retriever, reader, index,
                                                      config)]
    corpus, _, fresh_reader, index = make_world()
    fresh = DualEncoder(retriever.config, seed=1)  # the same weights, an empty store
    sizes = []

    def embed(sequences, _original=fresh.context_encoder.embed):
        sizes.append(len(sequences))
        return _original(sequences)

    monkeypatch.setattr(fresh.context_encoder, "embed", embed)
    records = e2e.train_e2e(DATASET, corpus, fresh, fresh_reader, index, config)
    # the first step embeds the whole corpus; the frozen tower's later steps read it
    assert sizes == [len(corpus)]
    assert [r["loss"].hex() for r in records] == losses
    assert param_bytes(fresh.parameters() + fresh_reader.parameters()) == param_bytes(
        retriever.parameters() + reader.parameters()
    )


def test_joint_step_leaves_context_grads_zero():
    _, retriever, _ = run_e2e("joint", True, False)
    assert all(not p.grad.any() for p in retriever.context_encoder.parameters())
    assert any(p.grad.any() for p in retriever.question_encoder.parameters())


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


def test_train_em_records_and_target_stops_after_first_epoch():
    corpus, retriever, reader, index = make_world()
    config = e2e.E2EConfig(
        top_k=2, epochs=3, batch_size=2, learning_rate=1e-3, seed=11, max_answer_len=4,
        target_train_em=0.0,
    )
    metrics = e2e.train_e2e(DATASET, corpus, retriever, reader, index, config, dev=DATASET[:2])
    assert len(metrics) == 1  # any exact match satisfies a 0.0 target
    tau = e2e.tau_value(1.0, 16)
    em = e2e.evaluate_em(
        DATASET[:2], corpus, retriever, reader, index.snapshot, "individual", 2, tau, 4
    )
    assert metrics[0]["em"] == em


@pytest.mark.parametrize("mode", sorted(e2e.MODES))
def test_train_calls_the_modes_batched_loss_once_per_step(mode, monkeypatch):
    batches = []
    loss, read_pass = e2e.MODES[mode]

    def counted(questions, *args):
        batches.append(len(questions))
        return loss(questions, *args)

    monkeypatch.setitem(e2e.MODES, mode, (counted, read_pass))
    run_training(mode)
    assert batches == [2, 1, 2, 1]  # 3 examples in batches of 2, in each of 2 epochs


@pytest.mark.parametrize("mode", sorted(e2e.MODES))
def test_train_encodes_each_question_and_answer_once(mode, monkeypatch):
    corpus, retriever, reader, index = make_world()
    config = e2e.E2EConfig(mode=mode, top_k=2, epochs=2, batch_size=2, refresh_every=97,
                           seed=11, max_answer_len=4)
    assert config.update_context_encoder == (mode == "individual")
    encoded = []

    def encode(vocab, text, _original=Vocabulary.encode):
        encoded.append(text)
        return _original(vocab, text)

    monkeypatch.setattr(Vocabulary, "encode", encode)
    e2e.train_e2e(DATASET, corpus, retriever, reader, index, config)
    # the steps read the run's encoded pairs and the corpus's title tokens
    assert encoded == [text for ex in DATASET for text in (ex.question, *ex.answers)]


def test_train_rejects_empty_dataset():
    corpus, retriever, reader, index = make_world()
    with pytest.raises(DomainError):
        e2e.train_e2e([], corpus, retriever, reader, index, e2e.E2EConfig())


def test_evaluate_em_range_and_validation():
    corpus, retriever, reader, index = make_world()
    settings = ("individual", 2, e2e.tau_value(1.0, 16), 4)
    em = e2e.evaluate_em(DATASET, corpus, retriever, reader, index.snapshot, *settings)
    assert 0.0 <= em <= 1.0
    with pytest.raises(DomainError):
        e2e.evaluate_em([], corpus, retriever, reader, index.snapshot, *settings)


def test_evaluate_retrieval_uses_answer_containment():
    corpus, retriever, reader, index = make_world()
    tau = e2e.tau_value(1.0, 16)
    acc = e2e.evaluate_retrieval(DATASET, corpus, retriever, index.snapshot, (1, 4), tau)
    assert set(acc) == {1, 4}
    assert acc[4] == 1.0  # every answer string appears in some document
    assert 0.0 <= acc[1] <= acc[4]
