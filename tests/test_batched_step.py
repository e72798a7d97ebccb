"""The batched end-to-end training step against the per-example step it
replaced, with tolerance 0.

Op level: the row-ordered `linear`, `layer_norm` and `embedding` of
`autodiff.Rows` against one one-row graph per row, walked in key order, with
every input a Parameter whose gradient buffer already holds values, so an
accumulation out of order rounds differently and shows. Step level: every
end-to-end recipe, once as shipped and once with `topk_batch_loss` replaced
by a frozen copy of the per-example step (one graph per question, one
encoder forward per context), gives the same loss bits and parameter bytes.
"""

import numpy as np
import pytest

from retforge import autodiff as ad
from retforge import e2e, training
from retforge.data import Corpus, QAExample
from retforge.encoder import (
    CHUNK_TOKENS,
    DualEncoder,
    EncoderConfig,
    TransformerEncoder,
    document_input,
    length_chunks,
    question_input,
)
from retforge.errors import DomainError
from retforge.index import EvidenceIndex
from retforge.reader import Reader, ReaderConfig, with_eos
from retforge.toy import ToySpec, generate_toy
from test_fused import run_recipe

# Op level ---------------------------------------------------------------------


def prefilled(arrays, frozen=()):
    rng = np.random.default_rng(len(arrays))
    params = [ad.Parameter(a, name=f"in{i}") for i, a in enumerate(arrays)]
    for i, p in enumerate(params):
        p.grad = rng.normal(size=p.shape)
        p.requires_grad = i not in frozen
    return params


# rows 0..3 keyed out of row order: their contributions are added as keys 0, 1, 2, 3
KEYS = [(2,), (0,), (3, 1), (1,)]


def assert_rows_match_one_row_graphs(batched, one_row, arrays, frozen=(), activation=True):
    """`batched(rows, *inputs)` over all rows against `one_row(r, *inputs)`
    per row r, the one-row graphs summed in key order; forward bytes and every
    input's gradient bytes. With `activation`, the first input is the
    activation, one (1, ...) Parameter per row in the one-row graphs."""
    params = prefilled(arrays, frozen)
    out = batched(ad.RowOrder().rows(KEYS), *params)
    weights = np.random.default_rng(9).normal(size=out.shape)
    ad.reduce_sum(ad.mul(out, ad.Tensor(weights))).backward()
    got = out.data.tobytes(), [p.grad.tobytes() for p in params]

    params = prefilled(arrays, frozen)
    shared = params[1:] if activation else params
    per_row = [[p] + shared for p in row_params(params[0], frozen)] if activation else [params] * 4
    by_key = sorted(range(len(KEYS)), key=KEYS.__getitem__)
    rows = {r: one_row(r, *per_row[r]) for r in by_key}
    # stack_scalars' walk reaches its parts in order: the row of key 0 first
    ad.reduce_sum(ad.stack_scalars([
        ad.reduce_sum(ad.mul(rows[r], ad.Tensor(weights[r:r + 1]))) for r in by_key
    ])).backward()
    want = [p.grad.tobytes() for p in shared]
    if activation:
        want.insert(0, np.concatenate([row[0].grad for row in per_row]).tobytes())
    assert got[0] == np.concatenate([rows[r].data for r in range(4)]).tobytes(), "forward bits"
    for i, (a, b) in enumerate(zip(got[1], want)):
        assert a == b, f"gradient bits of input {i} differ"


def row_params(x, frozen):
    """x's rows as (1, ...) Parameters holding its rows of gradient."""
    rows = []
    for r in range(x.shape[0]):
        p = ad.Parameter(x.data[r:r + 1], name=f"row{r}")
        p.grad, p.requires_grad = x.grad[r:r + 1].copy(), 0 not in frozen
        rows.append(p)
    return rows


@pytest.mark.parametrize("frozen", [(), (1,), (0, 2)])
def test_row_ordered_linear_matches_one_row_graphs_bitwise(frozen):
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=(4, 5, 8)), rng.normal(size=(8, 6)), rng.normal(size=6)]
    assert_rows_match_one_row_graphs(
        lambda rows, x, w, b: rows.linear(x, w, b),
        lambda r, x, w, b: ad.linear(x, w, b),
        arrays, frozen,
    )


@pytest.mark.parametrize("time", [1, 5])
def test_row_ordered_layer_norm_matches_one_row_graphs_bitwise(time):
    rng = np.random.default_rng(2)
    arrays = [rng.normal(size=(4, time, 8)), rng.normal(size=8), rng.normal(size=8)]
    for frozen in ((), (0,), (1, 2)):
        assert_rows_match_one_row_graphs(
            lambda rows, x, g, b: rows.layer_norm(x, g, b, 1e-5),
            lambda r, x, g, b: ad.layer_norm(x, g, b, 1e-5),
            arrays, frozen,
        )


def test_row_ordered_embedding_matches_one_row_graphs_bitwise():
    table = np.random.default_rng(3).normal(size=(7, 4))
    # repeats within a row and across rows; a per-row arange like position ids
    ids = np.array([[3, 1, 3, 3, 0], [1, 1, 6, 2, 3], [0, 1, 2, 3, 4], [5, 5, 5, 5, 5]])
    assert_rows_match_one_row_graphs(
        lambda rows, t: rows.embedding(t, ids),
        lambda r, t: ad.embedding(t, ids[r:r + 1]),
        [table], activation=False,
    )


def test_a_registered_contribution_that_never_arrives_raises():
    w, b = prefilled([np.ones((3, 3)), np.zeros(3)])
    order = ad.RowOrder()
    x = ad.Tensor(np.ones((2, 4, 3)))
    used = order.rows([(0,), (1,)]).linear(x, w, b)
    order.rows([(2,)]).linear(ad.Tensor(np.ones((1, 4, 3))), w, b)  # never reaches the loss
    with pytest.raises(DomainError, match="never arrived"):
        ad.reduce_sum(used).backward()


# Step level -------------------------------------------------------------------
#
# The per-example step as it ran before the batched one, kept as the oracle.


def reference_live_log_probs(question_tokens, doc_ids, corpus, retriever, tau, doc_vecs=None):
    q_vec = retriever.question_encoder.encode_batch([question_input(question_tokens)])
    if doc_vecs is None:
        z_rows = [
            retriever.context_encoder.encode_batch([document_input(corpus.by_id[i], corpus.vocab)])
            for i in doc_ids
        ]
        z = ad.concat(z_rows, axis=0) if len(z_rows) > 1 else z_rows[0]
    else:
        z = ad.Tensor(doc_vecs)
    scores = ad.reshape(ad.matmul(q_vec, ad.transpose(z, (1, 0))), (len(doc_ids),))
    scaled = ad.scale(scores, 1.0 / tau)
    return scaled - ad.logsumexp(scaled)


def reference_encode_contexts(reader, question_tokens, contexts):
    """One (T_i, d) memory per context, each from its own encoder forward."""
    memories = []
    for z in contexts:
        states = reader.encoder.forward(np.array([reader._input(question_tokens, z)]))
        memories.append(ad.reshape(states, states.shape[1:]))
    return memories


def reference_score_memory(reader, memory, bias, answer):
    scored = reader._teacher_forced(reader._cross_kv(memory), bias, np.asarray([list(answer)]))
    return ad.reshape(scored, ())


def reference_individual_loss(question, answer, retrieved, corpus, retriever, reader, tau,
                              doc_vecs=None):
    answer = with_eos(answer)
    log_liks = ad.stack_scalars([
        reference_score_memory(
            reader, reference_encode_contexts(reader, question, [corpus.by_id[i].tokens])[0],
            None, answer,
        )
        for i in retrieved.doc_ids
    ])
    log_probs = reference_live_log_probs(
        question, retrieved.doc_ids, corpus, retriever, tau, doc_vecs
    )
    return ad.neg(e2e.marginal_log_likelihood(log_liks, log_probs))


def reference_joint_loss(question, answer, retrieved, corpus, retriever, reader, tau,
                         doc_vecs=None):
    answer = with_eos(answer)
    log_probs = reference_live_log_probs(
        question, retrieved.doc_ids, corpus, retriever, tau, doc_vecs
    )
    probs = ad.exp(log_probs)
    contexts = [corpus.by_id[i].tokens for i in retrieved.doc_ids]
    encoded = reference_encode_contexts(reader, question, contexts)
    bias = reader._fusion_bias(probs, [e.shape[0] for e in encoded])
    memory = ad.concat(encoded, axis=0) if len(encoded) > 1 else encoded[0]
    return ad.neg(reference_score_memory(reader, memory, bias, answer))


REFERENCE_LOSSES = {
    e2e.individual_losses: reference_individual_loss,
    e2e.joint_losses: reference_joint_loss,
}


def reference_topk_batch_loss(pairs, snapshot, k, tau, loss_fn, corpus, retriever, reader):
    """The per-example loop: one loss graph per question, then their mean."""
    found = e2e.retrieve([q for q, _ in pairs], retriever, snapshot, k, tau)
    context = retriever.context_encoder
    if any(p.requires_grad for p in context.parameters()):
        doc_vecs = [None] * len(found)
    else:
        distinct = list(dict.fromkeys(doc_id for r in found for doc_id in r.doc_ids))
        vecs = context.embed([document_input(corpus.by_id[i], corpus.vocab) for i in distinct])
        row = {doc_id: n for n, doc_id in enumerate(distinct)}
        doc_vecs = [vecs[[row[doc_id] for doc_id in r.doc_ids]] for r in found]
    losses = [
        REFERENCE_LOSSES[loss_fn](question, answer, retrieved, corpus, retriever, reader, tau, v)
        for (question, answer), retrieved, v in zip(pairs, found, doc_vecs)
    ]
    return ad.reduce_mean(ad.stack_scalars(losses))


def use_reference_step(monkeypatch):
    monkeypatch.setattr(e2e, "topk_batch_loss", reference_topk_batch_loss)
    monkeypatch.setattr(training, "topk_batch_loss", reference_topk_batch_loss)


WORDS = "amber birch cedar dune ember fjord grove heron iris jade kelp lark moss".split()
# texts of 2 to 30 tokens against a reader max_seq_len of 16: the longest
# (question, document) inputs are cut to 16, the others keep lengths of their own
MIXED_DOCS = [
    {"id": i, "title": WORDS[i], "text": " ".join(WORDS[(2 * i + j) % len(WORDS)] for j in range(n))}
    for i, n in enumerate([2, 5, 8, 8, 11, 30])
]
# five questions in batches of two: every epoch ends on a batch of one
MIXED_QA = [
    ("where is the amber ?", "birch"),
    ("what is by the kelp lark ?", "moss"),
    ("iris", "jade kelp"),
    ("where does the heron nest by the fjord ?", "grove"),
    ("dune ember", "cedar dune ember"),
]


def mixed_run(mode, update_z, k):
    corpus = Corpus.build(MIXED_DOCS)
    v = len(corpus.vocab)
    dual = DualEncoder(
        EncoderConfig(vocab_size=v, layers=1, hidden_size=16, heads=2, max_seq_len=24), seed=3
    )
    reader = Reader(
        ReaderConfig(vocab_size=v, enc_layers=1, dec_layers=2, hidden_size=16, heads=2,
                     max_seq_len=16, max_answer_len=6),
        seed=4,
    )
    reader.lambda_bias.data = np.asarray(0.25)  # so the joint bias passes a gradient
    index = EvidenceIndex(corpus)
    index.build(dual)
    records = e2e.train_e2e(
        [QAExample(question=q, answers=(a,)) for q, a in MIXED_QA], corpus, dual, reader, index,
        e2e.E2EConfig(mode=mode, top_k=k, epochs=2, batch_size=2, learning_rate=1e-2,
                      weight_decay=0.0, refresh_every=2, update_context_encoder=update_z,
                      seed=2, max_answer_len=6),
    )
    losses = [r["loss"].hex() for r in records]
    return losses, [p.data.tobytes() for p in dual.parameters() + reader.parameters()]


RUNS = {
    "recipe-e2e-individual": lambda: run_recipe("e2e-individual"),
    "recipe-e2e-joint": lambda: run_recipe("e2e-joint"),
    "recipe-salient": lambda: run_recipe("salient"),
    "mixed-individual-k1": lambda: mixed_run("individual", True, 1),
    "mixed-individual-k3": lambda: mixed_run("individual", True, 3),
    "mixed-individual-frozen-context-k3": lambda: mixed_run("individual", False, 3),
    "mixed-joint-k1": lambda: mixed_run("joint", False, 1),
    "mixed-joint-k3": lambda: mixed_run("joint", False, 3),
}


@pytest.mark.filterwarnings("ignore:.*duplicate context.*:UserWarning")
@pytest.mark.parametrize("run", sorted(RUNS))
def test_batched_step_matches_the_per_example_step_bitwise(run, monkeypatch):
    shipped = RUNS[run]()
    use_reference_step(monkeypatch)
    assert RUNS[run]() == shipped


def deliver_in_arrival_order(self, param, keys, contributions):
    """`RowOrder.deliver` without the key order: each row added as it comes."""
    for key, part in zip(keys, contributions):
        self._queues[id(param)].due[key] -= 1
        if isinstance(part, tuple):
            at, values = part
            param.grad[at] += values
        else:
            param.accumulate_grad(part)


@pytest.mark.filterwarnings("ignore:.*duplicate context.*:UserWarning")
def test_rows_summed_in_arrival_order_break_the_oracle(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(ad.RowOrder, "deliver", deliver_in_arrival_order)
        unordered = {run: RUNS[run]() for run in RUNS}
    use_reference_step(monkeypatch)
    differing = {run for run in RUNS if RUNS[run]() != unordered[run]}
    # where a chunk's rows cross examples out of key order
    assert {"mixed-individual-k3", "mixed-joint-k3", "recipe-salient"} <= differing


def test_mixed_runs_cover_cut_inputs_one_row_chunks_and_shared_chunks(monkeypatch):
    shapes = []  # (rows, length) of every row-ordered forward of the reader's encoder
    forward = TransformerEncoder.forward

    def spy(self, token_ids, pooled=False, rows=None):
        if rows is not None and self.config.max_seq_len == 16:
            shapes.append(np.shape(token_ids))
        return forward(self, token_ids, pooled, rows)

    monkeypatch.setattr(TransformerEncoder, "forward", spy)
    mixed_run("individual", True, 3)
    assert any(t == 16 for _, t in shapes) and any(t < 16 for _, t in shapes)
    assert any(n == 1 for n, _ in shapes) and any(n > 1 for n, _ in shapes)


# Call counts ------------------------------------------------------------------


def test_a_step_makes_one_reader_encoder_forward_per_length_chunk(monkeypatch):
    data = generate_toy(ToySpec(n_docs=32, n_train=8, n_dev=0, seed=7))
    corpus = Corpus.build(list(data.corpus))
    v = len(corpus.vocab)
    dual = DualEncoder(
        EncoderConfig(vocab_size=v, layers=1, hidden_size=32, heads=4, max_seq_len=64), seed=0
    )
    reader = Reader(ReaderConfig(vocab_size=v, enc_layers=1, dec_layers=1, hidden_size=32,
                                 heads=4, max_seq_len=64, max_answer_len=8), seed=1)
    index = EvidenceIndex(corpus)
    index.build(dual)
    pairs = [
        (corpus.vocab.encode(ex["question"]), corpus.vocab.encode(ex["answers"][0]))
        for ex in data.train
    ]
    tau = e2e.tau_value(1.0, 32)
    found = e2e.retrieve([q for q, _ in pairs], dual, index.snapshot, 4, tau)
    inputs = [reader._input(q, corpus.by_id[i].tokens) for (q, _), r in zip(pairs, found)
              for i in r.doc_ids]
    forwards = []

    def counted(*args, _original=reader.encoder.forward, **kwargs):
        forwards.append(ad.grad_enabled())
        return _original(*args, **kwargs)

    monkeypatch.setattr(reader.encoder, "forward", counted)
    for p in dual.context_encoder.parameters():  # frozen, as joint training has it
        p.requires_grad = False
    loss = e2e.topk_batch_loss(pairs, index.snapshot, 4, tau, e2e.joint_losses, corpus, dual,
                               reader)
    loss.backward()
    chunks = list(length_chunks(map(len, inputs), CHUNK_TOKENS))
    assert len(inputs) == 32 and len({len(x) for x in inputs}) > 1
    assert forwards == [True] * len(chunks)
    assert len(chunks) < len(inputs) // 4
