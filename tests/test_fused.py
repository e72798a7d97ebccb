"""The fused layer ops (`layer_norm`, `linear`, `attention`) against the
composed chains they replace, with tolerance 0.

Op level: forward bytes and every input's gradient bytes. Each input is a
Parameter whose gradient buffer already holds values, so an accumulation out
of the chain's order rounds differently and shows. Recipe level: every
training recipe, once as shipped and once with the fused ops routed through
the composed chains, gives the same loss bits and parameter bytes.
"""

import numpy as np
import pytest

import composed
from retforge import autodiff as ad
from retforge.data import Corpus, QAExample, SpanAnnotation
from retforge.e2e import E2EConfig, individual_topk_loss, train_e2e
from retforge.encoder import LN_EPS, DualEncoder, EncoderConfig
from retforge.errors import DimensionError
from retforge.index import EvidenceIndex, top_k
from retforge.reader import Reader, ReaderConfig
from retforge.text import PAD_ID
from retforge.toy import ToySpec, generate_toy
from retforge.training import TrainConfig, train_ict, train_salient_spans, train_supervised


def run_op(fn, arrays, frozen=()):
    """Output bytes and each input's gradient bytes after one backward of a
    weighted sum of the output; inputs listed in `frozen` need no gradient."""
    rng = np.random.default_rng(len(arrays))
    params = [ad.Parameter(a, name=f"in{i}") for i, a in enumerate(arrays)]
    for i, p in enumerate(params):
        p.grad = rng.normal(size=p.shape)
        p.requires_grad = i not in frozen
    out = fn(*params)
    ad.reduce_sum(ad.mul(out, ad.Tensor(rng.normal(size=out.shape)))).backward()
    return out.data.tobytes(), [p.grad.tobytes() for p in params]


def assert_same_bits(fused, reference, arrays, frozen=()):
    got, want = run_op(fused, arrays, frozen), run_op(reference, arrays, frozen)
    assert got[0] == want[0], "forward bits differ"
    for i, (a, b) in enumerate(zip(got[1], want[1])):
        assert a == b, f"gradient bits of input {i} differ"


SHAPES = {
    "2d": (5, 8),
    "3d": (3, 5, 8),
    "4d": (2, 3, 4, 8),
    "batch1": (1, 5, 8),
    "time1": (3, 1, 8),
    "batch1-time1": (1, 1, 8),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_layer_norm_matches_composed_chain_bitwise(shape):
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=SHAPES[shape]), rng.normal(size=8), rng.normal(size=8)]
    # a frozen input takes no gradient, and the others still match
    for frozen in ((), (0,), (1, 2)):
        assert_same_bits(
            lambda x, g, b: ad.layer_norm(x, g, b, LN_EPS),
            lambda x, g, b: composed.layer_norm(x, g, b, LN_EPS),
            arrays,
            frozen,
        )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_linear_matches_composed_chain_bitwise(shape):
    rng = np.random.default_rng(2)
    arrays = [rng.normal(size=SHAPES[shape]), rng.normal(size=(8, 6)), rng.normal(size=6)]
    assert_same_bits(ad.linear, composed.linear, arrays)
    assert_same_bits(ad.linear, composed.linear, arrays, frozen=(1,))


def pad_mask(lengths, t):
    ids = np.array([[7] * n + [PAD_ID] * (t - n) for n in lengths])
    return np.where((ids == PAD_ID)[:, None, None, :], ad.MASK_NEG, 0.0)


def causal_mask(t):
    return np.where(np.triu(np.ones((t, t), dtype=bool), k=1), ad.MASK_NEG, 0.0)


# (q shape, key count, heads, mask, with a trainable bias)
ATTENTION_CASES = {
    "pad-mask": ((3, 5, 8), 5, 2, pad_mask([5, 3, 1], 5), False),
    "pad-mask-batch1": ((1, 4, 8), 4, 4, pad_mask([2], 4), False),
    "causal": ((2, 4, 8), 4, 2, causal_mask(4), False),
    "causal-time1": ((3, 1, 8), 1, 2, causal_mask(1), False),
    "bias": ((2, 3, 8), 5, 2, None, True),
    "bias-time1": ((3, 1, 8), 6, 4, None, True),
    "bias-and-mask": ((2, 3, 8), 5, 2, np.where(np.arange(5) == 4, ad.MASK_NEG, 0.0), True),
    "2d": ((3, 8), 5, 2, None, False),
    "4d": ((2, 2, 3, 8), 4, 2, None, True),
}


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_matches_composed_chain_bitwise(case):
    q_shape, s, heads, mask, with_bias = ATTENTION_CASES[case]
    rng = np.random.default_rng(3)
    kv_shape = q_shape[:-2] + (s, q_shape[-1])
    arrays = [rng.normal(size=q_shape), rng.normal(size=kv_shape), rng.normal(size=kv_shape)]
    if with_bias:
        arrays.append(rng.normal(size=s))

    def attend(op):
        return lambda q, k, v, bias=None: op(q, k, v, heads, mask=mask, bias=bias)

    fused, reference = attend(ad.attention), attend(composed.attention)
    assert_same_bits(fused, reference, arrays)
    assert_same_bits(fused, reference, arrays, frozen=(1, 2))  # constant keys and values


@pytest.mark.parametrize("value_width", [4, 2])
def test_biased_attention_matches_its_composed_chain_bitwise(value_width):
    rng = np.random.default_rng(4)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(5, 4)),
              rng.normal(size=(5, value_width)), rng.normal(size=5)]
    assert_same_bits(ad.biased_attention, composed.biased_attention, arrays)


def test_fused_ops_reject_mismatched_shapes():
    q = ad.Tensor(np.zeros((2, 3, 8)))
    with pytest.raises(DimensionError):
        ad.attention(q, ad.Tensor(np.zeros((2, 4, 8))), ad.Tensor(np.zeros((2, 5, 8))), 2)
    with pytest.raises(DimensionError):
        ad.attention(q, q, q, 3)  # 3 heads do not divide 8
    with pytest.raises(DimensionError):
        ad.linear(q, ad.Tensor(np.zeros((6, 4))), ad.Tensor(np.zeros(4)))


# Recipe level -----------------------------------------------------------------


def recipe_world():
    data = generate_toy(ToySpec(n_docs=10, n_train=6, n_dev=0, seed=5))
    corpus = Corpus.build(list(data.corpus))
    train = [QAExample(**r) for r in data.train]
    annotations = {
        s["doc_id"]: SpanAnnotation(s["doc_id"], tuple(tuple(x) for x in s["spans"]))
        for s in data.spans
    }
    v = len(corpus.vocab)
    dual = DualEncoder(
        EncoderConfig(vocab_size=v, layers=2, hidden_size=16, heads=2, max_seq_len=64), seed=3
    )
    reader = Reader(
        ReaderConfig(vocab_size=v, enc_layers=1, dec_layers=2, hidden_size=16, heads=2,
                     max_seq_len=64, max_answer_len=8),
        seed=4,
    )
    reader.lambda_bias.data = np.asarray(0.25)  # so the joint bias passes a gradient
    index = EvidenceIndex(corpus)
    index.build(dual)
    return corpus, train, annotations, dual, reader, index


def run_recipe(name):
    corpus, train, annotations, dual, reader, index = recipe_world()
    config = TrainConfig(batch_size=3, steps=3, epochs=2, learning_rate=1e-2, seed=2,
                         weight_decay=0.0, eval_ks=(1,), refresh_every=2, top_k=2)
    if name == "ict":
        records = train_ict(corpus, dual, config)
    elif name == "supervised":
        records = train_supervised(train, corpus, dual, config)
    elif name == "salient":
        records = train_salient_spans(corpus, annotations, dual, reader, index, config)
    else:
        records = train_e2e(train, corpus, dual, reader, index, E2EConfig(
            mode=name.split("-")[1], top_k=2, epochs=2, batch_size=3, learning_rate=1e-2,
            weight_decay=0.0, refresh_every=3, seed=2, max_answer_len=8,
        ))
    losses = [r["loss"].hex() for r in records]
    return losses, [p.data.tobytes() for p in dual.parameters() + reader.parameters()]


@pytest.mark.filterwarnings("ignore:.*duplicate context.*:UserWarning")
@pytest.mark.parametrize("recipe", ["ict", "supervised", "e2e-individual", "e2e-joint", "salient"])
def test_recipe_matches_composed_chains_bitwise(recipe, monkeypatch):
    shipped = run_recipe(recipe)
    composed.use_composed(monkeypatch)
    assert run_recipe(recipe) == shipped


# Graph size -------------------------------------------------------------------


def tensors_built(monkeypatch, fn) -> int:
    built = []
    init = ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("_op"))
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ad.Tensor, "__init__", counting)
        out = fn()
    assert out.requires_grad  # a graph-mode call
    return len(built)


def test_one_layer_forward_and_decoder_call_build_few_tensors(monkeypatch):
    enc = EncoderConfig(vocab_size=40, layers=1, hidden_size=16, heads=2, max_seq_len=32)
    encoder = DualEncoder(enc, seed=0).question_encoder
    ids = np.array([[2, 8, 9, 10], [2, 11, 12, PAD_ID]])
    # composed chains built 70 here: 9 per layer norm, 2 per projection, ~12 for attention
    assert tensors_built(monkeypatch, lambda: encoder.forward(ids)) <= 23
    # pooled with a graph: the same nodes, two row cuts and the pooling
    pooled = tensors_built(monkeypatch, lambda: encoder.encode_batch([[2, 8, 9, 10], [2, 11, 12]]))
    assert pooled <= 19

    reader = Reader(ReaderConfig(vocab_size=40, enc_layers=1, dec_layers=1, hidden_size=16,
                                 heads=2, max_seq_len=32, max_answer_len=8))
    cross = reader._cross_kv(reader.encode_pair([8, 9], [10, 11, 12]))

    def decode():
        return reader._decode_logits(np.array([[3, 8, 9]]), cross, None)

    assert tensors_built(monkeypatch, decode) <= 33  # 98 with the composed chains


def test_individual_topk_loss_builds_no_reshape_only_nodes(monkeypatch):
    corpus, train, _, _, _, _ = recipe_world()
    v = len(corpus.vocab)
    dual = DualEncoder(EncoderConfig(vocab_size=v, layers=1, hidden_size=16, heads=2,
                                     max_seq_len=64), seed=0)
    reader = Reader(ReaderConfig(vocab_size=v, enc_layers=1, dec_layers=1, hidden_size=16,
                                 heads=2, max_seq_len=64, max_answer_len=8))
    index = EvidenceIndex(corpus)
    index.build(dual)
    question = corpus.vocab.encode(train[0].question)
    retrieved = top_k(index.snapshot, dual.embed_questions([question])[0], k=2, tau=4.0)
    answer = corpus.vocab.encode(train[0].answers[0])

    def loss():
        return individual_topk_loss(question, answer, retrieved, corpus, dual, reader, 4.0)

    # the towers' (1, d) `encode_batch` rows feed the scores directly; a
    # reshape to (d,) and back per vector would add 2(k + 1) = 6 nodes
    assert tensors_built(monkeypatch, loss) <= 151
