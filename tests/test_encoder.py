import numpy as np
import pytest

from retforge import autodiff as ad
from retforge.checkpoint import load_checkpoint, save_checkpoint
from retforge.encoder import (
    CHUNK_TOKENS,
    DualEncoder,
    EncoderConfig,
    context_input,
    question_input,
    truncated_normal,
)
from retforge.errors import DimensionError, DomainError, FormatError
from retforge.text import CLS_ID, PAD_ID, SEP_ID

TINY = EncoderConfig(vocab_size=16, layers=1, hidden_size=8, heads=2, max_seq_len=8)


def test_config_validation():
    with pytest.raises(DomainError):
        EncoderConfig(vocab_size=16, layers=0)
    with pytest.raises(DomainError):
        EncoderConfig(vocab_size=16, hidden_size=4)
    with pytest.raises(DomainError):
        EncoderConfig(vocab_size=16, hidden_size=64, heads=5)
    for heads in (0, -4):  # 64 % -4 == 0, and 64 % 0 divides by zero
        with pytest.raises(DomainError, match="heads"):
            EncoderConfig(vocab_size=16, hidden_size=64, heads=heads)
    with pytest.raises(DomainError):
        EncoderConfig(vocab_size=3)


def test_encode_shapes_and_determinism():
    model = DualEncoder(TINY, seed=0)
    q = model.encode_question([7, 8, 9])
    assert q.shape == (8,)
    q2 = model.encode_question([7, 8, 9])
    np.testing.assert_array_equal(q.data, q2.data)  # bit-identical


def test_question_and_context_input_layout():
    assert question_input([7, 8]) == [CLS_ID, 7, 8]
    assert context_input([7], [8, 9]) == [CLS_ID, 7, SEP_ID, 8, 9]


def test_tower_disjointness():
    model = DualEncoder(TINY, seed=0)
    before = model.context_encoder.encode_batch([context_input([7], [8, 9])]).data.copy()
    for p in model.question_encoder.parameters():
        p.data = p.data + 0.5
    after = model.context_encoder.encode_batch([context_input([7], [8, 9])]).data
    np.testing.assert_array_equal(before, after)
    q_names = {p.name for p in model.question_encoder.parameters()}
    z_names = {p.name for p in model.context_encoder.parameters()}
    assert not (q_names & z_names)


def test_truncation_is_head_truncation():
    model = DualEncoder(TINY, seed=0)
    long = [CLS_ID] + [7, 8, 9, 10, 11, 12, 13, 14, 15]
    out = model.question_encoder.encode_batch([long])
    head = model.question_encoder.encode_batch([long[:8]])
    np.testing.assert_array_equal(out.data, head.data)


def test_forward_rejects_overlong_and_bad_shape():
    model = DualEncoder(TINY, seed=0)
    with pytest.raises(DimensionError):
        model.question_encoder.forward(np.zeros((1, 9), dtype=np.int64))
    with pytest.raises(DimensionError):
        model.question_encoder.forward(np.zeros(4, dtype=np.int64))
    with pytest.raises(DomainError):
        model.question_encoder.encode_batch([[]])


def test_pooling_reads_first_position():
    model = DualEncoder(TINY, seed=0)
    ids = np.array([[CLS_ID, 7, 8, 9]])
    h = model.question_encoder.forward(ids)
    pooled = model.question_encoder.encode_batch([[CLS_ID, 7, 8, 9]])
    np.testing.assert_array_equal(pooled.data[0], h.data[0, 0])


def test_pad_positions_do_not_leak_into_pooled_vector():
    model = DualEncoder(TINY, seed=0)
    solo = model.question_encoder.encode_batch([[CLS_ID, 7, 8]])
    batch = model.question_encoder.encode_batch([[CLS_ID, 7, 8], [CLS_ID, 9, 10, 11, 12]])
    np.testing.assert_allclose(batch.data[0], solo.data[0], atol=1e-12)


def test_batch_matches_single_encodings():
    model = DualEncoder(TINY, seed=3)
    seqs = [[CLS_ID, 7], [CLS_ID, 8, 9, 10], [CLS_ID, 11, 12]]
    batch = model.question_encoder.encode_batch(seqs)
    for i, seq in enumerate(seqs):
        np.testing.assert_allclose(
            batch.data[i], model.question_encoder.encode_batch([seq]).data[0], atol=1e-12
        )


# Inference encode: bitwise oracle -------------------------------------------


def reference_pooled(encoder, seq) -> np.ndarray:
    """The reference: the full forward over one sequence, with a graph, then
    position 0 taken."""
    ids = np.array([list(seq)[: encoder.config.max_seq_len]], dtype=np.int64)
    return ad.take_position(encoder.forward(ids), 0).data[0]


def oracle_sequences(rng, n, max_len):
    lengths = list(rng.integers(1, max_len + 6, size=n)) + [1, 1, 2, 2, 2]
    return [[CLS_ID] + [int(x) for x in rng.integers(7, 40, size=int(t) - 1)] for t in lengths]


@pytest.mark.parametrize("layers", [1, 2])
def test_inference_encode_matches_reference_bitwise(layers):
    config = EncoderConfig(vocab_size=40, layers=layers, hidden_size=16, heads=2, max_seq_len=24)
    encoder = DualEncoder(config, seed=layers).context_encoder
    seqs = oracle_sequences(np.random.default_rng(layers), 120, 24)
    want = np.stack([reference_pooled(encoder, s) for s in seqs])
    # equal-length chunks with B >= 2, a lone [CLS] included
    np.testing.assert_array_equal(encoder.embed(seqs), want)
    for length in (1, 2, 9):
        same = [s for s in seqs if len(s) == length]
        assert len(same) >= 2
        with ad.no_grad():
            chunk = encoder.encode_batch(same).data
        np.testing.assert_array_equal(chunk, want[[len(s) == length for s in seqs]])
    # one-row calls on mixed lengths, with and without a graph
    for seq, row in zip(seqs, want):
        np.testing.assert_array_equal(encoder.encode_batch([seq]).data[0], row)
        with ad.no_grad():
            np.testing.assert_array_equal(encoder.encode_batch([seq]).data[0], row)


def test_embed_chunks_are_unpadded_and_bounded(monkeypatch):
    config = EncoderConfig(vocab_size=40, layers=1, hidden_size=8, heads=2, max_seq_len=64)
    encoder = DualEncoder(config, seed=0).question_encoder
    seqs = oracle_sequences(np.random.default_rng(5), 300, 64)
    shapes = []
    forward = encoder.forward

    def recording_forward(token_ids, pooled=False):
        assert not ad.grad_enabled()
        assert (token_ids != PAD_ID).all()
        shapes.append(token_ids.shape)
        return forward(token_ids, pooled)

    monkeypatch.setattr(encoder, "forward", recording_forward)
    out = encoder.embed(seqs)
    assert out.shape == (len(seqs), 8)
    assert sum(b for b, _ in shapes) == len(seqs)
    assert all(b * t <= CHUNK_TOKENS for b, t in shapes)
    assert ad.grad_enabled()


def test_truncated_normal_bounds():
    x = truncated_normal(np.random.default_rng(0), (1000,), std=0.02)
    assert np.abs(x).max() <= 0.04
    assert abs(float(x.mean())) < 0.005


def test_grad_check_dual_encoder_end_to_end():
    """Finite differences over every encoder parameter on a retrieval loss."""
    model = DualEncoder(TINY, seed=1)
    question = [7, 8]
    contexts = [([9], [10, 11]), ([12], [13])]

    def loss():
        q = ad.reshape(model.encode_question(question), (1, 8))
        zs = ad.concat(
            [model.context_encoder.encode_batch([context_input(t, x)]) for t, x in contexts],
            axis=0,
        )
        scores = ad.reshape(ad.matmul(q, ad.transpose(zs, (1, 0))), (2,))
        return ad.nll(ad.scaled_softmax(scores, tau=1.0), 0)

    # eps=1e-4 balances central-difference truncation against roundoff noise
    # amplified by layer-norm rsqrt curvature (verified by an eps sweep)
    worst = ad.grad_check(loss, model.parameters(), eps=1e-4)
    assert worst < 1e-4


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = DualEncoder(TINY, seed=5)
    path = tmp_path / "enc.rforge"
    model.save(path)
    loaded = DualEncoder.load(path)
    assert loaded.config == model.config
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        np.testing.assert_array_equal(a.data, b.data)
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "enc2.rforge"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.rforge"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError, match=r"\(field: magic\)"):
        load_checkpoint(path)


def test_checkpoint_truncated_blob(tmp_path):
    model = DualEncoder(TINY, seed=5)
    path = tmp_path / "enc.rforge"
    model.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FormatError, match=r"truncated payload \(field: payload\)"):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage(tmp_path):
    model = DualEncoder(TINY, seed=5)
    path = tmp_path / "enc.rforge"
    model.save(path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="2 trailing bytes after payload"):
        load_checkpoint(path)


def test_checkpoint_wrong_kind(tmp_path):
    path = tmp_path / "other.rforge"
    save_checkpoint(path, {"kind": "something_else"}, {"w": np.zeros(3)})
    with pytest.raises(FormatError, match=r"\(field: kind\)"):
        DualEncoder.load(path)


def test_checkpoint_scalar_and_empty_config(tmp_path):
    path = tmp_path / "s.rforge"
    save_checkpoint(path, {}, {"s": np.array(2.5), "m": np.arange(6.0).reshape(2, 3)})
    config, arrays = load_checkpoint(path)
    assert config == {}
    assert arrays["s"].shape == ()
    assert arrays["s"] == 2.5
    np.testing.assert_array_equal(arrays["m"], np.arange(6.0).reshape(2, 3))
