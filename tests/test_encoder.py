import numpy as np
import pytest

from retforge import autodiff as ad
from retforge import encoder as encoder_module
from retforge.checkpoint import load_checkpoint, save_checkpoint
from retforge.encoder import (
    CHUNK_TOKENS,
    DualEncoder,
    EncoderConfig,
    TransformerEncoder,
    context_input,
    question_input,
    truncated_normal,
)
from retforge.errors import DimensionError, DomainError, FormatError
from retforge.text import CLS_ID, PAD_ID, SEP_ID
from retforge.training import in_batch_loss

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


# (hidden size, heads): head widths 8 and 16
HEAD_WIDTHS = [(16, 2), (64, 4)]


def inference_oracle(layers, hidden, heads):
    """A context tower, 125 sequences of lengths 1-29 and their reference rows."""
    config = EncoderConfig(
        vocab_size=40, layers=layers, hidden_size=hidden, heads=heads, max_seq_len=24
    )
    encoder = DualEncoder(config, seed=layers).context_encoder
    seqs = oracle_sequences(np.random.default_rng(layers), 120, 24)
    return encoder, seqs, np.stack([reference_pooled(encoder, s) for s in seqs])


@pytest.mark.parametrize("layers", [1, 2])
def test_inference_encode_matches_reference_bitwise(layers):
    for hidden, heads in HEAD_WIDTHS:
        encoder, seqs, want = inference_oracle(layers, hidden, heads)
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
    """A chunk's widest array over every position holds at most
    CHUNK_TOKENS * 4d values: a forward whose only layer is pooled takes up
    to 4 * CHUNK_TOKENS tokens (its arrays over every position are (n, T, d)),
    any other forward, a lone [CLS]'s included, CHUNK_TOKENS."""
    seqs = oracle_sequences(np.random.default_rng(5), 300, 64) + [[CLS_ID]] * 300
    shapes = []
    forward = TransformerEncoder.forward

    def recording_forward(self, token_ids, pooled=False, rows=None):
        assert not ad.grad_enabled()
        assert (token_ids != PAD_ID).all()
        shapes.append(token_ids.shape)
        return forward(self, token_ids, pooled, rows)

    monkeypatch.setattr(TransformerEncoder, "forward", recording_forward)
    for layers, pooled in [(1, True), (2, True), (1, False)]:
        config = EncoderConfig(vocab_size=40, layers=layers, hidden_size=8, heads=2, max_seq_len=64)
        encoder = DualEncoder(config, seed=0).question_encoder
        shapes.clear()
        if pooled:
            assert encoder.embed(seqs).shape == (len(seqs), 8)
        else:
            assert sum(len(rows) for rows, _ in encoder.infer(seqs)) == len(seqs)
        assert sum(b for b, _ in shapes) == len(seqs)
        assert all(b * t <= CHUNK_TOKENS for b, t in shapes if t == 1)
        widest = max(b * t for b, t in shapes)
        if layers == 1 and pooled:
            assert CHUNK_TOKENS < widest <= 4 * CHUNK_TOKENS
        else:
            assert widest <= CHUNK_TOKENS
    assert ad.grad_enabled()


def test_embed_bytes_do_not_depend_on_the_chunk_budget(monkeypatch):
    """At hidden 128 a flat gemm over a chunk's kept rows would change
    kernel with the chunk's size; per-sequence products keep every byte."""
    for layers in (1, 2):
        config = EncoderConfig(
            vocab_size=40, layers=layers, hidden_size=128, heads=8, max_seq_len=48
        )
        encoder = DualEncoder(config, seed=layers).context_encoder
        seqs = oracle_sequences(np.random.default_rng(layers), 150, 48)
        embedded = []
        for budget in (64, 4096):
            monkeypatch.setattr(encoder_module, "CHUNK_TOKENS", budget)
            embedded.append(encoder.embed(seqs).tobytes())
        assert embedded[0] == embedded[1]


# Pooled training forward: bitwise oracle -----------------------------------


def in_batch_trials(layers, hidden=32, heads=4):
    """Loss `float.hex` and parameter-gradient bytes of `in_batch_loss` over
    padded batches of mixed lengths, B in {1, 2, 3, 8, 32}."""
    config = EncoderConfig(
        vocab_size=40, layers=layers, hidden_size=hidden, heads=heads, max_seq_len=24
    )
    out = []
    for b in (1, 2, 3, 8, 32):
        for seed in range(2):
            rng = np.random.default_rng([layers, b, seed])
            dual = DualEncoder(config, seed=b + seed)
            questions, contexts = (oracle_sequences(rng, b, 18)[:b] for _ in range(2))
            loss = in_batch_loss(dual, questions, contexts, tau=4.0)
            loss.backward()
            out.append((loss.item().hex(), [p.grad.tobytes() for p in dual.parameters()]))
    return out


def row_ordered_trials(layers, hidden=32, heads=4):
    """Loss `float.hex`, pooled-row bytes and parameter-gradient bytes of
    row-ordered pooled encodes (`encode_rows`) over permuted keys: a lone
    sequence, chunks of several, T = 1 and mixed lengths."""
    config = EncoderConfig(
        vocab_size=40, layers=layers, hidden_size=hidden, heads=heads, max_seq_len=24
    )
    out = []
    for lengths in ([9], [5] * 6, [1, 1, 1], [1], [2, 7, 7, 2, 18, 7, 3]):
        for seed in range(2):
            rng = np.random.default_rng([layers, len(lengths), lengths[0], seed])
            encoder = DualEncoder(config, seed=seed).question_encoder
            seqs = [[CLS_ID] + [int(x) for x in rng.integers(7, 40, size=t - 1)] for t in lengths]
            keys = [(int(k),) for k in rng.permutation(len(seqs))]
            rows = encoder.encode_rows(seqs, ad.RowOrder(), keys, pooled=True)
            contexts = ad.Tensor(rng.normal(size=(hidden, len(seqs))))
            scores = ad.matmul(ad.concat(rows), contexts)
            loss = ad.cross_entropy_rows(scores, np.arange(len(seqs)), tau=4.0)
            loss.backward()
            out.append((
                loss.item().hex(), [r.data.tobytes() for r in rows],
                [p.grad.tobytes() for p in encoder.parameters()],
            ))
    return out


def pooled_trials(layers):
    """Both kinds of trial, at head width 8 (hidden 32) and 16 (hidden 64)."""
    return [
        trial for hidden in (32, 64)
        for trial in in_batch_trials(layers, hidden) + row_ordered_trials(layers, hidden)
    ]


def use_full_forward(monkeypatch):
    """Pool by the reference: the full forward, then position 0 taken."""
    forward = TransformerEncoder.forward

    def full(self, token_ids, pooled=False, rows=None):
        h = forward(self, token_ids, rows=rows)
        return ad.take_position(h, 0) if pooled else h

    monkeypatch.setattr(TransformerEncoder, "forward", full)


@pytest.mark.parametrize("layers", [1, 2])
def test_pooled_training_forward_matches_full_forward_bitwise(layers, monkeypatch):
    got = pooled_trials(layers)
    use_full_forward(monkeypatch)
    assert got == pooled_trials(layers)


def test_pooled_input_gradient_as_a_row_gemm_fails_the_oracle(monkeypatch):
    def row_gemm(g, w, length):  # (B * n, e) @ w.T rounds otherwise
        return (g.reshape(-1, g.shape[-1]) @ w.T).reshape(*g.shape[:-1], -1)

    with monkeypatch.context() as patch:
        use_full_forward(patch)
        want = [in_batch_trials(layers) for layers in (1, 2)]
    monkeypatch.setattr(ad, "_pooled_input_grad", row_gemm)
    assert [in_batch_trials(layers) for layers in (1, 2)] != want


def weight_gradient_by(rule):
    """`PooledRows.linear` whose weight gradient is `rule(x, g)` over the
    (B, 2, ·) kept rows, added by a node of its own."""
    linear = ad.PooledRows.linear

    def pooled_linear(self, x, w, b):
        out = linear(self, x, ad.Tensor(w.data), b)  # a constant: no weight gradient

        def backward(g):
            out.accumulate_grad(g)
            w.accumulate_grad(rule(x.data, g))

        return ad.Tensor(out.data, _parents=(out, w), _backward_fn=backward)

    return pooled_linear


def per_sequence_products(x, g):  # `linear`'s rule: the B products summed over axis 0
    return (np.swapaxes(x, -1, -2) @ g).sum(axis=0)


def one_gemm(x, g):  # the flat forward's (B * 2, d).T @ (B * 2, e)
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def test_pooled_weight_gradient_as_one_gemm_fails_the_oracle(monkeypatch):
    """Why the pooled weight gradient keeps `linear`'s per-sequence products:
    one gemm over all B * 2 kept rows rounds otherwise at hidden 32."""
    with monkeypatch.context() as patch:
        use_full_forward(patch)
        want = in_batch_trials(1)
    with monkeypatch.context() as patch:  # the wrapping node alone keeps every bit
        patch.setattr(ad.PooledRows, "linear", weight_gradient_by(per_sequence_products))
        assert in_batch_trials(1) == want
    monkeypatch.setattr(ad.PooledRows, "linear", weight_gradient_by(one_gemm))
    assert in_batch_trials(1) != want


def test_row_ordered_cut_through_the_plain_row_ordered_linear_fails_the_oracle(monkeypatch):
    linear = ad.PooledRows.linear

    def plain(self, x, w, b):  # the per-sequence gemms of `Rows.linear`
        return linear(self, x, w, b) if self.rows is None else self.rows.linear(x, w, b)

    with monkeypatch.context() as patch:
        use_full_forward(patch)
        want = [row_ordered_trials(layers) for layers in (1, 2)]
    monkeypatch.setattr(ad.PooledRows, "linear", plain)
    assert [row_ordered_trials(layers) for layers in (1, 2)] != want


def rows_and_gradients(encoder, pooled_row) -> tuple[bytes, list[bytes]]:
    """The bytes of `pooled_row()`'s (1, d) row and of each parameter's
    gradient of a fixed linear loss on it."""
    for p in encoder.parameters():
        p.zero_grad()
    row = pooled_row()
    weights = ad.Tensor(np.random.default_rng(9).normal(size=row.shape))
    ad.reduce_sum(ad.mul(row, weights)).backward()
    return row.data.tobytes(), [p.grad.tobytes() for p in encoder.parameters()]


def wide_model_trials(hidden):
    """At `hidden` (8 heads), with 1 and 2 layers:
    - per T in 176, 177, 250 and 251 (B = 1), the row and gradient bytes of
      the full forward's position 0, `encode_batch` and `encode_rows`, then
      the row bytes of `encode_batch` under `no_grad` and of `embed`. Head
      widths 16 and 32 put T on both sides of OpenBLAS's small-matrix bound
      for a full (T, T) score product: T * 16 * T passes 1e6 at 251,
      T * 32 * T at 177;
    - the bytes of one-row `encode_batch` calls and of one `embed` over 30
      sequences at each of T = 3, 8 and 24."""
    single, chunked = [], []
    for layers in (1, 2):
        config = EncoderConfig(
            vocab_size=40, layers=layers, hidden_size=hidden, heads=8, max_seq_len=256
        )
        for t in (176, 177, 250, 251):
            encoder = DualEncoder(config, seed=t).context_encoder
            seq = [CLS_ID] + [int(x) for x in np.random.default_rng(t).integers(7, 40, t - 1)]
            ids = np.array([seq])
            order = ad.RowOrder()
            with ad.no_grad():
                no_graph = encoder.encode_batch([seq]).data.tobytes()
            single.append([
                rows_and_gradients(encoder, lambda: ad.take_position(encoder.forward(ids), 0)),
                rows_and_gradients(encoder, lambda: encoder.encode_batch([seq])),
                rows_and_gradients(
                    encoder, lambda: encoder.encode_rows([seq], order, [(0,)], pooled=True)[0]
                ),
                no_graph, encoder.embed([seq]).tobytes(),
            ])
        encoder = DualEncoder(config, seed=layers).context_encoder
        rng = np.random.default_rng(layers)
        seqs = [[CLS_ID] + [int(x) for x in rng.integers(7, 40, t - 1)] for t in [3, 8, 24] * 30]
        with ad.no_grad():
            one_row = [encoder.encode_batch([s]).data.tobytes() for s in seqs]
        chunked.append((b"".join(one_row), encoder.embed(seqs).tobytes()))
    return single, chunked


@pytest.mark.parametrize("hidden", [128, 256])
def test_pooled_entry_points_match_the_full_forward_in_wide_models(hidden):
    single, chunked = wide_model_trials(hidden)
    for want, *entry_points, no_graph, embedded in single:
        assert all(got == want for got in entry_points)
        assert no_graph == embedded == want[0]
    assert all(one_row == embedded for one_row, embedded in chunked)


def test_pooled_linear_as_one_flat_gemm_fails_the_wide_oracle(monkeypatch):
    """Why `PooledRows.linear`'s product runs per sequence: one (B * 2, d)
    gemm takes another kernel than the full (T, d) product at hidden 128."""

    def flat(self, x, w, b):
        out = (x.data.reshape(-1, x.shape[-1]) @ w.data + b.data).reshape(*x.shape[:-1], -1)
        return ad._linear_node(
            x, w, b, self.rows, out,
            lambda g: ad._pooled_input_grad(g, w.data, self.length), "pooled_linear",
        )

    monkeypatch.setattr(ad.PooledRows, "linear", flat)
    single, chunked = wide_model_trials(128)
    assert all(got != want for want, *entry_points, _, _ in single for got in entry_points)
    assert all(one_row != embedded for one_row, embedded in chunked)


def one_query_row(self, q, k, v, heads, mask):
    """Each kept query row attends alone: its products take BLAS gemv."""
    b, n, d = q.shape
    alone = [ad.reshape(ad.take_position(q, i), (b, 1, d)) for i in range(n)]
    return ad.concat([ad.attention(a, k, v, heads, mask=mask) for a in alone], axis=1)


def kept_rows_only(self, q, k, v, heads, mask):
    """The kept query rows' products at their own (2-row) shape."""
    return ad.attention(q, k, v, heads, mask=mask)


@pytest.mark.parametrize("mutant, hidden, heads", [
    (one_query_row, 32, 4), (kept_rows_only, 64, 4),
])
def test_pooled_attention_products_over_the_kept_rows_alone_fail_the_oracle(
    mutant, hidden, heads, monkeypatch
):
    """Why the pooled attention's products run at the full shape: over the
    kept rows alone, one row takes gemv (head width 8 here), and two rows at
    a head width of 16 take a gemm kernel that rounds otherwise for some T."""
    encoder, seqs, reference = inference_oracle(1, hidden, heads)
    with monkeypatch.context() as patch:
        use_full_forward(patch)
        want = in_batch_trials(1, hidden, heads)
    monkeypatch.setattr(ad.PooledRows, "attention", mutant)
    assert not np.array_equal(encoder.embed(seqs), reference)
    assert in_batch_trials(1, hidden, heads) != want


def run_pooled_entry_points(encoder, seqs) -> None:
    """One pooled forward through each entry point: `encode_batch` with a
    graph and under `no_grad`, `embed`, and `encode_rows`."""
    assert encoder.encode_batch(seqs).requires_grad
    with ad.no_grad():
        encoder.encode_batch(seqs)
    encoder.embed(seqs)
    encoder.encode_rows(seqs, ad.RowOrder(), [(i,) for i in range(len(seqs))], pooled=True)


@pytest.mark.parametrize("b", [1, 2, 5])
def test_pooled_forward_runs_no_gelu_over_every_position(b, monkeypatch):
    config = EncoderConfig(vocab_size=40, layers=1, hidden_size=8, heads=2, max_seq_len=16)
    encoder = DualEncoder(config, seed=0).context_encoder
    seqs = [[CLS_ID] + [7 + i] * 9 for i in range(b)]  # equal lengths: one `embed` chunk
    rows = []
    gelu = ad.gelu

    def spy(a):
        rows.append(a.shape[:-1])
        return gelu(a)

    monkeypatch.setattr(ad, "gelu", spy)
    run_pooled_entry_points(encoder, seqs)
    assert rows == [(b, 2)] * 4  # every sequence keeps positions 0 and 1
    encoder.forward(np.array(seqs))  # unpooled: every position
    assert rows[-1] == (b, 10)


@pytest.mark.parametrize("b", [1, 2, 5])
def test_pooled_forward_attends_from_the_kept_rows_only(b, monkeypatch):
    config = EncoderConfig(vocab_size=40, layers=2, hidden_size=8, heads=2, max_seq_len=16)
    encoder = DualEncoder(config, seed=0).context_encoder
    seqs = [[CLS_ID] + [7 + i] * 9 for i in range(b)]
    calls = []
    attention, pooled = ad.attention, ad.PooledRows.attention

    def spy(q, k, v, heads, mask=None, bias=None):
        calls.append(("attention", q.shape, k.shape, v.shape))
        return attention(q, k, v, heads, mask=mask, bias=bias)

    def pooled_spy(self, q, k, v, heads, mask):
        calls.append(("pooled", q.shape, k.shape, v.shape))
        return pooled(self, q, k, v, heads, mask)

    monkeypatch.setattr(ad, "attention", spy)
    monkeypatch.setattr(ad.PooledRows, "attention", pooled_spy)
    run_pooled_entry_points(encoder, seqs)
    full, kept = (b, 10, 8), (b, 2, 8)
    # layer 0 over every position; the last layer's queries from the kept rows
    assert calls == [("attention", full, full, full), ("pooled", kept, full, full)] * 4
    calls.clear()
    encoder.forward(np.array(seqs))  # unpooled: every position queries
    assert calls == [("attention", full, full, full)] * 2


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
