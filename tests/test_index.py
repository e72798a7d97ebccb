import threading
import time
import weakref

import numpy as np
import pytest

from retforge import autodiff as ad
from retforge import data as D
from retforge.encoder import DualEncoder, EncoderConfig, context_input, document_input
from retforge.errors import DimensionError, DomainError, FormatError
from retforge.index import (
    EvidenceIndex,
    IndexSnapshot,
    build_snapshot,
    load_index,
    save_index,
    top_k,
)

TINY = EncoderConfig(vocab_size=64, layers=1, hidden_size=8, heads=2, max_seq_len=16)


def make_snapshot(embeddings, version=0, doc_ids=None):
    emb = np.asarray(embeddings, dtype=np.float32)
    if doc_ids is None:
        doc_ids = np.arange(emb.shape[0])
    return IndexSnapshot(version=version, doc_ids=doc_ids, embeddings=emb)


@pytest.fixture()
def small_corpus():
    return D.Corpus.build([
        {"id": 0, "title": "alpha", "text": "Alpha beta gamma."},
        {"id": 1, "title": "delta", "text": "Delta epsilon."},
        {"id": 2, "title": "zeta", "text": "Zeta eta theta iota."},
    ])


def test_snapshot_validation():
    with pytest.raises(DimensionError):
        make_snapshot(np.zeros(4))
    with pytest.raises(DimensionError):
        IndexSnapshot(version=0, doc_ids=np.arange(3), embeddings=np.zeros((2, 4)))
    with pytest.raises(DomainError):
        IndexSnapshot(version=0, doc_ids=np.array([1, 1]), embeddings=np.zeros((2, 4)))
    with pytest.raises(DomainError):
        make_snapshot(np.zeros((2, 4)), version=-1)


def test_snapshot_is_immutable():
    snap = make_snapshot([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        snap.embeddings[0, 0] = 5.0
    with pytest.raises(ValueError):
        snap.doc_ids[0] = 7


def test_top_k_hand_example():
    snap = make_snapshot([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    result = top_k(snap, np.array([1.0, 0.0]), k=2, tau=1.0)
    assert result.doc_ids == (0, 2)
    assert result.scores == (1.0, 0.5)
    assert sum(result.probs) == pytest.approx(1.0, abs=1e-12)
    assert result.probs[0] > result.probs[1]


def test_top_k_tie_breaks_by_ascending_id():
    snap = make_snapshot([[1.0], [1.0], [0.5]], doc_ids=np.array([9, 3, 1]))
    result = top_k(snap, np.array([1.0]), k=3, tau=1.0)
    assert result.doc_ids == (3, 9, 1)
    assert result.scores == (1.0, 1.0, 0.5)


def test_top_k_validation():
    snap = make_snapshot([[1.0, 0.0], [0.0, 1.0]])
    q = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        top_k(snap, q, k=0, tau=1.0)
    with pytest.raises(DomainError):
        top_k(snap, q, k=3, tau=1.0)
    with pytest.raises(DomainError):
        top_k(snap, q, k=1, tau=0.0)
    with pytest.raises(DimensionError):
        top_k(snap, np.array([1.0, 0.0, 0.0]), k=1, tau=1.0)


def test_top_k_matches_brute_force_full_ranking():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(50, 8)).astype(np.float32)
    snap = make_snapshot(emb)
    q = rng.normal(size=8)
    result = top_k(snap, q, k=50, tau=1.0)
    scores = emb @ q
    expected = sorted(range(50), key=lambda i: (-scores[i], i))
    assert list(result.doc_ids) == expected
    assert list(result.scores) == [float(scores[i]) for i in expected]
    assert list(result.scores) == sorted(result.scores, reverse=True)


def brute_force_top_k(emb, ids, q, k, tau):
    """Sort every row by (-score, id) and take k: the search's definition."""
    scores = emb @ q
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    z = scores[order] / tau
    e = np.exp(z - z.max())
    return [int(ids[i]) for i in order], scores[order], e / e.sum()


def assert_top_k_is_brute_force(emb, ids, q, k, tau=1.3):
    result = top_k(make_snapshot(emb, doc_ids=ids), q, k=k, tau=tau)
    want_ids, want_scores, want_probs = brute_force_top_k(emb, ids, q, k, tau)
    assert list(result.doc_ids) == want_ids
    assert np.array(result.scores).tobytes() == want_scores.tobytes()
    assert np.array(result.probs).tobytes() == want_probs.tobytes()


def test_top_k_ties_across_the_kth_position_match_brute_force():
    rng = np.random.default_rng(12)
    emb = rng.integers(-2, 3, size=(200, 4)).astype(np.float32)  # many equal scores
    ids = rng.permutation(5000)[:200]
    q = np.array([1.0, 1.0, 0.5, 2.0])
    for k in (1, 2, 5, 17, 60, 199, 200):
        assert_top_k_is_brute_force(emb, ids, q, k)


def test_top_k_all_scores_equal_matches_brute_force():
    ids = np.random.default_rng(13).permutation(32)
    for k in (1, 5, 32):
        assert_top_k_is_brute_force(np.ones((32, 4), dtype=np.float32), ids, np.ones(4), k)


def test_top_k_random_index_matches_brute_force():
    rng = np.random.default_rng(14)
    emb = rng.normal(size=(2000, 32)).astype(np.float32)
    ids = rng.permutation(2000)
    for q in rng.normal(size=(5, 32)):
        for k in (1, 4, 20):
            assert_top_k_is_brute_force(emb, ids, q, k)


def test_top_k_rejects_a_non_finite_query():
    snap = make_snapshot([[1.0, 0.0], [0.0, 1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="non-finite"):
            top_k(snap, np.array([bad, 0.0]), k=1, tau=1.0)


def test_probs_are_softmax_over_selected_k():
    snap = make_snapshot([[1.0], [2.0], [3.0]])
    result = top_k(snap, np.array([1.0]), k=2, tau=2.0)
    z = np.array(result.scores) / 2.0
    expected = np.exp(z - z.max())
    expected /= expected.sum()
    np.testing.assert_allclose(result.probs, expected, atol=1e-15)


def test_head_of_a_deeper_search_is_the_search_at_k():
    rng = np.random.default_rng(1)
    snap = make_snapshot(rng.normal(size=(50, 8)).astype(np.float32))
    for q in rng.normal(size=(20, 8)):
        deep = top_k(snap, q, k=10, tau=2.5)
        for k in (1, 4, 10):
            assert deep.head(k, 2.5) == top_k(snap, q, k=k, tau=2.5)
    for k in (0, 11):
        with pytest.raises(DomainError):
            deep.head(k, 2.5)


def test_build_snapshot_matches_context_encoder(small_corpus):
    model = DualEncoder(TINY, seed=0)
    snap = build_snapshot(model, small_corpus)
    assert snap.version == 0
    assert snap.embeddings.shape == (3, 8)
    assert list(snap.doc_ids) == [0, 1, 2]
    for i, doc in enumerate(small_corpus):
        doc_input = document_input(doc, small_corpus)
        expected = model.context_encoder.encode_batch([doc_input]).data[0]
        # rows are stored at index precision: equality holds after the cast
        np.testing.assert_array_equal(snap.embeddings[i], expected.astype(np.float32))


def test_build_snapshot_float64_rows_match_reference(small_corpus):
    # the rows before the float32 cast equal the one-document full forward bit for bit
    model = DualEncoder(TINY, seed=0)
    inputs = [context_input(small_corpus.vocab.encode(d.title), d.tokens) for d in small_corpus]
    vectors = model.context_encoder.embed(inputs)
    for row, seq in zip(vectors, inputs):
        ids = np.array([seq[: TINY.max_seq_len]])
        np.testing.assert_array_equal(row, model.context_encoder.forward(ids).data[0, 0])
    np.testing.assert_array_equal(
        build_snapshot(model, small_corpus).embeddings, vectors.astype(np.float32)
    )


def test_build_snapshot_rejects_nan_parameter(small_corpus):
    model = DualEncoder(TINY, seed=0)
    model.context_encoder.params["layer0.w1"].data[0, 0] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        build_snapshot(model, small_corpus)


def test_build_snapshot_on_another_thread_keeps_main_thread_graph(small_corpus, monkeypatch):
    model = DualEncoder(TINY, seed=0)
    inside, release = threading.Event(), threading.Event()
    forward = model.context_encoder.forward

    def paused_forward(token_ids, pooled=False):
        inside.set()  # the builder thread is now in no-grad mode
        assert release.wait(timeout=30)
        return forward(token_ids, pooled)

    monkeypatch.setattr(model.context_encoder, "forward", paused_forward)
    built = []
    worker = threading.Thread(target=lambda: built.append(build_snapshot(model, small_corpus)))
    worker.start()
    try:
        assert inside.wait(timeout=30)
        assert ad.grad_enabled()
        q = model.encode_question([7, 8])
        assert q.requires_grad
        ad.reduce_sum(ad.mul(q, q)).backward()
        assert all(np.abs(p.grad).sum() > 0 for p in model.question_encoder.parameters()
                   if p.name.endswith(("wq", "w1", "final_ln_g")))
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert built and built[0].size == len(small_corpus)


def test_rebuild_with_unchanged_encoder_is_identical(small_corpus, monkeypatch):
    # the rebuild reads the store; a same-seed model with an empty store
    # embeds again, so the comparison tests `embed`'s determinism
    model, fresh = DualEncoder(TINY, seed=0), DualEncoder(TINY, seed=0)
    embeds = counted_embeds(model, monkeypatch)
    fresh_embeds = counted_embeds(fresh, monkeypatch)
    a = build_snapshot(model, small_corpus)
    b = build_snapshot(model, small_corpus)
    c = build_snapshot(fresh, small_corpus)
    assert embeds == fresh_embeds == [len(small_corpus)]
    np.testing.assert_array_equal(a.embeddings, b.embeddings)
    np.testing.assert_array_equal(a.embeddings, c.embeddings)


# The context tower's store of document rows ------------------------------------


def counted_embeds(model, monkeypatch) -> list[int]:
    """Sizes of the context tower's `embed` calls from here on."""
    sizes = []

    def embed(sequences, _original=model.context_encoder.embed):
        sizes.append(len(sequences))
        return _original(sequences)

    monkeypatch.setattr(model.context_encoder, "embed", embed)
    return sizes


def inputs_of(corpus):
    return [document_input(doc, corpus) for doc in corpus]


def flip_byte(model):
    model.context_encoder.params["layer0.w1"].data.view(np.uint8)[0, 3] ^= 0x10


def test_a_flipped_parameter_byte_misses_the_store(small_corpus, monkeypatch):
    model = DualEncoder(TINY, seed=0)
    embeds = counted_embeds(model, monkeypatch)
    build_snapshot(model, small_corpus)
    build_snapshot(model, small_corpus)
    assert embeds == [3]
    flip_byte(model)
    rows = model.embed_documents(small_corpus)
    assert embeds == [3, 3]
    reference = DualEncoder(TINY, seed=0)  # never built: no store
    flip_byte(reference)
    np.testing.assert_array_equal(rows, reference.context_encoder.embed(inputs_of(small_corpus)))


def test_stale_rows_are_released_before_a_new_embed(small_corpus, monkeypatch):
    model = DualEncoder(TINY, seed=0)
    stale = weakref.ref(model.embed_documents(small_corpus))  # the store's own matrix
    assert stale() is not None
    released = []

    def embed(sequences, _original=model.context_encoder.embed):
        released.append(stale() is None)
        return _original(sequences)

    monkeypatch.setattr(model.context_encoder, "embed", embed)
    flip_byte(model)
    model.embed_documents(small_corpus)
    assert released == [True]


def test_a_negative_zero_parameter_misses_the_store(small_corpus, monkeypatch):
    # the key is the parameters' bytes, not their values
    model = DualEncoder(TINY, seed=0)
    embeds = counted_embeds(model, monkeypatch)
    build_snapshot(model, small_corpus)
    bias = model.context_encoder.params["layer0.w1_b"].data
    assert bias[0] == 0.0 and not np.signbit(bias[0])
    bias[0] = -0.0
    build_snapshot(model, small_corpus)
    assert embeds == [3, 3]


@pytest.mark.parametrize("texts", [
    # the same ids and input lengths, the words in another order
    ["Gamma beta alpha.", "Epsilon delta.", "Iota theta eta zeta."],
    # the same records: equal content, another object
    None,
], ids=["reordered-words", "equal-content"])
def test_another_corpus_with_the_same_ids_misses_the_store(small_corpus, monkeypatch, texts):
    texts = texts or [doc.text for doc in small_corpus]
    other = D.Corpus.build([
        {"id": doc.id, "title": doc.title, "text": text} for doc, text in zip(small_corpus, texts)
    ], small_corpus.vocab)
    assert [len(d.tokens) for d in other] == [len(d.tokens) for d in small_corpus]
    model = DualEncoder(TINY, seed=0)
    embeds = counted_embeds(model, monkeypatch)
    build_snapshot(model, small_corpus)
    rows = model.embed_documents(other)
    assert embeds == [3, 3]
    np.testing.assert_array_equal(rows, DualEncoder(TINY, seed=0).context_encoder.embed(
        inputs_of(other)
    ))


def test_a_nan_parameter_after_a_hit_still_raises(small_corpus, monkeypatch):
    model = DualEncoder(TINY, seed=0)
    embeds = counted_embeds(model, monkeypatch)
    build_snapshot(model, small_corpus)
    build_snapshot(model, small_corpus)
    assert embeds == [3]
    model.context_encoder.params["layer0.w1"].data[0, 0] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        build_snapshot(model, small_corpus)


def test_rows_embedded_while_a_parameter_changed_are_not_kept(small_corpus, monkeypatch):
    model = DualEncoder(TINY, seed=0)
    weight = model.context_encoder.params["layer0.w1"].data
    before = weight.copy()
    sizes = []

    def embed(sequences, _original=model.context_encoder.embed):
        sizes.append(len(sequences))
        out = _original(sequences)
        if len(sizes) == 1:
            weight[0, 0] += 1.0  # a write lands while the build is embedding
        return out

    monkeypatch.setattr(model.context_encoder, "embed", embed)
    build_snapshot(model, small_corpus)
    weight[...] = before  # back to the parameters the rows were embedded with
    rebuilt = build_snapshot(model, small_corpus)
    assert sizes == [3, 3]  # the first build's rows were not kept under its key
    np.testing.assert_array_equal(
        rebuilt.embeddings,
        DualEncoder(TINY, seed=0).context_encoder.embed(inputs_of(small_corpus)).astype(np.float32),
    )
    build_snapshot(model, small_corpus)
    assert sizes == [3, 3]  # the second build's rows were kept


def test_a_store_read_returns_requested_rows_in_order(small_corpus, monkeypatch):
    model = DualEncoder(TINY, seed=0)
    embeds = counted_embeds(model, monkeypatch)
    rows = model.embed_documents(small_corpus, [2, 0, 2])
    assert embeds == [3]  # a miss embeds the whole corpus, each document once
    full = model.embed_documents(small_corpus)
    assert embeds == [3]
    np.testing.assert_array_equal(rows, full[[2, 0, 2]])
    np.testing.assert_array_equal(full, DualEncoder(TINY, seed=0).context_encoder.embed(
        inputs_of(small_corpus)
    ))
    with pytest.raises(ValueError):
        full[0, 0] = 7.0  # the store's own matrix
    rows[1, 0] = 7.0  # a caller's copy
    np.testing.assert_array_equal(model.embed_documents(small_corpus, [0]), full[[0]])
    assert embeds == [3]


def test_build_empty_corpus_rejected():
    from retforge.text import Vocabulary

    model = DualEncoder(TINY, seed=0)
    with pytest.raises(DomainError):
        build_snapshot(model, D.Corpus([], Vocabulary([])))


def test_refresh_schedule_and_versioning(small_corpus):
    model = DualEncoder(TINY, seed=0)
    index = EvidenceIndex(small_corpus)
    index.build(model)
    assert index.snapshot.version == 0
    for step in range(1, 5):
        snap = index.refresh(model, step, refresh_every=5)
        assert snap.version == 0
    snap = index.refresh(model, 5, refresh_every=5)
    assert snap.version == 1
    snap = index.refresh(model, 10, refresh_every=5)
    assert snap.version == 2
    with pytest.raises(DomainError):
        index.refresh(model, 1, refresh_every=0)


def test_staleness_is_observable(small_corpus):
    """Perturbing the encoder changes nothing until a refresh boundary."""
    model = DualEncoder(TINY, seed=0)
    index = EvidenceIndex(small_corpus)
    index.build(model)
    q = np.zeros(8)
    q[0] = 1.0
    before = top_k(index.snapshot, q, k=3, tau=1.0)
    for p in model.context_encoder.parameters():
        p.data = p.data + 0.05
    index.refresh(model, step=3, refresh_every=5)  # not a boundary
    np.testing.assert_array_equal(
        top_k(index.snapshot, q, k=3, tau=1.0).scores, before.scores
    )
    index.refresh(model, step=5, refresh_every=5)
    after = top_k(index.snapshot, q, k=3, tau=1.0)
    assert after.scores != before.scores


def test_index_save_load_round_trip(tmp_path, small_corpus):
    model = DualEncoder(TINY, seed=0)
    snap = build_snapshot(model, small_corpus, version=7)
    path = tmp_path / "index.ridx"
    save_index(snap, path)
    loaded = load_index(path)
    assert loaded.version == 7
    np.testing.assert_array_equal(loaded.doc_ids, snap.doc_ids)
    np.testing.assert_array_equal(loaded.embeddings, snap.embeddings)
    # and the bytes round-trip exactly
    path2 = tmp_path / "index2.ridx"
    save_index(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_index_load_errors(tmp_path):
    path = tmp_path / "bad.ridx"
    path.write_bytes(b"WRONG!!!" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        load_index(path)

    snap = make_snapshot([[1.0, 2.0]])
    good = tmp_path / "good.ridx"
    save_index(snap, good)
    raw = good.read_bytes()
    truncated = tmp_path / "trunc.ridx"
    truncated.write_bytes(raw[:-4])
    with pytest.raises(FormatError, match="payload"):
        load_index(truncated)
    short = tmp_path / "short.ridx"
    short.write_bytes(raw[:10])
    with pytest.raises(FormatError, match="header"):
        load_index(short)


def test_concurrent_search_never_sees_mixed_versions():
    """Each version's rows are constant = version+1, so a mixed read would
    show two different row values in one result."""
    m, d = 32, 4
    index = EvidenceIndex.__new__(EvidenceIndex)
    index._corpus = None
    index._snapshot = make_snapshot(np.ones((m, d)), version=0)

    errors: list[str] = []

    # A fixed number of searches, each followed by a yield, so that the
    # swaps below are not starved and the test's cost does not depend on
    # thread scheduling.
    def searcher():
        q = np.ones(d)
        for _ in range(200):
            snap = index.snapshot
            result = top_k(snap, q, k=m, tau=1.0)
            if len(set(result.scores)) != 1:
                errors.append(f"mixed scores: {set(result.scores)}")
                return
            time.sleep(0)

    threads = [threading.Thread(target=searcher) for _ in range(4)]
    for t in threads:
        t.start()
    for version in range(1, 40):
        index._snapshot = make_snapshot(
            np.full((m, d), float(version + 1)), version=version
        )
        time.sleep(0)
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
