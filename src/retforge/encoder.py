"""Dual-encoder retriever: a question tower and a context tower, each a small
pre-norm transformer pooled at the first position, scored by dot product.

The towers share no parameters, so either side can be frozen without
touching the other. Retriever training encodes through `encode_batch`;
inference (`infer`, under `autodiff.no_grad()`) runs unpadded chunks of
equal-length sequences, and each row it returns equals the sequence's own
one-row `encode_batch` bit for bit, for any chunk size and layer count. A
padded batch of mixed lengths does not have that property: its rows differ
from the one-row vectors in the last bits (measured up to ~1e-15), which is
why inference never pads. Retriever training batches stay padded; their
contract is the gradient, checked by finite differences.

Every pooled forward, with a graph or without one, row-ordered or not, takes
one pooled-row rule: its last layer projects keys and values over every
position, but queries only from the rows `ad.PooledRows` keeps (positions 0
and 1), so its scores are (B, heads, 2, T), and runs the rest of the layer and
the final layer norm only on those rows (`pooled_layer`). Its values and
gradients equal the full forward's pooled at position 0 bit for bit. The
end-to-end step encodes through `encode_rows`: `infer`'s chunks with a
row-ordered graph, so that its gradients too equal the one-row graphs', and
its search reads its loss's own question rows (not `embed_questions`).

`DualEncoder.embed_documents` keeps the context tower's one store of float64
document rows, keyed by the corpus object and the tower's parameter bytes, and
embeds the whole corpus on a miss; index builds and frozen-tower steps read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .checkpoint import fingerprint, load_model, save_model
from .errors import DimensionError, DomainError
from .text import CLS_ID, PAD_ID, SEP_ID

INIT_STD = 0.02
LN_EPS = 1e-5
# tokens per `infer` forward of equal-length inputs whose layers all span
# every position; bounds activation memory (see `TransformerEncoder._chunks`)
CHUNK_TOKENS = 256


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    layers: int = 2
    hidden_size: int = 64
    heads: int = 4
    max_seq_len: int = 256

    def __post_init__(self):
        if self.layers < 1:
            raise DomainError(f"layers must be >= 1, got {self.layers}")
        if self.hidden_size < 8:
            raise DomainError(f"hidden_size must be >= 8, got {self.hidden_size}")
        if self.heads < 1:
            raise DomainError(f"heads must be >= 1, got {self.heads}")
        if self.hidden_size % self.heads != 0:
            raise DomainError(
                f"heads ({self.heads}) must divide hidden_size ({self.hidden_size})"
            )
        if self.max_seq_len < 1:
            raise DomainError(f"max_seq_len must be >= 1, got {self.max_seq_len}")
        if self.vocab_size < 7:
            raise DomainError("vocab_size must cover the reserved token block")


def truncated_normal(
    rng: np.random.Generator, shape: tuple[int, ...], std: float = INIT_STD
) -> np.ndarray:
    """Normal(0, std) with values beyond 2 std redrawn."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


class TransformerEncoder:
    """Pre-norm transformer over token ids; pooled output is position 0."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator | None, prefix: str):
        self.config = config
        self.params = transformer_params(
            prefix, rng, config.vocab_size, config.hidden_size, config.max_seq_len, config.layers
        )

    def parameters(self) -> list[ad.Parameter]:
        return list(self.params.values())

    def forward(
        self, token_ids: np.ndarray, pooled: bool = False, rows: ad.Rows | None = None
    ) -> ad.Tensor:
        """(B, T) padded int ids -> (B, T, d) hidden states, or with `pooled`
        the (B, d) states at position 0. With `rows` (one key per sequence)
        the layers run row-ordered (see `ad.RowOrder`).

        Pooled, the last layer's keys and values still cover every
        position, but its queries, attention scores, output projection,
        residual, FFN and the final layer norm run only on the rows that
        `ad.PooledRows` keeps (see `pooled_layer`).
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise DimensionError("forward expects a (batch, time) id matrix")
        t = token_ids.shape[1]
        if t > self.config.max_seq_len:
            raise DimensionError(
                f"sequence length {t} exceeds max_seq_len {self.config.max_seq_len}"
            )
        p = self.params
        h = embed_tokens(p, token_ids, rows)
        # additive mask: [PAD] key positions get MASK_NEG in every attention row
        pad_cols = (token_ids == PAD_ID)[:, None, None, :]
        mask = np.where(pad_cols, ad.MASK_NEG, 0.0)
        cut = pooled and t > 1  # at T = 1 there is nothing to cut
        heads, last = self.config.heads, self.config.layers - 1
        for i in range(self.config.layers):
            if cut and i == last:
                h = pooled_layer(h, p, f"layer{i}", heads, mask, rows)
            else:
                h = transformer_layer(h, p, f"layer{i}", heads, mask, rows=rows)
        h = norm(h, p, "final_ln", rows)
        return ad.take_position(h, 0) if pooled else h

    def encode_batch(self, sequences: Sequence[Sequence[int]]) -> ad.Tensor:
        """Pad to the batch maximum and pool position 0 -> (B, d).

        Sequences longer than max_seq_len are head-truncated.
        """
        if not sequences:
            raise DomainError("cannot encode an empty batch")
        clipped = [list(s)[: self.config.max_seq_len] for s in sequences]
        if any(not s for s in clipped):
            raise DomainError("cannot encode an empty token sequence")
        t = max(len(s) for s in clipped)
        ids = np.full((len(clipped), t), PAD_ID, dtype=np.int64)
        for row, seq in enumerate(clipped):
            ids[row, : len(seq)] = seq
        return self.forward(ids, pooled=True)

    def infer(
        self, sequences: Sequence[Sequence[int]], pooled: bool = False
    ) -> Iterator[tuple[list[int], ad.Tensor]]:
        """Inference, no graph: (positions, output) per chunk of `sequences`
        whose (head-truncated) lengths are equal, sized by `_chunks`. The
        output is one unpadded `forward`'s (n, T, d) states, or with `pooled`
        its (n, d) position-0 rows; each row equals the sequence's own
        one-row forward bit for bit. A generator: a chunk is encoded when
        reached, and only its forward runs under `ad.no_grad()`, so the
        caller's grad mode holds between chunks."""
        for rows, ids in self._chunks(sequences, pooled):
            with ad.no_grad():
                output = self.forward(ids, pooled=pooled)
            yield rows, output

    def encode_rows(
        self, sequences: Sequence[Sequence[int]], order: ad.RowOrder, keys: Sequence[tuple],
        pooled: bool = False,
    ) -> list[ad.Tensor]:
        """Training: each sequence's (1, d) pooled row or (1, T, d) states,
        with a graph, from one row-ordered `forward` per chunk of `infer`'s
        (pooled, its last layer runs on the pooled rows only); sequence r's
        parameter gradients go to `order` under `keys[r]`. Each row equals
        the sequence's own one-row forward bit for bit."""
        out: list[ad.Tensor] = [None] * len(sequences)
        for rows, ids in self._chunks(sequences, pooled):
            h = self.forward(ids, pooled=pooled, rows=order.rows([keys[r] for r in rows]))
            for j, r in enumerate(rows):
                out[r] = h if len(rows) == 1 else ad.take_row(h, j)
        return out

    def _chunks(
        self, sequences: Sequence[Sequence[int]], pooled: bool
    ) -> Iterator[tuple[list[int], np.ndarray]]:
        """(positions, id matrix) per chunk of head-truncated sequences of one
        length, whose widest array over every position holds at most
        CHUNK_TOKENS * 4d values (or one longer sequence's). A full layer's
        is its (n, T, 4d) feed-forward block, so a chunk takes CHUNK_TOKENS
        tokens. A forward whose only layer is pooled (`pooled_layer`, T > 1)
        holds only (n, T, d) arrays over every position, so 4 * CHUNK_TOKENS.
        No pooled product depends on the chunk (see `ad.PooledRows`), so no
        bit does."""
        cap = self.config.max_seq_len
        if not all(map(len, sequences)):
            raise DomainError("cannot encode an empty token sequence")
        only_pooled = pooled and self.config.layers == 1

        def budget(length: int) -> int:
            return CHUNK_TOKENS * (4 if only_pooled and length > 1 else 1)

        for rows in length_chunks((min(len(s), cap) for s in sequences), budget):
            yield rows, np.array([list(sequences[r])[:cap] for r in rows])

    def embed(self, sequences: Sequence[Sequence[int]]) -> np.ndarray:
        """Inference: (N, d) pooled float64 vectors in input order, from
        `infer`, each equal to the sequence's one-row `encode_batch`."""
        out = np.empty((len(sequences), self.config.hidden_size))
        for rows, pooled in self.infer(sequences, pooled=True):
            out[rows] = pooled.data
        return out


def transformer_params(
    prefix: str, rng: np.random.Generator | None, vocab_size: int, d: int, positions: int,
    layers: int, decoder: bool = False,
) -> dict[str, ad.Parameter]:
    """Embeddings, `layers` layers for `transformer_layer` and the final
    layer norm, drawn from `rng` in this order; a `decoder` adds each layer's
    cross-attention and the output projection over the vocabulary. With no
    `rng` the weights are zeros and nothing is drawn (a model about to load)."""
    p: dict[str, ad.Parameter] = {}

    def param(name: str, values) -> None:
        p[name] = ad.Parameter(values, name=f"{prefix}.{name}")

    def weight(shape: tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape) if rng is None else truncated_normal(rng, shape)

    param("token_emb", weight((vocab_size, d)))
    param("pos_emb", weight((positions, d)))
    for i in range(layers):
        for mat in ("wq", "wk", "wv", "wo") + (("cq", "ck", "cv", "co") if decoder else ()):
            param(f"layer{i}.{mat}", weight((d, d)))
            param(f"layer{i}.{mat}_b", np.zeros(d))
        for ln in ("ln1", "lnc", "ln2") if decoder else ("ln1", "ln2"):
            param(f"layer{i}.{ln}_g", np.ones(d))
            param(f"layer{i}.{ln}_b", np.zeros(d))
        param(f"layer{i}.w1", weight((d, 4 * d)))
        param(f"layer{i}.w1_b", np.zeros(4 * d))
        param(f"layer{i}.w2", weight((4 * d, d)))
        param(f"layer{i}.w2_b", np.zeros(d))
    param("final_ln_g", np.ones(d))
    param("final_ln_b", np.zeros(d))
    if decoder:
        param("out_proj", weight((d, vocab_size)))
        param("out_proj_b", np.zeros(vocab_size))
    return p


def embed_tokens(
    p: dict[str, ad.Parameter], ids: np.ndarray, rows: ad.Rows | None = None
) -> ad.Tensor:
    """Token plus position embeddings of (B, T) ids. Row-ordered, each row
    reads its own position ids, so its position gradient stays its own."""
    t = ids.shape[1]
    if rows is None:
        return ad.embedding(p["token_emb"], ids) + ad.embedding(p["pos_emb"], np.arange(t))
    positions = np.broadcast_to(np.arange(t), ids.shape)
    return rows.embedding(p["token_emb"], ids) + rows.embedding(p["pos_emb"], positions)


def norm(
    x: ad.Tensor, p: dict[str, ad.Parameter], name: str, rows: ad.Rows | None = None
) -> ad.Tensor:
    """Layer norm with the `name`_g gain and `name`_b bias of `p`."""
    op = ad.layer_norm if rows is None else rows.layer_norm
    return op(x, p[f"{name}_g"], p[f"{name}_b"], LN_EPS)


def project(
    x: ad.Tensor, p: dict[str, ad.Parameter], name: str,
    rows: ad.Rows | ad.PooledRows | None = None,
) -> ad.Tensor:
    """x @ `name` + `name`_b, from the parameters `p`."""
    op = ad.linear if rows is None else rows.linear
    return op(x, p[name], p[f"{name}_b"])


def transformer_layer(
    h: ad.Tensor, p: dict[str, ad.Parameter], layer: str, heads: int, mask: np.ndarray,
    cross: tuple[ad.Tensor, ad.Tensor] | None = None, bias: ad.Tensor | None = None,
    rows: ad.Rows | None = None,
) -> ad.Tensor:
    """One pre-norm layer over (B, T, d) states, shared by the encoder and
    the reader's decoder: masked self-attention, then (decoder only) attention
    to the `cross` key and value projections with the logit `bias`, then the
    feed-forward block, each added to the residual stream. With `rows` the
    projections and layer norms run row-ordered.
    """
    mixed = _self_attention(norm(h, p, f"{layer}.ln1", rows), p, layer, heads, mask, rows)
    h = h + project(mixed, p, f"{layer}.wo", rows)
    if cross is not None:
        q = project(norm(h, p, f"{layer}.lnc", rows), p, f"{layer}.cq", rows)
        h = h + project(ad.attention(q, *cross, heads, bias=bias), p, f"{layer}.co", rows)
    return h + _feed_forward(norm(h, p, f"{layer}.ln2", rows), p, layer, rows)


def pooled_layer(
    h: ad.Tensor, p: dict[str, ad.Parameter], layer: str, heads: int, mask: np.ndarray,
    rows: ad.Rows | None,
) -> ad.Tensor:
    """An encoder's `transformer_layer` that returns only the (B, 2, d) rows
    `ad.PooledRows` keeps of its (B, T, d) input: keys and values cover every
    position, queries only the kept rows, and the output projection, residual
    and feed-forward block run on those rows. With `rows` it runs
    row-ordered, as `transformer_layer` does.
    """
    pool = ad.PooledRows(h.shape[1], rows)
    x = norm(h, p, f"{layer}.ln1", rows)
    q = project(pool.cut(x), p, f"{layer}.wq", pool)
    k, v = (project(x, p, f"{layer}.{m}", rows) for m in ("wk", "wv"))
    mixed = pool.attention(q, k, v, heads, mask)
    h = pool.cut(h) + project(mixed, p, f"{layer}.wo", pool)
    return h + _feed_forward(norm(h, p, f"{layer}.ln2", rows), p, layer, pool)


# The two sublayers are functions so that their activations are released on
# return, before the next sublayer allocates its own.


def _self_attention(
    x: ad.Tensor, p: dict[str, ad.Parameter], layer: str, heads: int, mask: np.ndarray,
    rows: ad.Rows | None,
) -> ad.Tensor:
    q, k, v = (project(x, p, f"{layer}.{m}", rows) for m in ("wq", "wk", "wv"))
    return ad.attention(q, k, v, heads, mask=mask)


def _feed_forward(
    x: ad.Tensor, p: dict[str, ad.Parameter], layer: str, rows: ad.Rows | ad.PooledRows | None
) -> ad.Tensor:
    return project(ad.gelu(project(x, p, f"{layer}.w1", rows)), p, f"{layer}.w2", rows)


def group_by_length(lengths) -> dict[int, list[int]]:
    """Positions grouped by length, groups in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for position, length in enumerate(lengths):
        groups.setdefault(length, []).append(position)
    return groups


def length_chunks(lengths, budget: int | Callable[[int], int]) -> Iterator[list[int]]:
    """Positions grouped by length, each group cut in order into chunks of
    at most `budget` tokens, or `budget(length)` (one position when its
    length alone exceeds it)."""
    for length, rows in group_by_length(lengths).items():
        tokens = budget(length) if callable(budget) else budget
        size = max(1, tokens // max(length, 1))
        for lo in range(0, len(rows), size):
            yield rows[lo:lo + size]


def question_input(question_tokens: Sequence[int]) -> list[int]:
    return [CLS_ID] + list(question_tokens)


def context_input(title_tokens: Sequence[int], text_tokens: Sequence[int]) -> list[int]:
    return [CLS_ID] + list(title_tokens) + [SEP_ID] + list(text_tokens)


def document_input(doc, corpus) -> list[int]:
    """Context-tower input of a document of `corpus`: its title, then its text."""
    return context_input(corpus.title_tokens[doc.id], doc.tokens)


@dataclass(frozen=True)
class DocumentRows:
    """Context-tower rows of one corpus's documents under one parameter
    state, keyed by the corpus object and the tower's parameter bytes
    (`params_fp`, their fingerprint); `Corpus` is immutable, so the object
    stands for its content. Row n is document n's. Never changed; a new
    store replaces it."""

    corpus: object
    params_fp: bytes
    rows: np.ndarray  # (m, d) float64, read-only


class DualEncoder:
    """Question tower and context tower with disjoint parameters."""

    def __init__(self, config: EncoderConfig, seed: int | None = 0):
        """Weights drawn from `seed`; with None they are zeros (see `load`)."""
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        self.question_encoder = TransformerEncoder(config, rng, prefix="q")
        self.context_encoder = TransformerEncoder(config, rng, prefix="z")
        self._documents: DocumentRows | None = None

    def parameters(self) -> list[ad.Parameter]:
        return self.question_encoder.parameters() + self.context_encoder.parameters()

    def encode_question(self, question_tokens: Sequence[int]) -> ad.Tensor:
        """Pooled (d,) question vector: a one-row `encode_batch`."""
        pooled = self.question_encoder.encode_batch([question_input(question_tokens)])
        return ad.reshape(pooled, (self.config.hidden_size,))

    def embed_questions(self, questions: Sequence[Sequence[int]]) -> np.ndarray:
        """Inference: (N, d) question vectors, each equal to `encode_question`."""
        return self.question_encoder.embed([question_input(q) for q in questions])

    def embed_documents(self, corpus, doc_ids: Sequence[int] | None = None) -> np.ndarray:
        """Inference: (N, d) context-tower rows of the documents `doc_ids`
        (default: all, in corpus order, as the store's own read-only matrix),
        each bit for bit the tower's `embed` of its `document_input`.

        The store is keyed by the corpus object and the tower's parameter
        bytes. A store of another key is dropped first; then the whole corpus
        goes through one `embed`, and its rows are kept only if the tower's
        parameters fingerprint the same after it. The store is swapped as one
        reference: a concurrent miss costs an extra embed, never a mixed
        store.
        """
        store = self._documents
        params_fp = self._context_fingerprint()
        if store is None or store.corpus is not corpus or store.params_fp != params_fp:
            store = self._documents = None  # stale rows go before anything is embedded
            rows = self.context_encoder.embed([document_input(doc, corpus) for doc in corpus])
            rows.flags.writeable = False
            store = DocumentRows(corpus, params_fp, rows)
            if self._context_fingerprint() == params_fp:
                self._documents = store
        if doc_ids is None:
            return store.rows
        return store.rows[[corpus.position[i] for i in doc_ids]]

    def _context_fingerprint(self) -> bytes:
        return fingerprint(p.data for p in self.context_encoder.parameters())

    def save(self, path) -> None:
        save_model(path, "dual_encoder", self.config, self.parameters())

    @classmethod
    def load(cls, path) -> "DualEncoder":
        return load_model(path, "dual_encoder", EncoderConfig, cls)
