"""Dual-encoder retriever: a question tower and a context tower, each a small
pre-norm transformer pooled at the first position, scored by dot product.

The towers share no parameters, so either side can be frozen without
touching the other. Retriever training encodes through `encode_batch`;
inference (`infer`, under `autodiff.no_grad()`) runs unpadded chunks of
equal-length sequences, and each row it returns equals the sequence's own
one-row `encode_batch` bit for bit, for any chunk size and layer count. A
padded batch of mixed lengths does not have that property: its rows differ
from the one-row vectors in the last bits (measured up to ~1e-15), which is
why inference never pads. Retriever training batches stay padded and keep the
full forward; their contract is the gradient, checked by finite differences.
The end-to-end step encodes through `encode_rows`: `infer`'s chunks with a
row-ordered graph, so that its gradients too equal the one-row graphs'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .checkpoint import load_model, save_model
from .errors import DimensionError, DomainError
from .text import CLS_ID, PAD_ID, SEP_ID, Vocabulary

INIT_STD = 0.02
LN_EPS = 1e-5
# tokens per `infer` forward of equal-length inputs; bounds activation memory
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

        Pooled under `ad.no_grad()`, the last layer still attends over every
        position, but its output projection, residual, FFN and the final
        layer norm run only on the rows that are pooled (see `_pooled_rows`).
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise DimensionError("forward expects a (batch, time) id matrix")
        b, t = token_ids.shape
        if t > self.config.max_seq_len:
            raise DimensionError(
                f"sequence length {t} exceeds max_seq_len {self.config.max_seq_len}"
            )
        p = self.params
        h = embed_tokens(p, token_ids, rows)
        # additive mask: [PAD] key positions get MASK_NEG in every attention row
        pad_cols = (token_ids == PAD_ID)[:, None, None, :]
        mask = np.where(pad_cols, ad.MASK_NEG, 0.0)
        narrow = pooled and not ad.grad_enabled()
        last = self.config.layers - 1
        for i in range(self.config.layers):
            h = transformer_layer(
                h, p, f"layer{i}", self.config.heads, mask, narrow=narrow and i == last,
                rows=rows,
            )
        h = norm(h, p, "final_ln", rows)
        if narrow:
            return ad.Tensor(h.data.reshape(b, -1, self.config.hidden_size)[:, 0])
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
        whose (head-truncated) lengths are equal, at most CHUNK_TOKENS tokens
        (or one longer sequence). The output is one unpadded `forward`'s
        (n, T, d) states, or with `pooled` its (n, d) position-0 rows; each
        row equals the sequence's own one-row forward bit for bit. A
        generator: a chunk is encoded when reached, and only its forward runs
        under `ad.no_grad()`, so the caller's grad mode holds between chunks."""
        for rows, ids in self._chunks(sequences):
            with ad.no_grad():
                output = self.forward(ids, pooled=pooled)
            yield rows, output

    def encode_rows(
        self, sequences: Sequence[Sequence[int]], order: ad.RowOrder, keys: Sequence[tuple],
        pooled: bool = False,
    ) -> list[ad.Tensor]:
        """Training: each sequence's (1, d) pooled row or (1, T, d) states,
        with a graph, from one row-ordered `forward` per chunk of `infer`'s;
        sequence r's parameter gradients go to `order` under `keys[r]`. Each
        row equals the sequence's own one-row forward bit for bit."""
        out: list[ad.Tensor] = [None] * len(sequences)
        for rows, ids in self._chunks(sequences):
            h = self.forward(ids, pooled=pooled, rows=order.rows([keys[r] for r in rows]))
            for j, r in enumerate(rows):
                out[r] = h if len(rows) == 1 else ad.take_row(h, j)
        return out

    def _chunks(self, sequences: Sequence[Sequence[int]]) -> Iterator[tuple[list[int], np.ndarray]]:
        """(positions, id matrix) per chunk of head-truncated sequences of one
        length, at most CHUNK_TOKENS tokens (or one longer sequence)."""
        cap = self.config.max_seq_len
        if not all(map(len, sequences)):
            raise DomainError("cannot encode an empty token sequence")
        for rows in length_chunks((min(len(s), cap) for s in sequences), CHUNK_TOKENS):
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
    x: ad.Tensor, p: dict[str, ad.Parameter], name: str, rows: ad.Rows | None = None
) -> ad.Tensor:
    """x @ `name` + `name`_b, from the parameters `p`."""
    op = ad.linear if rows is None else rows.linear
    return op(x, p[name], p[f"{name}_b"])


def transformer_layer(
    h: ad.Tensor, p: dict[str, ad.Parameter], layer: str, heads: int, mask: np.ndarray,
    cross: tuple[ad.Tensor, ad.Tensor] | None = None, bias: ad.Tensor | None = None,
    narrow: bool = False, rows: ad.Rows | None = None,
) -> ad.Tensor:
    """One pre-norm layer over (B, T, d) states, shared by the encoder and
    the reader's decoder: masked self-attention, then (decoder only) attention
    to the `cross` key and value projections with the logit `bias`, then the
    feed-forward block, each added to the residual stream.

    With `narrow` (no-grad only) everything after the self-attention mix
    runs on the rows that are pooled (see `_pooled_rows`). With `rows` the
    projections and layer norms run row-ordered.
    """
    mixed = _self_attention(norm(h, p, f"{layer}.ln1", rows), p, layer, heads, mask, rows)
    if narrow:
        h, mixed = _pooled_rows(h), _pooled_rows(mixed)
    h = h + project(mixed, p, f"{layer}.wo", rows)
    if cross is not None:
        q = project(norm(h, p, f"{layer}.lnc", rows), p, f"{layer}.cq", rows)
        h = h + project(ad.attention(q, *cross, heads, bias=bias), p, f"{layer}.co", rows)
    return h + _feed_forward(norm(h, p, f"{layer}.ln2", rows), p, layer, rows)


# The two sublayers are functions so that their activations are released on
# return, before the next sublayer allocates its own.


def _self_attention(
    x: ad.Tensor, p: dict[str, ad.Parameter], layer: str, heads: int, mask: np.ndarray,
    rows: ad.Rows | None,
) -> ad.Tensor:
    q, k, v = (project(x, p, f"{layer}.{m}", rows) for m in ("wq", "wk", "wv"))
    return ad.attention(q, k, v, heads, mask=mask)


def _feed_forward(
    x: ad.Tensor, p: dict[str, ad.Parameter], layer: str, rows: ad.Rows | None
) -> ad.Tensor:
    return project(ad.gelu(project(x, p, f"{layer}.w1", rows)), p, f"{layer}.w2", rows)


def group_by_length(lengths) -> dict[int, list[int]]:
    """Positions grouped by length, groups in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for position, length in enumerate(lengths):
        groups.setdefault(length, []).append(position)
    return groups


def length_chunks(lengths, budget: int) -> Iterator[list[int]]:
    """Positions grouped by length, each group cut in order into chunks of
    at most `budget` tokens (one position when its length alone exceeds it)."""
    for length, rows in group_by_length(lengths).items():
        size = max(1, budget // max(length, 1))
        for lo in range(0, len(rows), size):
            yield rows[lo:lo + size]


def _pooled_rows(x: ad.Tensor) -> ad.Tensor:
    """Position-0 rows of a (B, T, d) no-grad activation, shaped so that the
    last layer's matmuls round exactly as they do over all T positions.

    numpy sends a one-row 2-D matmul down BLAS gemv, which rounds differently
    from the gemm a T >= 2 sequence gets, so a lone sequence keeps positions
    0 and 1 (row 0 is pooled). At T = 1 the full forward already runs gemv per
    sequence, so the rows stay (B, 1, d).
    """
    b, t, d = x.shape
    if t == 1:
        return x
    rows = 2 if b == 1 else 1
    return ad.Tensor(x.data[:, :rows].reshape(b * rows, d))


def question_input(question_tokens: Sequence[int]) -> list[int]:
    return [CLS_ID] + list(question_tokens)


def context_input(title_tokens: Sequence[int], text_tokens: Sequence[int]) -> list[int]:
    return [CLS_ID] + list(title_tokens) + [SEP_ID] + list(text_tokens)


def document_input(doc, vocab: Vocabulary) -> list[int]:
    """Context-tower input of a corpus document: its title, then its text."""
    return context_input(vocab.encode(doc.title), doc.tokens)


class DualEncoder:
    """Question tower and context tower with disjoint parameters."""

    def __init__(self, config: EncoderConfig, seed: int | None = 0):
        """Weights drawn from `seed`; with None they are zeros (see `load`)."""
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        self.question_encoder = TransformerEncoder(config, rng, prefix="q")
        self.context_encoder = TransformerEncoder(config, rng, prefix="z")

    def parameters(self) -> list[ad.Parameter]:
        return self.question_encoder.parameters() + self.context_encoder.parameters()

    def encode_question(self, question_tokens: Sequence[int]) -> ad.Tensor:
        """Pooled (d,) question vector: a one-row `encode_batch`."""
        pooled = self.question_encoder.encode_batch([question_input(question_tokens)])
        return ad.reshape(pooled, (self.config.hidden_size,))

    def embed_questions(self, questions: Sequence[Sequence[int]]) -> np.ndarray:
        """Inference: (N, d) question vectors, each equal to `encode_question`."""
        return self.question_encoder.embed([question_input(q) for q in questions])

    def save(self, path) -> None:
        save_model(path, "dual_encoder", self.config, self.parameters())

    @classmethod
    def load(cls, path) -> "DualEncoder":
        return load_model(path, "dual_encoder", EncoderConfig, cls)
