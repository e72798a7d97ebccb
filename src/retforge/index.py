"""Dense evidence index: exact inner-product top-k over immutable snapshots.

Searches take a snapshot reference and never block. Refresh is synchronous,
on a fixed step schedule: it builds a new snapshot off to the side and
publishes it with one reference swap, so a search holding the old snapshot
always sees one consistent version. Embeddings are held at float32 (index
precision); scoring math runs in float64. `save_index` writes a snapshot as
an `index` kind of the one `checkpoint` container.

A build reads the context tower's store of float64 document rows
(`DualEncoder.embed_documents`, keyed by the corpus object and the tower's
parameter bytes), which frozen-tower training steps read too, so a build of
the same corpus under an unchanged tower embeds nothing and a miss embeds the
whole corpus once. Inference searches with `embed_questions` rows; the
end-to-end training step with its loss's own question rows, the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import ranked_rows
from .errors import DimensionError, DomainError, FormatError


@dataclass(frozen=True)
class IndexSnapshot:
    version: int
    doc_ids: np.ndarray  # (m,) int64
    embeddings: np.ndarray  # (m, d) float32

    def __post_init__(self):
        doc_ids = np.ascontiguousarray(np.asarray(self.doc_ids, dtype=np.int64))
        emb = np.ascontiguousarray(np.asarray(self.embeddings, dtype=np.float32))
        if self.version < 0:
            raise DomainError(f"snapshot version must be >= 0, got {self.version}")
        if emb.ndim != 2:
            raise DimensionError(f"embeddings must be 2-D, got shape {emb.shape}")
        if doc_ids.ndim != 1 or doc_ids.shape[0] != emb.shape[0]:
            raise DimensionError(
                f"doc_ids ({doc_ids.shape}) must align with embedding rows ({emb.shape})"
            )
        if len(np.unique(doc_ids)) != len(doc_ids):
            raise DomainError("snapshot doc ids must be unique")
        doc_ids.setflags(write=False)
        emb.setflags(write=False)
        object.__setattr__(self, "doc_ids", doc_ids)
        object.__setattr__(self, "embeddings", emb)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class RetrievalResult:
    doc_ids: tuple[int, ...]
    scores: tuple[float, ...]  # descending; ties broken by ascending doc id
    probs: tuple[float, ...]  # softmax(scores / tau) over exactly these k

    def head(self, k: int, tau: float) -> "RetrievalResult":
        """The first k documents, probabilities renormalised over them: what
        `top_k` at k returns when this is its result at a deeper k."""
        if not (1 <= k <= len(self.doc_ids)):
            raise DomainError(f"k must be in [1, {len(self.doc_ids)}], got {k}")
        return _result(self.doc_ids[:k], np.array(self.scores[:k]), tau)


def _result(doc_ids, scores: np.ndarray, tau: float) -> RetrievalResult:
    """The result for these documents and float64 scores: softmax(scores / tau)."""
    z = scores / tau
    z = z - z.max()
    e = np.exp(z)
    probs = e / e.sum()
    return RetrievalResult(
        doc_ids=tuple(int(i) for i in doc_ids),
        scores=tuple(float(s) for s in scores),
        probs=tuple(float(p) for p in probs),
    )


def top_k(snapshot: IndexSnapshot, q_vec: np.ndarray, k: int, tau: float) -> RetrievalResult:
    """Exact search: the k rows of highest q . z, ties by ascending doc id."""
    q = np.asarray(q_vec, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != snapshot.dim:
        raise DimensionError(
            f"query dimension {q.shape} does not match index dimension {snapshot.dim}"
        )
    if not np.isfinite(q).all():
        raise DomainError("query vector has non-finite values")
    if not (1 <= k <= snapshot.size):
        raise DomainError(f"k must be in [1, {snapshot.size}], got {k}")
    if not tau > 0:
        raise DomainError(f"scaling factor must be positive, got {tau}")
    scores = snapshot.embeddings @ q  # float64 result
    order = ranked_rows(scores, snapshot.doc_ids, k)
    return _result(snapshot.doc_ids[order], scores[order], tau)


def build_snapshot(dual_encoder, corpus, version: int = 0) -> IndexSnapshot:
    """Every corpus document's context-tower vector, cast to float32.

    The float64 rows come from `DualEncoder.embed_documents`: the tower's
    store when it holds rows for this corpus object and these parameter bytes,
    else `TransformerEncoder.embed`. Each row equals the tower's one-row
    forward of `document_input(doc, vocab)` bit for bit, so a rebuild with
    unchanged parameters reproduces the matrix exactly.
    """
    if len(corpus) == 0:
        raise DomainError("cannot index an empty corpus")
    return IndexSnapshot(version, corpus.ids, dual_encoder.embed_documents(corpus))


class EvidenceIndex:
    """Holder publishing immutable snapshots, rebuilt by the training step."""

    def __init__(self, corpus):
        self._corpus = corpus
        self._snapshot: IndexSnapshot | None = None

    @property
    def snapshot(self) -> IndexSnapshot:
        snap = self._snapshot
        if snap is None:
            raise DomainError("index has not been built yet")
        return snap

    def build(self, dual_encoder) -> IndexSnapshot:
        version = 0 if self._snapshot is None else self._snapshot.version + 1
        snap = build_snapshot(dual_encoder, self._corpus, version=version)
        self._snapshot = snap  # atomic reference swap
        return snap

    def refresh(self, dual_encoder, step: int, refresh_every: int) -> IndexSnapshot:
        """Rebuild when step is a multiple of refresh_every, else no-op."""
        if refresh_every < 1:
            raise DomainError(f"refresh_every must be >= 1, got {refresh_every}")
        if step % refresh_every != 0:
            return self.snapshot
        return self.build(dual_encoder)


def save_index(snapshot: IndexSnapshot, path) -> None:
    save_checkpoint(path, {"kind": "index", "version": int(snapshot.version)},
                    {"doc_ids": snapshot.doc_ids, "embeddings": snapshot.embeddings})


def load_index(path) -> IndexSnapshot:
    """The snapshot of a `save_index` file. FormatError unless it is an index
    of an int version with exactly `<i8` doc ids and `<f4` embeddings."""
    config, arrays = load_checkpoint(path)
    if config.get("kind") != "index":
        raise FormatError(f"{path}: checkpoint kind is not index (field: kind)")
    if config.keys() != {"kind", "version"} or type(config["version"]) is not int:
        raise FormatError(f"{path}: index config needs an int version (field: version)")
    dtypes = {name: arr.dtype.str for name, arr in arrays.items()}
    if dtypes != {"doc_ids": "<i8", "embeddings": "<f4"}:
        raise FormatError(f"{path}: index needs <i8 doc_ids and <f4 embeddings (field: params)")
    return IndexSnapshot(config["version"], arrays["doc_ids"], arrays["embeddings"])
