"""Generative reader: a small encoder-decoder that scores and produces
answers, either from one context or by fusing k retrieved contexts.

Fusion stacks every context's encoder states into one cross-attention
memory and adds a per-position logit bias of lambda * p(z|q), broadcast over
the positions of the owning context. The bias is re-centered by its maximum
(a constant shift softmax ignores), so a single context, or lambda = 0,
reproduces the unbiased reader bit for bit.

Inference has one graph-free pipeline, which both reader modes and every
greedy decode use. A memory is (question, contexts, retrieval probs): one
context and no probs (individual), or k contexts fused with their probs
(joint). `memory_chunks` cuts equal-length memories into chunks of at most
DECODE_MEMORY_TOKENS memory tokens and encodes each when reached: its inputs
through `TransformerEncoder.infer`, then its cross-attention keys and values
once per decoder layer and each fused memory's bias row. `decode_chunks`
greedy-decodes a chunk in one decoder call per step and `score_chunks` scores
its (memory, answer) rows of an answer length together, at most
DECODE_MEMORY_TOKENS memory tokens per call. Nothing is padded and every
matmul runs per row with that row's own shapes, so each row equals the
one-pair, one-question path bit for bit. Training (`log_likelihoods`) cuts
the same way with a graph: the inputs of many memories through
`TransformerEncoder.encode_rows`, then one teacher-forced decoder call per
(answer length, memory length) chunk of `_scoring_parts`, the cut
`score_chunks` makes too, row-ordered (`autodiff.RowOrder`) so
that every gradient equals the memories' one-row graphs bit for bit;
`answer_log_likelihood` and `joint_forward` are its one-memory calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .checkpoint import load_model, save_model
from .encoder import (
    EncoderConfig,
    TransformerEncoder,
    embed_tokens,
    group_by_length,
    length_chunks,
    norm,
    project,
    transformer_layer,
    transformer_params,
)
from .errors import DimensionError, DomainError
from .text import BOS_ID, EOS_ID, SEP_ID

PROB_SUM_TOL = 1e-9
# rows x memory length per decoder call in either mode; bounds the encoder
# states, cross K/V and activations that one memory chunk holds
DECODE_MEMORY_TOKENS = 1024

# (question tokens, contexts, retrieval probs, or None for one unbiased context)
Memory = tuple[Sequence[int], Sequence[Sequence[int]], Sequence[float] | None]
# per decoder layer: cross-attention key and value projections, each (n, T_mem, d)
CrossKV = list[tuple[ad.Tensor, ad.Tensor]]
# positions of equal-length memories, their stacked cross K/V and, for fused
# memories, their (n, 1, 1, T_mem) cross-attention bias rows
Chunk = tuple[list[int], CrossKV, ad.Tensor | None]


@dataclass(frozen=True)
class ReaderConfig:
    vocab_size: int
    enc_layers: int = 2
    dec_layers: int = 2
    hidden_size: int = 64
    heads: int = 4
    max_seq_len: int = 256
    max_answer_len: int = 32

    def __post_init__(self):
        for name in ("enc_layers", "dec_layers"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_answer_len < 2:  # one answer token plus [EOS]
            raise DomainError(f"max_answer_len must be >= 2, got {self.max_answer_len}")
        self.encoder_config()  # re-checks the encoder-side constraints

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            vocab_size=self.vocab_size,
            layers=self.enc_layers,
            hidden_size=self.hidden_size,
            heads=self.heads,
            max_seq_len=self.max_seq_len,
        )


def with_eos(tokens: Sequence[int]) -> list[int]:
    """Append the end marker unless already present."""
    out = list(tokens)
    if not out or out[-1] != EOS_ID:
        out.append(EOS_ID)
    return out


class Reader:
    def __init__(self, config: ReaderConfig, seed: int | None = 0):
        """Weights drawn from `seed`; with None they are zeros (see `load`)."""
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        self.encoder = TransformerEncoder(config.encoder_config(), rng, prefix="reader_enc")
        self.dec_params = transformer_params(
            "reader_dec", rng, config.vocab_size, config.hidden_size, config.max_answer_len,
            config.dec_layers, decoder=True,
        )
        # Eq-8-style fusion weight; zero start means unbiased fusion
        self.lambda_bias = ad.Parameter(np.zeros(()), name="reader.lambda_bias")

    def parameters(self) -> list[ad.Parameter]:
        return (
            self.encoder.parameters()
            + list(self.dec_params.values())
            + [self.lambda_bias]
        )

    # Encoding ------------------------------------------------------------

    def _input(self, question_tokens: Sequence[int], context_tokens: Sequence[int]) -> list[int]:
        """question + [SEP] + context, cut to max_seq_len."""
        return (list(question_tokens) + [SEP_ID] + list(context_tokens))[: self.config.max_seq_len]

    def encode_pair(self, question_tokens: Sequence[int], context_tokens: Sequence[int]) -> ad.Tensor:
        """Encode question + [SEP] + context into (T, d) memory states: a
        one-row `encoder.encode_rows`."""
        (states,) = self.encoder.encode_rows(
            [self._input(question_tokens, context_tokens)], ad.RowOrder(), [(0,)]
        )
        return ad.reshape(states, states.shape[1:])

    # Decoding ------------------------------------------------------------

    def _cross_kv(self, memory: ad.Tensor, rows: ad.Rows | None = None) -> CrossKV:
        """Per-layer cross-attention key and value projections, (n, T_mem, d)
        each, computed once from a (T_mem, d) memory or an (n, T_mem, d)
        stack of equal-length memories (row-ordered with `rows`)."""
        if memory.ndim == 2:
            memory = ad.reshape(memory, (1,) + memory.shape)
        p = self.dec_params
        return [
            (project(memory, p, f"layer{i}.ck", rows), project(memory, p, f"layer{i}.cv", rows))
            for i in range(self.config.dec_layers)
        ]

    def _decode_logits(
        self,
        decoder_input: np.ndarray,
        cross: CrossKV,
        bias: ad.Tensor | None,
        rows: ad.Rows | None = None,
    ) -> ad.Tensor:
        """Teacher-forced decoder: (B, T_dec) input ids -> (B, T_dec, vocab)
        logits; row b attends to the memory of row b of `cross`.

        Each row computes exactly what a lone row would: every matmul runs
        per row with that row's own shapes, and nothing is padded.
        """
        cfg = self.config
        ids = np.asarray(decoder_input, dtype=np.int64)
        t_dec = ids.shape[1]
        if t_dec > cfg.max_answer_len:
            raise DimensionError(
                f"decoder length {t_dec} exceeds max_answer_len {cfg.max_answer_len}"
            )
        p = self.dec_params
        h = embed_tokens(p, ids, rows)
        causal = np.where(np.triu(np.ones((t_dec, t_dec), dtype=bool), k=1), ad.MASK_NEG, 0.0)
        for i, kv in enumerate(cross):
            # bias: one (1, 1, T_mem) row per batch row, broadcast over heads
            # and steps
            h = transformer_layer(
                h, p, f"layer{i}", cfg.heads, causal, cross=kv, bias=bias, rows=rows
            )
        return project(norm(h, p, "final_ln", rows), p, "out_proj", rows)

    def _fusion_bias(self, probs, lengths: Sequence[int], lam: ad.Tensor | None = None) -> ad.Tensor:
        """(T_mem,) cross-attention logit bias: lambda * p_i over the
        `lengths[i]` memory positions of context i. probs may be a plain
        sequence (inference) or a Tensor carrying gradient back into whatever
        produced the retrieval distribution. `lam` stands in for
        `lambda_bias` (a row-ordered read of it in training)."""
        if len(lengths) < 1:
            raise DomainError("fusion needs at least one context")
        probs_t = probs if isinstance(probs, ad.Tensor) else ad.Tensor(np.asarray(probs, dtype=np.float64))
        probs_arr = probs_t.data
        if probs_arr.ndim != 1 or probs_arr.shape[0] != len(lengths):
            raise DimensionError("one probability per context required")
        if (probs_arr < 0).any() or abs(probs_arr.sum() - 1.0) > PROB_SUM_TOL:
            raise DomainError(
                f"context probabilities must be a distribution, got sum {probs_arr.sum()!r}"
            )
        # in-graph bias lambda * p_i per context, broadcast over its positions
        lam = self.lambda_bias if lam is None else lam
        spread = np.repeat(np.eye(len(lengths)), lengths, axis=0)
        per_position = ad.matmul(
            ad.Tensor(spread), ad.reshape(ad.mul(lam, probs_t), (len(lengths), 1))
        )
        # constant re-centering: softmax is shift-invariant, and this makes
        # k=1 and lambda=0 reduce to the unbiased decoder exactly
        shift = float(-(float(lam.data) * probs_arr).max())
        return ad.reshape(per_position, (sum(lengths),)) + ad.Tensor(np.array(shift))

    # Likelihoods (training) ------------------------------------------------

    def answer_log_likelihood(
        self,
        question_tokens: Sequence[int],
        context_tokens: Sequence[int],
        answer_tokens: Sequence[int],
    ) -> ad.Tensor:
        """Teacher-forced log p(answer | question, context); scores exactly
        the tokens given (callers terminate answers with [EOS]). A one-row
        `log_likelihoods`."""
        memory = (question_tokens, [context_tokens], None)
        (scored,) = self.log_likelihoods([memory], [answer_tokens], [(0,)], ad.RowOrder())
        return ad.reshape(scored, ())

    def joint_forward(
        self,
        question_tokens: Sequence[int],
        contexts: Sequence[Sequence[int]],
        probs,
        answer_tokens: Sequence[int],
    ) -> ad.Tensor:
        """log p(answer | question, all k contexts, retrieval probs), a
        one-row `log_likelihoods`.

        probs: sequence of floats, or a Tensor to backpropagate through."""
        memory = (question_tokens, contexts, probs)
        (scored,) = self.log_likelihoods([memory], [answer_tokens], [(0,)], ad.RowOrder())
        return ad.reshape(scored, ())

    def log_likelihoods(
        self, memories: Sequence[Memory], answers: Sequence[Sequence[int]],
        keys: Sequence[tuple], order: ad.RowOrder,
    ) -> list[ad.Tensor]:
        """Training: the teacher-forced log p(answer | memory) of each memory
        (each answer scored exactly as given), a (1,) Tensor each, from one
        row-ordered graph. Memory m's gradients go to `order` under
        `keys[m]`, its context c's encoder row under `keys[m] + (c,)`.

        The memories are all unbiased or all fused; a fused one's probs are
        floats or a Tensor, and it reads `lambda_bias` through its own row.
        The inputs go through `encoder.encode_rows`. Memories of one answer
        length and memory length are stacked, with their `_fusion_bias` rows,
        into teacher-forced decoder calls of at most DECODE_MEMORY_TOKENS
        memory tokens. Each log-likelihood and gradient equals the memory's
        own one-row graph bit for bit."""
        if not all(map(len, answers)):
            raise DomainError("cannot score an empty answer")
        lengths = [[len(self._input(q, z)) for z in contexts] for q, contexts, _ in memories]
        biases = [
            None if probs is None else ad.reshape(
                self._fusion_bias(probs, n, order.rows([key]).tap(self.lambda_bias)),
                (1, 1, 1, sum(n)),
            )
            for (_, _, probs), n, key in zip(memories, lengths, keys)
        ]
        states = iter(self.encoder.encode_rows(
            [self._input(q, z) for q, contexts, _ in memories for z in contexts], order,
            [key + (c,) for n, key in zip(lengths, keys) for c in range(len(n))],
        ))
        fused = [ad.concat([next(states) for _ in n], axis=1) for n in lengths]
        scores: list[ad.Tensor] = [None] * len(memories)
        for part in _scoring_parts(map(len, answers), [sum(n) for n in lengths]):
            rows = order.rows([keys[m] for m in part])
            bias = None if biases[part[0]] is None else ad.concat([biases[m] for m in part])
            cross = self._cross_kv(ad.concat([fused[m] for m in part]), rows)
            targets = np.array([list(answers[m]) for m in part])
            scored = self._teacher_forced(cross, bias, targets, rows)
            for j, m in enumerate(part):
                scores[m] = scored if len(part) == 1 else ad.take_row(scored, j)
        return scores

    def _teacher_forced(
        self, cross: CrossKV, bias: ad.Tensor | None, answers: np.ndarray,
        rows: ad.Rows | None = None,
    ) -> ad.Tensor:
        """(B,) log-likelihoods of the (B, T) equal-length answers, row b
        scored against the memory of row b of `cross`, row-ordered by `rows`."""
        logits = self._decode_logits(_decoder_input(answers), cross, bias, rows)
        return ad.sequence_log_prob(logits, answers)

    # Inference: greedy decoding, then the pipeline that serves it ----------

    def greedy_decode(
        self,
        question_tokens: Sequence[int],
        context_tokens: Sequence[int],
        max_len: int | None = None,
    ) -> list[int]:
        """Greedy answer from one context: `decode_chunks` of one memory."""
        memory = (question_tokens, [context_tokens], None)
        return self.decode_chunks(self.memory_chunks([memory]), max_len)[0]

    def joint_greedy_decode(
        self,
        question_tokens: Sequence[int],
        contexts: Sequence[Sequence[int]],
        probs: Sequence[float],
        max_len: int | None = None,
    ) -> list[int]:
        """Greedy answer fused over `contexts`: `decode_chunks` of one memory."""
        memory = (question_tokens, contexts, probs)
        return self.decode_chunks(self.memory_chunks([memory]), max_len)[0]

    # Inference pipeline: encode, project, then decode or score ------------

    def memory_chunks(self, memories: Sequence[Memory]) -> Iterator[Chunk]:
        """The memories in chunks of equal memory length, at most
        DECODE_MEMORY_TOKENS memory tokens (or one longer memory), each
        encoded only when reached: its inputs through `encoder.infer`, its
        states' cross K/V, and a `_fusion_bias` row per memory with probs.
        A generator: its callers run it under `ad.no_grad()`."""
        lengths = [[len(self._input(q, z)) for z in contexts] for q, contexts, _ in memories]
        for rows in length_chunks(map(sum, lengths), DECODE_MEMORY_TOKENS):
            inputs = [self._input(memories[r][0], z) for r in rows for z in memories[r][1]]
            states = {p: x for at, h in self.encoder.infer(inputs) for p, x in zip(at, h.data)}
            parts = (states[p] for p in range(len(inputs)))
            stacked = np.stack([np.concatenate([next(parts) for _ in lengths[r]]) for r in rows])
            bias = None
            if memories[rows[0]][2] is not None:
                biases = [self._fusion_bias(memories[r][2], lengths[r]).data for r in rows]
                bias = ad.Tensor(np.stack(biases)[:, None, None])
            yield rows, self._cross_kv(ad.Tensor(stacked)), bias

    @ad.no_grad()
    def decode_chunks(self, chunks: Iterable[Chunk], max_len: int | None = None) -> list[list[int]]:
        """Greedy answer of every memory of `chunks`, in memory order, one
        decoder call per step per chunk."""
        answers: dict[int, list[int]] = {}
        for rows, cross, bias in chunks:
            answers.update(zip(rows, self._greedy(cross, bias, max_len)))
        return [answers[r] for r in range(len(answers))]

    @ad.no_grad()
    def score_chunks(
        self, chunks: Iterable[Chunk], answers_per_memory: Sequence[Sequence[Sequence[int]]]
    ) -> list[np.ndarray]:
        """Per memory of unbiased `chunks`, the teacher-forced log-likelihood
        of each of its answers, bit for bit `answer_log_likelihood`. A chunk's
        (memory, answer) rows of one answer length share decoder calls of at
        most DECODE_MEMORY_TOKENS memory tokens."""
        out = [np.empty(len(answers)) for answers in answers_per_memory]
        for rows, cross, _ in chunks:
            # every (row of the chunk, answer index) to score
            pairs = [(c, a) for c, r in enumerate(rows) for a in range(len(answers_per_memory[r]))]
            answers = [answers_per_memory[rows[c]][a] for c, a in pairs]
            for part in _scoring_parts(map(len, answers), [cross[0][0].shape[1]] * len(pairs)):
                batch = _take_rows(cross, np.array([pairs[j][0] for j in part]))
                scored = self._teacher_forced(batch, None, np.array([answers[j] for j in part]))
                for j, ll in zip(part, scored.data):
                    out[rows[pairs[j][0]]][pairs[j][1]] = ll
        return out

    def _greedy(
        self, cross: CrossKV, bias: ad.Tensor | None, max_len: int | None
    ) -> list[list[int]]:
        """Argmax decoding of every row of `cross` (and of `bias`, one
        (1, 1, T_mem) row per memory) until [EOS] or the length cap; a row
        that emits [EOS] leaves the batch, and the terminal [EOS] is not
        included in its sequence. Ties pick the lowest id."""
        cap = self.config.max_answer_len - 1 if max_len is None else max_len
        if cap < 1:
            raise DomainError(f"max_len must be >= 1, got {cap}")
        cap = min(cap, self.config.max_answer_len - 1)
        generated: list[list[int]] = [[] for _ in range(cross[0][0].shape[0])]
        active = list(range(len(generated)))
        for _ in range(cap):
            ids = np.array([[BOS_ID] + generated[r] for r in active], dtype=np.int64)
            logits = self._decode_logits(ids, cross, bias).data[:, -1]
            next_ids = np.argmax(logits, axis=-1)  # first occurrence wins ties
            going = np.flatnonzero(next_ids != EOS_ID)
            for j in going:
                generated[active[j]].append(int(next_ids[j]))
            if len(going) < len(active):
                if not len(going):
                    break
                active = [active[j] for j in going]
                cross = _take_rows(cross, going)
                if bias is not None:
                    bias = ad.Tensor(bias.data[going])
        return generated

    # Persistence -----------------------------------------------------------

    def save(self, path) -> None:
        save_model(path, "reader", self.config, self.parameters())

    @classmethod
    def load(cls, path) -> "Reader":
        return load_model(path, "reader", ReaderConfig, cls)


def _scoring_parts(answer_lengths, memory_lengths: Sequence[int]) -> Iterator[list[int]]:
    """The rows of each teacher-forced decoder call: rows grouped by answer
    length, each group cut by `length_chunks` over its memory lengths."""
    for picks in group_by_length(answer_lengths).values():
        for chunk in length_chunks([memory_lengths[r] for r in picks], DECODE_MEMORY_TOKENS):
            yield [picks[j] for j in chunk]


def _decoder_input(answers: np.ndarray) -> np.ndarray:
    """Teacher forcing's (B, T) decoder input: [BOS], then each answer but its last token."""
    return np.concatenate([np.full((answers.shape[0], 1), BOS_ID), answers[:, :-1]], axis=1)


def _take_rows(cross: CrossKV, rows: np.ndarray) -> CrossKV:
    """The cross K/V of the given memory rows, in that order (no graph)."""
    return [(ad.Tensor(k.data[rows]), ad.Tensor(v.data[rows])) for k, v in cross]
