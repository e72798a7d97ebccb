"""Generative reader: a small encoder-decoder that scores and produces
answers, either from one context or by fusing k retrieved contexts.

Fusion stacks every context's encoder states into one cross-attention
memory and adds a per-position logit bias of lambda * p(z|q), broadcast over
the positions of the owning context. The bias is re-centered by its maximum
(a constant shift softmax ignores), so a single context, or lambda = 0,
reproduces the unbiased reader bit for bit.

Inference computes each thing once. Under `autodiff.no_grad()` the k
question + [SEP] + context inputs of a question go through one encoder
forward per group of equal length, so each retrieved document is encoded
once, and each memory's cross-attention keys and values are projected once
per decoder layer and reused by every decoder call. The decoder takes a
batch of rows, each attending to its own memory: greedy decoding runs all
documents of a memory length in one call per step, and scoring runs every
(answer, document) pair of an answer length in one call. Nothing is
padded and every matmul runs per row with that row's own shapes, so each
row equals the one-pair path bit for bit. With a graph (training) each
context keeps its own encoder forward and the decoder runs one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .checkpoint import load_model, save_model
from .encoder import (
    EncoderConfig,
    TransformerEncoder,
    group_by_length,
    norm,
    project,
    transformer_layer,
    transformer_params,
)
from .errors import DimensionError, DomainError
from .text import BOS_ID, EOS_ID, SEP_ID

PROB_SUM_TOL = 1e-9

# per decoder layer: cross-attention key and value projections, each (n, T_mem, d)
CrossKV = list[tuple[ad.Tensor, ad.Tensor]]
# (context positions, their stacked cross K/V) per memory length
MemoryGroups = list[tuple[list[int], CrossKV]]


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
        if self.dec_layers < 1:
            raise DomainError(f"dec_layers must be >= 1, got {self.dec_layers}")
        if self.max_answer_len < 1:
            raise DomainError(f"max_answer_len must be >= 1, got {self.max_answer_len}")
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
    def __init__(self, config: ReaderConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
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

    def _encode_groups(
        self, question_tokens: Sequence[int], contexts: Sequence[Sequence[int]]
    ) -> Iterator[tuple[list[int], ad.Tensor]]:
        """Yield (positions, states): context positions and the (n, T, d)
        encoder states of their question + [SEP] + context inputs.

        With a graph every context gets its own forward. Under `ad.no_grad()`
        each group of equal (truncated) input length goes through one
        unpadded forward, whose rows equal the one-context forward bit for
        bit (the rule `TransformerEncoder.embed` relies on).
        """
        inputs = [
            (list(question_tokens) + [SEP_ID] + list(z))[: self.config.max_seq_len]
            for z in contexts
        ]
        if ad.grad_enabled():
            groups = [[r] for r in range(len(inputs))]
        else:
            groups = list(group_by_length(map(len, inputs)).values())
        for rows in groups:
            ids = np.array([inputs[r] for r in rows], dtype=np.int64)
            yield rows, self.encoder.forward(ids)

    def encode_contexts(
        self, question_tokens: Sequence[int], contexts: Sequence[Sequence[int]]
    ) -> list[ad.Tensor]:
        """One (T_i, d) memory per context, in context order."""
        memories: list = [None] * len(contexts)
        for rows, states in self._encode_groups(question_tokens, contexts):
            if len(rows) == 1:
                memories[rows[0]] = ad.reshape(states, states.shape[1:])
            else:  # a no-grad group
                for r, row in zip(rows, states.data):
                    memories[r] = ad.Tensor(row)
        return memories

    def encode_pair(self, question_tokens: Sequence[int], context_tokens: Sequence[int]) -> ad.Tensor:
        """Encode question + [SEP] + context into (T, d) memory states."""
        return self.encode_contexts(question_tokens, [context_tokens])[0]

    def memory_groups(
        self, question_tokens: Sequence[int], contexts: Sequence[Sequence[int]]
    ) -> MemoryGroups:
        """Encode every context once -> (positions, cross K/V) per group of
        contexts whose memories share one length."""
        return [
            (rows, self._cross_kv(states))
            for rows, states in self._encode_groups(question_tokens, contexts)
        ]

    # Decoding ------------------------------------------------------------

    def _cross_kv(self, memory: ad.Tensor) -> CrossKV:
        """Per-layer cross-attention key and value projections, (n, T_mem, d)
        each, computed once from a (T_mem, d) memory or an (n, T_mem, d)
        stack of equal-length memories."""
        if memory.ndim == 2:
            memory = ad.reshape(memory, (1,) + memory.shape)
        p = self.dec_params
        return [
            (project(memory, p, f"layer{i}.ck"), project(memory, p, f"layer{i}.cv"))
            for i in range(self.config.dec_layers)
        ]

    def _decode_logits(
        self,
        decoder_input: np.ndarray,
        cross: CrossKV,
        bias: ad.Tensor | None,
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
        h = ad.embedding(p["token_emb"], ids) + ad.embedding(p["pos_emb"], np.arange(t_dec))
        causal = np.where(np.triu(np.ones((t_dec, t_dec), dtype=bool), k=1), ad.MASK_NEG, 0.0)
        for i, kv in enumerate(cross):
            # bias: (T_mem,) broadcast over rows, heads and steps
            h = transformer_layer(h, p, f"layer{i}", cfg.heads, causal, cross=kv, bias=bias)
        return project(norm(h, p, "final_ln"), p, "out_proj")

    def _fusion_memory(
        self,
        question_tokens: Sequence[int],
        contexts: Sequence[Sequence[int]],
        probs,
    ) -> tuple[ad.Tensor, ad.Tensor]:
        """probs may be a plain sequence (inference) or a Tensor carrying
        gradient back into whatever produced the retrieval distribution."""
        if len(contexts) < 1:
            raise DomainError("fusion needs at least one context")
        probs_t = probs if isinstance(probs, ad.Tensor) else ad.Tensor(np.asarray(probs, dtype=np.float64))
        probs_arr = probs_t.data
        if probs_arr.ndim != 1 or probs_arr.shape[0] != len(contexts):
            raise DimensionError("one probability per context required")
        if (probs_arr < 0).any() or abs(probs_arr.sum() - 1.0) > PROB_SUM_TOL:
            raise DomainError(
                f"context probabilities must be a distribution, got sum {probs_arr.sum()!r}"
            )
        encoded = self.encode_contexts(question_tokens, contexts)
        memory = ad.concat(encoded, axis=0) if len(encoded) > 1 else encoded[0]
        # in-graph bias lambda * p_i per context, broadcast over its positions
        lengths = [e.shape[0] for e in encoded]
        spread = np.repeat(np.eye(len(contexts)), lengths, axis=0)
        per_position = ad.matmul(
            ad.Tensor(spread), ad.reshape(ad.mul(self.lambda_bias, probs_t), (len(contexts), 1))
        )
        # constant re-centering: softmax is shift-invariant, and this makes
        # k=1 and lambda=0 reduce to the unbiased decoder exactly
        shift = float(-(float(self.lambda_bias.data) * probs_arr).max())
        bias = ad.reshape(per_position, (sum(lengths),)) + ad.Tensor(np.array(shift))
        return memory, bias

    # Public likelihood / generation API -----------------------------------

    def answer_log_likelihood(
        self,
        question_tokens: Sequence[int],
        context_tokens: Sequence[int],
        answer_tokens: Sequence[int],
    ) -> ad.Tensor:
        """Teacher-forced log p(answer | question, context); scores exactly
        the tokens given (callers terminate answers with [EOS])."""
        memory = self.encode_pair(question_tokens, context_tokens)
        return self._score_memory(memory, None, answer_tokens)

    def joint_forward(
        self,
        question_tokens: Sequence[int],
        contexts: Sequence[Sequence[int]],
        probs,
        answer_tokens: Sequence[int],
    ) -> ad.Tensor:
        """log p(answer | question, all k contexts, retrieval probs).

        probs: sequence of floats, or a Tensor to backpropagate through."""
        memory, bias = self._fusion_memory(question_tokens, contexts, probs)
        return self._score_memory(memory, bias, answer_tokens)

    def _score_memory(
        self, memory: ad.Tensor, bias: ad.Tensor | None, answer: Sequence[int]
    ) -> ad.Tensor:
        """Scalar log p(answer) given one (T_mem, d) memory."""
        if not len(answer):
            raise DomainError("cannot score an empty answer")
        scored = self._teacher_forced(self._cross_kv(memory), bias, np.asarray([list(answer)]))
        return ad.reshape(scored, ())

    def _teacher_forced(
        self, cross: CrossKV, bias: ad.Tensor | None, answers: np.ndarray
    ) -> ad.Tensor:
        """(B,) log-likelihoods of the (B, T) equal-length answers, row b
        scored against the memory of row b of `cross`."""
        decoder_input = np.concatenate(
            [np.full((answers.shape[0], 1), BOS_ID), answers[:, :-1]], axis=1
        )
        logits = self._decode_logits(decoder_input, cross, bias)
        return ad.sequence_log_prob(logits, answers)

    def score_groups(
        self, groups: MemoryGroups, answers: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """(len(answers), contexts) teacher-forced log-likelihoods over
        `memory_groups` output, one decoder call per (answer length, memory
        length) group; each entry equals `answer_log_likelihood` bit for bit."""
        out = np.empty((len(answers), sum(len(rows) for rows, _ in groups)))
        by_length = group_by_length(map(len, answers)).values()
        for rows, cross in groups:
            for picks in by_length:
                # batch row j * len(rows) + c scores answer picks[j] on context rows[c]
                batch = _take_rows(cross, np.tile(np.arange(len(rows)), len(picks)))
                targets = np.repeat(np.array([answers[a] for a in picks]), len(rows), axis=0)
                scored = self._teacher_forced(batch, None, targets).data
                out[np.ix_(picks, rows)] = scored.reshape(len(picks), len(rows))
        return out

    @ad.no_grad()
    def greedy_decode(
        self,
        question_tokens: Sequence[int],
        context_tokens: Sequence[int],
        max_len: int | None = None,
    ) -> list[int]:
        memory = self.encode_pair(question_tokens, context_tokens)
        return self._greedy(self._cross_kv(memory), None, max_len)[0]

    @ad.no_grad()
    def joint_greedy_decode(
        self,
        question_tokens: Sequence[int],
        contexts: Sequence[Sequence[int]],
        probs: Sequence[float],
        max_len: int | None = None,
    ) -> list[int]:
        memory, bias = self._fusion_memory(question_tokens, contexts, probs)
        return self._greedy(self._cross_kv(memory), bias, max_len)[0]

    def decode_groups(
        self, groups: MemoryGroups, max_len: int | None = None
    ) -> list[list[int]]:
        """Greedy answer per context over `memory_groups` output, in context
        order; one decoder call per step and group."""
        out: list = [None] * sum(len(rows) for rows, _ in groups)
        for rows, cross in groups:
            for r, tokens in zip(rows, self._greedy(cross, None, max_len)):
                out[r] = tokens
        return out

    def _greedy(
        self, cross: CrossKV, bias: ad.Tensor | None, max_len: int | None
    ) -> list[list[int]]:
        """Argmax decoding of every row of `cross` until [EOS] or the length
        cap; a row that emits [EOS] leaves the batch, and the terminal [EOS]
        is not included in its sequence. Ties pick the lowest id."""
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
        return generated

    # Persistence -----------------------------------------------------------

    def save(self, path) -> None:
        save_model(path, "reader", self.config, self.parameters())

    @classmethod
    def load(cls, path) -> "Reader":
        return load_model(path, "reader", ReaderConfig, cls)


def _take_rows(cross: CrossKV, rows: np.ndarray) -> CrossKV:
    """The cross K/V of the given memory rows, in that order (no graph)."""
    return [(ad.Tensor(k.data[rows]), ad.Tensor(v.data[rows])) for k, v in cross]
