"""Tokenization, vocabulary, sentence segmentation, and answer normalization.

One normalization function serves both distant-supervision mining and the
evaluation metrics, so "contains the answer" means the same thing everywhere.
"""

from __future__ import annotations

import re
import string
from typing import Iterable, Sequence

from .errors import FormatError
from .files import write_atomic

# Reserved token ids; corpus text can never collide with the bracketed names
# because the tokenizer splits brackets off as punctuation.
PAD_ID, CLS_ID, SEP_ID, MASK_ID, UNK_ID, BOS_ID, EOS_ID = range(7)
RESERVED_TOKENS = ("[PAD]", "[CLS]", "[SEP]", "[MASK]", "[UNK]", "[BOS]", "[EOS]")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")


def word_split(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token-to-id map with a fixed reserved block at the front.

    Non-reserved ids follow file/line order; building from a corpus sorts
    tokens lexicographically so the mapping is reproducible.
    """

    def __init__(self, tokens: Sequence[str]):
        self._tokens = list(RESERVED_TOKENS) + list(tokens)
        self._ids: dict[str, int] = {}
        for i, tok in enumerate(self._tokens):
            if tok in self._ids:
                raise FormatError(f"duplicate vocabulary token {tok!r}")
            self._ids[tok] = i

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocabulary":
        seen: set[str] = set()
        for text in texts:
            seen.update(word_split(text))
        return cls(sorted(seen))

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        if not (0 <= token_id < len(self._tokens)):
            raise IndexError(f"token id {token_id} out of range")
        return self._tokens[token_id]

    def encode(self, text: str) -> list[int]:
        return [self._ids.get(w, UNK_ID) for w in word_split(text)]

    def decode(self, ids: Sequence[int]) -> str:
        return " ".join(self.token(int(i)) for i in ids)

    def save(self, path) -> None:
        write_atomic(path, "".join(tok + "\n" for tok in self._tokens[len(RESERVED_TOKENS):]))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        if any(not tok for tok in tokens):
            raise FormatError(f"{path}: empty vocabulary line")
        return cls(tokens)


def segment_sentences(paragraph: str) -> list[str]:
    """Rule-based split on '.', '!', '?' followed by whitespace or end.

    Abbreviations are not special-cased. Segments are stripped; token-level
    concatenation of the segments equals the tokens of the paragraph.
    """
    out: list[str] = []
    start = 0
    for m in _SENTENCE_END_RE.finditer(paragraph):
        seg = paragraph[start:m.end()].strip()
        if seg:
            out.append(seg)
        start = m.end()
    tail = paragraph[start:].strip()
    if tail:
        out.append(tail)
    return out


def normalize_answer(s: str) -> str:
    """Lowercase, drop punctuation, drop articles, collapse whitespace."""
    s = s.lower().translate(_PUNCT_TABLE)
    s = _ARTICLE_RE.sub(" ", s)
    return " ".join(s.split())


def contains_answer(text: str, answers: Iterable[str]) -> bool:
    """True when some normalized answer appears in the normalized text on
    word boundaries (substring matches inside longer words do not count)."""
    words = normalize_answer(text).split()
    for answer in answers:
        target = normalize_answer(answer).split()
        if not target:
            continue
        n = len(target)
        for i in range(len(words) - n + 1):
            if words[i:i + n] == target:
                return True
    return False
