"""Synthetic benchmark generator.

Each document describes one person through five attribute sentences; each
question asks for one attribute and its answer appears verbatim in the text.
Names are first+last compositions so corpora up to a few thousand documents
stay unique, and every artifact is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .text import word_split

FIRST_NAMES = (
    "alba", "boris", "carmen", "daniel", "elena", "felix", "greta", "hugo",
    "irene", "jonas", "karla", "leon", "marta", "nils", "olga", "pavel",
    "quinn", "rosa", "stefan", "tali", "ursula", "viktor", "wanda", "xavier",
    "yana", "zoltan", "amara", "bruno", "clara", "dmitri", "esther", "farid",
    "gloria", "henrik", "ilya", "jana", "kaspar", "lidia", "mateo", "nadia",
    "oskar", "petra", "ruben", "sonia", "tomas", "vera", "wim", "zora",
)

LAST_NAMES = (
    "abbott", "bergman", "castillo", "dvorak", "eriksen", "fontana", "gruber",
    "holm", "ibanez", "jensen", "kovacs", "lindqvist", "moreau", "novak",
    "oliveira", "petrov", "quist", "romano", "sandoval", "tanaka", "ulrich",
    "vasquez", "weber", "xu", "yamamoto", "zeller", "arnesen", "bianchi",
    "cormier", "duarte", "engel", "ferreira", "galvan", "hartmann", "ivanov",
    "jansen", "keller", "lorenz", "meyer", "nilsson", "orlov", "pires",
    "richter", "sorensen", "tamm", "urbina", "visser", "wolf",
)

CITIES = (
    "avened", "brockfield", "calder", "dunmore", "eastvale", "fernhill",
    "garroway", "highmoor", "ironbridge", "jasperton", "kingsmere",
    "larkspur", "millbrook", "northgate", "oakhaven", "pinecrest",
)

JOBS = (
    "baker", "carpenter", "doctor", "engineer", "florist", "gardener",
    "jeweler", "librarian", "mechanic", "nurse", "painter", "plumber",
    "printer", "tailor", "teacher", "welder",
)

PETS = (
    "canary", "ferret", "gecko", "hamster", "parrot", "rabbit",
    "tortoise", "turtle",
)

COLORS = (
    "amber", "crimson", "indigo", "magenta", "olive", "scarlet",
    "teal", "violet",
)

FOODS = (
    "barley soup", "corn bread", "fried rice", "lentil stew", "oat porridge",
    "plum jam", "potato cakes", "pumpkin pie", "rye toast", "bean chili",
    "apple strudel", "millet mash",
)

ATTRIBUTES = ("city", "job", "pet", "color", "food")


@dataclass(frozen=True)
class ToySpec:
    n_docs: int = 256
    n_train: int = 128
    n_dev: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.n_docs < 1:
            raise ConfigError(f"n_docs must be >= 1, got {self.n_docs}")
        if self.n_docs > len(FIRST_NAMES) * len(LAST_NAMES):
            raise ConfigError(
                f"n_docs must be <= {len(FIRST_NAMES) * len(LAST_NAMES)} "
                f"(unique names), got {self.n_docs}"
            )
        if self.n_train < 0 or self.n_dev < 0:
            raise ConfigError("n_train and n_dev must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        limit = self.n_docs * len(ATTRIBUTES)
        if self.n_train + self.n_dev > limit:
            raise ConfigError(
                f"n_train + n_dev must be <= {limit} distinct questions, "
                f"got {self.n_train + self.n_dev}"
            )


@dataclass(frozen=True)
class ToyData:
    corpus: tuple[dict, ...]
    train: tuple[dict, ...]
    dev: tuple[dict, ...]
    spans: tuple[dict, ...]


def _sentences(name: str, values: dict[str, str]) -> list[tuple[str, str]]:
    """(sentence text, attribute answered by it) pairs, in document order."""
    return [
        (f"{name} lives in {values['city']}.", "city"),
        (f"{name} works as a {values['job']}.", "job"),
        (f"{name} keeps a pet {values['pet']}.", "pet"),
        (f"{name} likes the color {values['color']}.", "color"),
        (f"{name} eats {values['food']} for breakfast.", "food"),
    ]


def _questions(name: str) -> dict[str, str]:
    return {
        "city": f"where does {name} live ?",
        "job": f"what does {name} work as ?",
        "pet": f"what pet does {name} keep ?",
        "color": f"what color does {name} like ?",
        "food": f"what does {name} eat for breakfast ?",
    }


def _value_span(doc_offset: int, sentence: str, value: str) -> tuple[int, int]:
    """Inclusive token offsets of the attribute value within the document."""
    sent_tokens = word_split(sentence)
    value_tokens = word_split(value)
    n = len(value_tokens)
    for i in range(len(sent_tokens) - n + 1):
        if sent_tokens[i:i + n] == value_tokens:
            return doc_offset + i, doc_offset + i + n - 1
    raise AssertionError(f"value {value!r} not found in {sentence!r}")


def generate_toy(spec: ToySpec) -> ToyData:
    rng = np.random.default_rng(spec.seed)

    pairs = [(f, l) for f in FIRST_NAMES for l in LAST_NAMES]
    name_order = rng.permutation(len(pairs))
    corpus: list[dict] = []
    spans: list[dict] = []
    doc_values: list[dict[str, str]] = []
    for doc_id in range(spec.n_docs):
        first, last = pairs[int(name_order[doc_id])]
        name = f"{first} {last}"
        values = {
            "city": CITIES[int(rng.integers(len(CITIES)))],
            "job": JOBS[int(rng.integers(len(JOBS)))],
            "pet": PETS[int(rng.integers(len(PETS)))],
            "color": COLORS[int(rng.integers(len(COLORS)))],
            "food": FOODS[int(rng.integers(len(FOODS)))],
        }
        doc_values.append(values)
        sentence_list = _sentences(name, values)
        text = " ".join(s for s, _ in sentence_list)
        corpus.append({"id": doc_id, "title": name, "text": text})

        offset = 0
        doc_spans = []
        for sentence, attribute in sentence_list:
            start, end = _value_span(offset, sentence, values[attribute])
            doc_spans.append([start, end, values[attribute]])
            offset += len(word_split(sentence))
        spans.append({"doc_id": doc_id, "spans": doc_spans})

    all_questions = []
    for doc_id in range(spec.n_docs):
        first, last = pairs[int(name_order[doc_id])]
        templates = _questions(f"{first} {last}")
        for attribute in ATTRIBUTES:
            all_questions.append({
                "question": templates[attribute],
                "answers": [doc_values[doc_id][attribute]],
                "positive_ctx": doc_id,
            })
    pick = rng.permutation(len(all_questions))
    train = [all_questions[int(i)] for i in pick[: spec.n_train]]
    dev = [all_questions[int(i)] for i in pick[spec.n_train: spec.n_train + spec.n_dev]]

    return ToyData(
        corpus=tuple(corpus),
        train=tuple(train),
        dev=tuple(dev),
        spans=tuple(spans),
    )
